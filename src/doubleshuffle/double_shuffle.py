"""Linearized double shuffle equations: constraint assembly and solving.

For a fixed weight N and depth r the unknowns are the coefficients of a
homogeneous polynomial f in x_1..x_r of degree N-r.  The constraints come
in two families per split k in 1..r-1:

  * argument-shuffle sums of f itself (the linearized second product), and
  * the same sums applied to the partial-sum transform
    f(x_{i_1}, x_{i_1}+x_{i_2}, ...) (the linearized first product),

where the argument labels run over the shuffles of (1..k) and (k+1..r).
The shuffle product commutes, so split r-k gives the rows of split k with
the variables rotated: the same set of rows.  Only the splits k <= r/2 are
assembled, and each distinct row is kept once.  In depth 1 there are no
splits; even weights (and the degenerate weight 1) are forced to zero.  The
solution space is extracted as a deterministic reduced-echelon nullspace.

A word-level route (shuffle constraints on binary words plus index-word
shuffle constraints) is kept fully independent of the polynomial route and
serves as the cross-representation oracle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb
from operator import itemgetter

import numpy as np

# full_rank_certificate is unused here but perfbench/spans.py wraps this name
from .exact_algebra import (Poly, _binomial_shift, _shifted,
                            full_rank_certificate, nullspace_int, span_rref)
from .ihara import DepthPoly, bracket, depth1_generator
from .words import (_shuffle_words, compositions, index_word_to_binary,
                    word_exponents)


@dataclass
class SolutionSpace:
    """Deterministic basis of the weight-N depth-r solution space."""

    weight: int
    depth: int
    basis: list[DepthPoly]

    @property
    def dimension(self) -> int:
        return len(self.basis)


def monomial_basis(N: int, r: int) -> list[tuple[int, ...]]:
    """Exponent tuples of the degree-(N-r) monomials in r variables, in
    graded-lex order (all share one degree, so it is lexicographic)."""
    if r < 1:
        return []
    return [tuple(c - 1 for c in comp) for comp in compositions(N, r)]


def _label_shuffles(k: int, r: int) -> list[tuple[int, ...]]:
    """Shuffles of the label sequences (1..k) and (k+1..r)."""
    left = tuple(range(1, k + 1))
    right = tuple(range(k + 1, r + 1))
    return [word for word, _ in _shuffle_words(left, right)]


def partial_sum_transform(f: Poly) -> Poly:
    """f(x_1, x_1 + x_2, ..., x_1 + ... + x_r): the change of variables
    carrying the second family of constraints, as the shifts
    x_i -> x_i + x_{i-1} from the last variable down."""
    return _shifted(f, [(i, i - 1, 1) for i in range(f.arity - 1, 0, -1)])


def _partial_sum_matrix(monomials: list[tuple[int, ...]],
                        dtype) -> np.ndarray:
    """The matrix of ``partial_sum_transform`` on the monomial basis, column
    j the image of monomial j, shifted on all columns at once as keys
    ncols * code + column, code in radix b = degree + 1.  The basis is in
    lex order, so an image finds its row by binary search."""
    ncols, r = len(monomials), len(monomials[0])
    b = sum(monomials[0]) + 1
    radix = b ** np.arange(r - 1, -1, -1, dtype=np.int64)
    codes = np.array(monomials, dtype=np.int64) @ radix
    keys, coeffs = _binomial_shift(
        codes * ncols + np.arange(ncols), np.ones(ncols, dtype=dtype),
        ncols * radix, b, [(i, i - 1, 1) for i in range(r - 1, 0, -1)])
    psum = np.zeros((ncols, ncols), dtype=dtype)
    psum[np.searchsorted(codes, keys // ncols), keys % ncols] = coeffs
    return psum


# Rows of a family summed at once: bounds the gathered copies of psum.
_BLOCK = 512


def assemble_constraints(N: int, r: int) -> tuple[np.ndarray,
                                                 list[tuple[int, ...]]]:
    """Distinct nonzero integer constraint rows on the monomial coefficient
    vector, as one array, and the monomials indexing its columns."""
    if r < 1 or N < r:
        raise ValueError(f"invalid weight/depth ({N}, {r})")
    monomials = monomial_basis(N, r)
    ncols = len(monomials)
    if r == 1:
        # the single unknown is forced to zero at even weight and weight 1
        return np.ones((int(N % 2 == 0 or N == 1), 1), dtype=np.int64), monomials
    # the keys that _partial_sum_matrix packs must fit in int64
    if ncols * (N - r + 1) ** r >= 2 ** 63:
        raise ValueError(f"({N}, {r}) is too large to assemble")

    index = {m: j for j, m in enumerate(monomials)}
    # an expansion coefficient is at most r^(N-r) (set every x_j = 1), and a
    # row entry sums at most comb(r, r // 2) of them
    dtype = np.int64 if r ** (N - r) * comb(r, r // 2) < 2 ** 63 else object
    psum = _partial_sum_matrix(monomials, dtype)
    # every family is written into one array and its kept rows moved forward
    out = np.empty(((1 + (N > r)) * (r // 2) * ncols, ncols), dtype=dtype)
    filled = 0
    for k in range(1, r // 2 + 1):
        # row t of a family sums, over the shuffles seq, the base row of the
        # monomial that seq relabels to t (position j goes to seq[j] - 1)
        sources = np.array([list(map(index.__getitem__,
                                     map(itemgetter(*(s - 1 for s in seq)),
                                         monomials)))
                            for seq in _label_shuffles(k, r)])
        # at k = r/2 the two label blocks have equal length, so the rows of t
        # and of t rotated by k coincide: keep the one of lower index
        first = (np.arange(ncols) <= [index[m[k:] + m[:k]] for m in monomials]
                 if 2 * k == r else True)
        # the identity's family, then psum's; at degree 0 psum is the
        # identity, and its family gives every row
        for identity in (True, False) if N > r else (False,):
            # the slice may hold rows of an earlier family: clear it first
            family = out[filled:filled + ncols]
            family[:] = 0
            if identity:
                # row t of the identity's family is 1 at each source[t]
                np.add.at(family, (np.arange(ncols), sources), 1)
            else:
                # _BLOCK rows at a time, so no gathered copy of psum is whole
                for lo in range(0, ncols, _BLOCK):
                    for source in sources[:, lo:lo + _BLOCK]:
                        family[lo:lo + _BLOCK] += psum[source]
            keep = family.any(axis=1) & first
            kept = int(np.count_nonzero(keep))
            if kept < ncols:
                out[filled:filled + kept] = family[keep]
            filled += kept
    return out[:filled], monomials


def _space(N: int, r: int, monomials: list[tuple[int, ...]],
           vectors: list[list]) -> SolutionSpace:
    """The space with one basis element per coefficient vector on
    ``monomials``."""
    return SolutionSpace(N, r, [
        DepthPoly(r, N, Poly(r, dict(zip(monomials, vec)))) for vec in vectors])


def solve(N: int, r: int) -> SolutionSpace:
    """Deterministic reduced-echelon basis of the solution space."""
    rows, monomials = assemble_constraints(N, r)
    return _space(N, r, monomials, nullspace_int(rows, len(monomials)))


def dimension(N: int, r: int) -> int:
    """dim of the solution space (zero is certified by the mod-p rank inside
    ``nullspace_int``)."""
    rows, monomials = assemble_constraints(N, r)
    return len(nullspace_int(rows, len(monomials)))


def membership_test(f: DepthPoly) -> bool:
    """True iff f satisfies every linearized double shuffle constraint at
    its own weight and depth."""
    r = f.depth
    body = f.body
    if r == 0:
        return body.is_zero()
    if body.is_zero():
        return True
    if r == 1:
        return f.weight % 2 == 1 and f.weight >= 3
    sharp = partial_sum_transform(body)
    for k in range(1, r // 2 + 1):
        arg_sum = Poly.zero(r)
        sharp_sum = Poly.zero(r)
        for seq in _label_shuffles(k, r):
            perm = [seq[i] - 1 for i in range(r)]
            arg_sum = arg_sum + body.permute_variables(perm)
            sharp_sum = sharp_sum + sharp.permute_variables(perm)
        if not arg_sum.is_zero() or not sharp_sum.is_zero():
            return False
    return True


def ls_cells(max_weight: int, max_depth: int) -> list[tuple[int, int]]:
    """Every (N, r) with r <= max_depth and r <= N <= max_weight, depth-major."""
    return [(N, r) for r in range(1, max_depth + 1)
            for N in range(r, max_weight + 1)]


def dims_table(max_weight: int, max_depth: int) -> dict[tuple[int, int], int]:
    """dim of every cell of ls_cells(max_weight, max_depth)."""
    return {cell: dimension(*cell) for cell in ls_cells(max_weight, max_depth)}


# ---------------------------------------------------------------------
# Span of iterated brackets of depth-1 generators
# ---------------------------------------------------------------------

def iterated_bracket_span(N: int, r: int) -> SolutionSpace:
    """Normalized span of all r-fold brackets of depth-1 generators with
    total weight N.

    Left-normed brackets suffice: by the Jacobi identity they span the same
    subspace as arbitrary bracketings.
    """
    monomials = monomial_basis(N, r)
    vectors: list[list[int]] = []
    # ordered tuples of r odd parts >= 3 summing to N: parts 2a+1 with a >= 1
    odd_parts = ([tuple(2 * a + 1 for a in comp)
                  for comp in compositions((N - r) // 2, r)]
                 if (N - r) % 2 == 0 else [])
    for parts in odd_parts:
        acc = depth1_generator(parts[-1])
        for w in reversed(parts[:-1]):
            acc = bracket(depth1_generator(w), acc)
        if acc.is_zero():
            continue
        vectors.append([acc.body.coefficient(m) for m in monomials])
    return _space(N, r, monomials, span_rref(vectors, len(monomials)))


# ---------------------------------------------------------------------
# Independent word-level route (cross-representation oracle)
# ---------------------------------------------------------------------

def _binary_words(N: int, r: int) -> list[tuple[int, ...]]:
    words = []
    for ones in itertools.combinations(range(N), r):
        word = [0] * N
        for i in ones:
            word[i] = 1
        words.append(tuple(word))
    words.sort()
    return words


def solve_words(N: int, r: int) -> list[Poly]:
    """Solve the word-level constraints and return reduced polynomials.

    Completely independent of the polynomial constraint assembly: the
    unknowns are coefficients on all weight-N binary words with r ones, the
    shuffle constraints range over all splittings into two nonempty words,
    and the second family shuffles index words.  The output is the list of
    reduced polynomials of the nullspace basis.
    """
    words = _binary_words(N, r)
    ncols = len(words)
    col_of = {w: j for j, w in enumerate(words)}
    row_set: set[tuple[int, ...]] = set()

    if r == 1 and (N % 2 == 0 or N == 1):
        for j in range(ncols):
            row = [0] * ncols
            row[j] = 1
            row_set.add(tuple(row))

    for i in range(1, N):
        for d in range(0, r + 1):
            for u in _binary_words(i, d):
                for v in _binary_words(N - i, r - d):
                    if (i, d, u) > (N - i, r - d, v):
                        continue  # shuffle is symmetric
                    row = [0] * ncols
                    for word, mult in _shuffle_words(u, v):
                        row[col_of[word]] += mult
                    if any(row):
                        row_set.add(tuple(row))

    for l in range(1, r):
        for i in range(l, N - (r - l) + 1):
            for p in compositions(i, l):
                for q in compositions(N - i, r - l):
                    if (l, i, p) > (r - l, N - i, q):
                        continue
                    row = [0] * ncols
                    for word, mult in _shuffle_words(p, q):
                        row[col_of[index_word_to_binary(word)]] += mult
                    if any(row):
                        row_set.add(tuple(row))

    # a word e1 e0^a_1 ... e1 e0^a_r reduces to x^(a_1..a_r), and a word
    # starting with e0 to zero
    reduced = [word_exponents(w)[1:] if w[:1] == (1,) else None for w in words]
    return [Poly(r, {m: c for m, c in zip(reduced, vec) if c and m is not None})
            for vec in nullspace_int(sorted(row_set), ncols)]
