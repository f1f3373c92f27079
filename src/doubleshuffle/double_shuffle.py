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
from fractions import Fraction
from math import comb
from operator import itemgetter

import numpy as np

# full_rank_certificate is unused here but perfbench/spans.py wraps this name
from .exact_algebra import (Poly, full_rank_certificate, nullspace_int,
                            span_rref)
from .ihara import DepthPoly, bracket, depth1_generator
from .words import (BINARY, WordSum, _shuffle_words, compositions,
                    index_word_to_binary, reduced_rep)


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
    for i in range(f.arity - 1, 0, -1):
        f = f.shift(i, i - 1)
    return f


def assemble_constraints(N: int, r: int) -> tuple[list[tuple[int, ...]],
                                                 list[tuple[int, ...]]]:
    """Distinct integer constraint rows on the monomial coefficient vector,
    and the monomials indexing its columns."""
    if r < 1 or N < r:
        raise ValueError(f"invalid weight/depth ({N}, {r})")
    monomials = monomial_basis(N, r)
    ncols = len(monomials)
    if r == 1:
        # the single unknown is forced to zero at even weight and weight 1
        return [(1,)] if N % 2 == 0 or N == 1 else [], monomials

    index = {m: j for j, m in enumerate(monomials)}
    # an expansion coefficient is at most r^(N-r) (set every x_j = 1), and a
    # row entry sums at most comb(r, r // 2) of them
    dtype = np.int64 if r ** (N - r) * comb(r, r // 2) < 2 ** 63 else object
    # column j: the monomial j itself, and its partial-sum transform
    psum = np.zeros((ncols, ncols), dtype=dtype)
    for j, m in enumerate(monomials):
        for exps, c in partial_sum_transform(Poly.monomial(m)).terms.items():
            psum[index[exps], j] = c
    bases = (np.eye(ncols, dtype=dtype), psum)
    rows: dict[tuple[int, ...], None] = {}
    for k in range(1, r // 2 + 1):
        # row t of a family sums, over the shuffles seq, the base row of the
        # monomial that seq relabels to t (position j goes to seq[j] - 1)
        sources = [list(map(index.__getitem__,
                            map(itemgetter(*(s - 1 for s in seq)), monomials)))
                   for seq in _label_shuffles(k, r)]
        for base in bases:
            family = sum(base[source] for source in sources)
            family = family[family.any(axis=1)].tolist()
            rows.update(dict.fromkeys(map(tuple, family)))
    return list(rows), monomials


def solve(N: int, r: int) -> SolutionSpace:
    """Deterministic reduced-echelon basis of the solution space."""
    rows, monomials = assemble_constraints(N, r)
    vectors = nullspace_int(rows, len(monomials))
    basis = []
    for vec in vectors:
        body = Poly(r, {m: c for m, c in zip(monomials, vec) if c})
        basis.append(DepthPoly(r, N, body))
    return SolutionSpace(N, r, basis)


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


def dims_table(max_weight: int, max_depth: int) -> dict[tuple[int, int], int]:
    """dim of every cell with r <= max_depth and r <= N <= max_weight."""
    out: dict[tuple[int, int], int] = {}
    for r in range(1, max_depth + 1):
        for N in range(r, max_weight + 1):
            out[(N, r)] = dimension(N, r)
    return out


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
    col_of = {m: j for j, m in enumerate(monomials)}
    vectors: list[list[Fraction]] = []
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
        vec = [Fraction(0)] * len(monomials)
        for exps, coeff in acc.body.terms.items():
            vec[col_of[exps]] = coeff
        vectors.append(vec)
    basis_vectors = span_rref(vectors, len(monomials))
    basis = []
    for vec in basis_vectors:
        body = Poly(r, {m: c for m, c in zip(monomials, vec) if c})
        basis.append(DepthPoly(r, N, body))
    return SolutionSpace(N, r, basis)


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

    rows = [list(row) for row in sorted(row_set)]
    vectors = nullspace_int(rows, ncols)
    out = []
    for vec in vectors:
        ws = WordSum(BINARY, {w: c for w, c in zip(words, vec) if c})
        reduced = Poly.zero(r)
        for word, coeff in ws.terms.items():
            if word and word[0] == 1:
                reduced = reduced + reduced_rep(word).scale(coeff)
        out.append(reduced)
    return out
