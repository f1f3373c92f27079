"""Linearized double shuffle equations, solved in free-Lie coordinates.

For a fixed weight N and depth r the unknowns are the coefficients of a
homogeneous polynomial f in x_1..x_r of degree N-r.  The constraints come
in two families per split k in 1..r-1:

  * argument-shuffle sums of f itself (the linearized second product), and
  * the same sums applied to the partial-sum transform
    f(x_{i_1}, x_{i_1}+x_{i_2}, ...) (the linearized first product),

where the argument labels run over the shuffles of (1..k) and (k+1..r).
Read x^a as the word y_{a_1}...y_{a_r}: the first family makes f orthogonal
to every shuffle, so f = B a is a Lie polynomial on the standard bracketings
B of the Lyndon words (Ree).  Only the second family is assembled, on a, for
k <= r/2 (split r-k gives the rows of split k with the variables rotated).
``membership_test`` reads the same argument-shuffle sums, both families at
once, on the coefficients of f and of its partial-sum transform.  In depth 1
even weights and weight 1 are forced to zero.  The deterministic basis is in
reduced echelon form on the monomials.

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
from .exact_algebra import (Poly, _binomial_shift, _nullspace, _shifted,
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


def _bracketing(w: tuple[int, ...]) -> list[tuple[tuple[int, ...], int]]:
    """The signed monomials, equal ones not yet summed, of the standard
    bracketing [P(u), P(v)] of a Lyndon word w in the reversed letter order,
    v its least proper suffix in that order.  Summed, w is the greatest
    one, with coefficient 1 (Reutenauer, Free Lie Algebras, Thm 5.1)."""
    if len(w) == 1:
        return [(w, 1)]
    i = min(range(1, len(w)), key=lambda i: [-a for a in w[i:]])
    return [term for u, p in _bracketing(w[:i]) for v, q in _bracketing(w[i:])
            for term in ((u + v, p * q), (v + u, -p * q))]


def _psum_columns(monomials: list[tuple[int, ...]], lie: np.ndarray, L: int,
                  dtype) -> np.ndarray:
    """psum B: column l the ``partial_sum_transform`` of bracketing l, all
    shifted at once as keys L * code + column, code in radix b = degree + 1.
    The basis is in lex order, so an image finds its row by binary search."""
    at, col, coeff = lie
    ncols, r = len(monomials), len(monomials[0])
    b = sum(monomials[0]) + 1
    radix = b ** np.arange(r - 1, -1, -1, dtype=np.int64)
    codes = np.array(monomials, dtype=np.int64) @ radix
    keys, coeffs = _binomial_shift(
        codes[at] * L + col, coeff.astype(dtype), L * radix, b,
        [(i, i - 1, 1) for i in range(r - 1, 0, -1)])
    psum = np.zeros((ncols, L), dtype=dtype)
    psum[np.searchsorted(codes, keys // L), keys % L] = coeffs
    return psum


def _shuffle_sums(mat: np.ndarray, index: dict) -> np.ndarray:
    """The argument-shuffle sums of the rows of ``mat``, one row per monomial
    of ``index`` (monomial -> row, in row order), ncols rows per split
    k <= r/2: row t of split k sums, over the shuffles seq, the row of the
    monomial that seq relabels to t (position j goes to seq[j] - 1)."""
    r = len(next(iter(index)))
    return np.concatenate([
        sum(mat[[index[m] for m in map(itemgetter(*(s - 1 for s in seq)),
                                       index)]]
            for seq in _label_shuffles(k, r)) for k in range(1, r // 2 + 1)])


def _lie_system(N: int, r: int) -> tuple:
    """The second family's integer rows on the Lie coordinates a of f = B a,
    ncols rows per split k <= r/2 in one array; B's entries; the monomials."""
    if r < 1 or N < r:
        raise ValueError(f"invalid weight/depth ({N}, {r})")
    monomials = monomial_basis(N, r)
    # Lyndon in the reversed letter order: above each proper rotation
    lyndon = [m for m in monomials
              if all(m > m[i:] + m[:i] for i in range(1, r))]
    L = len(lyndon)
    # the keys that _psum_columns packs must fit in int64
    if L * (N - r + 1) ** r >= 2 ** 63:
        raise ValueError(f"({N}, {r}) is too large to assemble")
    index = {m: j for j, m in enumerate(monomials)}
    # the entries (row, column, coefficient) of B: column l brackets lyndon[l]
    lie = np.array([(index[m], l, c) for l, w in enumerate(lyndon)
                    for m, c in _bracketing(w)], dtype=np.int64).reshape(-1, 3).T
    if r == 1 or not L:
        # depth 1: the unknown is forced to zero at even weight and weight 1;
        # degree 0 in depth >= 2: no Lyndon word, so no unknown
        return (np.ones((int(r == 1 and (N % 2 == 0 or N == 1)), L),
                        dtype=np.int64), lie, monomials)
    # |coefficients| of a bracketing sum to at most 2^(r-1), of an expansion
    # to r^(N-r) (every x_j = 1), and a row entry sums comb(r, k) entries
    dtype = (np.int64 if 2 ** (r - 1) * r ** (N - r) * comb(r, r // 2) < 2 ** 63
             else object)
    psum = _psum_columns(monomials, lie, L, dtype)
    return _shuffle_sums(psum, index), lie, monomials


def _space(N: int, r: int, monomials: list[tuple[int, ...]],
           vectors: list[list]) -> SolutionSpace:
    """The space with one basis element per coefficient vector on
    ``monomials``."""
    return SolutionSpace(N, r, [
        DepthPoly(r, N, Poly(r, dict(zip(monomials, vec)))) for vec in vectors])


def solve(N: int, r: int) -> SolutionSpace:
    """Deterministic reduced-echelon basis of the solution space, read from
    the last monomial: one vector per lead monomial, 1 there, 0 at the other
    leads, and 0 after it."""
    rows, (at, col, coeff), monomials = _lie_system(N, r)
    pivots, free, columns = _nullspace(rows, rows.shape[1])
    # f = B a, a = d at free column c and n at the pivots
    vectors = np.zeros((len(free), len(monomials)), dtype=object)
    for f, c, (d, nums) in zip(vectors, free, columns):
        a = np.zeros(rows.shape[1], dtype=object)
        a[pivots], a[c] = nums, d
        np.add.at(f, at, a[col] * coeff)
    # the echelon form of the reversed vectors, reversed back: its leads,
    # read from the last monomial, come largest first
    return _space(N, r, monomials, [row[::-1] for row in reversed(
        span_rref(vectors[:, ::-1], len(monomials)))])


def dimension(N: int, r: int) -> int:
    """dim of the solution space: the second family's nullity on the Lie
    coordinates (B is injective; im B is the first family's kernel by Ree's
    theorem), certified by ``nullspace_int``'s exact check and mod-p bound."""
    rows = _lie_system(N, r)[0]
    return len(nullspace_int(rows, rows.shape[1]))


def membership_test(f: DepthPoly) -> bool:
    """True iff f satisfies every linearized double shuffle constraint at
    its own weight and depth: in depth >= 2, the argument-shuffle sums that
    ``_lie_system`` assembles, read on f and on its partial-sum transform."""
    r, body = f.depth, f.body
    if r <= 1 or body.is_zero():
        return body.is_zero() or (r == 1 and f.weight % 2 == 1 and f.weight >= 3)
    index = {m: j for j, m in enumerate(monomial_basis(f.weight, r))}
    sharp = partial_sum_transform(body)
    coeffs = np.array([(body.coefficient(m), sharp.coefficient(m))
                       for m in index], dtype=object)
    return not _shuffle_sums(coeffs, index).any()


def ls_cells(max_weight: int, max_depth: int) -> list[tuple[int, int]]:
    """Every (N, r) with r <= max_depth and r <= N <= max_weight, depth-major."""
    return [(N, r) for r in range(1, max_depth + 1)
            for N in range(r, max_weight + 1)]


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
