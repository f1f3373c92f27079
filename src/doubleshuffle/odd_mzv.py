"""Totally odd sector: composition-indexed integer matrices and their ranks.

A composition (m_1..m_r) of N encodes the iterated right-parenthesized
action x_1^{2 m_1} . (x_2^{2 m_2} . ( ... x_r^{2 m_r})); the coefficient of
x_1^{2 n_1}..x_r^{2 n_r} in the result is an integer built from binomial
coefficients.  Collecting all pairs of compositions of N into r parts gives
a square matrix whose exact rank counts the independent totally odd
depth-graded elements at weight 2N + r.  Ranks are computed fraction-free
(Bareiss); the tests check them against the single-prime modular rank.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exact_algebra import rank_bareiss
from .ihara import DepthPoly, depth1_action, depth1_generator
from .series import DimTable
from .words import compositions  # the fixed matrix indexing (lex order)


def nested_action(m: tuple[int, ...]) -> DepthPoly:
    """x_1^{2 m_1} . (x_2^{2 m_2} . ( ... x_r^{2 m_r})), right-parenthesized."""
    acc = depth1_generator(2 * m[-1] + 1)
    for mi in reversed(m[:-1]):
        acc = depth1_action(mi, acc)
    return acc


def c_coefficient(m: tuple[int, ...], n: tuple[int, ...]) -> int:
    """Coefficient of x_1^{2 n_1}..x_r^{2 n_r} in the nested action of m."""
    if len(m) != len(n) or sum(m) != sum(n):
        raise ValueError("compositions must share length and sum")
    coeff = nested_action(m).body.coefficient(tuple(2 * x for x in n))
    assert coeff.denominator == 1
    return int(coeff)


@dataclass
class OddMatrix:
    N: int
    r: int
    entries: list[list[int]]

    @property
    def size(self) -> int:
        return len(self.entries)

    @property
    def mzv_weight(self) -> int:
        return 2 * self.N + self.r


def odd_matrix(N: int, r: int) -> OddMatrix:
    """Square matrix of action coefficients over compositions of N into r
    parts; entry (i, j) pairs operator composition i with monomial j."""
    if r < 1 or N < r:
        raise ValueError(f"invalid (N, r) = ({N}, {r})")
    comps = compositions(N, r)
    entries = []
    for m in comps:
        body = nested_action(m).body
        row = []
        for n in comps:
            coeff = body.coefficient(tuple(2 * x for x in n))
            assert coeff.denominator == 1
            row.append(int(coeff))
        entries.append(row)
    return OddMatrix(N, r, entries)


def odd_rank(N: int, r: int) -> int:
    """Exact rank of the composition matrix."""
    return rank_bareiss(odd_matrix(N, r).entries)


MAX_TABLE_WEIGHT = 31


def odd_rank_table(max_weight: int) -> DimTable:
    """Exact ranks for every cell with MZV weight 2N + r <= max_weight,
    keyed by (2N + r, r)."""
    if max_weight > MAX_TABLE_WEIGHT:
        raise ValueError(f"max_weight bounded by {MAX_TABLE_WEIGHT}")
    table: DimTable = {}
    for r in range(1, max_weight // 3 + 1):
        N = r
        while 2 * N + r <= max_weight:
            table[(2 * N + r, r)] = odd_rank(N, r)
            N += 1
    return table


def predicted_odd_table(max_weight: int, max_depth: int) -> DimTable:
    """Coefficients of 1/(1 - O t + S t^2) on the same key grid."""
    from .series import bk_series

    series = bk_series("odd", max_s=max_weight, max_t=max_depth)
    out: DimTable = {}
    for w in range(max_weight + 1):
        for d in range(max_depth + 1):
            c = series.coefficient(w, d)
            if c:
                out[(w, d)] = c
    return out
