"""Totally odd sector: composition-indexed integer matrices and their ranks.

A composition (m_1..m_r) of N encodes the iterated right-parenthesized
action x_1^{2 m_1} . (x_2^{2 m_2} . ( ... x_r^{2 m_r})); the coefficient of
x_1^{2 n_1}..x_r^{2 n_r} in the result is an integer built from binomial
coefficients.  Collecting all pairs of compositions of N into r parts gives
a square matrix whose exact rank counts the independent totally odd
depth-graded elements at weight 2N + r.  Entries come from an integer
recursion, without expanding the action; ranks are certified pivot counts.
The CLI maps ``odd_rank`` over ``odd_cells`` for its rank table.
"""

from __future__ import annotations

from math import comb

# rank_bareiss is unused here but perfbench/spans.py wraps this name
from .exact_algebra import _nullspace, rank_bareiss  # noqa: F401
from .ihara import DepthPoly, depth1_action, depth1_generator
from .words import compositions  # the fixed matrix indexing (lex order)


def nested_action(m: tuple[int, ...]) -> DepthPoly:
    """x_1^{2 m_1} . (x_2^{2 m_2} . ( ... x_r^{2 m_r})), right-parenthesized."""
    acc = depth1_generator(2 * m[-1] + 1)
    for mi in reversed(m[:-1]):
        acc = depth1_action(mi, acc)
    return acc


def _coefficient(m: tuple[int, ...], n: tuple[int, ...], memo: dict) -> int:
    """Coefficient of x^{2n} in the nested action of m.  x_1^{2k} (k = m_1)
    acts on g as the sum over i of ((x_i - x_{i-1})^{2k} - (x_i - x_{i+1})^{2k})
    g(x without x_i), x_0 = 0, no x_{r+1}: x_i^{2 n_i} comes from the factor
    alone, with C(2k, 2 n_i), and lowers a neighbour in g by 2k - 2 n_i.
    Only the lower-depth coefficients go into ``memo``: a matrix reads
    each of its own entries once."""
    if len(m) == 1:
        return int(m == n)
    k, rest = m[0], m[1:]
    total = _memoized(rest, n[1:], memo) if n[0] == k else 0
    for i, d in ((i, k - ni) for i, ni in enumerate(n) if ni <= k):
        if 0 < i and n[i - 1] >= d:
            total += comb(2 * k, 2 * n[i]) * _memoized(
                rest, n[:i - 1] + (n[i - 1] - d,) + n[i + 1:], memo)
        if i + 1 < len(n) and n[i + 1] >= d:
            total -= comb(2 * k, 2 * n[i]) * _memoized(
                rest, n[:i] + (n[i + 1] - d,) + n[i + 2:], memo)
    return total


def _memoized(m: tuple[int, ...], n: tuple[int, ...], memo: dict) -> int:
    """_coefficient(m, n), memoized."""
    total = memo.get((m, n))
    if total is None:
        total = memo[m, n] = _coefficient(m, n, memo)
    return total


def c_coefficient(m: tuple[int, ...], n: tuple[int, ...]) -> int:
    """Coefficient of x_1^{2 n_1}..x_r^{2 n_r} in the nested action of m."""
    if len(m) != len(n) or sum(m) != sum(n):
        raise ValueError("compositions must share length and sum")
    return _coefficient(tuple(m), tuple(n), {})


def odd_matrix(N: int, r: int) -> list[list[int]]:
    """Square matrix of action coefficients over compositions of N into r
    parts, as integer rows; entry (i, j) pairs operator composition i with
    monomial j."""
    if r < 1 or N < r:
        raise ValueError(f"invalid (N, r) = ({N}, {r})")
    comps, memo = compositions(N, r), {}  # one memo per matrix, freed with it
    return [[_coefficient(m, n, memo) for n in comps] for m in comps]


def odd_rank(N: int, r: int) -> int:
    """Exact rank of the composition matrix: the certified pivot count."""
    rows = odd_matrix(N, r)
    return len(_nullspace(rows, len(rows))[0])


def odd_cells(max_weight: int, max_depth: int) -> list[tuple[int, int]]:
    """Every (N, r) with r <= max_depth, r <= N and 2N + r <= max_weight,
    depth-major."""
    return [(N, r) for r in range(1, max_depth + 1)
            for N in range(r, (max_weight - r) // 2 + 1)]
