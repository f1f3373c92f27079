"""Tests for the totally odd composition matrices and their ranks."""

from functools import lru_cache

from doubleshuffle.exact_algebra import Poly, rank_bareiss, rank_modular
from doubleshuffle.ihara import depth1_generator, poly_compose
from doubleshuffle.odd_mzv import (c_coefficient, compositions, nested_action,
                                   odd_cells, odd_matrix, odd_rank)
from doubleshuffle.series import bk_series


def rank_table(max_weight, max_depth):
    """The ranks keyed by (2N + r, r), as bk-check odd builds them."""
    return {(2 * N + r, r): odd_rank(N, r)
            for N, r in odd_cells(max_weight, max_depth)}


def test_compositions_lex_order():
    assert compositions(5, 2) == [(1, 4), (2, 3), (3, 2), (4, 1)]
    assert compositions(3, 3) == [(1, 1, 1)]
    assert compositions(2, 3) == []


def test_depth1_coefficient_rule():
    # x1^{2m} alone: coefficient of x1^{2n} is the Kronecker delta
    assert c_coefficient((3,), (3,)) == 1
    body = nested_action((3,)).body
    assert body == Poly.monomial((6,))


def test_hand_expanded_c11():
    # x1^2 . x1^2 = x2^2 (x1^2 - (x1-x2)^2) + x1^2 (x2-x1)^2; the
    # coefficient of x1^2 x2^2 is 1 (expanded by hand)
    assert c_coefficient((1, 1), (1, 1)) == 1


def test_c_row_degree_bookkeeping():
    # row sums are finite and every monomial has the right total degree
    body = nested_action((2, 1)).body
    assert body.is_homogeneous() and body.homogeneous_degree() == 6
    total = sum(abs(c_coefficient((2, 1), n)) for n in compositions(3, 2))
    assert total > 0


def test_c_coefficient_against_generic_composition():
    # independent route: nested generic composition instead of the closed
    # form depth-1 action
    for r in (1, 2, 3):
        for N in range(r, 9):
            for m in compositions(N, r):
                acc = depth1_generator(2 * m[-1] + 1)
                for mi in reversed(m[:-1]):
                    acc = poly_compose(depth1_generator(2 * mi + 1), acc)
                fast = nested_action(m)
                assert acc.body == fast.body


def test_odd_matrix_depth1():
    mat = odd_matrix(4, 1)
    assert mat == [[1]]


def test_odd_matrix_5_2():
    mat = odd_matrix(5, 2)
    assert len(mat) == 4
    assert odd_rank(5, 2) == 3
    assert rank_modular(mat, len(mat)) == 3


def test_rank_bounds():
    for (N, r) in [(4, 2), (5, 2), (6, 3), (7, 3)]:
        mat = odd_matrix(N, r)
        assert odd_rank(N, r) <= len(mat)
    for N in range(1, 8):
        assert odd_rank(N, 1) == 1


def test_rank_table_matches_series():
    table = rank_table(15, 5)
    predicted = bk_series("odd", 15, 5)
    for w in range(16):
        for r in range(1, 6):
            assert table.get((w, r), 0) == predicted.coefficient(w, r), (w, r)


def test_odd_grid():
    assert len(odd_cells(21, 7)) == 37  # the cells of bk-check odd W21/D7
    assert odd_cells(9, 2) == [(1, 1), (2, 1), (3, 1), (4, 1), (2, 2), (3, 2)]
    # the cells are exactly the support of the prediction in depth >= 1
    assert set(rank_table(15, 5)) == {
        (w, r) for w, r, _ in bk_series("odd", 15, 5).dump_rows() if r}


def test_rank_table_parity():
    table = rank_table(15, 5)
    predicted = bk_series("odd", 15, 5)
    for w in range(16):
        for r in range(1, 6):
            if (w - r) % 2:
                assert (w, r) not in table, (w, r)
                assert predicted.coefficient(w, r) == 0, (w, r)


def test_modular_agreement_on_emitted_values():
    for r in (1, 2, 3):
        for N in range(r, 7):
            mat = odd_matrix(N, r)
            assert rank_modular(mat, len(mat)) == odd_rank(N, r)


# cells (N, r) with 2N + r <= 19 and r <= 7, where the expansion is cheap
EXPANDED_CELLS = [(N, r) for r in range(1, 8) for N in range(r, (19 - r) // 2 + 1)]


@lru_cache(maxsize=None)
def expanded_matrix(N, r):
    """The composition matrix read off the expanded nested actions."""
    comps = compositions(N, r)
    bodies = [nested_action(m).body for m in comps]
    return [[body.coefficient(tuple(2 * x for x in n)) for n in comps]
            for body in bodies]


def test_odd_matrix_equals_expanded_nested_action():
    for N, r in EXPANDED_CELLS:
        assert odd_matrix(N, r) == expanded_matrix(N, r), (N, r)


def test_c_coefficient_equals_expanded_nested_action():
    for N, r in EXPANDED_CELLS:
        comps = compositions(N, r)
        expected = expanded_matrix(N, r)
        for i, m in enumerate(comps):
            for j, n in enumerate(comps):
                assert c_coefficient(m, n) == expected[i][j], (m, n)


def test_odd_rank_equals_bareiss_and_modular_ranks():
    for r in range(1, 8):
        for N in range(r, (21 - r) // 2 + 1):
            mat = odd_matrix(N, r)
            rank = odd_rank(N, r)
            assert rank == rank_bareiss(mat), (N, r)
            assert rank == rank_modular(mat, len(mat)), (N, r)


def test_rank_table_matches_series_to_weight25():
    table = rank_table(25, 8)
    predicted = bk_series("odd", 25, 8)
    assert max(r for _, r in table) == 8
    for w in range(26):
        for r in range(1, 9):
            assert table.get((w, r), 0) == predicted.coefficient(w, r), (w, r)
