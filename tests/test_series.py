"""Tests for the truncated bivariate series machinery."""

import pytest

from doubleshuffle.double_shuffle import dimension, ls_cells
from doubleshuffle.series import (BiSeries, bk_series, eos, free_lie_dims,
                                  hoffman_dims, pbw)


def test_eos_coefficients():
    E, O, S = eos(30, 2)
    assert E.coefficient(0, 0) == 0
    assert [O.coefficient(n, 0) for n in (3, 5, 7)] == [1, 1, 1]
    assert [O.coefficient(n, 0) for n in (0, 1, 2, 4)] == [0, 0, 0, 0]
    assert S.coefficient(24, 0) == 2    # (a, b) with 12 + 4a + 6b = 24
    assert S.coefficient(12, 0) == 1
    assert S.coefficient(14, 0) == 0


def test_series_ring_basics():
    a = BiSeries.term(6, 2, 2, 1, 3)
    b = BiSeries.term(6, 2, 3, 0, 2)
    assert (a * b).coefficient(5, 1) == 6
    assert (a + b - b) == a
    one = BiSeries.one(6, 2)
    assert (one * a) == a
    with pytest.raises(ValueError):
        BiSeries.term(6, 2, 1, 1).inverse()


def test_inverse_geometric():
    one = BiSeries.one(10, 3)
    u = BiSeries.term(10, 3, 2, 1)
    inv = (one - u).inverse()
    for k in range(4):
        assert inv.coefficient(2 * k, k) == 1
    assert (inv * (one - u)) == one
    # a dense denominator: the inverse is the one series whose product is 1
    E, O, S = eos(30, 6)
    one = BiSeries.one(30, 6)
    denom = one + E - O.times_t(1) + S.times_t(2) - S.times_t(4)
    assert denom.inverse() * denom == one


def test_negative_indices_raise():
    # a negative index would wrap around to the far end of the truncation
    series = BiSeries.term(4, 2, 3, 1, 7)
    for s, t in [(-1, 0), (0, -1), (5, 0), (0, 3)]:
        with pytest.raises(IndexError):
            series.coefficient(s, t)
    for s, t in [(-1, 0), (0, -1)]:
        with pytest.raises(IndexError):
            BiSeries.term(4, 2, s, t, 7)


def test_bk_full_specializes_to_hoffman():
    full = bk_series("full", 40, 40)
    assert full.t_at_one() == hoffman_dims(40)


def test_full_equals_one_plus_Et_times_ls():
    E, _, _ = eos(40, 8)
    one = BiSeries.one(40, 8)
    assert bk_series("full", 40, 8) == (one + E.times_t(1)) * bk_series("ls", 40, 8)


def test_odd_series_weight12_depth2():
    assert bk_series("odd", 14, 3).coefficient(12, 2) == 3


def test_nonnegative_coefficients():
    for kind in ("full", "ls", "odd"):
        series = bk_series(kind, 40, 8)
        assert all(v >= 0 for row in series.coeffs for v in row)


def test_hoffman_recurrence():
    d = hoffman_dims(20)
    assert d[0] == 1 and d[1] == 0
    for n in range(3, 21):
        assert d[n] == d[n - 2] + d[n - 3]


# -- pbw -----------------------------------------------------------------------

def test_pbw_single_generator():
    series = pbw({(3, 1): 1}, 12, 4)
    for j in range(5):
        assert series.coefficient(3 * j, j) == 1
    assert series.coefficient(4, 1) == 0


def test_pbw_empty_table():
    assert pbw({}, 10, 3) == BiSeries.one(10, 3)


def test_ls_grid():
    # the cells of bk-check ls W14/D4 and W13/D5
    assert len(ls_cells(14, 4)) == 50
    assert len(ls_cells(13, 5)) == 55
    assert ls_cells(3, 2) == [(1, 1), (2, 1), (3, 1), (2, 2), (3, 2)]
    assert list({c: dimension(*c) for c in ls_cells(8, 3)}) == ls_cells(8, 3)


def test_pbw_of_computed_dims_matches_ls_series():
    lie = {c: dimension(*c) for c in ls_cells(14, 3)}
    lie = {k: v for k, v in lie.items() if v}
    computed = pbw(lie, 14, 3)
    predicted = bk_series("ls", 14, 3)
    assert computed == predicted


def test_pbw_depth4_window():
    # exact depth-4 dimensions extend the series match beyond the
    # depth-2/3 range that is proved in the literature
    lie = {c: dimension(*c) for c in ls_cells(14, 3)}
    lie = {k: v for k, v in lie.items() if v}
    for N in range(4, 15):
        d = dimension(N, 4)
        if d:
            lie[(N, 4)] = d
    assert pbw(lie, 14, 4) == bk_series("ls", 14, 4)


def test_pbw_of_free_lie_dims_is_free_associative_count():
    table = free_lie_dims(list(range(3, 31, 2)), 30, 8)
    one = BiSeries.one(30, 8)
    _, O, _ = eos(30, 8)
    assert pbw(table, 30, 8) == (one - O.times_t(1)).inverse()


def test_free_lie_dims_small_values():
    table = free_lie_dims([3, 5, 7, 9, 11], 15, 4)
    assert table.get((3, 1)) == 1
    assert table.get((9, 3)) is None      # {3,{3,3}} vanishes
    assert table.get((11, 3)) == 1
    assert table.get((8, 2)) == 1         # {3,5}
    assert table.get((6, 2)) is None      # {3,3} = 0


def test_dump_rows_format():
    series = BiSeries.term(4, 2, 3, 1, 7)
    assert series.dump_rows() == [(3, 1, 7)]
