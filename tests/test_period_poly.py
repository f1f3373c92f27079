"""Tests for period polynomial spaces and their factorizations."""

from fractions import Fraction

import pytest

from doubleshuffle.exact_algebra import Poly
from doubleshuffle.period_poly import (_condition_rows, _three_term, basis_S,
                                       basis_W, cusp_dimension,
                                       from_polynomial, integral_generators,
                                       primitive_integral)


def s12_polynomial():
    X = Poly.variable(2, 0)
    Y = Poly.variable(2, 1)
    return (X ** 2) * (Y ** 2) * ((X - Y) ** 3) * ((X + Y) ** 3)


def reference_p(two_n):
    return Poly(2, {(two_n - 2, 0): 1, (0, two_n - 2): -1})


def naive_cusp_dimension(two_n):
    # independent oracle: count (a, b) >= 0 with 12 + 4a + 6b = two_n
    return sum(1 for a in range((two_n - 12) // 4 + 1)
               for b in range((two_n - 12) // 6 + 1)
               if 12 + 4 * a + 6 * b == two_n) if two_n >= 12 else 0


# -- full space W ------------------------------------------------------------

def test_basis_W_dimensions():
    assert len(basis_W(12)) == 2
    assert len(basis_W(4)) == 1
    for two_n in range(4, 31, 2):
        assert len(basis_W(two_n)) == cusp_dimension(two_n) + 1


def test_condition_rows_are_distinct():
    # the three-term rows for the targets X^d and Y^d coincide, and the
    # X^d condition is still imposed through the one row kept
    for two_n in range(12, 42, 2):
        for cuspidal in (False, True):
            rows, monos = _condition_rows(two_n, cuspidal)
            assert len(set(map(tuple, rows))) == len(rows), (two_n, cuspidal)
            x_row = [_three_term(Poly.monomial(m)).coefficient((two_n - 2, 0))
                     for m in monos]
            assert x_row in rows, (two_n, cuspidal)


def test_reference_polynomial_satisfies_conditions():
    X = Poly.variable(2, 0)
    Y = Poly.variable(2, 1)
    for two_n in range(4, 21, 2):
        p = reference_p(two_n)
        assert (p + p.permute_variables([1, 0])).is_zero()
        assert p.substitute([X.scale(-1), Y]) == p
        three = (p + p.substitute([X - Y, X])
                 + p.substitute([Y.scale(-1), X - Y]))
        assert three.is_zero()


# -- cusp subspace S -----------------------------------------------------------

def test_cusp_dimensions_match_series():
    expected = {12: 1, 16: 1, 18: 1, 20: 1, 22: 1, 24: 2}
    for two_n, dim in expected.items():
        assert len(basis_S(two_n)) == dim
    for two_n in range(4, 31, 2):
        assert cusp_dimension(two_n) == naive_cusp_dimension(two_n)
        assert len(basis_S(two_n)) == naive_cusp_dimension(two_n)


def test_s12_spans_weight12():
    basis = basis_S(12)
    assert len(basis) == 1
    s12 = s12_polynomial()
    # proportional to the computed basis vector
    assert primitive_integral(basis[0].P) in (s12, s12.scale(-1))


def test_s12_factorization():
    X = Poly.variable(2, 0)
    Y = Poly.variable(2, 1)
    pp = from_polynomial(12, s12_polynomial())
    assert pp.f0 == X * Y * ((X - Y) ** 2) * ((X + Y) ** 3)
    assert pp.f1 == X * Y * ((X - Y) ** 3) * ((X + Y) ** 3)
    assert pp.f0 == pp.f0.permute_variables([1, 0])


def test_f0_three_term_for_all_constructed():
    X = Poly.variable(2, 0)
    Y = Poly.variable(2, 1)
    for two_n in (12, 16, 18, 20, 22, 24):
        for pp in basis_S(two_n):
            t = (pp.f0 + pp.f0.substitute([Y - X, X.scale(-1)])
                 + pp.f0.substitute([Y.scale(-1), X - Y]))
            assert t.is_zero()
            assert pp.f1.substitute([X.scale(-1), Y]) == pp.f1.scale(-1)
            assert pp.f1.substitute([X, Y.scale(-1)]) == pp.f1.scale(-1)


def test_division_by_linear_factors_is_exact():
    X = Poly.variable(2, 0)
    Y = Poly.variable(2, 1)
    for pp in basis_S(24):
        assert pp.P == X * Y * (X - Y) * pp.f0


def test_from_polynomial_needs_every_linear_factor():
    # X^10 - Y^10 of W12 has no factor X Y
    P = Poly(2, {(10, 0): 1, (0, 10): -1})
    assert P in basis_W(12)
    with pytest.raises(ValueError, match="X Y"):
        from_polynomial(12, P)
    # X^5 Y^5 = X Y * X^4 Y^4, and X - Y does not divide X^4 Y^4
    with pytest.raises(ValueError, match="X - Y"):
        from_polynomial(12, Poly(2, {(5, 5): 1}))


# -- integral generators ----------------------------------------------------------

def test_integral_generators_verbatim():
    gens = integral_generators()
    f12 = gens[12].P
    assert f12 == Poly(2, {(8, 2): 1, (2, 8): -1, (6, 4): -3, (4, 6): 3})
    f16 = gens[16].P
    assert f16 == Poly(2, {(12, 2): 2, (2, 12): -2, (10, 4): -7, (4, 10): 7,
                           (8, 6): 11, (6, 8): -11})
    f18 = gens[18].P
    assert f18 == Poly(2, {(14, 2): 8, (2, 14): -8, (12, 4): -25, (4, 12): 25,
                           (10, 6): 26, (6, 10): -26})
    f20 = gens[20].P
    assert f20 == Poly(2, {(16, 2): 3, (2, 16): -3, (14, 4): -10, (4, 14): 10,
                           (12, 6): 14, (6, 12): -14, (10, 8): -13, (8, 10): 13})
    assert gens[12].P == s12_polynomial()


def test_integral_generators_in_cusp_span():
    from doubleshuffle.exact_algebra import span_rref

    for two_n, pp in integral_generators().items():
        basis = basis_S(two_n)
        monos = sorted(set().union(*[set(b.P.terms) for b in basis + [pp]]))
        col = {m: j for j, m in enumerate(monos)}

        def vec(poly):
            v = [Fraction(0)] * len(monos)
            for e, c in poly.terms.items():
                v[col[e]] = c
            return v

        span_without = span_rref([vec(b.P) for b in basis], len(monos))
        span_with = span_rref([vec(b.P) for b in basis] + [vec(pp.P)], len(monos))
        assert span_without == span_with


# -- kernel of the depth-2 bracket map --------------------------------------------

def test_kernel_of_depth2_bracket_is_cusp_space():
    """Wedge combinations of depth-1 generators that bracket to zero
    correspond exactly to period polynomials via
    lambda_(i,j) -> sum (lambda_ij - lambda_ji) X^{2i} Y^{2j}."""
    from doubleshuffle.double_shuffle import monomial_basis
    from doubleshuffle.exact_algebra import nullspace_int, span_rref
    from doubleshuffle.ihara import bracket, depth1_generator

    for N in range(12, 21, 2):
        pairs = [(i, j) for i in range(1, N) for j in range(i + 1, N)
                 if 2 * i + 1 + 2 * j + 1 == N]
        if not pairs:
            continue
        monos = monomial_basis(N, 2)
        col = {m: k for k, m in enumerate(monos)}
        rows_T = []  # columns indexed by pairs: transpose of bracket images
        for (i, j) in pairs:
            br = bracket(depth1_generator(2 * i + 1), depth1_generator(2 * j + 1))
            vec = [0] * len(monos)
            denom = 1
            for e, c in br.body.terms.items():
                assert c.denominator == 1
                vec[col[e]] = int(c)
            rows_T.append(vec)
        # kernel of the map (lambda_ij) -> sum lambda_ij {g_i, g_j}
        matrix = [[rows_T[p][m] for p in range(len(pairs))]
                  for m in range(len(monos))]
        kernel = nullspace_int(matrix, len(pairs))
        assert len(kernel) == cusp_dimension(N)
        # each kernel vector maps onto a cusp period polynomial
        cusp = basis_S(N)
        all_monos = sorted({e for b in cusp for e in b.P.terms}
                           | {(2 * i, 2 * j) for (i, j) in pairs}
                           | {(2 * j, 2 * i) for (i, j) in pairs})
        c_of = {m: k for k, m in enumerate(all_monos)}

        def vec_of(poly):
            v = [Fraction(0)] * len(all_monos)
            for e, c in poly.terms.items():
                v[c_of[e]] = c
            return v

        kernel_polys = []
        for lam in kernel:
            P = Poly.zero(2)
            for coeff, (i, j) in zip(lam, pairs):
                if coeff:
                    P = P + Poly(2, {(2 * i, 2 * j): coeff,
                                     (2 * j, 2 * i): -coeff})
            kernel_polys.append(P)
        lhs = span_rref([vec_of(p) for p in kernel_polys], len(all_monos))
        rhs = span_rref([vec_of(b.P) for b in cusp], len(all_monos))
        assert lhs == rhs
