"""Tests for the composition, the bracket, dihedral operators, the
dihedral-space membership and the depth-1 action."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doubleshuffle.double_shuffle import partial_sum_transform, solve
from doubleshuffle.exact_algebra import Poly
from doubleshuffle.exceptional import exceptional_elements
from doubleshuffle.ihara import (UNIT, DepthPoly, bracket, compose_lifted,
                                 depth1_action, depth1_generator, dihedral,
                                 dihedral_average_bracket, in_dihedral_space,
                                 poly_compose)
from doubleshuffle.period_poly import integral_generators, primitive_integral
from doubleshuffle.words import restrict_y0
from poly_helpers import is_integral, is_settled


def x_power(n):
    """The depth-1 element x_1^{2n} (weight 2n + 1)."""
    return depth1_generator(2 * n + 1)


def depth2_closed_form(m, n):
    """The depth-2 bracket in closed form, as forced by the composition
    formula (the cyclic three-term image of the wedge basis element)."""
    x1 = Poly.variable(2, 0)
    x2 = Poly.variable(2, 1)
    p = Poly(2, {(2 * m, 2 * n): 1, (2 * n, 2 * m): -1})
    return (p + p.substitute([x2 - x1, x1.scale(-1)])
            + p.substitute([x2.scale(-1), x1 - x2]))


# -- composition ---------------------------------------------------------

def test_compose_unit():
    # the empty element is a right unit (a . e0^0 = a); composing it on the
    # left counts the 2s+1 insertion slots instead
    f = x_power(4)
    assert poly_compose(f, UNIT).body == f.body
    assert poly_compose(UNIT, f).body == f.body.scale(3)


def test_depth1_compose_closed_form():
    # x1^{2n} o x1^{2m} = x2^{2m}(x1^{2n} - (x1-x2)^{2n}) + x1^{2m}(x2-x1)^{2n}
    for n, m in [(1, 1), (1, 2), (2, 1), (3, 2)]:
        x1 = Poly.variable(2, 0)
        x2 = Poly.variable(2, 1)
        expected = ((x2 ** (2 * m)) * ((x1 ** (2 * n)) - (x1 - x2) ** (2 * n))
                    + (x1 ** (2 * m)) * ((x2 - x1) ** (2 * n)))
        assert poly_compose(x_power(n), x_power(m)).body == expected


def test_compose_coefficient_example():
    # coefficient of x1^2 x2^2 in x1^2 o x1^2
    composed = poly_compose(x_power(1), x_power(1))
    assert composed.body.coefficient((2, 2)) == 1


@pytest.fixture(scope="module")
def compose_pool():
    """Depth-1 generators, e12, and the solve(8, 2) and solve(12, 4) bases;
    the solve(8, 2) element has non-integral coefficients."""
    pool = [depth1_generator(w) for w in (3, 5, 7, 9)]
    pool += [e.reduced for e in exceptional_elements(12)]
    pool += solve(8, 2).basis + solve(12, 4).basis
    assert not is_integral(solve(8, 2).basis[0].body)
    return pool


def test_compose_restricted_matches_full_lift(compose_pool):
    # poly_compose feeds only the y_0-free part of g.lift() to compose_lifted
    for f in compose_pool:
        for g in compose_pool:
            full = restrict_y0(compose_lifted(f.lift(), g.lift()))
            composed = poly_compose(f, g).body
            assert composed == full
            assert is_settled(composed)


def test_integral_results_have_int_coefficients():
    [e12] = exceptional_elements(12)
    body = e12.reduced.body
    g5 = depth1_generator(5)
    assert is_integral(body) and is_integral(e12.reduced.lift())
    assert is_integral(depth1_action(2, bracket(depth1_generator(3), g5)).body)
    assert is_integral(compose_lifted(g5.lift(), e12.reduced.lift()))
    assert is_integral(partial_sum_transform(body))
    for pp in integral_generators().values():
        assert is_integral(primitive_integral(pp.P.scale(Fraction(3, 7))))


def test_weight_depth_additivity():
    f = x_power(2)
    g = bracket(x_power(1), x_power(3))
    h = poly_compose(f, g)
    assert h.depth == 3 and h.weight == f.weight + g.weight
    br = bracket(f, g)
    assert br.depth == 3 and br.weight == f.weight + g.weight


# -- bracket -------------------------------------------------------------

def test_bracket_self_vanishes():
    f = x_power(3)
    assert bracket(f, f).is_zero()


def test_ihara_relation():
    lhs = bracket(x_power(1), x_power(4)) - bracket(x_power(2), x_power(3)).scale(3)
    assert lhs.is_zero()


def test_depth2_bracket_closed_form():
    # matches the three-term image of the wedge basis element; the familiar
    # closed-form variant with the cyclic roles swapped is the exact
    # negative, pinned here so the orientation can never drift silently
    for m, n in [(1, 2), (2, 3), (1, 4)]:
        br = bracket(x_power(m), x_power(n)).body
        assert br == depth2_closed_form(m, n)
        x1 = Poly.variable(2, 0)
        x2 = Poly.variable(2, 1)
        d = x2 - x1
        variant = ((x1 ** (2 * m)) * ((d ** (2 * n)) - x2 ** (2 * n))
                   + (d ** (2 * m)) * ((x2 ** (2 * n)) - x1 ** (2 * n))
                   + (x2 ** (2 * m)) * ((x1 ** (2 * n)) - d ** (2 * n)))
        assert br == variant.scale(-1)


def test_bracket_antisymmetry_randomized():
    rng = random.Random(29)
    pool = [x_power(n) for n in range(1, 6)]
    for _ in range(20):
        f = rng.choice(pool)
        g = rng.choice(pool)
        assert bracket(f, g).body == bracket(g, f).scale(-1).body


# depth-1 generators of weights 3..9 and the brackets of two of them
GENERATORS = st.integers(1, 4).map(x_power)
SMALL_ELEMENTS = st.one_of(GENERATORS,
                           st.tuples(GENERATORS, GENERATORS).map(
                               lambda pair: bracket(*pair)))


@settings(max_examples=30, deadline=None)
@given(f=SMALL_ELEMENTS, g=SMALL_ELEMENTS)
def test_bracket_antisymmetry_property(f, g):
    assert bracket(f, g).body == bracket(g, f).scale(-1).body


def test_jacobi_small():
    f, g, h = x_power(1), x_power(2), x_power(3)
    total = (bracket(f, bracket(g, h)) + bracket(g, bracket(h, f))
             + bracket(h, bracket(f, g)))
    assert total.is_zero()


# -- dihedral operators ----------------------------------------------------

def test_sigma_tau_involutions():
    rng = random.Random(31)
    for _ in range(20):
        arity = rng.randint(2, 4)
        deg = rng.randint(0, 5)
        terms = {}
        for _ in range(3):
            e = [0] * arity
            for _ in range(deg):
                e[rng.randrange(arity)] += 1
            terms[tuple(e)] = Fraction(rng.randint(-3, 3))
        f = Poly(arity, terms)
        if f.is_zero():
            continue
        assert dihedral("sigma", dihedral("sigma", f)) == f
        assert dihedral("tau", dihedral("tau", f)) == f


def test_cycle_order():
    # the signed rotation has order r+1 on even-degree polynomials
    rng = random.Random(37)
    for _ in range(10):
        arity = rng.randint(2, 5)
        r = arity - 1
        deg = 2 * rng.randint(1, 3)
        e = [0] * arity
        for _ in range(deg):
            e[rng.randrange(arity)] += 1
        f = Poly(arity, {tuple(e): Fraction(1)})
        g = f
        for _ in range(r + 1):
            g = dihedral("cycle", g)
        assert g == f


def test_sigma_sign_example():
    # sigma(y1^2) at r = 1, degree 2: (-1)^3 y0^2
    f = Poly(2, {(0, 2): 1})
    assert dihedral("sigma", f) == Poly(2, {(2, 0): -1})


def test_dihedral_requires_homogeneous():
    with pytest.raises(ValueError):
        dihedral("sigma", Poly(2, {(1, 0): 1, (0, 2): 1}))


def test_dihedral_average_matches_bracket():
    pairs = [(x_power(1), x_power(4)),
             (x_power(2), x_power(3)),
             (x_power(1), bracket(x_power(1), x_power(2))),
             (bracket(x_power(1), x_power(2)), bracket(x_power(1), x_power(3)))]
    for f, g in pairs:
        assert dihedral_average_bracket(f, g).body == bracket(f, g).body


# -- dihedral space membership ----------------------------------------------

def test_dihedral_space_membership():
    for n in range(1, 6):
        assert in_dihedral_space(x_power(n))
    cube = DepthPoly(1, 4, Poly.monomial((3,)))
    assert not in_dihedral_space(cube)


def test_dihedral_space_closure_under_bracket():
    f = x_power(1)
    g = x_power(2)
    fg = bracket(f, g)
    assert in_dihedral_space(fg)
    assert in_dihedral_space(bracket(f, fg))
    assert in_dihedral_space(bracket(fg, bracket(f, x_power(3))))


# -- depth-1 action -----------------------------------------------------------

def test_depth1_action_on_unit():
    for n in (1, 2, 5):
        assert depth1_action(n, UNIT).body == Poly.monomial((2 * n,))


def test_depth1_action_two_term_example():
    # n=1 acting on x1^2: x2^2(x1^2 - (x1-x2)^2) + x1^2(x2-x1)^2
    g = DepthPoly(1, 3, Poly.monomial((2,)))
    x1 = Poly.variable(2, 0)
    x2 = Poly.variable(2, 1)
    expected = (x2 ** 2) * ((x1 ** 2) - (x1 - x2) ** 2) + (x1 ** 2) * ((x2 - x1) ** 2)
    assert depth1_action(1, g).body == expected


def test_depth1_action_cross_oracle():
    # agreement with the generic composition on 50 random pairs
    rng = random.Random(41)
    checked = 0
    while checked < 50:
        n = rng.randint(1, 4)
        r = rng.randint(1, 3)
        if r == 1:
            g = UNIT
        else:
            arity = r - 1
            deg = rng.randint(0, 10 - 2 * n)
            terms = {}
            for _ in range(rng.randint(1, 3)):
                e = [0] * arity
                for _ in range(deg):
                    e[rng.randrange(arity)] += 1
                terms[tuple(e)] = Fraction(rng.randint(-3, 3))
            body = Poly(arity, terms)
            if body.is_zero():
                continue
            g = DepthPoly.from_body(arity, body)
        if g.weight + 2 * n + 1 > 14:
            continue
        assert depth1_action(n, g).body == poly_compose(x_power(n), g).body
        checked += 1
