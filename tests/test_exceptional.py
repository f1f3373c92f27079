"""Tests for the exceptional depth-4 elements and their projections."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doubleshuffle import period_poly
from doubleshuffle.double_shuffle import membership_test, solve
from doubleshuffle.exact_algebra import Poly
from doubleshuffle.exceptional import (build_exceptional, exceptional_elements,
                                       express_in_basis, interior, is_sparse,
                                       is_uneven, project)
from doubleshuffle.ihara import bracket_lifted, depth1_generator, in_dihedral_space
from doubleshuffle.period_poly import (PeriodPolynomial, basis_S,
                                      integral_generators, primitive_integral)
from doubleshuffle.words import is_translation_invariant, restrict_y0, translation_lift
from poly_helpers import is_settled, polys


@pytest.fixture(scope="module")
def e12():
    [el] = exceptional_elements(12, "paper")
    return el


# -- the weight-12 regression --------------------------------------------------

def test_e12_term_count(e12):
    assert e12.term_count() == 118


def test_e12_reference_coefficients(e12):
    body = e12.reduced.body
    assert body.coefficient((0, 0, 7, 1)) == 1      # x3^7 x4
    assert body.coefficient((3, 2, 2, 1)) == -116   # x1^3 x2^2 x3^2 x4
    assert body.coefficient((2, 5, 0, 1)) == -57    # x1^2 x2^5 x4


def test_e12_full_golden_serialization(e12):
    # all 118 terms, frozen after verifying the three reference coefficients,
    # the restriction to f1, membership, unevenness, sparsity and the
    # interior formula; guards the whole construction chain against regressions
    import pathlib

    golden = pathlib.Path(__file__).parent / "data" / "exceptional_weight12.txt"
    assert e12.reduced.body.serialize() + "\n" == golden.read_text()


def test_zero_input_gives_zero_element():
    zero = PeriodPolynomial(12, Poly.zero(2), Poly.zero(2), Poly.zero(2))
    el = build_exceptional(zero)
    assert el.full.is_zero() and el.reduced.is_zero()


# -- structural invariants -------------------------------------------------------

def test_full_lift_is_translation_invariant(e12):
    assert is_translation_invariant(e12.full)
    assert restrict_y0(e12.full) == e12.reduced.body
    assert translation_lift(e12.reduced.body) == e12.full


def test_integral_generators_built_once(monkeypatch):
    builds, original = [], period_poly.from_polynomial

    def counting(twoN, P):
        builds.append(twoN)
        return original(twoN, P)

    monkeypatch.setattr(period_poly, "from_polynomial", counting)
    integral_generators.cache_clear()
    for w in range(12, 21, 2):  # dim S_14 = 0: weight 14 builds nothing
        exceptional_elements(w)
    assert builds == [12, 16, 18, 20]  # not 4 builds per call
    assert integral_generators() is integral_generators()
    with pytest.raises(TypeError):  # shared, so read-only
        integral_generators()[12] = None


def test_fixed_generators_are_canonical():
    # the fixed generators are the canonical primitive integral normalization
    for w in (12, 16, 18, 20):
        assert integral_generators()[w].P == primitive_integral(basis_S(w)[0].P)


def test_restriction_recovers_f1():
    for twoN, pp in integral_generators().items():
        el = build_exceptional(pp)
        restricted = Poly(2, {e[:2]: c for e, c in el.reduced.body.terms.items()
                              if e[2] == 0 and e[3] == 0})
        assert restricted == pp.f1


def test_uneven_and_sparse(e12):
    assert is_uneven(e12.full)
    assert is_sparse(e12.full)


def test_uneven_and_sparse_counterexamples():
    # a totally even monomial, then a monomial with every variable present
    assert not is_uneven(Poly(3, {(1, 0, 0): 1, (2, 0, 4): 1}))
    assert is_sparse(Poly(3, {(2, 0, 4): 1}))
    assert not is_sparse(Poly(3, {(1, 0, 0): 1, (1, 2, 1): 1}))
    assert is_uneven(Poly(3, {(1, 2, 1): 1}))


def test_membership_and_dihedral_conditions(e12):
    assert membership_test(e12.reduced)
    assert in_dihedral_space(e12.reduced)


def test_interior_formula(e12):
    f1 = integral_generators()[12].f1
    x = [Poly.variable(4, i) for i in range(4)]
    assert interior(e12.reduced.body) == interior(
        f1.substitute([x[3] - x[2], x[1] - x[0]]))


def test_canonical_generators_match_fixed_ones_up_to_sign():
    for twoN in (12, 16, 18, 20):
        [canonical] = exceptional_elements(twoN, "canonical")
        [paper] = exceptional_elements(twoN, "paper")
        body_c = canonical.reduced.body
        body_p = paper.reduced.body
        assert body_c == body_p or body_c == body_p.scale(-1)


def test_weight22_canonical_element():
    [el] = exceptional_elements(22, "canonical")
    assert membership_test(el.reduced)
    assert is_uneven(el.full) and is_sparse(el.full)
    restricted = Poly(2, {e[:2]: c for e, c in el.reduced.body.terms.items()
                          if e[2] == 0 and e[3] == 0})
    assert restricted == el.source.f1


# -- projections -------------------------------------------------------------------

def test_projection_examples():
    p = Poly(2, {(3, 2): 1})
    assert project(p, 0, "even").is_zero()          # odd exponent dropped
    q = Poly(2, {(0, 5): 1})
    assert project(q, 0, "coeff", 0) == q           # no x1 present
    assert project(q, 1, "coeff", 5) == Poly(2, {(0, 0): 1})
    r = Poly(2, {(2, 2): 1, (1, 2): 3})
    assert interior(r) == Poly(2, {(2, 2): 1})
    with pytest.raises(ValueError):
        project(p, 5, "even")
    with pytest.raises(ValueError):
        project(p, 0, "coeff")
    # 'interior' is not a projection mode: interior() is the one path
    with pytest.raises(ValueError, match="unknown projection mode"):
        project(r, 0, "interior")


@pytest.mark.parametrize("k", [0, 2])
@settings(max_examples=40, deadline=None)
@given(data=st.data(), p=polys(max_deg=3))
def test_project_coeff_matches_rebuild(k, data, p):
    # k = 0 keeps each key as it is; the rebuild sets x_var's exponent to 0
    var = data.draw(st.integers(0, p.arity - 1))
    p = p + Poly.monomial([k if i == var else 1 for i in range(p.arity)])
    rebuilt = Poly(p.arity, {e[:var] + (0,) + e[var + 1:]: c
                             for e, c in p.terms.items() if e[var] == k})
    projected = project(p, var, "coeff", k)
    assert projected == rebuilt
    assert is_settled(projected)


# -- coordinates --------------------------------------------------------------------

def test_express_ratios_weight12():
    space = solve(12, 4)
    ref = express_in_basis((1, 1, 8, 2), space)
    for comp, expected in [((4, 3, 3, 2), -116), ((3, 6, 1, 2), -57),
                           ((1, 1, 8, 2), 1)]:
        coords = express_in_basis(comp, space)
        assert coords[0] / ref[0] == expected


def test_express_validation():
    space = solve(12, 4)
    with pytest.raises(ValueError):
        express_in_basis((1, 1, 8, 3), space)   # wrong weight
    with pytest.raises(ValueError):
        express_in_basis((6, 6), space)         # wrong depth


# -- products of exceptional elements -------------------------------------------------

@pytest.fixture(scope="module")
def e12_self_composite(e12):
    from doubleshuffle.ihara import poly_compose

    return poly_compose(e12.reduced, e12.reduced).body


def test_restriction_product(e12, e12_self_composite):
    # zeroing the last five variables of the double composite leaves
    # f1(x1, x2) f1(x2, x3)
    f1 = integral_generators()[12].f1
    P = e12_self_composite
    for var in (3, 4, 5, 6, 7):
        P = project(P, var, "coeff", 0)
    assert P == f1.embed(8, 0) * f1.embed(8, 1)


def test_quadfactor_identity(e12, e12_self_composite):
    # even parts in x1 and x5 with x6, x7, x8 zeroed factor into the two
    # projected copies glued along x3, x4
    L = e12_self_composite
    for var in (5, 6, 7):
        L = project(L, var, "coeff", 0)
    L = project(project(L, 0, "even"), 4, "even")
    A = project(project(e12.reduced.body, 3, "coeff", 0), 0, "even").embed(8, 0)
    B = e12.reduced.body.embed(8, 2)
    B = project(project(B, 4, "even"), 5, "coeff", 0)
    assert L == A * B


# -- ideal properties ----------------------------------------------------------------

def test_uneven_and_sparse_ideal_samples(e12):
    for n in (1, 2, 5):
        lift = bracket_lifted(e12.reduced, depth1_generator(2 * n + 1))
        assert is_uneven(lift)
        assert is_sparse(lift)
