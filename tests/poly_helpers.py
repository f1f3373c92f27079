"""Shared Hypothesis strategies, checks and inputs for the polynomial
tests."""

from fractions import Fraction
from functools import lru_cache

from hypothesis import strategies as st

from doubleshuffle.exact_algebra import Poly

COEFFS = st.one_of(st.integers(-6, 6),
                   st.fractions(-3, 3, max_denominator=4))


@st.composite
def polys(draw, arity=None, max_arity=5, max_deg=3, max_terms=6):
    """Polynomials with mixed int and Fraction coefficients (some of the
    Fractions integral, so the constructor has to settle them)."""
    if arity is None:
        arity = draw(st.integers(1, max_arity))
    exps = st.tuples(*[st.integers(0, max_deg)] * arity)
    return Poly(arity, draw(st.dictionaries(exps, COEFFS, max_size=max_terms)))


def is_settled(p: Poly) -> bool:
    """Every coefficient is an int, or a Fraction with denominator > 1."""
    return all(type(c) is int or (type(c) is Fraction and c.denominator > 1)
               for c in p.terms.values())


def is_integral(p: Poly) -> bool:
    return all(type(c) is int for c in p.terms.values())


EXCEPTIONAL_WEIGHTS = (12, 16, 18, 20)  # weights 12-20; none at weight 14


@lru_cache(maxsize=None)
def exceptional_body(weight: int) -> Poly:
    """Reduced body of the exceptional element at ``weight``."""
    from doubleshuffle.exceptional import exceptional_elements

    [element] = exceptional_elements(weight)
    return element.reduced.body
