"""Even period polynomial spaces and the cusp-form subspace.

For even weight 2n the ambient space consists of homogeneous polynomials
P(X, Y) of degree 2n-2 that are antisymmetric, even in each variable, and
satisfy the three-term relation P(X,Y) + P(X-Y,X) + P(-Y,X-Y) = 0.  The
cusp-form part is cut out by the extra vanishing P(1,0) = 0; its dimension
generating series is s^12 / ((1-s^4)(1-s^6)).

Each cusp-form basis element factors exactly as P = X*Y*(X-Y)*f0 with f0
symmetric; f1 = (X-Y)*f0 is the seed from which the exceptional depth-4
elements are assembled.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .exact_algebra import Poly, divexact, grlex_key, nullspace_int


@dataclass
class PeriodPolynomial:
    """A cusp-form period polynomial with its exact factorization."""

    twoN: int          # even weight label; P is homogeneous of degree twoN - 2
    P: Poly            # antisymmetric, even in each variable, three-term relation
    f0: Poly           # P / (X Y (X-Y)), symmetric, degree twoN - 5
    f1: Poly           # (X - Y) * f0, degree twoN - 4

    def validate(self) -> None:
        X = Poly.variable(2, 0)
        Y = Poly.variable(2, 1)
        P = self.P
        assert P.is_homogeneous()
        assert P.is_zero() or P.homogeneous_degree() == self.twoN - 2
        assert (P + P.permute_variables([1, 0])).is_zero(), "antisymmetry"
        assert P.substitute([X.scale(-1), Y]) == P, "evenness in X"
        assert _three_term(P).is_zero(), "three-term relation"
        assert P.coefficient((self.twoN - 2, 0)) == 0, "vanishing at (1,0)"
        assert self.f0 == self.f0.permute_variables([1, 0]), "f0 symmetric"
        assert self.P == X * Y * (X - Y) * self.f0
        assert self.f1 == (X - Y) * self.f0
        # displaced three-term relation satisfied by f0
        t = (self.f0
             + self.f0.substitute([Y - X, X.scale(-1)])
             + self.f0.substitute([Y.scale(-1), X - Y]))
        assert t.is_zero(), "f0 three-term relation"


def _three_term(P: Poly) -> Poly:
    X = Poly.variable(2, 0)
    Y = Poly.variable(2, 1)
    return P + P.substitute([X - Y, X]) + P.substitute([Y.scale(-1), X - Y])


def _monomials(degree: int) -> list[tuple[int, int]]:
    return sorted(((a, degree - a) for a in range(degree + 1)), key=grlex_key)


def _condition_rows(twoN: int, cuspidal: bool) -> tuple[list[list[int]], list[tuple[int, int]]]:
    degree = twoN - 2
    monos = _monomials(degree)
    col_of = {m: j for j, m in enumerate(monos)}
    ncols = len(monos)
    rows: list[list[int]] = []

    # antisymmetry and evenness are diagonal in the monomial basis
    for (a, b), j in col_of.items():
        row = [0] * ncols
        row[j] += 1
        row[col_of[(b, a)]] += 1
        if any(row):
            rows.append(row)
        if a % 2 or b % 2:
            row = [0] * ncols
            row[j] = 1
            rows.append(row)

    # three-term relation, one row per target monomial
    family: dict[tuple[int, int], dict[int, int]] = {}
    for (a, b), j in col_of.items():
        image = _three_term(Poly.monomial((a, b)))
        for exps, coeff in image.terms.items():
            assert coeff.denominator == 1
            slot = family.setdefault(exps, {})
            slot[j] = slot.get(j, 0) + int(coeff)
    for key in sorted(family, key=grlex_key):
        row = [0] * ncols
        for j, c in family[key].items():
            row[j] = c
        if any(row):
            rows.append(row)

    if cuspidal:
        row = [0] * ncols
        row[col_of[(degree, 0)]] = 1
        rows.append(row)
    return rows, monos


def basis_W(twoN: int) -> list[Poly]:
    """Basis of the full even period polynomial space at weight twoN."""
    if twoN < 4 or twoN % 2:
        raise ValueError("weight must be even and >= 4")
    rows, monos = _condition_rows(twoN, cuspidal=False)
    vectors = nullspace_int(rows, len(monos))
    return [Poly(2, {m: c for m, c in zip(monos, vec) if c}) for vec in vectors]


def basis_S(twoN: int) -> list[PeriodPolynomial]:
    """Basis of the cusp-form subspace, each element fully factored."""
    if twoN < 4 or twoN % 2:
        raise ValueError("weight must be even and >= 4")
    rows, monos = _condition_rows(twoN, cuspidal=True)
    vectors = nullspace_int(rows, len(monos))
    out = []
    for vec in vectors:
        P = Poly(2, {m: c for m, c in zip(monos, vec) if c})
        out.append(from_polynomial(twoN, P))
    return out


def from_polynomial(twoN: int, P: Poly) -> PeriodPolynomial:
    """Package a period polynomial with its exact factorization; asserts
    every structural invariant on construction."""
    X = Poly.variable(2, 0)
    Y = Poly.variable(2, 1)
    f0 = divexact(P, X * Y * (X - Y))
    f1 = (X - Y) * f0
    pp = PeriodPolynomial(twoN, P, f0, f1)
    pp.validate()
    return pp


def primitive_integral(P: Poly) -> Poly:
    """Rescale to a primitive integer polynomial with positive leading
    graded-lex coefficient (the canonical generator normalization)."""
    if P.is_zero():
        return P
    denom = 1
    for c in P.terms.values():
        denom = denom * c.denominator // gcd(denom, c.denominator)
    ints = {e: int(c * denom) for e, c in P.terms.items()}
    g = 0
    for v in ints.values():
        g = gcd(g, v)
    lead = max(ints, key=grlex_key)
    if ints[lead] < 0:
        g = -g
    return Poly(2, {e: v // g for e, v in ints.items()}, _clean=True)


def _bracket_pair(a: int, b: int) -> Poly:
    """x1^a x2^b - x1^b x2^a."""
    return Poly(2, {(a, b): 1, (b, a): -1})


def integral_generators() -> dict[int, PeriodPolynomial]:
    """The fixed integral generators in weights 12, 16, 18 and 20."""
    data = {
        12: _bracket_pair(8, 2) - _bracket_pair(6, 4).scale(3),
        16: (_bracket_pair(12, 2).scale(2) - _bracket_pair(10, 4).scale(7)
             + _bracket_pair(8, 6).scale(11)),
        18: (_bracket_pair(14, 2).scale(8) - _bracket_pair(12, 4).scale(25)
             + _bracket_pair(10, 6).scale(26)),
        20: (_bracket_pair(16, 2).scale(3) - _bracket_pair(14, 4).scale(10)
             + _bracket_pair(12, 6).scale(14) - _bracket_pair(10, 8).scale(13)),
    }
    return {twoN: from_polynomial(twoN, P) for twoN, P in data.items()}


def cusp_dimension(twoN: int) -> int:
    """Coefficient of s^twoN in s^12 / ((1-s^4)(1-s^6))."""
    if twoN < 12 or twoN % 2:
        return 0
    count = 0
    rest = twoN - 12
    for a in range(rest // 4 + 1):
        if (rest - 4 * a) % 6 == 0:
            count += 1
    return count
