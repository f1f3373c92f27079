"""Exceptional depth-4 solutions built from cusp-form period polynomials.

Given a period polynomial with factors f0 and f1, the five-variable element
is the cyclic sum over rotations of the seed

    f1(y4 - y3, y2 - y1)  +  (y0 - y1) f0(y2 - y3, y4 - y3),

and its reduction sets y0 = 0.  The reductions are integral solutions of
the depth-4 linearized double shuffle equations; restricting the last two
variables to zero recovers f1, which makes the construction injective.
The elements are uneven (no totally even monomial) and sparse (every
monomial omits one of the five variables).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from operator import mod

from .double_shuffle import SolutionSpace
from .exact_algebra import Poly
from .ihara import DepthPoly, dihedral
from .period_poly import (PeriodPolynomial, basis_S, from_polynomial,
                          integral_generators, primitive_integral)
from .words import restrict_y0


@dataclass
class ExceptionalElement:
    source: PeriodPolynomial
    name: str
    full: Poly          # five-variable cyclic sum
    reduced: DepthPoly  # depth 4, weight = deg(P) + 2 = twoN

    def term_count(self) -> int:
        return len(self.reduced.body)


def build_exceptional(f: PeriodPolynomial, name: str = "") -> ExceptionalElement:
    y = [Poly.variable(5, i) for i in range(5)]
    seed = (f.f1.substitute([y[4] - y[3], y[2] - y[1]])
            + (y[0] - y[1]) * f.f0.substitute([y[2] - y[3], y[4] - y[3]]))
    # seed has even degree twoN - 4, so cycle is the plain rotation
    full = rotated = seed
    for _ in range(4):
        rotated = dihedral("cycle", rotated)
        full = full + rotated
    reduced = DepthPoly(4, f.twoN, restrict_y0(full))
    return ExceptionalElement(f, name or f"e{f.twoN}", full, reduced)


def exceptional_elements(twoN: int, generator: str = "auto") -> list[ExceptionalElement]:
    """Exceptional elements at one weight.

    generator 'paper' uses the fixed integral generators (weights 12-20),
    'canonical' normalizes the computed cusp basis to primitive integral
    vectors, 'auto' prefers the fixed generators when they exist.
    """
    fixed = integral_generators()
    if generator == "auto":
        generator = "paper" if twoN in fixed else "canonical"
    if generator == "paper":
        if twoN not in fixed:
            raise ValueError(f"no fixed integral generator at weight {twoN}")
        return [build_exceptional(fixed[twoN], name=f"f{twoN}")]
    if generator != "canonical":
        raise ValueError(f"unknown generator choice {generator!r}")
    out = []
    for i, pp in enumerate(basis_S(twoN)):
        prim = from_polynomial(twoN, primitive_integral(pp.P))
        out.append(build_exceptional(prim, name=f"S{twoN}[{i}]"))
    return out


# ---------------------------------------------------------------------
# Coefficient projections
# ---------------------------------------------------------------------

def project(p: Poly, var: int, mode: str, k: int | None = None) -> Poly:
    """Projections used to dissect the exceptional elements.

    mode 'coeff': the coefficient of x_var^k (exponent zeroed, arity kept);
    mode 'even': the part with even exponent in x_var (kept intact).
    """
    if not 0 <= var < p.arity:
        raise ValueError(f"variable index {var} out of range")
    if mode == "coeff":
        if k is None:
            raise ValueError("mode 'coeff' needs k")
        if k == 0:  # a kept key already reads 0 at var
            return Poly(p.arity, {e: c for e, c in p.terms.items()
                                  if e[var] == 0}, _clean=True)
        # the kept keys differ outside var, so they stay distinct
        return Poly(p.arity, {e[:var] + (0,) + e[var + 1:]: c
                              for e, c in p.terms.items() if e[var] == k},
                    _clean=True)
    if mode == "even":
        return Poly(p.arity, {e: c for e, c in p.terms.items()
                              if e[var] % 2 == 0}, _clean=True)
    raise ValueError(f"unknown projection mode {mode!r}")


def interior(p: Poly) -> Poly:
    """Keep only monomials in which every variable appears with exponent >= 2."""
    return Poly(p.arity, {e: c for e, c in p.terms.items()
                          if all(x >= 2 for x in e)}, _clean=True)


def is_uneven(f: Poly) -> bool:
    """No totally even monomial occurs."""
    return all(any(map(mod, exps, repeat(2))) for exps in f.terms)


def is_sparse(f: Poly) -> bool:
    """Every monomial omits at least one variable (the full mixed partial
    annihilates f)."""
    return all(0 in exps for exps in f.terms)


# ---------------------------------------------------------------------
# Coordinates of the dual-monomial functionals
# ---------------------------------------------------------------------

def express_in_basis(composition: tuple[int, ...],
                     space: SolutionSpace) -> list[Fraction]:
    """Value of the 'coefficient of the dual monomial' functional on each
    basis vector: composition (n_1..n_r) pairs with x_1^{n_1-1}..x_r^{n_r-1}."""
    if space.dimension < 1:
        raise ValueError("empty solution space")
    if sum(composition) != space.weight:
        raise ValueError(f"composition sums to {sum(composition)}, "
                         f"space weight is {space.weight}")
    if len(composition) != space.depth:
        raise ValueError("composition length != depth")
    exps = tuple(n - 1 for n in composition)
    return [b.body.coefficient(exps) for b in space.basis]
