"""Ihara composition and bracket on polynomial representatives.

A depth-r element is stored through its reduced polynomial in x_1..x_r.
Compositions are computed on the translation-invariant lift in y_0..y_r
(the two-sum insertion formula, read off from the word-level composition)
and reduced back; the bracket is the antisymmetrization.  The dihedral
reflections, the signed-average form of the bracket, the membership test
for the dihedral space, and the closed-form action of depth-1 generators
also live here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .exact_algebra import (Poly, _coeff_array, _int_array, _poly_of_codes,
                            _sum_equal_codes)
from .words import CACHE_SIZE, restrict_y0, translation_lift


@dataclass(frozen=True)
class DepthPoly:
    """Reduced representative of a depth-graded element.

    ``body`` is homogeneous of degree weight - depth in ``depth`` variables.
    Depth 0 with body 1 is the composition unit.
    """

    depth: int
    weight: int
    body: Poly

    def __post_init__(self):
        if self.body.arity != self.depth:
            raise ValueError("body arity must equal depth")
        degree = self.body.homogeneous_degree()  # raises if not homogeneous
        if self.body and degree != self.weight - self.depth:
            raise ValueError("degree != weight - depth")

    @staticmethod
    def from_body(depth: int, body: Poly) -> DepthPoly:
        if body.is_zero():
            return DepthPoly(depth, depth, body)
        return DepthPoly(depth, depth + body.homogeneous_degree(), body)

    def is_zero(self) -> bool:
        return self.body.is_zero()

    def __add__(self, other: DepthPoly) -> DepthPoly:
        if self.depth != other.depth:
            raise ValueError("depth mismatch")
        return DepthPoly(self.depth, self.weight if self.body else other.weight,
                         self.body + other.body)

    def __sub__(self, other: DepthPoly) -> DepthPoly:
        return self + other.scale(-1)

    def scale(self, factor) -> DepthPoly:
        return DepthPoly(self.depth, self.weight, self.body.scale(factor))

    def lift(self) -> Poly:
        """Translation-invariant lift to y_0..y_depth."""
        return translation_lift(self.body)


UNIT = DepthPoly(0, 0, Poly.constant(0, 1))


def depth1_generator(weight: int) -> DepthPoly:
    """The one generator in each odd weight >= 3: x_1^(weight-1)."""
    if weight < 3 or weight % 2 == 0:
        raise ValueError("depth-1 generators exist in odd weights >= 3 only")
    return DepthPoly(1, weight, Poly.monomial((weight - 1,)))


# ---------------------------------------------------------------------
# Composition
# ---------------------------------------------------------------------

# Products formed at once by compose_lifted: bounds its working memory to
# the output plus one chunk.
_CHUNK = 1 << 18


def compose_lifted(F: Poly, G: Poly) -> Poly:
    """Insertion composition on lifted polynomials.

    F has arity r+1 (depth r), G arity s+1; the result has arity r+s+1.
    F must be homogeneous (its degree enters the sign of the reversed sum).

    The sum runs over 2s+1 placements: forward i = 0..s puts F at
    y_i..y_{i+r} and G at y_0..y_i then y_{i+r+1}..y_{r+s}; reversed
    i = 1..s puts F, signed, at y_{i+r}..y_i and G at y_0..y_{i-1} then
    y_{i+r}..y_{r+s}.  An exponent tuple is packed into one mixed-radix
    code in radix b = max exponent of F + max exponent of G + 1, so a
    monomial product is the sum of two codes.  The products are formed
    _CHUNK at a time, and equal codes are summed after a sort.
    """
    r = F.arity - 1
    s = G.arity - 1
    if r < 0 or s < 0:
        raise ValueError("lifted polynomials need arity >= 1")
    sign = -1 if (F.homogeneous_degree() + r) % 2 else 1
    n = r + s + 1
    if not F.terms or not G.terms:
        return Poly.zero(n)
    fe = _int_array(list(F.terms), r + 1)
    ge = _int_array(list(G.terms), s + 1)
    b = int(fe.max()) + int(ge.max()) + 1
    code = np.int64 if b ** n < 2 ** 63 else object
    fe, ge = fe.astype(code, copy=False), ge.astype(code, copy=False)
    w = np.array([b ** (n - 1 - j) for j in range(n)], dtype=code)
    fpos = [[*range(i, i + r + 1)] for i in range(s + 1)]
    fpos += [[*range(i + r, i - 1, -1)] for i in range(1, s + 1)]
    gpos = [[*range(i + 1), *range(i + r + 1, n)] for i in range(s + 1)]
    gpos += [[*range(i), *range(i + r, n)] for i in range(1, s + 1)]
    fcodes = np.concatenate([fe @ w[p] for p in fpos])
    gcodes = np.stack([ge @ w[p] for p in gpos])
    fvals, gvals = list(F.terms.values()), list(G.terms.values())
    growth = len(gpos) * min(len(F), len(G))  # products one code can sum
    fc = _coeff_array(fvals, growth * max(map(abs, gvals)))
    gc = _coeff_array(gvals, growth * max(map(abs, fvals)))
    fcoeffs = np.concatenate([fc] * (s + 1) + [fc * sign] * s)
    # fcodes[k] + gcodes[k // len(F)] are the codes of row k's products
    codes, coeffs = fcodes[:0], fcoeffs[:0]
    step = max(1, _CHUNK // len(gc))
    for start in range(0, len(fcodes), step):
        rows = np.arange(start, min(start + step, len(fcodes)))
        codes, coeffs = _sum_equal_codes(
            np.concatenate([codes, (fcodes[rows, None]
                                    + gcodes[rows // len(fc)]).ravel()]),
            np.concatenate([coeffs, np.multiply.outer(fcoeffs[rows], gc).ravel()]))
    return _poly_of_codes(n, codes, coeffs, b)


def poly_compose(f: DepthPoly, g: DepthPoly) -> DepthPoly:
    """Composition of reduced representatives; weight and depth add.

    G's first variable always lands on y_0, so the terms of g.lift() that
    carry y_0 vanish under restrict_y0; the rest is g.body moved up a slot.
    """
    composed = compose_lifted(f.lift(), g.body.embed(g.depth + 1, 1))
    return DepthPoly(f.depth + g.depth, f.weight + g.weight,
                     restrict_y0(composed))


def bracket(f: DepthPoly, g: DepthPoly) -> DepthPoly:
    """Ihara bracket: antisymmetrized composition."""
    return poly_compose(f, g) - poly_compose(g, f)


def bracket_lifted(f: DepthPoly, g: DepthPoly) -> Poly:
    """The bracket as a translation-invariant polynomial in y_0..y_{r+s}.

    Identical to lifting the reduced bracket, but avoids re-expanding the
    lift of a large result (the composition already happens upstairs).
    """
    return compose_lifted(f.lift(), g.lift()) - compose_lifted(g.lift(), f.lift())


# ---------------------------------------------------------------------
# Dihedral symmetries on lifted polynomials
# ---------------------------------------------------------------------

def dihedral(op: str, f: Poly) -> Poly:
    """Apply a dihedral generator to a homogeneous lifted polynomial.

    sigma: (-1)^(deg+r) f(y_r..y_0);  tau: (-1)^r f(y_0, y_r..y_1);
    cycle: (-1)^deg f(y_r, y_0..y_{r-1}) (the signed rotation of order r+1
    on even-degree polynomials).
    """
    r = f.arity - 1
    deg = f.homogeneous_degree()
    if op == "sigma":
        sign = -1 if (deg + r) % 2 else 1
        terms = {e[::-1]: sign * c for e, c in f.terms.items()}
    elif op == "tau":
        sign = -1 if r % 2 else 1
        terms = {e[:1] + e[1:][::-1]: sign * c for e, c in f.terms.items()}
    elif op == "cycle":
        sign = -1 if deg % 2 else 1
        # argument j reads y_{j-1} (and argument 0 reads y_r): rotate left
        terms = {e[1:] + e[:1]: sign * c for e, c in f.terms.items()}
    else:
        raise ValueError(f"unknown dihedral operator {op!r}")
    return Poly(f.arity, terms, _clean=True)


def dihedral_average_bracket(f: DepthPoly, g: DepthPoly) -> DepthPoly:
    """Signed average of F(y_0..y_r) G(y_r..y_{r+s}) over the dihedral group.

    Agrees with the bracket on inputs satisfying the dihedral conditions;
    kept as an independent route for cross-checking.  The sign character is
    oriented so that the average reproduces the bracket (reflections count
    +1, rotations -1); the opposite orientation yields the negative.
    """
    r, s = f.depth, g.depth
    n = r + s
    F = f.lift().embed(n + 1, 0)
    G = g.lift().embed(n + 1, r)
    h = F * G
    total = Poly.zero(n + 1)
    rotated = h
    reflected = dihedral("sigma", h)
    for _ in range(n + 1):
        total = total + reflected - rotated
        rotated = dihedral("cycle", rotated)
        reflected = dihedral("cycle", reflected)
    return DepthPoly(n, f.weight + g.weight, restrict_y0(total))


def in_dihedral_space(f: DepthPoly) -> bool:
    """Test the three reduced conditions cutting out the dihedral space:
    evenness under a global sign flip, reversal antisymmetry, and the
    antisymmetry under the final affine reflection."""
    body = f.body
    r = f.depth
    if r == 0:
        return body.is_zero()
    neg = [Poly.variable(r, i).scale(-1) for i in range(r)]
    if body.substitute(neg) != body:
        return False
    sign = -1 if r % 2 else 1
    reversed_body = body.permute_variables(list(range(r - 1, -1, -1)))
    if body + reversed_body.scale(sign) != Poly.zero(r):
        return False
    xr = Poly.variable(r, r - 1)
    images = [Poly.variable(r, r - 1 - i) - xr for i in range(1, r)] + [xr.scale(-1)]
    if body + body.substitute(images).scale(sign) != Poly.zero(r):
        return False
    return True


# ---------------------------------------------------------------------
# Depth-1 action in closed form
# ---------------------------------------------------------------------

@lru_cache(maxsize=CACHE_SIZE)
def _difference_power(arity: int, a: int, b: int | None, m: int) -> Poly:
    """(x_a - x_b)^m with variables 1-indexed; b None means x_b = 0."""
    e = [0] * arity
    e[a - 1] = m
    power = Poly.monomial(e)
    return power if b is None else power.shift(a - 1, b - 1, -1)


def depth1_action(n: int, g: DepthPoly) -> DepthPoly:
    """Closed-form action of x_1^{2n} on a depth-(r-1) element.

    Sum over insertion slots i = 1..r of
    ((x_i - x_{i-1})^{2n} - (x_i - x_{i+1})^{2n}) g(x_1, .., x_i omitted, .., x_r)
    with x_0 = 0 and the i = r second term discarded.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    r = g.depth + 1
    m = 2 * n
    out = Poly.zero(r)
    for i in range(1, r + 1):
        factor = _difference_power(r, i, i - 1 if i > 1 else None, m)
        if i < r:
            factor = factor - _difference_power(r, i, i + 1, m)
        # times g(x_1, .., x_i omitted, .., x_r): g's x_i.. move up a slot
        out = out + factor * g.body.embed(r).permute_variables(
            [*range(i - 1), *range(i, r), i - 1])
    return DepthPoly(r, g.weight + 2 * n + 1, out)
