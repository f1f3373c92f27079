"""Truncated bivariate integer power series for dimension bookkeeping.

The first variable grades by weight, the second by depth.  Everything is
exact integer arithmetic under a fixed truncation; no coefficient beyond
the truncation is ever read.  On top of the raw arithmetic this module
builds the even/odd/cusp series, the Broadhurst-Kreimer style rational
functions, the Poincare-Birkhoff-Witt product converting graded Lie
dimensions into enveloping-algebra dimensions, and free-Lie dimension
counts.
"""

from __future__ import annotations

from math import comb

from .period_poly import cusp_dimension

DimTable = dict[tuple[int, int], int]


class BiSeries:
    """Integer power series in (s, t), truncated at max_s and max_t."""

    __slots__ = ("max_s", "max_t", "coeffs")

    def __init__(self, max_s: int, max_t: int,
                 coeffs: list[list[int]] | None = None):
        self.max_s = max_s
        self.max_t = max_t
        if coeffs is None:
            self.coeffs = [[0] * (max_t + 1) for _ in range(max_s + 1)]
        else:
            self.coeffs = coeffs

    @staticmethod
    def one(max_s: int, max_t: int) -> BiSeries:
        out = BiSeries(max_s, max_t)
        out.coeffs[0][0] = 1
        return out

    @staticmethod
    def term(max_s: int, max_t: int, s: int, t: int, value: int = 1) -> BiSeries:
        if s < 0 or t < 0:
            raise IndexError("negative power")
        out = BiSeries(max_s, max_t)
        if s <= max_s and t <= max_t:
            out.coeffs[s][t] = value
        return out

    @staticmethod
    def from_s_coeffs(values: list[int], max_s: int, max_t: int) -> BiSeries:
        """Univariate-in-s series (t-degree zero)."""
        out = BiSeries(max_s, max_t)
        for n, v in enumerate(values[:max_s + 1]):
            out.coeffs[n][0] = v
        return out

    def coefficient(self, s: int, t: int) -> int:
        if not (0 <= s <= self.max_s and 0 <= t <= self.max_t):
            raise IndexError("coefficient outside the truncation")
        return self.coeffs[s][t]

    def _check(self, other: BiSeries) -> None:
        if self.max_s != other.max_s or self.max_t != other.max_t:
            raise ValueError("truncation mismatch")

    def __add__(self, other: BiSeries) -> BiSeries:
        self._check(other)
        return BiSeries(self.max_s, self.max_t,
                        [[a + b for a, b in zip(ra, rb)]
                         for ra, rb in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: BiSeries) -> BiSeries:
        return self + other.scale(-1)

    def scale(self, factor: int) -> BiSeries:
        return BiSeries(self.max_s, self.max_t,
                        [[factor * v for v in row] for row in self.coeffs])

    def __mul__(self, other: BiSeries) -> BiSeries:
        self._check(other)
        out = BiSeries(self.max_s, self.max_t)
        oc = out.coeffs
        for sa, row_a in enumerate(self.coeffs):
            for ta, va in enumerate(row_a):
                if not va:
                    continue
                for sb in range(self.max_s - sa + 1):
                    row_b = other.coeffs[sb]
                    target = oc[sa + sb]
                    for tb in range(self.max_t - ta + 1):
                        vb = row_b[tb]
                        if vb:
                            target[ta + tb] += va * vb
        return out

    def times_t(self, power: int = 1) -> BiSeries:
        """Shift by t^power (coefficients pushed past max_t are dropped)."""
        out = BiSeries(self.max_s, self.max_t)
        for s, row in enumerate(self.coeffs):
            for t, v in enumerate(row):
                if v and t + power <= self.max_t:
                    out.coeffs[s][t + power] = v
        return out

    def inverse(self) -> BiSeries:
        """Multiplicative inverse; the constant term must be 1.  One
        triangular pass: c_(s,t) = -sum a_(i,j) c_(s-i,t-j), (i,j) != (0,0)."""
        if self.coeffs[0][0] != 1:
            raise ValueError("inverse needs constant term 1")
        terms = [(i, j, a) for i, row in enumerate(self.coeffs)
                 for j, a in enumerate(row) if a and (i or j)]
        out = BiSeries.one(self.max_s, self.max_t)
        c = out.coeffs
        for s, row in enumerate(c):
            for t in range(self.max_t + 1):
                row[t] -= sum(a * c[s - i][t - j] for i, j, a in terms
                              if i <= s and j <= t)
        return out

    def t_at_one(self) -> list[int]:
        """Collapse t to 1: valid only when the truncation in t captures
        every nonzero contribution (caller's responsibility)."""
        return [sum(row) for row in self.coeffs]

    def __eq__(self, other) -> bool:
        return (isinstance(other, BiSeries) and self.max_s == other.max_s
                and self.max_t == other.max_t and self.coeffs == other.coeffs)

    def dump_rows(self) -> list[tuple[int, int, int]]:
        """(s_power, t_power, coefficient) triples for nonzero entries."""
        return [(s, t, v) for s, row in enumerate(self.coeffs)
                for t, v in enumerate(row) if v]


# ---------------------------------------------------------------------
# The even / odd / cusp dimension series
# ---------------------------------------------------------------------

def eos(max_s: int = 40, max_t: int = 8) -> tuple[BiSeries, BiSeries, BiSeries]:
    """E = s^2/(1-s^2), O = s^3/(1-s^2), S = s^12/((1-s^4)(1-s^6))."""
    E = [0] * (max_s + 1)
    O = [0] * (max_s + 1)
    S = [cusp_dimension(n) for n in range(max_s + 1)]
    for n in range(2, max_s + 1, 2):
        E[n] = 1
    for n in range(3, max_s + 1, 2):
        O[n] = 1
    return (BiSeries.from_s_coeffs(E, max_s, max_t),
            BiSeries.from_s_coeffs(O, max_s, max_t),
            BiSeries.from_s_coeffs(S, max_s, max_t))


def bk_series(kind: str, max_s: int = 40, max_t: int = 8) -> BiSeries:
    """The three rational-function expansions governing the dimensions.

    'full': (1 + E t) / (1 - O t + S t^2 - S t^4)
    'ls':   1 / (1 - O t + S t^2 - S t^4)
    'odd':  1 / (1 - O t + S t^2)
    """
    E, O, S = eos(max_s, max_t)
    one = BiSeries.one(max_s, max_t)
    if kind in ("full", "ls"):
        denom = one - O.times_t(1) + S.times_t(2) - S.times_t(4)
    elif kind == "odd":
        denom = one - O.times_t(1) + S.times_t(2)
    else:
        raise ValueError(f"unknown series kind {kind!r}")
    inv = denom.inverse()
    if kind == "full":
        return (one + E.times_t(1)) * inv
    return inv


def pbw(lie_dims: DimTable, max_s: int = 40, max_t: int = 8) -> BiSeries:
    """Enveloping-algebra dimension series of a bigraded Lie algebra:
    the product over (N, d) of (1 - s^N t^d)^(-dim)."""
    out = BiSeries.one(max_s, max_t)
    for (N, d), m in sorted(lie_dims.items()):
        if m == 0 or N > max_s:
            continue
        if N <= 0 or d <= 0:
            raise ValueError("generators need positive weight and depth")
        factor = BiSeries(max_s, max_t)
        j = 0
        while j * N <= max_s and j * d <= max_t:
            factor.coeffs[j * N][j * d] = comb(m - 1 + j, j)
            j += 1
        out = out * factor
    return out


# ---------------------------------------------------------------------
# Free Lie algebra dimension counting
# ---------------------------------------------------------------------

def _mobius(n: int) -> int:
    result = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            result = -result
        d += 1
    if n > 1:
        result = -result
    return result


def free_lie_dims(gen_weights: list[int], max_s: int, max_depth: int) -> DimTable:
    """Dimensions of the free Lie algebra on one generator per listed
    weight, graded by (weight, number of generator factors).

    Necklace formula: dim at depth d is (1/d) sum over e | d of
    mobius(e) * [s^N] v(s^e)^(d/e), with v the generator weight series.
    """
    v = [0] * (max_s + 1)
    for w in gen_weights:
        if w <= max_s:
            v[w] += 1
    table: DimTable = {}
    for d in range(1, max_depth + 1):
        acc = BiSeries(max_s, 0)
        for e in range(1, d + 1):
            mu = _mobius(e)
            if d % e or not mu:
                continue
            # v(s^e)^(d/e)
            ve = BiSeries.from_s_coeffs([0 if n % e else v[n // e]
                                         for n in range(max_s + 1)], max_s, 0)
            power = BiSeries.one(max_s, 0)
            for _ in range(d // e):
                power = power * ve
            acc = acc + power.scale(mu)
        for n, count in enumerate(acc.t_at_one()):
            if count:
                q, rem = divmod(count, d)
                assert rem == 0, "necklace count not divisible by depth"
                table[(n, d)] = q
    return table


def hoffman_dims(max_s: int) -> list[int]:
    """Coefficients of 1/(1 - s^2 - s^3): d_N = d_{N-2} + d_{N-3}."""
    out = [0] * (max_s + 1)
    out[0] = 1
    for n in range(1, max_s + 1):
        out[n] = (out[n - 2] if n >= 2 else 0) + (out[n - 3] if n >= 3 else 0)
    return out
