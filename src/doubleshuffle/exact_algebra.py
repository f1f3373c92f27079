"""Exact arithmetic substrate: rationals, sparse multivariate polynomials,
and one exact linear-algebra kernel on integer rows.

Everything here is exact.  Rationals are ``fractions.Fraction`` (always in
lowest terms, positive denominator).  A polynomial is a fixed-arity sparse
map from exponent tuples to nonzero coefficients, each an ``int`` when it
is integral and a ``Fraction`` otherwise; the zero polynomial is the empty
map.  The kernel takes integer rows and returns the canonical rational
nullspace (``nullspace_int``: reduced echelon forms mod p, lifted by CRT
and rational reconstruction, then certified by integer dot products) and
the reduced echelon form read off it (``span_rref``).  Exact ranks come
from fraction-free Bareiss elimination; a mod-p rank is a lower bound.

No floating point is used anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd, isqrt, lcm
from operator import add
from typing import Iterable, Sequence

import numpy as np

Rational = Fraction

Exponent = tuple[int, ...]
Coeff = int | Fraction

# The first prime of the mod-p passes.  Products of two reduced residues
# fit in int64, so numpy arithmetic below is exact.
_PRIME = 2147483647


def format_rational(q: Coeff) -> str:
    """Render p/q with the denominator omitted when it is 1."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def parse_rational(text: str) -> Fraction:
    return Fraction(text.strip())


def _coeff(value) -> Coeff:
    """A rational as an int when integral, else a Fraction."""
    if type(value) is int:
        return value
    q = Fraction(value)
    return int(q.numerator) if q.denominator == 1 else q


def _settled(terms: dict) -> dict:
    """Demote the integral Fractions among ``terms`` to ints, in place."""
    if Fraction in set(map(type, terms.values())):
        for exps, coeff in terms.items():
            if coeff.denominator == 1:
                terms[exps] = coeff.numerator
    return terms


def grlex_key(exps: Exponent) -> tuple[int, Exponent]:
    """Graded-lexicographic sort key: total degree ascending, then the
    exponent tuple lexicographically ascending.  This is the one canonical
    monomial order used for iteration, serialization and pivot choice."""
    return (sum(exps), exps)


class Poly:
    """Sparse multivariate polynomial over the rationals with fixed arity.

    ``terms`` maps exponent tuples (length == arity) to nonzero
    coefficients: ints when integral, Fractions with denominator > 1
    otherwise.  Instances are treated as immutable; all operations return
    new objects.
    """

    __slots__ = ("arity", "terms")

    def __init__(self, arity: int, terms: dict[Exponent, Coeff] | None = None,
                 _clean: bool = False):
        self.arity = arity
        if terms is None:
            self.terms = {}
        elif _clean:
            self.terms = terms
        else:
            clean: dict[Exponent, Coeff] = {}
            for exps, coeff in terms.items():
                if len(exps) != arity:
                    raise ValueError(f"exponent {exps} has length != arity {arity}")
                coeff = _coeff(coeff)
                if coeff:
                    clean[exps] = coeff
            self.terms = clean

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(arity: int) -> Poly:
        return Poly(arity, {}, _clean=True)

    @staticmethod
    def constant(arity: int, value) -> Poly:
        value = _coeff(value)
        if not value:
            return Poly.zero(arity)
        return Poly(arity, {(0,) * arity: value}, _clean=True)

    @staticmethod
    def variable(arity: int, index: int) -> Poly:
        if not 0 <= index < arity:
            raise ValueError(f"variable index {index} out of range for arity {arity}")
        exps = [0] * arity
        exps[index] = 1
        return Poly(arity, {tuple(exps): 1}, _clean=True)

    @staticmethod
    def monomial(exps: Sequence[int], coeff=1) -> Poly:
        return Poly(len(exps), {tuple(exps): coeff})

    # -- basic queries ------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, exps: Sequence[int]) -> Coeff:
        return self.terms.get(tuple(exps), 0)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def homogeneous_degree(self) -> int:
        """Degree of a homogeneous polynomial (0 for the zero polynomial)."""
        degs = {sum(e) for e in self.terms}
        if len(degs) > 1:
            raise ValueError("polynomial is not homogeneous")
        return degs.pop() if degs else 0

    def __len__(self) -> int:
        return len(self.terms)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Poly) and self.arity == other.arity
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.arity, frozenset(self.terms.items())))

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- arithmetic ---------------------------------------------------

    def _check_arity(self, other: Poly) -> None:
        if self.arity != other.arity:
            raise ValueError(f"arity mismatch: {self.arity} vs {other.arity}")

    def __add__(self, other: Poly) -> Poly:
        self._check_arity(other)
        terms = dict(self.terms)
        get = terms.get
        for exps, coeff in other.terms.items():
            new = get(exps, 0) + coeff
            if new:
                terms[exps] = new
            else:
                del terms[exps]
        return Poly(self.arity, _settled(terms), _clean=True)

    def __sub__(self, other: Poly) -> Poly:
        return self + -other

    def __neg__(self) -> Poly:
        return Poly(self.arity, {e: -c for e, c in self.terms.items()}, _clean=True)

    def scale(self, factor) -> Poly:
        factor = _coeff(factor)
        if not factor:
            return Poly.zero(self.arity)
        return Poly(self.arity,
                    _settled({e: c * factor for e, c in self.terms.items()}),
                    _clean=True)

    def __mul__(self, other: Poly) -> Poly:
        self._check_arity(other)
        out: dict[Exponent, Coeff] = {}
        get = out.get
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                key = tuple(map(add, ea, eb))
                new = get(key, 0) + ca * cb
                if new:
                    out[key] = new
                else:
                    del out[key]
        return Poly(self.arity, _settled(out), _clean=True)

    def __pow__(self, n: int) -> Poly:
        if n < 0:
            raise ValueError("negative power")
        result = Poly.constant(self.arity, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- structural operations ----------------------------------------

    def substitute(self, images: Sequence[Poly]) -> Poly:
        """Simultaneous substitution x_i -> images[i], fully expanded.

        All images must share one arity.  Powers of each image are cached,
        which matters when many monomials reuse the same exponents.
        """
        if len(images) != self.arity:
            raise ValueError(f"expected {self.arity} images, got {len(images)}")
        if not self.terms:
            out_arity = images[0].arity if images else 0
            return Poly.zero(out_arity)
        if images:
            out_arity = images[0].arity
            for img in images:
                if img.arity != out_arity:
                    raise ValueError("images have inconsistent arities")
        else:
            out_arity = 0
        one = Poly.constant(out_arity, 1)
        power_cache: list[dict[int, Poly]] = [{0: one, 1: img} for img in images]
        acc: dict[Exponent, Coeff] = {}
        for exps, coeff in self.terms.items():
            piece = one
            for i, e in enumerate(exps):
                if e == 0:
                    continue
                piece = piece * _cached_pow(power_cache[i], e)
            for pe, pc in piece.terms.items():
                new = acc.get(pe, 0) + coeff * pc
                if new:
                    acc[pe] = new
                else:
                    del acc[pe]
        return Poly(out_arity, _settled(acc), _clean=True)

    def shift(self, i: int, j: int, sign: int = 1) -> Poly:
        """Substitute x_i -> x_i + sign * x_j (i != j), expanded binomially."""
        if i == j or sign not in (1, -1):
            raise ValueError("a shift needs two distinct variables and sign ±1")
        out: dict[Exponent, Coeff] = {}
        get = out.get
        for exps, coeff in self.terms.items():
            a, b = exps[i], exps[j]
            new_exps = list(exps)
            for k in range(a + 1):
                new_exps[i] = a - k
                new_exps[j] = b + k
                key = tuple(new_exps)
                new = get(key, 0) + coeff * comb(a, k) * sign ** k
                if new:
                    out[key] = new
                else:
                    del out[key]
        return Poly(self.arity, _settled(out), _clean=True)

    def permute_variables(self, target: Sequence[int]) -> Poly:
        """Rename variables: old position i becomes position target[i]."""
        if sorted(target) != list(range(self.arity)):
            raise ValueError("target is not a permutation")
        out: dict[Exponent, Coeff] = {}
        for exps, coeff in self.terms.items():
            new = [0] * self.arity
            for i, e in enumerate(exps):
                new[target[i]] = e
            out[tuple(new)] = coeff
        return Poly(self.arity, out, _clean=True)

    def embed(self, arity: int, offset: int = 0) -> Poly:
        """View inside a larger variable ring, shifting variables by offset."""
        if offset + self.arity > arity:
            raise ValueError("embedding does not fit")
        pre = (0,) * offset
        post = (0,) * (arity - offset - self.arity)
        return Poly(arity, {pre + e + post: c for e, c in self.terms.items()},
                    _clean=True)

    def partial(self, index: int) -> Poly:
        """Partial derivative with respect to variable ``index``."""
        out: dict[Exponent, Coeff] = {}
        for exps, coeff in self.terms.items():
            e = exps[index]
            if e == 0:
                continue
            new = exps[:index] + (e - 1,) + exps[index + 1:]
            out[new] = out.get(new, 0) + coeff * e
        return Poly(self.arity, out)

    # -- ordering and serialization ------------------------------------

    def sorted_terms(self) -> list[tuple[Exponent, Coeff]]:
        """Terms in graded-lexicographic order (canonical iteration order)."""
        return sorted(self.terms.items(), key=lambda item: grlex_key(item[0]))

    def serialize(self) -> str:
        lines = []
        for exps, coeff in self.sorted_terms():
            lines.append(f"{','.join(map(str, exps))} : {format_rational(coeff)}")
        return "\n".join(lines)

    @staticmethod
    def parse(text: str, arity: int) -> Poly:
        terms: dict[Exponent, Coeff] = {}
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            exp_part, _, coeff_part = line.partition(":")
            exp_part = exp_part.strip()
            exps = tuple(int(x) for x in exp_part.split(",")) if exp_part else ()
            terms[exps] = parse_rational(coeff_part)
        return Poly(arity, terms)

    def __repr__(self) -> str:
        if not self.terms:
            return f"Poly({self.arity}, 0)"
        bits = []
        for exps, coeff in self.sorted_terms()[:6]:
            mono = "*".join(f"x{i + 1}^{e}" for i, e in enumerate(exps) if e)
            bits.append(f"{format_rational(coeff)}{'*' + mono if mono else ''}")
        suffix = ", ..." if len(self.terms) > 6 else ""
        return f"Poly({self.arity}, {' + '.join(bits)}{suffix})"


def _cached_pow(cache: dict[int, Poly], e: int) -> Poly:
    if e in cache:
        return cache[e]
    half = e // 2
    p = _cached_pow(cache, half) * _cached_pow(cache, half)
    if e & 1:
        p = p * cache[1]
    cache[e] = p
    return p


def divexact(p: Poly, q: Poly) -> Poly:
    """Exact division p / q; raises ValueError when q does not divide p.

    Plain long division against the graded-lex leading term of q.  Only the
    specific divisions needed by period polynomials use this (divisor a
    product of linear forms), so no fancy strategy is required.
    """
    if q.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    p._check_arity(q)
    lead_exp, lead_coeff = max(q.terms.items(), key=lambda item: grlex_key(item[0]))
    remainder = p
    quotient: dict[Exponent, Coeff] = {}
    while not remainder.is_zero():
        rexp, rcoeff = max(remainder.terms.items(),
                           key=lambda item: grlex_key(item[0]))
        diff = tuple(a - b for a, b in zip(rexp, lead_exp))
        if any(d < 0 for d in diff):
            raise ValueError("not divisible")
        factor = Fraction(rcoeff, lead_coeff)
        quotient[diff] = quotient.get(diff, 0) + factor
        remainder = remainder - q * Poly.monomial(diff, factor)
    return Poly(p.arity, quotient)


# ---------------------------------------------------------------------
# Exact linear algebra on integer rows
# ---------------------------------------------------------------------

def _int_array(rows, ncols: int) -> np.ndarray:
    """Integer rows as one int64 array, or as an ``object`` array of Python
    ints when an entry does not fit in int64."""
    try:
        return np.array(rows, dtype=np.int64).reshape(len(rows), ncols)
    except OverflowError:
        return np.array(rows, dtype=object).reshape(len(rows), ncols)


def _primes():
    """``_PRIME``, then the primes below it in decreasing order."""
    n = _PRIME
    while True:
        if all(n % d for d in range(3, isqrt(n) + 1, 2)):
            yield n
        n -= 2


def _modp_pivot_rows(mat: np.ndarray, ncols: int,
                     p: int = _PRIME) -> dict[int, np.ndarray]:
    """Gaussian elimination mod p of an integer row array; returns the
    pivot rows keyed by pivot column, so the mod-p rank is their number.

    Deterministic.  The rows are taken in order, 64 at a time, and the
    pass stops once the rank is ncols.  A block is first reduced by the
    pivot rows found so far, in increasing pivot column (each is zero left
    of its pivot column, so this clears every pivot column), then its
    columns are scanned left to right and the first usable row becomes the
    pivot.  Each pivot row is 1 at its column, 0 left of it and 0 at every
    pivot column found before it.
    """
    pivots: dict[int, np.ndarray] = {}
    for start in range(0, len(mat), 64):
        if len(pivots) == ncols:
            break
        block = np.asarray(mat[start:start + 64] % p, dtype=np.int64)
        for c in sorted(pivots):
            _eliminate_modp(block, pivots[c], c, p)
        r = 0
        for c in range(ncols):
            if r == len(block):
                break
            nz = np.nonzero(block[r:, c])[0]
            if nz.size == 0:
                continue
            i = r + int(nz[0])
            if i != r:
                block[[r, i]] = block[[i, r]]
            block[r, c:] = block[r, c:] * pow(int(block[r, c]), p - 2, p) % p
            pivots[c] = block[r]
            _eliminate_modp(block[r + 1:], block[r], c, p)
            r += 1
    return pivots


def _eliminate_modp(block: np.ndarray, pivot_row: np.ndarray, c: int,
                    p: int) -> None:
    """Clear column c of ``block`` with ``pivot_row`` (1 at c, 0 left of c)."""
    nz = np.nonzero(block[:, c])[0]
    if nz.size:
        sub = block[nz, c:]
        block[nz, c:] = (sub - sub[:, :1] * pivot_row[c:]) % p


def _rational(x: int, m: int) -> Fraction | None:
    """The a/b with a = b x (mod m) and |a|, b <= sqrt(m / 2), or None
    (Wang 1981; such an a/b is unique)."""
    bound = isqrt(m // 2)
    r0, r1, t0, t1 = m, x, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if 0 < abs(t1) <= bound and gcd(r1, t1) == 1:
        return Fraction(r1, t1)
    return None


def _reconstruct(residues: np.ndarray, m: int,
                 start: int) -> tuple[list[list[Fraction]] | None, int]:
    """Rational reconstructions mod m of the columns of ``residues`` (pivots
    x free) and ``start``, or None and the first column that fails.  Columns
    are tried from ``start`` on, then the ones before it: started at the
    column that failed under the previous modulus, an attempt that cannot
    succeed yet usually stops within that column."""
    columns: list = [None] * residues.shape[1]
    for j in [*range(start, len(columns)), *range(start)]:
        column = []
        for x in residues[:, j]:
            q = _rational(int(x), m)
            if q is None:
                return None, j
            column.append(q)
        columns[j] = column
    return columns, start


def _certified_basis(mat: np.ndarray, columns: list[list[Fraction]],
                     pivots: list[int], free: list[int],
                     amax: int) -> list[list[Fraction]] | None:
    """The vectors that are 1 at their free column and ``columns`` at the
    pivots; None unless every row of ``mat`` annihilates every vector
    exactly."""
    basis, nums, denoms = [], [], []
    for f, entries in zip(free, columns):
        denom = lcm(*(q.denominator for q in entries))
        nums.append([q.numerator * denom // q.denominator for q in entries])
        denoms.append(denom)
        vec = [Fraction(0)] * mat.shape[1]
        vec[f] = Fraction(1)
        for c, q in zip(pivots, entries):
            vec[c] = q
        basis.append(vec)
    # integer dot products, in int64 when no partial sum can overflow
    vecs = np.zeros((len(free), mat.shape[1]), dtype=object)
    vecs[:, pivots] = nums
    vecs[range(len(free)), free] = denoms
    width = max(sum(map(abs, num)) + d for num, d in zip(nums, denoms))
    exact = np.int64 if mat.dtype != object and amax * width < 2 ** 63 else object
    check = mat.astype(exact, copy=False) @ vecs.T.astype(exact)
    return None if check.any() else basis


def nullspace_int(rows: Sequence[Sequence[int]],
                  ncols: int) -> list[list[Fraction]]:
    """Exact nullspace basis of an integer row system, deterministically.

    The basis is the canonical one of the reduced row echelon form R: one
    vector per free column f, with 1 at f, 0 at every other free column
    and -R[:, f] at the pivots.  Each prime runs one mod-p elimination of
    the distinct nonzero rows and back-eliminates its pivot rows to R mod
    p.  A full mod-p rank proves the nullspace zero.  Otherwise the primes
    with the best key (highest rank, then lexicographically first pivot
    columns) are combined by CRT and rational reconstruction, and the
    vectors are returned once every row times every vector is exactly 0.
    That check is the certificate: the k vectors that pass are independent
    null vectors, each zero after its own free column, and k = ncols - rank
    mod p is at least the nullity over Q, so the mod-p free columns are the
    free columns over Q and the vectors are exactly the canonical basis.
    """
    mat = _int_array(list(dict.fromkeys(tuple(row) for row in rows if any(row))),
                     ncols)
    amax = max(int(mat.max()), -int(mat.min())) if mat.size else 0
    # An unlucky prime divides a nonzero pivot minor, at most H (Hadamard,
    # H^2 <= h2), and reconstruction succeeds once the lucky primes exceed
    # 2 H^2, so the primes tried never need to exceed 2 H^3.
    h2 = (ncols * amax * amax) ** min(mat.shape)
    tried, best = 1, None
    for p in _primes():
        pivots = _modp_pivot_rows(mat, ncols, p)
        if len(pivots) == ncols:
            return []
        cols = sorted(pivots)
        key = (-len(cols), cols)
        if best is None or key < best:
            best, residues, m, hard = key, 0, 1, 0
        if key == best:
            red = np.array([pivots[c] for c in cols],
                           dtype=np.int64).reshape(len(cols), ncols)
            for i in reversed(range(len(cols))):
                _eliminate_modp(red[:i], red[i], cols[i], p)
            free = [f for f in range(ncols) if f not in pivots]
            res = (-red[:, free] % p).astype(object)
            residues = residues + m * ((res - residues) * pow(m, -1, p) % p)
            m *= p
            columns, hard = _reconstruct(residues, m, hard)
            if columns is not None:
                basis = _certified_basis(mat, columns, cols, free, amax)
                if basis is not None:
                    return basis
        tried *= p
        if tried ** 2 > 4 * h2 ** 3:
            raise AssertionError(f"nullspace not certified by the primes down to {p}")


def span_rref(vectors: Iterable[Sequence], ncols: int) -> list[list[Fraction]]:
    """Reduced row echelon form of the span of rational vectors: one row per
    pivot column, in ascending order (deterministic).

    The rows are read off the canonical nullspace basis of the vectors,
    whose free column is each one's last nonzero entry: row p has 1 at p,
    0 at the other pivots and -basis_f[p] at each free column f.
    """
    rows = []
    for vec in vectors:
        denom = lcm(*(x.denominator for x in vec))
        rows.append([int(x * denom) for x in vec])
    basis = nullspace_int(rows, ncols)
    free = [max(j for j, x in enumerate(vec) if x) for vec in basis]
    out = []
    for p in sorted(set(range(ncols)).difference(free)):
        row = [Fraction(0)] * ncols
        row[p] = Fraction(1)
        for f, vec in zip(free, basis):
            row[f] = -vec[p]
        out.append(row)
    return out


def rank_bareiss(rows: list[list[int]]) -> int:
    """Exact rank by fraction-free Bareiss elimination on integer rows."""
    mat = [list(row) for row in rows if any(row)]
    if not mat:
        return 0
    nrows = len(mat)
    ncols = len(mat[0])
    prev = 1
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, nrows):
            if mat[i][c]:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            mat[r], mat[piv] = mat[piv], mat[r]
        pivot = mat[r][c]
        for i in range(r + 1, nrows):
            row_i = mat[i]
            head = row_i[c]
            row_r = mat[r]
            for j in range(c, ncols):
                row_i[j] = (pivot * row_i[j] - head * row_r[j]) // prev
        prev = pivot
        r += 1
        if r == nrows:
            break
    return r


def rank_modular(rows: list[list[int]], ncols: int, p: int = _PRIME) -> int:
    """Rank mod p.  Always a lower bound for the rank over Q."""
    return len(_modp_pivot_rows(_int_array(rows, ncols), ncols, p))


def full_rank_certificate(rows: list[list[int]], ncols: int) -> bool:
    """True guarantees rank == ncols over Q (mod-p rank is a lower bound)."""
    return rank_modular(rows, ncols) == ncols
