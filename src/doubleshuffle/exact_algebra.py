"""Exact arithmetic substrate: rationals, sparse multivariate polynomials,
and one exact linear-algebra kernel on integer rows.

Everything here is exact.  Rationals are ``fractions.Fraction`` (always in
lowest terms, positive denominator).  A polynomial is a fixed-arity sparse
map from exponent tuples to nonzero coefficients, each an ``int`` when it
is integral and a ``Fraction`` otherwise; the zero polynomial is the empty
map.  The kernel takes integer rows and returns the canonical rational
nullspace (``nullspace_int``: reduced echelon forms mod p, lifted by CRT
and rational reconstruction, then certified as integer columns) and the
reduced echelon form read off them (``span_rref``).  Exact ranks come
from fraction-free Bareiss elimination; a mod-p rank is a lower bound.

Floating point is used only for the mod-p matrix products, in float64,
where every partial sum is an integer below 2^53 and so is exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd, isqrt, lcm
from operator import add
from typing import Iterable, Sequence

import numpy as np

Exponent = tuple[int, ...]
Coeff = int | Fraction

# The first prime of the mod-p passes, the largest below 2^20.  A float64
# sum of up to _CHUNK products of two residues is an exact integer below
# 2^53, whatever the order of summation.
_PRIME = 1048573
_CHUNK = 8192


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
        return len({sum(e) for e in self.terms}) <= 1

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
        return _cached_pow({0: Poly.constant(self.arity, 1), 1: self}, n)

    # -- structural operations ----------------------------------------

    def substitute(self, images: Sequence[Poly]) -> Poly:
        """Simultaneous substitution x_i -> images[i], fully expanded.

        All images must share one arity.  Powers of each image are cached,
        which matters when many monomials reuse the same exponents.
        """
        if len(images) != self.arity:
            raise ValueError(f"expected {self.arity} images, got {len(images)}")
        out_arity = images[0].arity if images else 0
        if not self.terms:
            return Poly.zero(out_arity)
        if any(img.arity != out_arity for img in images):
            raise ValueError("images have inconsistent arities")
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
        return _shifted(self, [(i, j, sign)])

    def permute_variables(self, target: Sequence[int]) -> Poly:
        """Rename variables: old position i becomes position target[i]."""
        if sorted(target) != list(range(self.arity)):
            raise ValueError("target is not a permutation")
        source = sorted(range(self.arity), key=target.__getitem__)  # inverse
        return Poly(self.arity, {tuple([exps[i] for i in source]): coeff
                                 for exps, coeff in self.terms.items()},
                    _clean=True)

    def embed(self, arity: int, offset: int = 0) -> Poly:
        """View inside a larger variable ring, shifting variables by offset."""
        if offset + self.arity > arity:
            raise ValueError("embedding does not fit")
        pre = (0,) * offset
        post = (0,) * (arity - offset - self.arity)
        return Poly(arity, {pre + e + post: c for e, c in self.terms.items()},
                    _clean=True)

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
# Packed exponent codes: exponent k of a code is code // steps[k] % b
# ---------------------------------------------------------------------

def _coeff_array(values: list, growth: int = 1) -> np.ndarray:
    """Coefficients as an int64 array when they are ints and growth times
    the largest magnitude is below 2^63, else as an ``object`` array."""
    if (all(type(c) is int for c in values)
            and max(map(abs, values), default=0) * growth < 2 ** 63):
        return np.array(values, dtype=np.int64)
    return np.array(values, dtype=object)


def _sum_equal_codes(codes: np.ndarray, coeffs: np.ndarray):
    """Sort the codes, sum the coefficients of equal codes, drop zero sums."""
    order = np.argsort(codes)
    codes, coeffs = codes[order], coeffs[order]
    starts = np.flatnonzero(np.concatenate(([True], codes[1:] != codes[:-1])))
    sums = np.add.reduceat(coeffs, starts)
    keep = sums != 0
    return codes[starts][keep], sums[keep]


def _binomial_shift(codes: np.ndarray, coeffs: np.ndarray, steps: np.ndarray,
                    b: int, shifts: list[tuple[int, int, int]]):
    """x_i -> x_i + sign * x_j for each (i, j, sign) of ``shifts`` in turn,
    on codes of total degree below b: an entry with exponent a in x_i
    becomes its a + 1 binomial images, and equal codes are summed.  An image
    gathers at most ``growth`` times the largest coefficient, so int64
    coefficients widen to objects before a shift that could pass 2^63."""
    growth = comb(b, b // 2)  # >= the sum of comb(a, a') over a' <= a < b
    for i, j, sign in shifts:
        if coeffs.dtype != object and int(abs(coeffs).max()) * growth >= 2 ** 63:
            coeffs = coeffs.astype(object)
        a = (codes // steps[i] % b).astype(np.int64)
        top = int(a.max()) + 1
        binomial = np.array([[comb(x, t) * sign ** t for t in range(top)]
                             for x in range(top)], dtype=coeffs.dtype)
        # entry source[n] gives its image t = 0..a: x_i^(a-t) x_j^t
        source = np.repeat(np.arange(len(codes)), a + 1)
        t = np.arange(len(source)) - np.repeat(np.cumsum(a + 1) - a - 1, a + 1)
        codes, coeffs = _sum_equal_codes(
            codes[source] + t.astype(codes.dtype) * (steps[j] - steps[i]),
            coeffs[source] * binomial[a[source], t])
    return codes, coeffs


def _poly_of_codes(arity: int, codes: np.ndarray, coeffs: np.ndarray,
                   b: int) -> Poly:
    """The polynomial of distinct codes with steps b^(arity-1-k)."""
    keys = np.empty(len(codes), dtype=[(f"y{k}", np.min_scalar_type(b - 1))
                                       for k in range(arity)])
    for k in reversed(range(arity)):
        keys[f"y{k}"] = codes % b
        codes = codes // b
    return Poly(arity, _settled(dict(zip(keys.tolist(), coeffs.tolist()))),
                _clean=True)


def _shifted(f: Poly, shifts: list[tuple[int, int, int]]) -> Poly:
    """f under the ``_binomial_shift`` of ``shifts``, packed once."""
    if not f.terms or not shifts:
        return f
    b = max(map(sum, f.terms)) + 1  # shifts keep each total degree
    code = np.int64 if b ** f.arity < 2 ** 63 else object
    steps = np.array([b ** k for k in reversed(range(f.arity))], dtype=code)
    exps = _int_array(list(f.terms), f.arity).astype(code)
    codes, coeffs = _binomial_shift(
        exps @ steps, _coeff_array(list(f.terms.values())), steps, b, shifts)
    return _poly_of_codes(f.arity, codes, coeffs, b)


# ---------------------------------------------------------------------
# Exact linear algebra on integer rows
# ---------------------------------------------------------------------

def _int_array(rows, ncols: int) -> np.ndarray:
    """Integer rows as one int64 array, or as an ``object`` array of Python
    ints past int64 (kept as is); a non-integral entry raises ValueError."""
    if isinstance(rows, np.ndarray) and rows.dtype in (np.int64, object):
        return rows
    mat = np.array(rows).reshape(len(rows), ncols)
    if mat.dtype.kind != "i" and mat.size:
        mat = np.array(rows, dtype=object).reshape(len(rows), ncols)
        if (mat % 1).any():
            raise ValueError("integer rows have a non-integral entry")
    try:
        return mat.astype(np.int64, copy=False)
    except OverflowError:
        return mat


def _primes():
    """``_PRIME``, then the primes below it in decreasing order, by trial
    division (at most 512 odd divisors below 2^20)."""
    n = _PRIME
    while True:
        if all(n % d for d in range(3, isqrt(n) + 1, 2)):
            yield n
        n -= 2


def _mulmod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p for int64 residues, as float64 products over at most
    _CHUNK terms of the inner dimension at a time, which are exact."""
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    for k in range(0, a.shape[1], _CHUNK):
        out += (a[:, k:k + _CHUNK].astype(float)
                @ b[k:k + _CHUNK].astype(float)).astype(np.int64) % p
    return out % p


def _modp_rref(mat: np.ndarray, ncols: int,
               p: int) -> tuple[list[int], np.ndarray]:
    """Reduced row echelon form mod p of an integer row array: the pivot
    columns ascending, and int64 rows, row i 1 at cols[i] and 0 at the other
    pivot columns.  The mod-p rank is their number.

    Deterministic blocked Gauss-Jordan.  The rows are taken in order, 64 at
    a time, until the rank is ncols.  One product reduces a block by all
    earlier rows.  Then, row by row, the first nonzero entry of a row is a
    pivot, cleared from the other rows of the block.  One more product
    clears the block's new pivot columns from the earlier rows.
    """
    red = np.zeros((min(len(mat), ncols), ncols), dtype=np.int64)
    cols: list[int] = []
    for start in range(0, len(mat), 64):
        rank = len(cols)
        if rank == ncols:
            break
        block = np.asarray(mat[start:start + 64] % p, dtype=np.int64)
        if rank:
            block = (block - _mulmod(block[:, cols], red[:rank], p)) % p
        new = []
        for i, row in enumerate(block):
            nz = np.flatnonzero(row)
            if nz.size:
                c = int(nz[0])
                row[c:] = row[c:] * pow(int(row[c]), p - 2, p) % p
                hit = np.flatnonzero(block[:, c])
                hit = hit[hit != i]
                block[hit, c:] = (block[hit, c:] - block[hit, c:c + 1] * row[c:]) % p
                new.append(i)
                cols.append(c)
        if new:
            # the new rows are 0 left of their leftmost pivot column c
            c = min(cols[rank:])
            fresh = block[new, c:]
            red[:rank, c:] = (red[:rank, c:]
                              - _mulmod(red[:rank, cols[rank:]], fresh, p)) % p
            red[rank:len(cols), c:] = fresh
    return sorted(cols), red[np.argsort(cols)]


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


def _reconstruct(residues: np.ndarray,
                 m: int) -> list[tuple[int, list[int]]] | None:
    """Rational reconstructions mod m of the columns of ``residues`` (pivots
    x free) as (d, numerators over d), d the lcm of the denominators; None
    if an entry has none.  When d and the centred residue y of d x are at
    most sqrt(m / 2), y / d is Wang's unique answer for x; otherwise
    ``_rational`` reads x, and its denominator, prime to m, extends d."""
    half = m // 2
    bound = isqrt(half)
    columns = []
    for column in residues.T.tolist():
        d, nums = 1, []
        for x in column:
            y = (d * x + half) % m - half
            if not (d <= bound and -bound <= y <= bound):
                q = _rational(x, m)
                if q is None:
                    return None
                scale = q.denominator // gcd(d, q.denominator)
                nums = [n * scale for n in nums]
                d *= scale
                y = q.numerator * (d // q.denominator)
            nums.append(y)
        columns.append((d, nums))
    return columns


def _certified(mat: np.ndarray, pivots: list[int], free: list[int],
               columns: list[tuple[int, list[int]]], amax: int) -> bool:
    """Does every row of ``mat`` annihilate, for each free column f and its
    (d, n), the vector that is d at f and n at the pivots: is mat[:, pivots]
    @ n + mat[:, free] * d zero?  In int64 when no partial sum can overflow."""
    width = max(sum(map(abs, nums)) + d for d, nums in columns)
    exact = np.int64 if mat.dtype != object and amax * width < 2 ** 63 else object
    ds, nums = (np.array(x, dtype=exact) for x in zip(*columns))
    mat = mat.astype(exact, copy=False)
    return not (mat[:, pivots] @ nums.T + mat[:, free] * ds).any()


def nullspace_int(rows: np.ndarray | Sequence[Sequence[int]],
                  ncols: int) -> list[list[Coeff]]:
    """Exact canonical nullspace basis of integer rows: one vector per free
    column f of their reduced echelon form R, 1 at f, 0 at the other free
    columns and -R[:, f] at the pivots, each entry an int when integral.
    The one place where the kernel's integer columns become vectors."""
    pivots, free, columns = _nullspace(rows, ncols)
    basis = []
    for f, (d, nums) in zip(free, columns):
        vec: list[Coeff] = [0] * ncols
        vec[f] = 1
        for c, n in zip(pivots, nums):
            vec[c] = _coeff(Fraction(n, d))
        basis.append(vec)
    return basis


def _nullspace(rows, ncols: int) -> tuple[list[int], list[int],
                                         list[tuple[int, list[int]]]]:
    """The pivot and free columns of the reduced row echelon form R of
    integer rows, ascending, and per free column f one integer column
    (d, n), d > 0 and n over the pivots, with n / d = -R[:, f].

    Each prime runs one mod-p Gauss-Jordan pass over the nonzero rows,
    which gives R mod p; a full mod-p rank proves the nullspace zero.
    Otherwise the primes with the best key (highest rank, then the
    lexicographically first pivots) are combined by CRT and rational
    reconstruction until ``_certified`` holds: the k null vectors that
    pass are independent, each zero after its own free column, and k =
    ncols - rank mod p is at least the nullity over Q, so R has the pivots
    mod p and the columns are exact.
    """
    mat = _int_array(rows, ncols)
    nonzero = mat.any(axis=1)
    if not nonzero.all():
        mat = mat[nonzero]
    amax = max(int(mat.max()), -int(mat.min())) if mat.size else 0
    # An unlucky prime divides a nonzero pivot minor, at most H (Hadamard,
    # H^2 <= h2), and reconstruction succeeds once the lucky primes exceed
    # 2 H^2, so the primes tried never need to exceed 2 H^3.
    h2 = (ncols * amax * amax) ** min(mat.shape)
    tried, best = 1, None
    for p in _primes():
        cols, red = _modp_rref(mat, ncols, p)
        if len(cols) == ncols:
            return cols, [], []
        key = (-len(cols), cols)
        if best is None or key < best:
            best, residues, m = key, 0, 1
        if key == best:
            free = sorted(set(range(ncols)).difference(cols))
            res = (-red[:, free] % p).astype(object)
            residues = residues + m * ((res - residues) * pow(m, -1, p) % p)
            m *= p
            columns = _reconstruct(residues, m)
            if columns is not None and _certified(mat, cols, free, columns,
                                                  amax):
                return cols, free, columns
        tried *= p
        if tried ** 2 > 4 * h2 ** 3:
            raise AssertionError(f"nullspace not certified by the primes down to {p}")


def span_rref(vectors: Iterable[Sequence], ncols: int) -> list[list[Coeff]]:
    """Reduced row echelon form of the span of rational vectors: one row per
    pivot column, in ascending order (deterministic).

    Row i is read off the nullspace columns of the vectors: 1 at pivot i,
    0 at the other pivots and -n_i / d at the free column of each (d, n).
    """
    rows = []
    for vec in vectors:
        denom = lcm(*(x.denominator for x in vec))
        rows.append([int(x * denom) for x in vec])
    pivots, free, columns = _nullspace(rows, ncols)
    out = []
    for i, p in enumerate(pivots):
        row: list[Coeff] = [0] * ncols
        row[p] = 1
        for f, (d, nums) in zip(free, columns):
            row[f] = _coeff(Fraction(-nums[i], d))
        out.append(row)
    return out


def rank_bareiss(rows: np.ndarray | Sequence[Sequence[int]]) -> int:
    """Exact rank by fraction-free Bareiss elimination, in Python ints."""
    ncols = len(rows[0]) if len(rows) else 0
    mat = [row for row in _int_array(rows, ncols).tolist() if any(row)]
    if not mat:
        return 0
    nrows = len(mat)
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


def rank_modular(rows: list[list[int]], ncols: int) -> int:
    """Rank mod _PRIME.  Always a lower bound for the rank over Q."""
    return len(_modp_rref(_int_array(rows, ncols), ncols, _PRIME)[0])


def full_rank_certificate(rows: list[list[int]], ncols: int) -> bool:
    """True guarantees rank == ncols over Q (mod-p rank is a lower bound)."""
    return rank_modular(rows, ncols) == ncols
