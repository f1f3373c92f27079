"""Tests for rationals, sparse polynomials and exact linear algebra."""

import random
from fractions import Fraction
from itertools import islice
from math import isqrt, lcm, prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doubleshuffle import exact_algebra
from doubleshuffle.exact_algebra import (_PRIME, Poly, divexact,
                                         format_rational,
                                         full_rank_certificate, grlex_key,
                                         nullspace_int, parse_rational,
                                         rank_bareiss, rank_modular, span_rref)
from doubleshuffle.double_shuffle import partial_sum_transform
from doubleshuffle.words import translation_lift
from poly_helpers import (is_integral, is_settled, lift_by_substitution,
                          polys, psum_by_substitution)


def random_poly(rng, arity, max_deg=3, max_terms=4):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = tuple(rng.randint(0, max_deg) for _ in range(arity))
        terms[exps] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return Poly(arity, terms)


# -- rationals ---------------------------------------------------------

def test_rational_normalization():
    q = Fraction(6, -4)
    assert q.numerator == -3 and q.denominator == 2
    assert Fraction(0, 7) == Fraction(0, 1)
    assert format_rational(Fraction(-3, 2)) == "-3/2"
    assert format_rational(Fraction(5)) == "5"
    assert parse_rational("7/3") == Fraction(7, 3)
    assert parse_rational("-2") == Fraction(-2)


def test_rational_ops_stay_reduced():
    rng = random.Random(1)
    for _ in range(200):
        a = Fraction(rng.randint(-30, 30), rng.randint(1, 30))
        b = Fraction(rng.randint(-30, 30), rng.randint(1, 30))
        for value in (a + b, a - b, a * b):
            assert value.denominator > 0
            from math import gcd
            assert gcd(value.numerator, value.denominator) == 1


# -- polynomial arithmetic ---------------------------------------------

def test_add_same_monomial():
    x1sq = Poly.monomial((2,))
    assert (x1sq + x1sq) == Poly.monomial((2,), 2)


def test_difference_of_squares():
    x1 = Poly.variable(2, 0)
    x2 = Poly.variable(2, 1)
    assert (x1 + x2) * (x1 - x2) == x1 * x1 - x2 * x2


def test_smallest_cusp_polynomial_expansion():
    # X^2 Y^2 (X-Y)^3 (X+Y)^3 = X^8 Y^2 - 3 X^6 Y^4 + 3 X^4 Y^6 - X^2 Y^8
    X = Poly.variable(2, 0)
    Y = Poly.variable(2, 1)
    product = (X ** 2) * (Y ** 2) * ((X - Y) ** 3) * ((X + Y) ** 3)
    expected = Poly(2, {(8, 2): 1, (6, 4): -3, (4, 6): 3, (2, 8): -1})
    assert product == expected


def test_arity_mismatch_raises():
    with pytest.raises(ValueError):
        Poly.variable(2, 0) + Poly.variable(3, 0)
    with pytest.raises(ValueError):
        Poly.variable(2, 0) * Poly.variable(1, 0)


def test_ring_laws_randomized():
    rng = random.Random(7)
    for _ in range(60):
        a = random_poly(rng, 2)
        b = random_poly(rng, 2)
        c = random_poly(rng, 2)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


@settings(max_examples=60, deadline=None)
@given(data=st.data(), arity=st.integers(1, 4))
def test_ring_axioms_mixed_coefficients(data, arity):
    a, b, c = (data.draw(polys(arity=arity)) for _ in range(3))
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + -a).is_zero() and (a - a).is_zero()
    half = a.scale(Fraction(1, 2))
    assert half.scale(2) == a
    for p in (a, b - c, a * b * c, a * (b + c), half, half.scale(2)):
        assert is_settled(p)


def test_integral_coefficients_are_ints():
    # integral values become ints wherever they enter or are produced
    half = Poly(2, {(1, 0): Fraction(1, 2), (0, 1): Fraction(4, 2)})
    assert is_settled(half) and type(half.coefficient((0, 1))) is int
    assert is_integral(half.scale(2)) and is_integral(half + half)
    assert is_integral(half * Poly.constant(2, Fraction(6, 3)).scale(2))
    assert is_integral(Poly.monomial((2, 1), Fraction(3)))
    assert is_integral(Poly.constant(1, Fraction(-8, 4)) + Poly.variable(1, 0))
    assert is_integral(Poly.parse("1,0 : 6/3\n0,1 : -1", 2))
    assert half.coefficient((5, 5)) == 0


def test_scale_and_neg():
    p = Poly(2, {(1, 0): 3, (0, 2): -2})
    assert p.scale(Fraction(1, 3)) == Poly(2, {(1, 0): 1, (0, 2): Fraction(-2, 3)})
    assert -p == p.scale(-1)
    assert p.scale(0).is_zero()


# -- substitution -------------------------------------------------------

def test_substitute_swap_symmetric():
    x1 = Poly.variable(2, 0)
    x2 = Poly.variable(2, 1)
    p = x1 * x2
    assert p.substitute([x2, x1]) == p


def test_substitute_square_of_sum():
    x1 = Poly.variable(2, 0)
    x2 = Poly.variable(2, 1)
    p = Poly.monomial((2,))
    assert p.substitute([x1 + x2]) == Poly(2, {(2, 0): 1, (1, 1): 2, (0, 2): 1})


def naive_binomial_substitution(poly2, img_a, img_b, arity):
    """Independent expansion oracle: substitute the two variables of a
    bivariate polynomial by differences of variables, expanding term by
    term with raw binomial sums (no Poly.substitute)."""
    from math import comb

    out = {}
    for (a, b), coeff in poly2.terms.items():
        # img = (x_p - x_q); expand (x_p - x_q)^a term by term
        pieces_a = {}
        (pa, qa) = img_a
        for k in range(a + 1):
            e = [0] * arity
            e[pa] += a - k
            e[qa] += k
            pieces_a[tuple(e)] = pieces_a.get(tuple(e), 0) + comb(a, k) * (-1) ** k
        pieces_b = {}
        (pb, qb) = img_b
        for k in range(b + 1):
            e = [0] * arity
            e[pb] += b - k
            e[qb] += k
            pieces_b[tuple(e)] = pieces_b.get(tuple(e), 0) + comb(b, k) * (-1) ** k
        for ea, ca in pieces_a.items():
            for eb, cb in pieces_b.items():
                key = tuple(x + y for x, y in zip(ea, eb))
                out[key] = out.get(key, 0) + coeff * ca * cb
    return Poly(arity, {k: v for k, v in out.items() if v})


def test_substitute_f1_summand_against_naive_oracle():
    # the seed substitution of the exceptional construction at weight 12
    from doubleshuffle.period_poly import integral_generators

    f1 = integral_generators()[12].f1
    x = [Poly.variable(4, i) for i in range(4)]
    fast = f1.substitute([x[3] - x[2], x[1] - x[0]])
    slow = naive_binomial_substitution(f1, (3, 2), (1, 0), 4)
    assert fast == slow


@settings(max_examples=80, deadline=None)
@given(data=st.data(), sign=st.sampled_from((1, -1)))
def test_shift_matches_substitute(data, sign):
    f = data.draw(polys(max_arity=5, max_deg=4))
    if f.arity < 2:
        f = f.embed(2)
    i, j = data.draw(st.permutations(range(f.arity)))[:2]
    x = [Poly.variable(f.arity, k) for k in range(f.arity)]
    images = list(x)
    images[i] = x[i] + x[j].scale(sign)
    shifted = f.shift(i, j, sign)
    assert shifted == f.substitute(images)
    assert is_settled(shifted)


@pytest.fixture
def kernel_dtypes(monkeypatch):
    """The (code, coefficient) dtypes of every reduction the shift kernel
    runs."""
    seen = []

    def recorded(codes, coeffs):
        seen.append((codes.dtype, coeffs.dtype))
        return sum_equal_codes(codes, coeffs)

    sum_equal_codes = exact_algebra._sum_equal_codes
    monkeypatch.setattr(exact_algebra, "_sum_equal_codes", recorded)
    return seen


def exponents(arity, **exps):
    """The exponent tuple with exps["x<k>"] at position k, else 0."""
    return tuple(exps.get(f"x{k}", 0) for k in range(arity))


def shift_by_substitution(f):
    x = [Poly.variable(f.arity, k) for k in range(f.arity)]
    return f.substitute([x[0], x[1] - x[0], *x[2:]])


@pytest.mark.parametrize("f, dtypes", [
    (Poly(3, {(2, 1, 0): 3, (0, 1, 2): -2, (1, 1, 1): 5}), (np.int64, np.int64)),
    (Poly(3, {(2, 1, 0): Fraction(1, 3), (0, 1, 2): -2}), (np.int64, object)),
    # 2^60 comb(7, 3) >= 2^63, and the lift's coefficients reach 9 * 2^60
    (Poly(2, {(3, 3): 2 ** 60, (6, 0): 1}), (np.int64, object)),
    # b = 66 at arity 11: b^11 >= 2^63, but 1 * comb(66, 33) < 2^63
    (Poly(11, {exponents(11, x0=65): 1, exponents(11, x0=30, x1=35): -1}),
     (object, np.int64)),
    # b = 151 at arity 9: b^9 >= 2^63, and comb(151, 75) >= 2^63
    (Poly(9, {exponents(9, x0=150): 1, exponents(9, x0=100, x1=50): -2}),
     (object, object)),
])
def test_shift_kernel_dtype_paths(kernel_dtypes, f, dtypes):
    # every map starts in the same dtypes; coefficients only ever widen
    for shifted, oracle in ((translation_lift, lift_by_substitution),
                            (partial_sum_transform, psum_by_substitution),
                            (lambda g: g.shift(1, 0, -1), shift_by_substitution)):
        kernel_dtypes.clear()
        result = shifted(f)
        assert result == oracle(f) and is_settled(result)
        assert kernel_dtypes[0] == tuple(map(np.dtype, dtypes))
        assert {code for code, _ in kernel_dtypes} == {np.dtype(dtypes[0])}
        assert kernel_dtypes == sorted(kernel_dtypes,
                                       key=lambda d: d[1] == object)


def test_shift_kernel_widens_per_shift(kernel_dtypes):
    # after y_1 -> y_1 - y_0 the coefficients reach comb(65, 32), and
    # comb(65, 32) comb(66, 33) >= 2^63: the next ten shifts run in objects
    f = Poly(11, {exponents(11, x0=65): 1, exponents(11, x0=30, x1=35): -1})
    assert translation_lift(f) == lift_by_substitution(f)
    assert kernel_dtypes == ([(np.dtype(object), np.dtype(np.int64))]
                             + [(np.dtype(object), np.dtype(object))] * 10)


def test_shift_rejects_bad_arguments():
    f = Poly.variable(2, 0)
    with pytest.raises(ValueError):
        f.shift(0, 0)
    with pytest.raises(ValueError):
        f.shift(0, 1, 2)


def test_substitute_arity_mismatch():
    with pytest.raises(ValueError):
        Poly.variable(2, 0).substitute([Poly.variable(2, 0)])


# -- structure helpers ---------------------------------------------------

def test_homogeneity_and_degree():
    p = Poly(2, {(2, 1): 1, (0, 3): 5})
    assert p.is_homogeneous() and p.homogeneous_degree() == 3
    q = Poly(2, {(1, 0): 1, (0, 3): 1})
    assert not q.is_homogeneous()
    assert Poly.zero(3).is_homogeneous()


def test_serialization_graded_lex():
    # canonical order: total degree ascending, then lexicographic ascending
    p = Poly(2, {(0, 3): 1, (2, 0): Fraction(-1, 2), (1, 1): 4})
    assert p.serialize() == "1,1 : 4\n2,0 : -1/2\n0,3 : 1"
    assert Poly.parse(p.serialize(), 2) == p


def test_grlex_order():
    exps = [(0, 3), (2, 0), (1, 1), (3, 0)]
    assert sorted(exps, key=grlex_key) == [(1, 1), (2, 0), (0, 3), (3, 0)]


def test_divexact():
    X = Poly.variable(2, 0)
    Y = Poly.variable(2, 1)
    p = (X - Y) * (X + Y) * (X + Y)
    assert divexact(p, X - Y) == (X + Y) * (X + Y)
    with pytest.raises(ValueError):
        divexact(X * X + Y, X - Y)
    assert divexact(Poly.zero(2), X - Y).is_zero()


# -- matrices ------------------------------------------------------------

def test_nullspace_identity_empty():
    assert nullspace_int([[1, 0], [0, 1]], 2) == []


def test_nullspace_one_dim():
    assert nullspace_int([[1, -1]], 2) == [[Fraction(1), Fraction(1)]]


def test_rank_examples():
    assert rank_bareiss([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 3
    assert rank_bareiss([[0, 0], [0, 0]]) == 0


def test_rank_plus_nullity_and_orthogonality():
    rng = random.Random(5)
    for _ in range(40):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        # half-integer entries scaled by 2: the same row spaces, in integers
        entries = [[rng.randint(-3, 3) * (2 // rng.randint(1, 2))
                    for _ in range(cols)] for _ in range(rows)]
        basis = nullspace_int(entries, cols)
        assert rank_bareiss(entries) + len(basis) == cols
        for vec in basis:
            for row in entries:
                assert sum(a * b for a, b in zip(row, vec)) == 0


def test_rank_bareiss_of_int64_array_matches_lists():
    # Bareiss products of entries near 2**31 overflow int64
    rng = random.Random(23)
    for _ in range(60):
        n = rng.randint(3, 6)
        rows = [[rng.choice((1, -1)) * rng.randint(2 ** 31 - 2 ** 16, 2 ** 31)
                 for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.5:
            rows[-1] = [a - b for a, b in zip(rows[0], rows[1])]
        assert rank_bareiss(np.array(rows, dtype=np.int64)) == rank_bareiss(rows)


def test_modular_rank_agrees_with_exact():
    rng = random.Random(11)
    for _ in range(40):
        rows = rng.randint(1, 7)
        cols = rng.randint(1, 7)
        mat = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        assert rank_modular(mat, cols) == rank_bareiss(mat)
    # past the first 64-row block, later rows add pivots left of earlier ones
    mat = (low_rank_rows(rng, 70, 30, 8, first_col=20)
           + low_rank_rows(rng, 70, 30, 12))
    assert rank_modular(mat, 30) == rank_bareiss(mat) == 20


def assert_canonical_nullspace(rows, ncols, basis):
    """Check ``basis`` against properties that pin the canonical nullspace
    down uniquely, with ``rank_bareiss`` as the independent rank: nullity
    many exact null vectors, each with a last nonzero entry 1 at its free
    column f, the f strictly increasing, and each vector 0 at the other
    free columns."""
    assert len(basis) == ncols - rank_bareiss(rows)
    free = []
    for vec in basis:
        denom = lcm(*(x.denominator for x in vec))
        scaled = [int(x * denom) for x in vec]
        for row in rows:
            assert sum(a * b for a, b in zip(row, scaled)) == 0
        f = max(j for j, x in enumerate(vec) if x)
        assert vec[f] == 1
        free.append(f)
    assert all(a < b for a, b in zip(free, free[1:]))
    for vec, f in zip(basis, free):
        assert all(vec[g] == 0 for g in free if g != f)


def nullspace_by_fractions(rows, ncols):
    """Canonical nullspace by Gauss-Jordan elimination over ``Fraction``,
    with no modular arithmetic: for each free column f, the vector with 1
    at f, minus the reduced rows' entries in column f at their pivots."""
    reduced, pivots = [], []
    for row in rows:
        vec = [Fraction(x) for x in row]
        for prow, p in zip(reduced, pivots):
            if vec[p]:
                c = vec[p]
                vec = [a - c * b for a, b in zip(vec, prow)]
        lead = next((j for j, x in enumerate(vec) if x), None)
        if lead is None:
            continue
        vec = [x / vec[lead] for x in vec]
        for i, prow in enumerate(reduced):
            if prow[lead]:
                c = prow[lead]
                reduced[i] = [a - c * b for a, b in zip(prow, vec)]
        reduced.append(vec)
        pivots.append(lead)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for p, prow in zip(pivots, reduced):
            vec[p] = -prow[f]
        basis.append(vec)
    return basis


def low_rank_rows(rng, nrows, ncols, rank, first_col=0):
    """Integer combinations of ``rank`` random rows supported on the columns
    from ``first_col`` on."""
    base = [[0] * first_col + [rng.randint(-3, 3) for _ in range(ncols - first_col)]
            for _ in range(rank)]
    rows = []
    for _ in range(nrows):
        coeffs = [rng.randint(-2, 2) for _ in range(rank)]
        rows.append([sum(c * b[j] for c, b in zip(coeffs, base))
                     for j in range(ncols)])
    return rows


def rref_modp_oracle(rows, ncols, p):
    """Reduced row echelon form mod p by Gauss-Jordan elimination over
    Python ints, one row at a time: the pivot columns ascending and the
    reduced rows in that order."""
    reduced, pivots = [], []
    for row in rows:
        vec = [x % p for x in row]
        for prow, c in zip(reduced, pivots):
            vec = [(a - vec[c] * b) % p for a, b in zip(vec, prow)]
        lead = next((j for j, x in enumerate(vec) if x), None)
        if lead is None:
            continue
        inv = pow(vec[lead], -1, p)
        vec = [x * inv % p for x in vec]
        reduced = [[(a - prow[lead] * b) % p for a, b in zip(prow, vec)]
                   for prow in reduced]
        reduced.append(vec)
        pivots.append(lead)
    order = sorted(range(len(pivots)), key=pivots.__getitem__)
    return [pivots[i] for i in order], [reduced[i] for i in order]


def test_mulmod_is_exact_past_the_chunk_size():
    # one float64 sum of more than _CHUNK such products would pass 2**53
    p, k = _PRIME, 2 * exact_algebra._CHUNK + 5
    a = np.full((2, k), p - 1, dtype=np.int64)
    b = np.full((k, 3), p - 1, dtype=np.int64)
    assert exact_algebra._mulmod(a, b, p).tolist() == [[k * (p - 1) ** 2 % p] * 3] * 2
    rng = np.random.default_rng(29)
    a = rng.integers(p - 2 ** 10, p, size=(3, k), dtype=np.int64)
    b = rng.integers(p - 2 ** 10, p, size=(k, 4), dtype=np.int64)
    want = (a.astype(object) @ b.astype(object)) % p
    assert exact_algebra._mulmod(a, b, p).tolist() == want.tolist()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), ncols=st.integers(1, 40),
       sizes=st.tuples(st.integers(0, 90), st.integers(0, 90)),
       ranks=st.tuples(st.integers(0, 40), st.integers(0, 40)),
       extras=st.lists(st.sampled_from(["zero", "multiple", "huge"]),
                       max_size=6),
       p=st.sampled_from([_PRIME, 7]))
def test_modp_rref_matches_oracle(seed, ncols, sizes, ranks, extras, p):
    # the second group of rows reaches columns left of the first, so later
    # 64-row blocks add pivots left of earlier ones; zero rows, multiples of
    # p and entries beyond int64 go anywhere
    rng = random.Random(seed)
    first_col = rng.randint(0, ncols - 1)
    rows = (low_rank_rows(rng, sizes[0], ncols, min(ranks[0], ncols), first_col)
            + low_rank_rows(rng, sizes[1], ncols, min(ranks[1], ncols)))
    for kind in extras:
        row = [{"zero": 0, "multiple": p * rng.randint(-2 ** 62, 2 ** 62),
                "huge": rng.randint(-2 ** 70, 2 ** 70)}[kind]
               for _ in range(ncols)]
        rows.insert(rng.randrange(len(rows) + 1), row)
    mat = exact_algebra._int_array(rows, ncols)
    cols, red = exact_algebra._modp_rref(mat, ncols, p)
    assert (cols, red.tolist()) == rref_modp_oracle(rows, ncols, p)
    assert red.dtype == np.int64 and red.shape == (len(cols), ncols)


def test_modp_rref_stops_at_full_rank():
    # the rows after the block that reaches rank ncols are never read
    mat = np.empty((200, 3), dtype=object)
    mat[:64] = [[1, 2, 3], [2, 4, 6], [0, 1, 1], [5, 5, 6]] * 16
    cols, red = exact_algebra._modp_rref(mat, 3, _PRIME)
    assert cols == [0, 1, 2] and red.tolist() == np.eye(3, dtype=int).tolist()


def count_modp_passes(monkeypatch):
    """Record the rank of every mod-p pass that ``nullspace_int`` runs."""
    ranks = []
    modp = exact_algebra._modp_rref

    def counted(*args, **kwargs):
        cols, red = modp(*args, **kwargs)
        ranks.append(len(cols))
        return cols, red

    monkeypatch.setattr(exact_algebra, "_modp_rref", counted)
    return ranks


def test_nullspace_modular_path_matches_pure_exact():
    # the mod-p lift returns exactly the basis of a pure Fraction elimination
    rng = random.Random(13)
    for nrows, ncols, rank in [(110, 40, 25), (90, 50, 50), (70, 60, 3),
                               (12, 9, 5)]:
        rows = low_rank_rows(rng, nrows, ncols, rank)
        assert nullspace_int(rows, ncols) == nullspace_by_fractions(rows, ncols)


def test_nullspace_lucky_primes_are_canonical(monkeypatch):
    # every prime is lucky here; the dense rank-25 system has minors too
    # large for one prime, so its passes accumulate by CRT
    rng = random.Random(13)
    for nrows, ncols, rank, npasses in [(110, 40, 25, 7), (90, 50, 50, 1),
                                        (70, 60, 3, 1)]:
        rows = low_rank_rows(rng, nrows, ncols, rank)
        ranks = count_modp_passes(monkeypatch)
        basis = nullspace_int(rows, ncols)
        monkeypatch.undo()
        assert ranks == [rank] * npasses
        assert_canonical_nullspace(rows, ncols, basis)


def test_nullspace_degenerate_prime_entries(monkeypatch):
    # rows _PRIME * e_j vanish mod _PRIME, so the first pass has rank 30; the
    # later primes see them, and their better rank-35 key restarts the CRT
    rng = random.Random(17)
    ncols = 50
    prime_rows = [[_PRIME if j == col else 0 for j in range(ncols)]
                  for col in range(5)]
    rows = prime_rows[:3] + low_rank_rows(rng, 85, ncols, 30, first_col=5) + prime_rows[3:]
    ranks = count_modp_passes(monkeypatch)
    basis = nullspace_int(rows, ncols)
    monkeypatch.undo()
    assert ranks[0] == 30 and set(ranks[1:]) == {35}
    assert_canonical_nullspace(rows, ncols, basis)


def test_nullspace_full_column_rank_short_circuit(monkeypatch):
    # full mod-p rank proves the nullspace zero: one pass and nothing else
    rows = low_rank_rows(random.Random(19), 90, 50, 50)
    ranks = count_modp_passes(monkeypatch)
    assert nullspace_int(rows, 50) == []
    monkeypatch.undo()
    assert ranks == [50]


def test_nullspace_multi_prime_reconstruction(monkeypatch):
    # 2**40 + 1 reconstructs only once the modulus exceeds 2 (2**40 + 1)**2
    ranks = count_modp_passes(monkeypatch)
    assert nullspace_int([[1, -(2 ** 40 + 1)]], 2) == [[Fraction(2 ** 40 + 1),
                                                        Fraction(1)]]
    assert len(ranks) >= 3


def test_nullspace_entries_beyond_int64():
    rows = [[2 ** 70, 0, -1], [3, 0, -(2 ** 65)]]
    basis = nullspace_int(rows, 3)
    assert basis == [[0, 1, 0]]
    rows = [[2 ** 70, 5, -1]]
    basis = nullspace_int(rows, 3)
    assert basis == [[Fraction(-5, 2 ** 70), 1, 0], [Fraction(1, 2 ** 70), 0, 1]]
    assert_canonical_nullspace(rows, 3, basis)


def test_nullspace_takes_integer_arrays_as_they_are(monkeypatch):
    # an int64 or object array reaches the mod-p pass uncopied unless it has
    # zero rows, which are dropped from a copy
    seen = []
    modp = exact_algebra._modp_rref

    def recording(mat, *args):
        seen.append(mat)
        return modp(mat, *args)

    monkeypatch.setattr(exact_algebra, "_modp_rref", recording)
    for array in (np.array([[1, -1, 0], [2, -2, 0]]),
                  np.array([[1, -1, 0], [2, -2, 0]], dtype=object)):
        assert nullspace_int(array, 3) == [[1, 1, 0], [0, 0, 1]]
        assert seen[-1] is array
    array = np.array([[0, 0, 0], [1, -1, 0], [0, 0, 0]])
    assert nullspace_int(array, 3) == [[1, 1, 0], [0, 0, 1]]
    assert seen[-1].tolist() == [[1, -1, 0]]
    assert array.tolist() == [[0, 0, 0], [1, -1, 0], [0, 0, 0]]


def test_non_integral_rows_raise():
    # int() would truncate 1/2 to 0 and answer [[1, 0]] for the first rows
    for rows in ([[Fraction(1, 2), 1]], [[0.5, 1]], np.array([[0.5, 1]])):
        for call, args in ((nullspace_int, (rows, 2)),
                           (rank_modular, (rows, 2)),
                           (full_rank_certificate, (rows, 2)),
                           (rank_bareiss, (rows,))):
            with pytest.raises(ValueError):
                call(*args)
    # integral entries of any type read as their ints
    for rows in ([[Fraction(4, 2), 1.0]], np.array([[2.0, 1.0]]),
                 np.array([[2, 1]], dtype=np.int32)):
        assert nullspace_int(rows, 2) == [[Fraction(-1, 2), 1]]
        assert rank_modular(rows, 2) == rank_bareiss(rows) == 1
        assert not full_rank_certificate(rows, 2)


def test_certificate_in_int64_and_in_python_ints():
    # mat[:, pivots] @ n + mat[:, free] * d == 0, in int64 while
    # amax * (|n|_1 + d) < 2**63, else in Python ints
    def certified(rows, pivots, free, columns):
        mat = np.array(rows, dtype=np.int64)
        return exact_algebra._certified(mat, pivots, free, columns,
                                        int(abs(mat).max()))

    # int64: the kernel of [[1, 0, -2, 1], [0, 1, 3, 0]], each column scaled
    rows = [[1, 0, -2, 1], [0, 1, 3, 0]]
    assert certified(rows, [0, 1], [2, 3], [(1, [2, -3]), (2, [-2, 0])])
    assert not certified(rows, [0, 1], [2, 3], [(1, [2, 3]), (1, [-1, 0])])
    assert not certified(rows, [0, 1], [2, 3], [(1, [2, -3]), (1, [0, 0])])
    # past the bound: this wrong column leaves 2**64, which int64 wraps to 0
    rows, wrong = [[2 ** 32, 2 ** 32]], [(1, [2 ** 32 - 1])]
    assert 2 ** 32 * (2 ** 32 - 1 + 1) >= 2 ** 63
    assert not certified(rows, [0], [1], wrong)
    assert certified(rows, [0], [1], [(1, [-1])])
    assert certified([[2 ** 62, -(2 ** 62)]], [0], [1], [(3, [3])])
    assert nullspace_int(rows, 2) == [[-1, 1]]


def test_nullspace_and_span_of_no_rows():
    assert nullspace_int([], 3) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert nullspace_int([[0, 0, 0]], 3) == nullspace_int([], 3)
    assert span_rref([], 4) == []


def test_primes_match_trial_division():
    expected, n = [], _PRIME
    while len(expected) < 60:
        if all(n % d for d in range(3, isqrt(n) + 1, 2)):
            expected.append(n)
        n -= 2
    assert list(islice(exact_algebra._primes(), 60)) == expected
    # _PRIME is the largest prime below 2**20, so a float64 sum of _CHUNK
    # products of residues stays below 2**53
    assert all(any(n % d == 0 for d in range(2, isqrt(n) + 1))
               for n in range(_PRIME + 1, 2 ** 20))
    assert exact_algebra._CHUNK * (_PRIME - 1) ** 2 < 2 ** 53


def test_nullspace_uncertified_past_the_bound_raises(monkeypatch):
    # with reconstruction disabled, the prime loop stops at its bound
    monkeypatch.setattr(exact_algebra, "_reconstruct", lambda *args: None)
    with pytest.raises(AssertionError):
        nullspace_int([[1, -1], [2, -2]], 2)


def assert_reconstruct_matches_each_entry(residues, m):
    """``_reconstruct`` reads every entry as ``_rational`` does on its own,
    and fails exactly when one entry does."""
    each = [[exact_algebra._rational(x, m) for x in column]
            for column in residues.T.tolist()]
    columns = exact_algebra._reconstruct(residues, m)
    if any(q is None for column in each for q in column):
        assert columns is None
    else:
        assert [[Fraction(n, d) for n in nums] for d, nums in columns] == each
        assert all(d == lcm(*(q.denominator for q in column))
                   for (d, _), column in zip(columns, each))


@settings(max_examples=200, deadline=None)
@given(nprimes=st.integers(1, 5), shape=st.tuples(st.integers(0, 6),
                                                   st.integers(1, 4)),
       data=st.data())
def test_reconstruct_matches_each_entry(nprimes, shape, data):
    start = data.draw(st.integers(0, 60))
    m = prod(islice(exact_algebra._primes(), start, start + nprimes))
    # arbitrary residues, and residues of fractions whose denominators share
    # factors, so that their lcm passes sqrt(m / 2) under one prime
    small = st.builds(lambda a, b: a * pow(b, -1, m) % m, st.integers(-40, 40),
                      st.lists(st.sampled_from([2, 3, 5, 29, 31, 37]),
                               max_size=3).map(prod))
    entries = data.draw(st.lists(st.one_of(st.integers(0, m - 1), small),
                                 min_size=shape[0] * shape[1],
                                 max_size=shape[0] * shape[1]))
    residues = np.array(entries, dtype=object).reshape(shape)
    assert_reconstruct_matches_each_entry(residues, m)


def test_reconstruct_at_the_bounds():
    # mod _PRIME, sqrt(m / 2) is 723, so 1000 has no reconstruction; 1/145
    # and 1/93 have, but their lcm 13485 passes 723, so 1/899, which 13485
    # would explain as 15/13485, goes to _rational, which fails
    m = _PRIME
    for column in ([1000], [Fraction(1, 145), Fraction(1, 93), Fraction(1, 899)],
                   [Fraction(1, 145), Fraction(1, 93), Fraction(1, 15)]):
        residues = np.array([[q.numerator * pow(q.denominator, -1, m) % m]
                             for q in map(Fraction, column)], dtype=object)
        assert_reconstruct_matches_each_entry(residues, m)
    assert exact_algebra._reconstruct(residues, m) == [(13485, [93, 145, 899])]


def test_kernel_entries_are_ints_when_integral():
    # the Coeff convention: an int, or a Fraction with denominator > 1
    for rows, ncols, want in [([[1, -1, 0], [2, -2, 0]], 3,
                               [[1, 1, 0], [0, 0, 1]]),
                              ([[2, -1]], 2, [[Fraction(1, 2), 1]])]:
        basis = nullspace_int(rows, ncols)
        rref = span_rref(rows, ncols)
        assert basis == want
        for x in [x for vec in basis + rref for x in vec]:
            assert type(x) is int or (type(x) is Fraction and x.denominator > 1)
    assert span_rref([[2, -1]], 2) == [[1, Fraction(-1, 2)]]


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), ncols=st.integers(1, 60),
       nrows=st.integers(0, 90), rank=st.integers(0, 60),
       repeats=st.integers(0, 20),
       prime_cols=st.lists(st.integers(0, 59), max_size=4))
def test_nullspace_kernel_properties(seed, ncols, nrows, rank, repeats,
                                     prime_cols):
    # any size, with repeated rows and rows that vanish mod p
    rng = random.Random(seed)
    rows = low_rank_rows(rng, nrows, ncols, min(rank, ncols))
    rows += [rng.choice(rows) for _ in range(repeats if rows else 0)]
    for col in prime_cols:
        rows.insert(rng.randrange(len(rows) + 1),
                    [_PRIME if j == col % ncols else 0 for j in range(ncols)])
    basis = nullspace_int(rows, ncols)
    assert_canonical_nullspace(rows, ncols, basis)
    assert rank_modular(rows, ncols) <= rank_bareiss(rows)
    # the same rows as one int64 array, once and repeated; the array is kept
    array = np.array(rows, dtype=np.int64).reshape(len(rows), ncols)
    assert nullspace_int(array, ncols) == basis
    assert nullspace_int(np.concatenate([array, array]), ncols) == basis
    assert array.tolist() == rows
    # span_rref reads the reduced form off the same basis
    rref = span_rref(rows, ncols)
    assert len(rref) + len(basis) == ncols
    pivots = [row.index(1) for row in rref]
    for vec in basis:
        assert all(sum(r[j] * vec[j] for j in range(ncols)) == 0 for r in rref)
    assert all(row[q] == (p == q) for p, row in zip(pivots, rref) for q in pivots)


def test_nullspace_deterministic_normal_form():
    # canonical form: coefficient 1 on the own free column, 0 on the others
    basis = nullspace_int([[1, 2, 3, 4]], 4)
    assert len(basis) == 3
    free_cols = [1, 2, 3]
    for i, vec in enumerate(basis):
        for j, f in enumerate(free_cols):
            assert vec[f] == (1 if i == j else 0)
