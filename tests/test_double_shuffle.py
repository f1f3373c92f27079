"""Tests for constraint assembly, solution spaces and the word-level oracle."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings

from doubleshuffle import exact_algebra
from doubleshuffle.double_shuffle import (_bracketing, _label_shuffles,
                                          _lie_system, _psum_columns,
                                          dimension, iterated_bracket_span,
                                          membership_test, monomial_basis,
                                          partial_sum_transform, solve,
                                          solve_words)
from doubleshuffle.exact_algebra import (Poly, nullspace_int, rank_bareiss,
                                         rank_modular, span_rref)
from doubleshuffle.exceptional import exceptional_elements
from doubleshuffle.ihara import (DepthPoly, bracket, depth1_generator,
                                 in_dihedral_space, poly_compose)
from doubleshuffle.period_poly import cusp_dimension
from doubleshuffle.series import free_lie_dims
from doubleshuffle.words import translation_lift
from poly_helpers import (EXCEPTIONAL_WEIGHTS, exceptional_body, is_settled,
                          polys, psum_by_substitution)


def vectors_of(polys, N, r):
    monos = monomial_basis(N, r)
    col = {m: j for j, m in enumerate(monos)}
    out = []
    for p in polys:
        vec = [Fraction(0)] * len(monos)
        for e, c in p.terms.items():
            vec[col[e]] = c
        out.append(vec)
    return out


def spans_equal(polys_a, polys_b, N, r):
    monos = monomial_basis(N, r)
    return (span_rref(vectors_of(polys_a, N, r), len(monos))
            == span_rref(vectors_of(polys_b, N, r), len(monos)))


# -- constraint families ---------------------------------------------------

def test_depth4_label_families_match_display():
    assert _label_shuffles(1, 4) == [(1, 2, 3, 4), (2, 1, 3, 4),
                                     (2, 3, 1, 4), (2, 3, 4, 1)]
    assert _label_shuffles(2, 4) == [(1, 2, 3, 4), (1, 3, 2, 4), (1, 3, 4, 2),
                                     (3, 1, 2, 4), (3, 1, 4, 2), (3, 4, 1, 2)]


def partial_sum_expansion(m):
    """prod_j (x_1 + ... + x_j)^{m_j}, multiplied out one factor at a time."""
    acc = {(0,) * len(m): 1}
    for j, mj in enumerate(m):
        for _ in range(mj):
            new = {}
            for exps, coeff in acc.items():
                for v in range(j + 1):
                    key = exps[:v] + (exps[v] + 1,) + exps[v + 1:]
                    new[key] = new.get(key, 0) + coeff
            acc = new
    return acc


def lyndon_monomials(N, r):
    """Monomials whose negated word is strictly below each proper rotation
    of it: the Lyndon words in the reversed letter order."""
    def neg(w):
        return tuple(-a for a in w)
    return [m for m in monomial_basis(N, r)
            if all(neg(m) < neg(m[i:] + m[:i]) for i in range(1, r))]


def bracketings(N, r):
    """The columns of the Lie basis B as {monomial: coefficient} maps."""
    columns = []
    for word in lyndon_monomials(N, r):
        terms = {}
        for m, c in _bracketing(word):
            terms[m] = terms.get(m, 0) + c
        columns.append({m: c for m, c in terms.items() if c})
    return columns


def test_partial_sum_matrix_matches_transform():
    # psum column l is the image of bracketing l, by Poly shifts and by
    # expansion
    cells = [(N, r) for r in range(2, 5) for N in range(r + 1, 15)]
    cells += [(N, 5) for N in range(6, 14)]
    # int64 and, past the int64 bound, Python ints in an object array
    cells += [(62, 2), (63, 2), (70, 2)]
    for N, r in cells:
        monomials = monomial_basis(N, r)
        dtype = object if N >= 63 else np.int64
        columns = bracketings(N, r)
        psum = _psum_columns(monomials, _lie_system(N, r)[1], len(columns),
                             dtype)
        assert psum.dtype == dtype, (N, r)
        assert psum.shape == (len(monomials), len(columns)), (N, r)
        if dtype is object:
            assert {type(x) for x in psum.flat} == {int}
        for l, terms in enumerate(columns):
            column = {monomials[i]: c
                      for i, c in enumerate(psum[:, l].tolist()) if c}
            assert column == partial_sum_transform(Poly(r, terms)).terms, terms
            expansion = {}
            for m, c in terms.items():
                for e, x in partial_sum_expansion(m).items():
                    expansion[e] = expansion.get(e, 0) + c * x
            assert column == {e: x for e, x in expansion.items() if x}, terms


def split_rows(monomials, images):
    """Rows of the argument-shuffle sums of the images of the monomials for
    every split k = 1..r-1, relabelled term by term, without using the split
    symmetry."""
    r = len(monomials[0])
    rows = set()
    for k in range(1, r):
        seqs = _label_shuffles(k, r)
        targets = {}
        for j, terms in enumerate(images):
            for seq in seqs:
                for exps, coeff in terms.items():
                    out = [0] * r
                    for i, e in enumerate(exps):
                        out[seq[i] - 1] = e
                    row = targets.setdefault(tuple(out), [0] * len(monomials))
                    row[j] += coeff
        rows.update(tuple(row) for row in targets.values() if any(row))
    return rows


def shuffle_rows(N, r):
    """The first family: argument shuffles of f itself."""
    monomials = monomial_basis(N, r)
    return split_rows(monomials, [{m: 1} for m in monomials])


def every_split_rows(N, r):
    """Rows of both families for every split k = 1..r-1."""
    monomials = monomial_basis(N, r)
    return shuffle_rows(N, r) | split_rows(
        monomials, [partial_sum_expansion(m) for m in monomials])


def test_shuffle_family_kernel_is_the_lie_basis():
    # Ree's theorem in range: the Lie coordinates solve the first family
    # exactly, so dimension and solve need only the second
    for r in range(2, 6):
        lie = free_lie_dims(range(1, 17), 16, r)
        for N in range(r, 17):
            monomials = monomial_basis(N, r)
            columns = bracketings(N, r)
            L = len(columns)
            assert L == lie.get((N, r), 0), (N, r)
            B = np.array([[col.get(m, 0) for col in columns]
                          for m in monomials], dtype=np.int64)
            S = np.array(sorted(shuffle_rows(N, r)), dtype=np.int64)
            # every bracketing is annihilated: exactly, as every partial sum
            # of the float64 product is an integer below 2^53
            assert abs(S).sum(axis=1).max() * abs(B).max(initial=0) < 2 ** 53
            assert not (S.astype(float) @ B).any(), (N, r)
            # and the mod-p nullity, an upper bound for the nullity over Q,
            # is L
            assert len(monomials) - rank_modular(S, len(monomials)) == L
            # B is injective: each bracketing ends at its Lyndon word, with
            # coefficient 1
            for word, col in zip(lyndon_monomials(N, r), columns):
                assert max(col) == word and col[word] == 1, (N, r)


def test_half_splits_give_every_split_row():
    # the Lie coordinates and the splits k <= r/2 give the solutions of both
    # families for every split
    cells = [(N, r) for r in range(2, 5) for N in range(r, 15)]
    cells += [(N, 5) for N in range(5, 12)]
    # r = 2 assembles in int64 up to N = 62 and in the object dtype from 63
    cells += [(62, 2), (63, 2), (70, 2)]
    for N, r in cells:
        monomials = monomial_basis(N, r)
        expected = nullspace_int(sorted(every_split_rows(N, r)),
                                 len(monomials))
        assert [[b.body.coefficient(m) for m in monomials]
                for b in solve(N, r).basis] == expected, (N, r)


def test_assembly_returns_one_integer_array():
    rows, lie, monomials = _lie_system(14, 5)
    assert rows.dtype == np.int64
    assert rows.shape == (2 * len(monomials), len(lyndon_monomials(14, 5)))
    # entries may pass 2**63 from (63, 2) and (41, 3) on: Python ints in an
    # object array
    for N, r, dtype in [(62, 2, np.int64), (63, 2, object),
                        (40, 3, np.int64), (41, 3, object)]:
        rows = _lie_system(N, r)[0]
        assert rows.dtype == dtype, (N, r)
        if dtype is object:
            assert {type(x) for x in rows.flat} == {int}
    # both sides of the bound solve exactly, by the depth-3 exact sequence
    for N in (39, 41):
        assert dimension(N, 3) == depth3_dimension(N)
    # depth 1: one row forcing the unknown to zero, or none
    assert _lie_system(4, 1)[0].shape == (1, 1)
    assert _lie_system(3, 1)[0].shape == (0, 1)
    # degree 0 in depth >= 2: no Lyndon word, no unknowns
    assert _lie_system(4, 4)[0].shape == (0, 0)


def test_depth1_even_weight_full_rank():
    rows = _lie_system(4, 1)[0]
    assert rank_bareiss(rows) == rows.shape[1]  # no solutions


def test_depth2_solution_structure():
    space = solve(12, 2)
    assert space.dimension == 1
    f = space.basis[0].body
    assert membership_test(space.basis[0])
    # both families in depth 2 are plain reversal antisymmetries
    assert (f + f.permute_variables([1, 0])).is_zero()
    sharp = partial_sum_transform(f)
    assert (sharp + sharp.permute_variables([1, 0])).is_zero()


@settings(max_examples=60, deadline=None)
@given(f=polys(max_arity=5))
def test_partial_sum_transform_matches_substitution(f):
    sharp = partial_sum_transform(f)
    assert sharp == psum_by_substitution(f)
    assert is_settled(sharp)


@pytest.mark.parametrize("weight", EXCEPTIONAL_WEIGHTS)
def test_partial_sum_transform_of_exceptional_bodies(weight):
    body = exceptional_body(weight)
    assert partial_sum_transform(body) == psum_by_substitution(body)


def test_bracket_path_avoids_generic_substitution(monkeypatch):
    # membership, the lift and the composition use binomial shifts only
    [e12] = exceptional_elements(12)
    [e16] = exceptional_elements(16)

    def forbidden(self, images):
        raise AssertionError("generic Poly.substitute reached")

    monkeypatch.setattr(Poly, "substitute", forbidden)
    assert membership_test(e16.reduced)
    assert translation_lift(e12.reduced.body).arity == 5
    assert len(poly_compose(e12.reduced, e12.reduced).body) > 0


def test_nullspace_weight12_depth2():
    rows = _lie_system(12, 2)[0]
    assert len(nullspace_int(rows, rows.shape[1])) == 1


# -- solving ----------------------------------------------------------------

def test_depth1_solutions():
    for N in range(3, 20, 2):
        space = solve(N, 1)
        assert space.dimension == 1
        assert space.basis[0].body == Poly.monomial((N - 1,))
    for N in range(2, 20, 2):
        assert solve(N, 1).dimension == 0


def test_parity_vanishing_example():
    assert solve(11, 2).dimension == 0


def test_weight12_depth4():
    assert solve(12, 4).dimension == 1


def test_depth4_dimensions_to_weight14():
    assert dimension(13, 4) == 0
    assert dimension(14, 4) == 1


def test_dimension_makes_one_modp_pass(monkeypatch):
    # the mod-p pass inside nullspace_int both certifies zero and selects the
    # pivot rows, so no cell runs it twice
    calls = []
    modp = exact_algebra._modp_rref

    def counted(*args, **kwargs):
        calls.append(args[1])
        return modp(*args, **kwargs)

    monkeypatch.setattr(exact_algebra, "_modp_rref", counted)
    for N, r, dim in [(14, 4, 1), (13, 5, 0)]:
        calls.clear()
        assert dimension(N, r) == dim
        assert calls == [len(lyndon_monomials(N, r))], (N, r)


def test_solve_depth5_weight13_is_zero():
    # full mod-p rank: the exact solver returns the empty basis directly
    assert solve(13, 5).dimension == 0


def test_first_nonzero_depth5_cell():
    assert dimension(15, 5) == 1
    assert dimension(16, 5) == 0
    space = solve(15, 5)
    assert space.dimension == 1
    assert membership_test(space.basis[0])


def test_invalid_cells_raise():
    with pytest.raises(ValueError):
        solve(3, 4)
    with pytest.raises(ValueError):
        dimension(2, 0)
    # the packed keys of the psum columns, L * 3^40 and more, would overflow
    # int64
    with pytest.raises(ValueError, match="too large"):
        dimension(42, 40)


def test_dimension_agrees_with_solve():
    for r in range(1, 4):
        for N in range(r, 13):
            assert dimension(N, r) == solve(N, r).dimension


def test_basis_is_reduced_at_its_last_monomials():
    # one vector per free monomial, its last: 1 there and 0 at the others;
    # at (18,4) the kernel vectors mapped through B need the clearing pass
    for N, r, dim in [(17, 3, 4), (16, 4, 3), (18, 4, 5)]:
        basis = solve(N, r).basis
        last = [max(b.body.terms) for b in basis]
        assert len(basis) == dim and last == sorted(set(last)), (N, r)
        assert [[b.body.coefficient(m) for m in last] for b in basis] == \
            [[int(i == j) for j in range(dim)] for i in range(dim)], (N, r)
        assert all(membership_test(b) for b in basis), (N, r)


def test_solve_deterministic():
    a = solve(14, 2)
    b = solve(14, 2)
    assert [p.body.serialize() for p in a.basis] == \
        [p.body.serialize() for p in b.basis]


def test_basis_elements_pass_membership_and_dihedral_conditions():
    for (N, r) in [(8, 2), (10, 2), (12, 2), (11, 3), (13, 3), (12, 4)]:
        for b in solve(N, r).basis:
            assert membership_test(b)
            assert in_dihedral_space(b)


# -- membership ---------------------------------------------------------------

def test_membership_depth1():
    for n in range(1, 6):
        assert membership_test(depth1_generator(2 * n + 1))
    cube = DepthPoly(1, 4, Poly.monomial((3,)))
    assert not membership_test(cube)


def shuffle_family_vanishes(p):
    """Every argument-shuffle sum of p vanishes, over every split k, each
    sum formed term by term with ``permute_variables``."""
    r = p.arity
    return all(sum((p.permute_variables([s - 1 for s in seq])
                    for seq in _label_shuffles(k, r)), Poly.zero(r)).is_zero()
               for k in range(1, r))


@pytest.mark.parametrize("N, r", [(8, 3), (10, 2), (12, 4)])
def test_membership_rejects_either_family_alone(N, r):
    # B's column 0 is a Lie polynomial outside ls: it fails only the
    # partial-sum family.  Its inverse partial-sum transform
    # x_i -> x_i - x_{i-1} fails only the shuffle family.
    _, (at, col, coeff), monomials = _lie_system(N, r)
    lie = sum((Poly.monomial(monomials[j], int(c))
               for j, c in zip(at[col == 0], coeff[col == 0])), Poly.zero(r))
    x = [Poly.variable(r, i) for i in range(r)]
    inverse = lie.substitute([x[0]] + [x[i] - x[i - 1] for i in range(1, r)])
    assert psum_by_substitution(inverse) == lie
    assert shuffle_family_vanishes(lie)
    assert not shuffle_family_vanishes(psum_by_substitution(lie))
    assert not shuffle_family_vanishes(inverse)
    for body in (lie, inverse):
        assert not membership_test(DepthPoly(r, N, body)), (N, r)


def test_membership_of_random_combinations():
    # integer combinations of a basis are members; adding delta * x^m for a
    # monomial m and delta != 0 leaves ls (x^m fails every shuffle sum)
    rng = random.Random(18)
    for r in range(2, 6):
        for N in range(r, 15):
            basis = [b.body for b in solve(N, r).basis]
            for _ in range(3):
                body = sum((b.scale(rng.randint(-4, 4)) for b in basis),
                           Poly.zero(r))
                assert membership_test(DepthPoly(r, N, body)), (N, r)
                delta = Fraction(rng.choice([-3, -1, 1, 2]), rng.choice([1, 5]))
                m = rng.choice(monomial_basis(N, r))
                off = body + Poly.monomial(m, delta)
                assert not membership_test(DepthPoly(r, N, off)), (N, r, m)


def test_membership_closure_under_bracket():
    g = depth1_generator
    samples = [bracket(g(3), g(5)), bracket(g(3), g(9)),
               bracket(g(3), bracket(g(3), g(5))),
               bracket(bracket(g(3), g(5)), bracket(g(3), g(7)))]
    for s in samples:
        assert membership_test(s)
    d2 = solve(12, 2).basis[0]
    assert membership_test(bracket(g(3), d2))


# -- exact sequences -----------------------------------------------------------

def wedge_sq_depth1_dim(N):
    return sum(1 for a in range(3, N, 2) if N - a > a and (N - a) % 2 == 1)


def test_depth2_exact_sequence():
    for N in range(2, 21):
        assert dimension(N, 2) == wedge_sq_depth1_dim(N) - cusp_dimension(N)


def depth3_dimension(N):
    """dim of the depth-3 cell by the exact sequence: free Lie brackets of
    three odd generators minus cusp forms tensor one odd generator."""
    lie3 = free_lie_dims(list(range(3, N + 1, 2)), N, 3).get((N, 3), 0)
    tensor = sum(cusp_dimension(k) for k in range(12, N - 2, 2)
                 if (N - k) % 2 == 1 and N - k >= 3)
    return lie3 - tensor


def test_depth3_exact_sequence():
    for N in range(3, 18):
        assert dimension(N, 3) == depth3_dimension(N)


# -- spans of iterated brackets --------------------------------------------------

def test_span_examples():
    assert iterated_bracket_span(12, 4).dimension == 0
    assert iterated_bracket_span(10, 2).dimension == 1
    assert iterated_bracket_span(2, 2).dimension == 0


def test_depth2_spans_fill_whole_space():
    # in depth 2 the brackets of depth-1 generators span everything
    for N in range(4, 17, 2):
        span = iterated_bracket_span(N, 2)
        assert span.dimension == dimension(N, 2)
        assert spans_equal([b.body for b in span.basis],
                           [b.body for b in solve(N, 2).basis], N, 2)


def test_span_inside_solution_space():
    for b in iterated_bracket_span(11, 3).basis:
        assert membership_test(b)


# -- word-level oracle ------------------------------------------------------------

def test_word_level_matches_polynomial_level():
    for r in (1, 2, 3):
        for N in range(r, 13):
            word_route = solve_words(N, r)
            poly_route = [b.body for b in solve(N, r).basis]
            assert len(word_route) == len(poly_route), (N, r)
            assert spans_equal(word_route, poly_route, N, r), (N, r)


def test_word_level_matches_polynomial_level_depth4():
    # one depth-4 cell through the independent word-level route (~30 s);
    # validates the general-split constraint families beyond depth 3
    word_route = solve_words(12, 4)
    poly_route = [b.body for b in solve(12, 4).basis]
    assert len(word_route) == len(poly_route) == 1
    assert spans_equal(word_route, poly_route, 12, 4)
