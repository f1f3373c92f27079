"""Tests for the word algebras, their polynomial encodings and the
coaction component."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doubleshuffle import ihara, words
from doubleshuffle.exact_algebra import Poly
from doubleshuffle.words import (BINARY, INDEX, WordSum, coaction_component,
                                 compositions, depth, exponents_to_word,
                                 index_word_to_binary, is_translation_invariant,
                                 poly_rep, poly_to_words, reduced_rep,
                                 restrict_y0, shuffle, str_to_word, stuffle,
                                 to_index_sum, to_index_word, translation_lift,
                                 weight, word_compose, word_exponents,
                                 word_to_str)
from poly_helpers import (EXCEPTIONAL_WEIGHTS, exceptional_body, is_settled,
                          lift_by_substitution, polys)


def random_word(rng, alphabet, max_len=4):
    n = rng.randint(0, max_len)
    if alphabet == BINARY:
        return tuple(rng.randint(0, 1) for _ in range(n))
    return tuple(rng.randint(1, 3) for _ in range(n))


# -- shuffle --------------------------------------------------------------

def test_shuffle_single_letters():
    assert shuffle((1,), (0,)) == WordSum(BINARY, {(1, 0): 1, (0, 1): 1})


def test_shuffle_label_sequences():
    # 1 sh 234 and 12 sh 34 on integer letter sequences
    s = shuffle((1,), (2, 3, 4), alphabet=INDEX)
    assert s == WordSum(INDEX, {(1, 2, 3, 4): 1, (2, 1, 3, 4): 1,
                                (2, 3, 1, 4): 1, (2, 3, 4, 1): 1})
    s = shuffle((1, 2), (3, 4), alphabet=INDEX)
    assert s == WordSum(INDEX, {(1, 2, 3, 4): 1, (1, 3, 2, 4): 1,
                                (1, 3, 4, 2): 1, (3, 1, 2, 4): 1,
                                (3, 1, 4, 2): 1, (3, 4, 1, 2): 1})


def test_shuffle_unit_and_total_count():
    w = (1, 0, 1)
    assert shuffle(w, ()) == WordSum.single(w)
    from math import comb
    rng = random.Random(3)
    for _ in range(20):
        a = random_word(rng, BINARY)
        b = random_word(rng, BINARY)
        total = sum(shuffle(a, b).terms.values())
        assert total == comb(len(a) + len(b), len(a))


def test_shuffle_commutative_associative():
    rng = random.Random(5)
    for _ in range(15):
        a = random_word(rng, BINARY, 3)
        b = random_word(rng, BINARY, 3)
        c = random_word(rng, BINARY, 2)
        assert shuffle(a, b) == shuffle(b, a)
        assert shuffle(shuffle(a, b), WordSum.single(c)) == \
            shuffle(WordSum.single(a), shuffle(b, c))


def test_shuffle_preserves_weight_and_depth():
    rng = random.Random(9)
    for _ in range(20):
        a = random_word(rng, BINARY)
        b = random_word(rng, BINARY)
        for word in shuffle(a, b).terms:
            assert weight(word) == weight(a) + weight(b)
            assert depth(word) == depth(a) + depth(b)


@st.composite
def shuffle_words(draw, count):
    """An alphabet and ``count`` short words on it: binary words of 0s and
    1s, or index words of entries 1..4."""
    alphabet = draw(st.sampled_from([BINARY, INDEX]))
    letters = st.integers(0, 1) if alphabet == BINARY else st.integers(1, 4)
    word = st.lists(letters, max_size=3).map(tuple)
    return alphabet, [draw(word) for _ in range(count)]


@settings(max_examples=30, deadline=None)
@given(words=shuffle_words(2))
def test_shuffle_commutative_property(words):
    alphabet, (a, b) = words
    assert shuffle(a, b, alphabet) == shuffle(b, a, alphabet)


@settings(max_examples=30, deadline=None)
@given(words=shuffle_words(3))
def test_shuffle_associative_property(words):
    alphabet, (a, b, c) = words
    assert shuffle(shuffle(a, b, alphabet), WordSum.single(c, alphabet)) == \
        shuffle(WordSum.single(a, alphabet), shuffle(b, c, alphabet))


@settings(max_examples=30, deadline=None)
@given(words=shuffle_words(1))
def test_shuffle_unit_property(words):
    alphabet, (a,) = words
    assert shuffle((), a, alphabet) == shuffle(a, (), alphabet) == \
        WordSum.single(a, alphabet)


# -- stuffle --------------------------------------------------------------

def test_stuffle_y1_y1():
    assert stuffle((1,), (1,)) == WordSum(INDEX, {(1, 1): 2, (2,): 1})


def test_stuffle_single_letters():
    for m, n in [(2, 3), (5, 2), (4, 4)]:
        expected = {(m, n): 1, (n, m): 1, (m + n,): 1}
        if m == n:
            expected = {(m, n): 2, (m + n,): 1}
        assert stuffle((m,), (n,)) == WordSum(INDEX, expected)


def test_stuffle_unit():
    w = (3, 1, 2)
    assert stuffle((), w) == WordSum.single(w, INDEX)
    assert stuffle(w, ()) == WordSum.single(w, INDEX)


def test_stuffle_commutative_associative_weight():
    rng = random.Random(11)
    for _ in range(15):
        a = random_word(rng, INDEX, 3)
        b = random_word(rng, INDEX, 3)
        c = random_word(rng, INDEX, 2)
        assert stuffle(a, b) == stuffle(b, a)
        assert stuffle(stuffle(a, b), WordSum.single(c, INDEX)) == \
            stuffle(WordSum.single(a, INDEX), stuffle(b, c))
        for word in stuffle(a, b).terms:
            assert weight(word, INDEX) == weight(a, INDEX) + weight(b, INDEX)
            assert depth(word, INDEX) <= depth(a, INDEX) + depth(b, INDEX)


# small index words: entries 1..4, length <= 3
INDEX_WORDS = st.lists(st.integers(1, 4), max_size=3).map(tuple)


@settings(max_examples=30, deadline=None)
@given(a=INDEX_WORDS, b=INDEX_WORDS)
def test_stuffle_commutative_property(a, b):
    assert stuffle(a, b) == stuffle(b, a)


@settings(max_examples=30, deadline=None)
@given(a=INDEX_WORDS, b=INDEX_WORDS, c=INDEX_WORDS)
def test_stuffle_associative_property(a, b, c):
    assert stuffle(stuffle(a, b), WordSum.single(c, INDEX)) == \
        stuffle(WordSum.single(a, INDEX), stuffle(b, c))


@settings(max_examples=30, deadline=None)
@given(a=INDEX_WORDS)
def test_stuffle_unit_property(a):
    assert stuffle((), a) == stuffle(a, ()) == WordSum.single(a, INDEX)


def test_stuffle_rejects_binary_word_sums():
    with pytest.raises(ValueError):
        stuffle(WordSum(BINARY, {(1, 0): 1}), WordSum(BINARY, {(1,): 1}))
    with pytest.raises(ValueError):
        stuffle(WordSum(BINARY, {(1, 0): 1}), (1,))


def test_stuffle_top_depth_is_shuffle():
    rng = random.Random(13)
    for _ in range(20):
        a = random_word(rng, INDEX, 3)
        b = random_word(rng, INDEX, 3)
        full_depth = len(a) + len(b)
        top = {w: c for w, c in stuffle(a, b).terms.items() if len(w) == full_depth}
        assert WordSum(INDEX, top) == shuffle(a, b, alphabet=INDEX)


# -- coefficients and compositions -------------------------------------------

def test_integral_coefficients_are_ints():
    half = WordSum(BINARY, {(1, 0): Fraction(1, 2), (0, 1): Fraction(4, 2),
                            (1, 1): 3, (0, 0): Fraction(0)})
    assert half.terms == {(1, 0): Fraction(1, 2), (0, 1): 2, (1, 1): 3}
    assert type(half.coefficient((1, 0))) is Fraction
    assert type(half.coefficient((0, 1))) is int
    assert half.coefficient((0, 0)) == 0 and type(half.coefficient((0, 0))) is int
    assert all(type(c) is int for c in half.scale(2).terms.values())
    products = [shuffle((1, 0), (1, 1, 0)), stuffle((2, 1), (1, 3)),
                word_compose((1, 0, 1), (0, 1, 1)),
                shuffle(WordSum(BINARY, {(1,): -3, (0,): 2}), (1, 0)),
                to_index_sum(WordSum(BINARY, {(1, 0): 2, (1, 1): 5}))]
    for ws in products:
        assert ws.terms and all(type(c) is int for c in ws.terms.values())
    summed = shuffle(half, (1,))
    assert summed.coefficient((1, 1, 0)) == 1  # 2 * 1/2
    assert type(summed.coefficient((1, 1, 0))) is int
    assert summed.coefficient((1, 0, 1)) == Fraction(5, 2)  # 1/2 + 2


def compositions_by_recursion(total, parts):
    """The first part, then the compositions of the rest."""
    if parts <= 0 or total < parts:
        return [()] if parts == total == 0 else []
    return [(head,) + rest
            for head in range(1, total - parts + 2)
            for rest in compositions_by_recursion(total - head, parts - 1)]


def test_compositions_match_recursion():
    for total in range(-1, 21):
        for parts in range(-1, 9):
            assert compositions(total, parts) == \
                compositions_by_recursion(total, parts), (total, parts)


# -- polynomial encodings --------------------------------------------------

def test_poly_rep_examples():
    assert reduced_rep((1,)) == Poly.constant(1, 1)  # single e1 -> x1^0
    assert poly_rep((0, 1, 0, 0)) == Poly.monomial((1, 2))  # e0 e1 e0^2
    # e1 e0^{n1-1} ... e1 e0^{nr-1} -> x1^{n1-1} ... xr^{nr-1}
    for comp in [(2,), (3, 1), (2, 1, 2)]:
        word = index_word_to_binary(comp)
        assert reduced_rep(word) == Poly.monomial(tuple(n - 1 for n in comp))


def test_poly_rep_bijection_round_trip():
    rng = random.Random(17)
    for _ in range(30):
        word = random_word(rng, BINARY, 6)
        assert poly_to_words(poly_rep(word)) == WordSum.single(word)
    assert word_exponents((0, 1, 0)) == (1, 1)
    assert exponents_to_word((1, 1)) == (0, 1, 0)


def test_translation_lift_examples():
    x1sq = Poly.monomial((2,))
    lifted = translation_lift(x1sq)
    assert lifted == Poly(2, {(0, 2): 1, (1, 1): -2, (2, 0): 1})  # (y1-y0)^2
    assert restrict_y0(lifted) == x1sq
    assert is_translation_invariant(lifted)
    assert is_translation_invariant(Poly.constant(0, 5))
    assert not is_translation_invariant(Poly(2, {(0, 2): 1, (2, 0): 1}))
    assert not is_translation_invariant(Poly(2, {(1, 1): 1, (2, 0): -1}))


def test_translation_lift_round_trip_random():
    rng = random.Random(19)
    for _ in range(20):
        arity = rng.randint(1, 3)
        terms = {tuple(rng.randint(0, 3) for _ in range(arity)):
                 Fraction(rng.randint(-3, 3)) for _ in range(3)}
        f = Poly(arity, terms)
        lifted = translation_lift(f)
        assert restrict_y0(lifted) == f
        assert is_translation_invariant(lifted)


@settings(max_examples=60, deadline=None)
@given(f=polys(max_arity=5))
def test_translation_lift_matches_substitution(f):
    lifted = translation_lift(f)
    assert lifted == lift_by_substitution(f)
    assert is_settled(lifted)


@pytest.mark.parametrize("weight", EXCEPTIONAL_WEIGHTS)
def test_translation_lift_of_exceptional_bodies(weight):
    body = exceptional_body(weight)
    assert translation_lift(body) == lift_by_substitution(body)


def test_lru_caches_are_bounded():
    for cached in (words._shuffle_words, words._stuffle_words,
                   words._compose_words, ihara._difference_power):
        assert cached.cache_info().maxsize is not None


def test_index_word_projection():
    assert to_index_word((0, 1)) is None  # starts with e0 -> zero
    assert to_index_word((1, 0)) == (2,)
    assert to_index_word((1, 1, 0, 0)) == (1, 3)
    ws = WordSum(BINARY, {(0, 1): 5, (1, 0): 2})
    assert to_index_sum(ws) == WordSum(INDEX, {(2,): 2})


# -- composition of words ----------------------------------------------------

def test_word_compose_base_cases():
    a = (1, 0, 1)
    assert word_compose(a, ()) == WordSum.single(a)
    # a . e0^n = e0^n a
    assert word_compose(a, (0, 0)) == WordSum.single((0, 0) + a)


def test_word_compose_e1_on_e1():
    assert word_compose((1,), (1,)) == WordSum.single((1, 1))


def test_word_compose_agrees_with_lifted_composition():
    from doubleshuffle.ihara import compose_lifted

    rng = random.Random(23)
    for _ in range(40):
        a = random_word(rng, BINARY, 4)
        g = random_word(rng, BINARY, 4)
        ws = word_compose(a, g)
        rhs = compose_lifted(poly_rep(a), poly_rep(g))
        if ws.is_zero():
            assert rhs.is_zero()
        else:
            assert poly_rep(ws) == rhs


# -- coaction ----------------------------------------------------------------

def test_coaction_weight_two_vanishes():
    assert coaction_component(1, (1, 0)) == {}


def test_coaction_weight_three_cancels():
    assert coaction_component(1, (1, 0, 0)) == {}


def test_coaction_full_word_single_term():
    for word in [(1, 0), (1, 0, 1, 0), (1, 1, 0)]:
        got = coaction_component(len(word), word)
        assert got == {(word, ()): Fraction(1)}


def test_coaction_boundary_rules():
    # r = 1 on (1, 0, 1): p=0 frames (0,..,0) -> drop; p=1 frames (1,..,1) -> drop;
    # p=2 frames (0,..,1) -> keep subword (1) with quotient (1, 0)
    got = coaction_component(1, (1, 0, 1))
    assert got == {((1,), (1, 0)): Fraction(1)}
    # reversal rule: r = 2 on (1, 0, 0): p=1 frames (1,..,1)->drop, p=0 frames
    # (0,(1,0),0) -> drop; full-word term remains at r=3 only
    got = coaction_component(2, (1, 0, 0))
    assert got == {}


def test_word_serialization():
    assert word_to_str((0, 1, 0, 0)) == "e0 e1 e0 e0"
    assert str_to_word("e0 e1 e0 e0") == (0, 1, 0, 0)
    assert word_to_str((3, 5, 7), INDEX) == "3,5,7"
    assert str_to_word("3,5,7", INDEX) == (3, 5, 7)
