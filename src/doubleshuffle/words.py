"""Non-commutative word algebras over two alphabets.

Binary words live over {e0, e1}, encoded as tuples of 0/1; their weight is
the length and their depth the number of 1 letters.  Index words live over
the graded alphabet {y_1, y_2, ...}, encoded as tuples of integers >= 1;
their weight is the sum of indices and their depth the length.

The module provides the shuffle product (both alphabets), the stuffle
product (index words), the polynomial encodings of binary words and the
depth-graded composition of words.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from operator import sub
from typing import Callable, Iterable, Mapping

from .exact_algebra import Coeff, Poly, _coeff, _shifted

BINARY = "binary"
INDEX = "index"

Word = tuple[int, ...]
CACHE_SIZE = 1 << 14  # bound of the lru_caches; no workload comes near it


def depth(word: Word, alphabet: str = BINARY) -> int:
    return sum(word) if alphabet == BINARY else len(word)


def compositions(total: int, parts: int) -> list[Word]:
    """Compositions of ``total`` into ``parts`` positive parts, in
    lexicographic order: the index words of weight ``total`` and depth
    ``parts``.  Each is read off its cut points, the partial sums before
    the last; lexicographic order on the cut points is lexicographic order
    on the compositions."""
    if parts <= 0 or total < parts:
        return [()] if parts == total == 0 else []
    return [tuple(map(sub, cuts + (total,), (0,) + cuts))
            for cuts in combinations(range(1, total), parts - 1)]


class WordSum:
    """Finite rational-linear combination of words over one alphabet; each
    coefficient is an ``int`` when integral and a ``Fraction`` otherwise."""

    __slots__ = ("alphabet", "terms")

    def __init__(self, alphabet: str, terms: Mapping[Word, Coeff] | None = None):
        if alphabet not in (BINARY, INDEX):
            raise ValueError(f"unknown alphabet {alphabet!r}")
        self.alphabet = alphabet
        clean: dict[Word, Coeff] = {}
        if terms:
            for word, coeff in terms.items():
                coeff = _coeff(coeff)
                if coeff:
                    clean[tuple(word)] = coeff
        self.terms = clean

    @staticmethod
    def single(word: Iterable[int], alphabet: str = BINARY, coeff=1) -> WordSum:
        return WordSum(alphabet, {tuple(word): coeff})

    def __add__(self, other: WordSum) -> WordSum:
        if self.alphabet != other.alphabet:
            raise ValueError("alphabet mismatch")
        terms = dict(self.terms)
        for word, coeff in other.terms.items():
            new = terms.get(word, 0) + coeff
            if new:
                terms[word] = new
            else:
                terms.pop(word, None)
        return WordSum(self.alphabet, terms)

    def __sub__(self, other: WordSum) -> WordSum:
        return self + other.scale(-1)

    def scale(self, factor) -> WordSum:
        factor = _coeff(factor)
        return WordSum(self.alphabet,
                       {w: c * factor for w, c in self.terms.items()})

    def __eq__(self, other) -> bool:
        return (isinstance(other, WordSum) and self.alphabet == other.alphabet
                and self.terms == other.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, word: Iterable[int]) -> Coeff:
        return self.terms.get(tuple(word), 0)

    def __repr__(self) -> str:
        bits = [f"{c}*{w}" for w, c in sorted(self.terms.items())[:6]]
        suffix = ", ..." if len(self.terms) > 6 else ""
        return f"WordSum({' + '.join(bits) or '0'}{suffix})"


# ---------------------------------------------------------------------
# Shuffle and stuffle
# ---------------------------------------------------------------------

WordProduct = Callable[[Word, Word], tuple[tuple[Word, int], ...]]


def _bilinear(product: WordProduct, a, b, alphabet: str) -> WordSum:
    """Bilinear extension of a word product to words and WordSums on
    ``alphabet``; a plain word is read on it, a WordSum must be on it."""
    a, b = (x if isinstance(x, WordSum) else WordSum.single(x, alphabet)
            for x in (a, b))
    if a.alphabet != alphabet or b.alphabet != alphabet:
        raise ValueError(f"expected {alphabet} words")
    out: dict[Word, Coeff] = {}
    for wa, ca in a.terms.items():
        for wb, cb in b.terms.items():
            for word, mult in product(wa, wb):
                out[word] = out.get(word, 0) + mult * ca * cb
    return WordSum(alphabet, out)


@lru_cache(maxsize=CACHE_SIZE)
def _shuffle_words(w: Word, v: Word) -> tuple[tuple[Word, int], ...]:
    if not w:
        return ((v, 1),)
    if not v:
        return ((w, 1),)
    out: dict[Word, int] = {}
    for rest, mult in _shuffle_words(w[1:], v):
        key = (w[0],) + rest
        out[key] = out.get(key, 0) + mult
    for rest, mult in _shuffle_words(w, v[1:]):
        key = (v[0],) + rest
        out[key] = out.get(key, 0) + mult
    return tuple(sorted(out.items()))


def shuffle(w, v, alphabet: str = BINARY) -> WordSum:
    """Shuffle product of two words (or WordSums) on a common alphabet: that
    of the first WordSum, or ``alphabet`` for two plain words."""
    alphabet = next((x.alphabet for x in (w, v) if isinstance(x, WordSum)),
                    alphabet)
    return _bilinear(_shuffle_words, w, v, alphabet)


@lru_cache(maxsize=CACHE_SIZE)
def _stuffle_words(u: Word, v: Word) -> tuple[tuple[Word, int], ...]:
    if not u:
        return ((v, 1),)
    if not v:
        return ((u, 1),)
    out: dict[Word, int] = {}
    for rest, mult in _stuffle_words(u[1:], v):
        key = (u[0],) + rest
        out[key] = out.get(key, 0) + mult
    for rest, mult in _stuffle_words(u, v[1:]):
        key = (v[0],) + rest
        out[key] = out.get(key, 0) + mult
    for rest, mult in _stuffle_words(u[1:], v[1:]):
        key = (u[0] + v[0],) + rest
        out[key] = out.get(key, 0) + mult
    return tuple(sorted(out.items()))


def stuffle(u, v) -> WordSum:
    """Stuffle product of index words: shuffle plus index-summing contraction."""
    return _bilinear(_stuffle_words, u, v, INDEX)


# ---------------------------------------------------------------------
# Polynomial encodings of binary words
# ---------------------------------------------------------------------

def word_exponents(word: Word) -> tuple[int, ...]:
    """Run lengths of 0s around the 1s: e0^a0 e1 e0^a1 ... e1 e0^ar -> (a0..ar)."""
    runs = [0]
    for letter in word:
        if letter == 1:
            runs.append(0)
        else:
            runs[-1] += 1
    return tuple(runs)


def poly_rep(w) -> Poly:
    """Encode a depth-r binary word as the monomial of its 0-run lengths
    (a polynomial in r+1 variables); extends linearly to WordSums of pure
    depth."""
    if isinstance(w, WordSum):
        if w.alphabet != BINARY:
            raise ValueError("polynomial encoding needs binary words")
        if w.is_zero():
            return Poly.zero(1)
        depths = {depth(word) for word in w.terms}
        if len(depths) != 1:
            raise ValueError("mixed depths have no common arity")
        return Poly(depths.pop() + 1, {word_exponents(word): coeff
                                       for word, coeff in w.terms.items()})
    return Poly.monomial(word_exponents(tuple(w)))


def restrict_y0(f: Poly) -> Poly:
    """Set the first variable to zero and drop it (arity decreases by one)."""
    if f.arity == 0:
        raise ValueError("no variable to restrict")
    out = {exps[1:]: coeff for exps, coeff in f.terms.items() if exps[0] == 0}
    return Poly(f.arity - 1, out, _clean=True)


def translation_lift(f: Poly) -> Poly:
    """Lift x_i -> y_i - y_0; the unique translation-invariant preimage of
    the restriction above."""
    return _shifted(f.embed(f.arity + 1, 1),
                    [(i, 0, -1) for i in range(1, f.arity + 1)])


def is_translation_invariant(f: Poly) -> bool:
    """True iff the partial derivatives of f sum to zero."""
    total: dict[tuple[int, ...], Coeff] = {}
    for exps, coeff in f.terms.items():
        for i, e in enumerate(exps):
            if e:
                key = exps[:i] + (e - 1,) + exps[i + 1:]
                total[key] = total.get(key, 0) + e * coeff
    return not any(total.values())


def index_word_to_binary(iword: Word) -> Word:
    out: list[int] = []
    for n in iword:
        out.append(1)
        out.extend([0] * (n - 1))
    return tuple(out)


# ---------------------------------------------------------------------
# Depth-graded composition of words
# ---------------------------------------------------------------------

def _star(word: Word) -> tuple[Word, int]:
    return word[::-1], (-1) ** len(word)


@lru_cache(maxsize=CACHE_SIZE)
def _compose_words(a: Word, g: Word) -> tuple[tuple[Word, int], ...]:
    # a acting on g: inserting a (and its signed reversal) around each 1 of g,
    # with the base rule a . 0^n = 0^n a.
    n = 0
    while n < len(g) and g[n] == 0:
        n += 1
    if n == len(g):
        return ((g + a, 1),)
    prefix = g[:n]
    w = g[n + 1:]
    out: dict[Word, int] = {}

    def add(word: Word, mult: int) -> None:
        new = out.get(word, 0) + mult
        if new:
            out[word] = new
        else:
            out.pop(word, None)

    add(prefix + a + (1,) + w, 1)
    rev, sign = _star(a)
    add(prefix + (1,) + rev + w, sign)
    for word, mult in _compose_words(a, w):
        add(prefix + (1,) + word, mult)
    return tuple(sorted(out.items()))


def word_compose(a, g) -> WordSum:
    """Bilinear depth-graded composition of binary words."""
    return _bilinear(_compose_words, a, g, BINARY)
