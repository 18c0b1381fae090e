"""Exact arithmetic in the free associative unital ring Z{X1,...,Xk}.

Polynomials are sparse maps from words (tuples of generator indices) to
arbitrary-precision integers.  All values are immutable after construction
and every operation is a pure function, so polynomials can be shared
freely between threads.  The one exception is hidden: a FreePoly caches
the trace powers cycquot.trace_power computes from it, keyed by the
exponent.  Callers cannot observe the cache, since a cached class equals
a recomputed one, and two threads that race to fill it only store equal
values.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator, Mapping

Word = tuple[int, ...]

EMPTY_WORD: Word = ()

#: Degree of the zero polynomial.  A distinguished sentinel, never -1.
MINUS_INFINITY = float("-inf")

#: The most terms of a power, or classes of a trace power, that one
#: computation may produce.  Larger work is refused before it starts.
TERM_BUDGET = 2**20

#: The largest exponent, and the longest word of a power, that one
#: computation may take or produce.  The longest word of the level-5
#: pipeline at p = 2 has 32 letters; least_rotation, linear in the
#: length, takes 0.4-0.7 ms on one 4,096-letter word (CPython 3.11, Xeon;
#: trying every rotation took 50-110 ms).
LETTER_BUDGET = 2**12

#: The most bits a coefficient of a power, a trace power or parsed text
#: may take.  Python refuses to convert integers of more than 4,300
#: decimal digits (about 14,284 bits) to or from text, so every
#: coefficient within the budget can be parsed and printed.
COEFF_BIT_BUDGET = 2**13

#: Size bounds are computed exactly below this value and saturate at it,
#: so that a huge exponent costs nothing to refuse.
COUNT_CAP = 2**64


class InputError(ValueError):
    """An input outside what the library computes on: a malformed name or
    expression, a p that is not prime, a level below its minimum, or an
    alphabet a construction is not formulated over."""


class ResourceLimit(ValueError):
    """Work refused before it started, because an exact bound on its
    output size exceeds TERM_BUDGET, its exponent or word length exceeds
    LETTER_BUDGET, or its coefficients may exceed COEFF_BIT_BUDGET bits."""


def capped_power(base: int, exp: int) -> int:
    """min(base ** exp, COUNT_CAP), without building a huge integer."""
    if base > 1 and exp * (base.bit_length() - 1) >= COUNT_CAP.bit_length() - 1:
        return COUNT_CAP
    return min(base**exp, COUNT_CAP)


def check_budget(bound: int, what: str) -> None:
    """Raise ResourceLimit, naming the bound, if it exceeds TERM_BUDGET."""
    if bound > TERM_BUDGET:
        size = f"up to {bound:,}" if bound < COUNT_CAP else f"at least {COUNT_CAP:,}"
        raise ResourceLimit(f"{what}: {size}, above the budget of {TERM_BUDGET:,}")


def check_letters(n: int, degree) -> None:
    """Raise ResourceLimit, naming the bound, if max(n, n * degree) exceeds
    LETTER_BUDGET: the exponent of a power, and the length of the longest
    word of a degree-`degree` polynomial to the power n."""
    size = n * max(degree, 1)
    if size > LETTER_BUDGET:
        raise ResourceLimit(
            f"power {n} of a degree-{max(degree, 0)} polynomial: max(exponent, word length) "
            f"= {size:,}, above the letter budget of {LETTER_BUDGET:,}"
        )


def check_bits(bits: int, what: str) -> None:
    """Raise ResourceLimit, naming the bound, if a coefficient of `bits`
    bits would exceed COEFF_BIT_BUDGET."""
    if bits > COEFF_BIT_BUDGET:
        raise ResourceLimit(
            f"{what}: up to {bits:,} bits, above the coefficient budget of "
            f"{COEFF_BIT_BUDGET:,} bits"
        )


def coefficient_bits(f: "SparseCombination") -> int:
    """The bit length of the sum of |c| over the terms of f: every
    coefficient of f ** n has at most n times as many bits."""
    return sum(map(abs, f._terms.values())).bit_length()


class AlphabetMismatch(ValueError):
    """Raised when combining polynomials over different alphabets."""


class Alphabet:
    """An ordered set of generator names.

    Declaration order defines the base lexicographic order on words
    (default convention: X < Y).  The order is fixed for the alphabet's
    lifetime; canonical rotations and the section sigma0 depend on it.
    """

    __slots__ = ("names", "_index", "single_char")

    def __init__(self, names: Iterable[str]):
        names = tuple(names)
        if not names:
            raise InputError("alphabet must have at least one generator")
        if len(set(names)) != len(names):
            raise InputError(f"duplicate generator names: {names}")
        for name in names:
            # the parser's name rule: word characters, not starting with a digit
            if not (re.fullmatch(r"\w+", name) and (name[0].isalpha() or name[0] == "_")):
                raise InputError(f"invalid generator name: {name!r}")
        self.names = names
        self._index = {name: i for i, name in enumerate(names)}
        self.single_char = all(len(name) == 1 for name in names)

    def __len__(self) -> int:
        return len(self.names)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Alphabet) and self.names == other.names

    def __hash__(self) -> int:
        return hash(self.names)

    def __repr__(self) -> str:
        return f"Alphabet({list(self.names)!r})"

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown generator {name!r}") from None


def word_key(w: Word) -> tuple[int, Word]:
    """Total order on words: degree first, then lexicographic by index."""
    return (len(w), w)


def format_word(w: Word, alphabet: Alphabet) -> str:
    """Render a word with ^k for runs, e.g. (0,0,1,1) -> 'X^2Y^2'.

    Multi-character generator names get explicit '*' separators so the
    output stays parseable.
    """
    if not w:
        return "1"
    names = alphabet.names
    parts = []
    # one pass: close the run of the previous letter where a new one starts
    prev, start = w[0], 0
    for j, x in enumerate(w):
        if x != prev:
            parts.append(names[prev] if j - start == 1 else f"{names[prev]}^{j - start}")
            prev, start = x, j
    run = len(w) - start
    parts.append(names[prev] if run == 1 else f"{names[prev]}^{run}")
    return ("" if alphabet.single_char else "*").join(parts)


class SparseCombination:
    """A finite integer combination of words over an alphabet: the sparse
    Z-module arithmetic shared by FreePoly and AbelPoly.  Terms with zero
    coefficient are never stored, and values are never mutated after
    construction."""

    __slots__ = ("alphabet", "_terms")

    def __init__(self, alphabet: Alphabet, terms: Mapping[Word, int] | None = None):
        self.alphabet = alphabet
        clean: dict[Word, int] = {}
        if terms:
            n = len(alphabet)
            for w, c in terms.items():
                if not all(0 <= idx < n for idx in w):
                    raise ValueError(f"word {w!r} has letters outside the alphabet")
                if c:
                    clean[w] = c
        self._terms = clean

    @classmethod
    def _from_terms(cls, alphabet: Alphabet, terms: dict[Word, int]):
        """Wrap a dict that already holds only valid, nonzero terms,
        skipping validation.  The dict is owned by the result afterwards."""
        out = cls.__new__(cls)
        out.alphabet = alphabet
        out._terms = terms
        return out

    @classmethod
    def zero(cls, alphabet: Alphabet):
        return cls._from_terms(alphabet, {})

    # -- basic queries ------------------------------------------------

    def terms(self) -> Iterator[tuple[Word, int]]:
        """Terms in canonical (degree, lex) order."""
        for w in sorted(self._terms, key=word_key):
            yield w, self._terms[w]

    def coefficient(self, w: Word) -> int:
        return self._terms.get(w, 0)

    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        alphabets_equal = self.alphabet is other.alphabet or self.alphabet == other.alphabet
        return alphabets_equal and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self.alphabet, frozenset(self._terms.items())))

    def _check_alphabet(self, other: "SparseCombination") -> None:
        if self.alphabet is not other.alphabet and self.alphabet != other.alphabet:
            raise AlphabetMismatch(
                f"cannot combine polynomials over {self.alphabet!r} and {other.alphabet!r}"
            )

    # -- module operations --------------------------------------------

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        self._check_alphabet(other)
        terms = dict(self._terms)
        for w, c in other._terms.items():
            s = terms.get(w, 0) + c
            if s:
                terms[w] = s
            else:
                terms.pop(w, None)
        return self._from_terms(self.alphabet, terms)

    def __neg__(self):
        return self._from_terms(self.alphabet, {w: -c for w, c in self._terms.items()})

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        """Integer scaling; FreePoly extends this to the ring product."""
        if not isinstance(other, int):
            return NotImplemented
        terms = {w: c * other for w, c in self._terms.items()} if other else {}
        return self._from_terms(self.alphabet, terms)

    def __rmul__(self, other):
        if isinstance(other, int):
            return self * other
        return NotImplemented

    # -- formatting ------------------------------------------------------

    def _format_term(self, w: Word, mag: int) -> str:
        """The body of one term with coefficient magnitude mag >= 1."""
        raise NotImplementedError

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        text = " ".join(
            f"{'-' if c < 0 else '+'} {self._format_term(w, abs(c))}"
            for w, c in self.terms()
        )
        # the leading sign is written as '-X', or dropped when it is '+'
        return text[2:] if text[0] == "+" else "-" + text[2:]

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"


class FreePoly(SparseCombination):
    """An element of the free ring Z{X,Y,...}: a finite integer combination
    of words."""

    # {n: AbelPoly}, the trace powers cycquot.trace_power has computed
    # from this polynomial; unset until the first one
    __slots__ = ("_traces",)

    # Bound here as well as inherited, so that each is an attribute of
    # FreePoly itself: bench/tracing.py times methods it finds in the
    # class's own namespace.
    __add__ = SparseCombination.__add__
    __str__ = SparseCombination.__str__

    # -- constructors -------------------------------------------------

    @classmethod
    def one(cls, alphabet: Alphabet) -> "FreePoly":
        return cls(alphabet, {EMPTY_WORD: 1})

    @classmethod
    def constant(cls, alphabet: Alphabet, c: int) -> "FreePoly":
        return cls(alphabet, {EMPTY_WORD: c})

    @classmethod
    def generator(cls, alphabet: Alphabet, name: str) -> "FreePoly":
        return cls(alphabet, {(alphabet.index(name),): 1})

    @classmethod
    def monomial(cls, alphabet: Alphabet, word: Word, coeff: int = 1) -> "FreePoly":
        return cls(alphabet, {word: coeff})

    # -- ring operations ----------------------------------------------

    def __mul__(self, other):
        if not isinstance(other, FreePoly):
            return super().__mul__(other)
        self._check_alphabet(other)
        terms: dict[Word, int] = {}
        for w1, c1 in self._terms.items():
            for w2, c2 in other._terms.items():
                w = w1 + w2
                s = terms.get(w, 0) + c1 * c2
                if s:
                    terms[w] = s
                else:
                    del terms[w]
        return FreePoly._from_terms(self.alphabet, terms)

    def __pow__(self, k: int) -> "FreePoly":
        """Repeated squaring.  Raises ResourceLimit when the power may have
        more than TERM_BUDGET terms, by the smaller of (number of terms)^k
        and words_within_degree(self, k), when max(k, k * degree)
        exceeds LETTER_BUDGET, when k * coefficient_bits(self) exceeds
        COEFF_BIT_BUDGET, or when the squaring_work bound on its term
        products exceeds TERM_BUDGET."""
        if not isinstance(k, int) or k < 0:
            raise ValueError(f"exponent must be a non-negative integer, got {k!r}")
        # one term has one word in every power, so only its length counts;
        # while terms^k is within TERM_BUDGET, the products of the squarings
        # stay within a small multiple of it
        large = len(self) > 1 and capped_power(len(self), k) > TERM_BUDGET
        if large:
            check_budget(
                min(capped_power(len(self), k), words_within_degree(self, k)),
                f"terms of a {len(self)}-term polynomial to the power {k}",
            )
        if k > 1:
            check_letters(k, self.degree)
            bits = k * coefficient_bits(self)
            if bits > COEFF_BIT_BUDGET:
                check_bits(bits, f"coefficients of a {len(self)}-term polynomial to the power {k}")
        if large:
            check_budget(
                squaring_work(self, k),
                f"term products of a {len(self)}-term polynomial to the power {k}",
            )
        result = None
        base = self
        while k:
            if k & 1:
                result = base if result is None else result * base
            base = base * base if k > 1 else base
            k >>= 1
        return FreePoly.one(self.alphabet) if result is None else result

    @property
    def degree(self):
        if not self._terms:
            return MINUS_INFINITY
        return max(map(len, self._terms))

    def _format_term(self, w: Word, mag: int) -> str:
        if not w:
            return str(mag)
        if mag == 1:
            return format_word(w, self.alphabet)
        return f"{mag}{'' if self.alphabet.single_char else '*'}{format_word(w, self.alphabet)}"


def words_within_degree(f: FreePoly, n: int) -> int:
    """The number W of words of degree at most n * deg f over the letters
    that occur in f (capped at COUNT_CAP): a bound on the terms of f ** n."""
    m = len({x for w in f._terms for x in w})
    top = n * max(f.degree, 0)
    if m <= 1:
        return min(top + 1 if m else 1, COUNT_CAP)
    size = capped_power(m, top + 1)
    return size if size == COUNT_CAP else (size - 1) // (m - 1)


def squaring_work(f: FreePoly, n: int) -> int:
    """A bound on the term products that f ** n computes (capped at
    COUNT_CAP): the sum of terms(a) * terms(b) over the products a * b of
    repeated squaring, where f ** e has at most
    min(terms(f) ** e, words_within_degree(f, e)) terms."""

    def terms(e: int) -> int:
        return min(capped_power(len(f), e), words_within_degree(f, e))

    work = 0
    done = 0  # the exponent of the partial result
    e = 1  # the exponent of the current square
    while n and work < COUNT_CAP:
        if n & 1:
            if done:
                work += terms(done) * terms(e)
            done += e
        n >>= 1
        if n:
            work += terms(e) ** 2
            e *= 2
    return min(work, COUNT_CAP)


def p_powers(a: FreePoly, p: int, count: int) -> list[FreePoly]:
    """[a, a^p, ..., a^{p^(count-1)}]: each entry the expanded p-th power of
    the one before.  The letter budget sees the last exponent, p^(count-1),
    as in a ** p^(count-1), so a constant's chain is bounded too."""
    if count > 1:
        check_letters(capped_power(p, count - 1), a.degree)
    chain = [a]
    for _ in range(count - 1):
        chain.append(chain[-1] ** p)
    return chain


def commutator(f: FreePoly, g: FreePoly) -> FreePoly:
    """The additive commutator fg - gf."""
    return f * g - g * f


def phi_map(f: FreePoly, p: int) -> FreePoly:
    """The additive map sending each word w to its p-th concatenation power,
    coefficients unchanged.  Not a ring homomorphism."""
    if p < 2:
        raise ValueError("p must be at least 2")
    # w -> w^p is injective on words, so no two terms merge
    return FreePoly._from_terms(f.alphabet, {w * p: c for w, c in f._terms.items()})
