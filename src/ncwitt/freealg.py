"""Exact arithmetic in the free associative unital ring Z{X1,...,Xk}.

Polynomials are sparse maps from words (tuples of generator indices) to
arbitrary-precision integers.  All values are immutable after construction
and every operation is a pure function, so polynomials can be shared
freely between threads.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

Word = tuple[int, ...]

EMPTY_WORD: Word = ()

#: Degree of the zero polynomial.  A distinguished sentinel, never -1.
MINUS_INFINITY = float("-inf")


class AlphabetMismatch(ValueError):
    """Raised when combining polynomials over different alphabets."""


class Alphabet:
    """An ordered set of generator names.

    Declaration order defines the base lexicographic order on words
    (default convention: X < Y).  The order is fixed for the alphabet's
    lifetime; canonical rotations and the section sigma0 depend on it.
    """

    __slots__ = ("names", "_index")

    def __init__(self, names: Iterable[str]):
        names = tuple(names)
        if not names:
            raise ValueError("alphabet must have at least one generator")
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate generator names: {names}")
        for name in names:
            if not name or not name.isprintable() or any(c in "+-*^() \t" for c in name):
                raise ValueError(f"invalid generator name: {name!r}")
        self.names = names
        self._index = {name: i for i, name in enumerate(names)}

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

    @property
    def single_char(self) -> bool:
        return all(len(name) == 1 for name in self.names)


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
    parts = []
    i = 0
    while i < len(w):
        j = i
        while j < len(w) and w[j] == w[i]:
            j += 1
        name = alphabet.names[w[i]]
        run = j - i
        parts.append(name if run == 1 else f"{name}^{run}")
        i = j
    sep = "" if alphabet.single_char else "*"
    return sep.join(parts)


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
        return self.alphabet == other.alphabet and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self.alphabet, frozenset(self._terms.items())))

    def _check_alphabet(self, other: "SparseCombination") -> None:
        if self.alphabet != other.alphabet:
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

    def reduce_mod(self, m: int):
        """Reduce every coefficient to its representative in [0, m)."""
        if m < 2:
            raise ValueError("modulus must be at least 2")
        return self._from_terms(
            self.alphabet, {w: c % m for w, c in self._terms.items() if c % m}
        )

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

    __slots__ = ()

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
        if not isinstance(k, int) or k < 0:
            raise ValueError(f"exponent must be a non-negative integer, got {k!r}")
        result = FreePoly.one(self.alphabet)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    # -- grading and filtration -----------------------------------------

    @property
    def degree(self):
        if not self._terms:
            return MINUS_INFINITY
        return max(len(w) for w in self._terms)

    def graded_component(self, d: int) -> "FreePoly":
        """The degree-d homogeneous part."""
        if d < 0:
            raise ValueError("degree must be non-negative")
        return FreePoly._from_terms(
            self.alphabet, {w: c for w, c in self._terms.items() if len(w) == d}
        )

    def filtration_split(self, n: int) -> tuple["FreePoly", "FreePoly"]:
        """Split as (degree < n part, degree >= n part); the high part lies
        in the n-th filtration step and low + high == self exactly."""
        if n < 0:
            raise ValueError("filtration level must be non-negative")
        low = {w: c for w, c in self._terms.items() if len(w) < n}
        high = {w: c for w, c in self._terms.items() if len(w) >= n}
        return FreePoly._from_terms(self.alphabet, low), FreePoly._from_terms(self.alphabet, high)

    def _format_term(self, w: Word, mag: int) -> str:
        if not w:
            return str(mag)
        if mag == 1:
            return format_word(w, self.alphabet)
        return f"{mag}{'' if self.alphabet.single_char else '*'}{format_word(w, self.alphabet)}"


def commutator(f: FreePoly, g: FreePoly) -> FreePoly:
    """The additive commutator fg - gf."""
    return f * g - g * f


def phi_map(f: FreePoly, p: int) -> FreePoly:
    """The additive map sending each word w to its p-th concatenation power,
    coefficients unchanged.  Not a ring homomorphism."""
    if p < 2:
        raise ValueError("p must be at least 2")
    terms: dict[Word, int] = {}
    for w, c in f._terms.items():
        wp = w * p
        s = terms.get(wp, 0) + c
        if s:
            terms[wp] = s
        else:
            del terms[wp]
    return FreePoly._from_terms(f.alphabet, terms)
