"""The abelianization A/[A,A] of a free ring as the free abelian group on
circular words, with the canonical section sigma0 and exact division.

For a free algebra the additive commutator subgroup is spanned by
differences w - w' of words in the same cyclic rotation class, so the
quotient has the circular words as a free basis and membership in [A,A]
is decided by abelianizing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping

from .freealg import Alphabet, AlphabetMismatch, FreePoly, Word, format_word, word_key


class NotDivisible(ArithmeticError):
    """Exact division failed: some coefficient is not a multiple of the
    divisor.  In the R-map recursion this signals an internal-consistency
    failure and must abort the computation."""


def least_rotation(w: Word) -> Word:
    """The lexicographically least cyclic rotation of w.

    Direct enumeration of all rotations; words stay short enough here
    that a linear-time algorithm would buy nothing.
    """
    if len(w) <= 1:
        return w
    doubled = w + w
    n = len(w)
    return min(doubled[i : i + n] for i in range(n))


@dataclass(frozen=True)
class CircularWord:
    """A cyclic-rotation equivalence class of words, keyed by its
    lexicographically least representative."""

    canonical: Word

    @classmethod
    def of(cls, w: Word) -> "CircularWord":
        return cls(least_rotation(w))

    @property
    def degree(self) -> int:
        return len(self.canonical)

    def sort_key(self):
        return word_key(self.canonical)


def circular_class(w: Word) -> CircularWord:
    """The circular word containing w."""
    return CircularWord.of(w)


class AbelPoly:
    """An element of A/[A,A]: a finite integer combination of circular
    words.  Zero coefficients are never stored."""

    __slots__ = ("alphabet", "_terms")

    def __init__(self, alphabet: Alphabet, terms: Mapping[CircularWord, int] | None = None):
        self.alphabet = alphabet
        clean: dict[CircularWord, int] = {}
        if terms:
            for cw, c in terms.items():
                if cw.canonical != least_rotation(cw.canonical):
                    raise ValueError(f"non-canonical circular word {cw!r}")
                if c:
                    clean[cw] = c
        self._terms = clean

    @classmethod
    def zero(cls, alphabet: Alphabet) -> "AbelPoly":
        return cls(alphabet)

    def terms(self) -> Iterator[tuple[CircularWord, int]]:
        for cw in sorted(self._terms, key=CircularWord.sort_key):
            yield cw, self._terms[cw]

    def coefficient(self, cw: CircularWord) -> int:
        return self._terms.get(cw, 0)

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AbelPoly):
            return NotImplemented
        return self.alphabet == other.alphabet and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self.alphabet, frozenset(self._terms.items())))

    def _check_alphabet(self, other: "AbelPoly") -> None:
        if self.alphabet != other.alphabet:
            raise AlphabetMismatch(
                f"cannot combine classes over {self.alphabet!r} and {other.alphabet!r}"
            )

    def __add__(self, other: "AbelPoly") -> "AbelPoly":
        if not isinstance(other, AbelPoly):
            return NotImplemented
        self._check_alphabet(other)
        terms = dict(self._terms)
        for cw, c in other._terms.items():
            s = terms.get(cw, 0) + c
            if s:
                terms[cw] = s
            else:
                terms.pop(cw, None)
        out = AbelPoly.zero(self.alphabet)
        out._terms = terms
        return out

    def __neg__(self) -> "AbelPoly":
        out = AbelPoly.zero(self.alphabet)
        out._terms = {cw: -c for cw, c in self._terms.items()}
        return out

    def __sub__(self, other: "AbelPoly") -> "AbelPoly":
        if not isinstance(other, AbelPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return AbelPoly.zero(self.alphabet)
            out = AbelPoly.zero(self.alphabet)
            out._terms = {cw: c * other for cw, c in self._terms.items()}
            return out
        return NotImplemented

    __rmul__ = __mul__

    def reduce_mod(self, m: int) -> "AbelPoly":
        if m < 2:
            raise ValueError("modulus must be at least 2")
        out = AbelPoly.zero(self.alphabet)
        out._terms = {cw: c % m for cw, c in self._terms.items() if c % m}
        return out

    def truncate_degree(self, d: int) -> "AbelPoly":
        """Drop all classes of degree > d."""
        out = AbelPoly.zero(self.alphabet)
        out._terms = {cw: c for cw, c in self._terms.items() if cw.degree <= d}
        return out

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        pieces = []
        for cw, c in self.terms():
            mag = abs(c)
            body = f"[{format_word(cw.canonical, self.alphabet)}]"
            if mag != 1:
                body = f"{mag}{body}"
            pieces.append(("-" if c < 0 else "+", body))
        sign, body = pieces[0]
        text = ("-" if sign == "-" else "") + body
        for sign, body in pieces[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self) -> str:
        return f"AbelPoly({self})"


def abelianize(f: FreePoly) -> AbelPoly:
    """Project a free polynomial onto A/[A,A] by sending every word to its
    circular class.  Additive and trace-like: abelianize(fg) == abelianize(gf)."""
    terms: dict[CircularWord, int] = {}
    for w, c in f._terms.items():
        cw = CircularWord.of(w)
        s = terms.get(cw, 0) + c
        if s:
            terms[cw] = s
        else:
            del terms[cw]
    out = AbelPoly.zero(f.alphabet)
    out._terms = terms
    return out


def sigma0(alpha: AbelPoly) -> FreePoly:
    """The additive section of abelianize sending each circular class to its
    lexicographically least representative word."""
    terms = {cw.canonical: c for cw, c in alpha._terms.items()}
    out = FreePoly.zero(alpha.alphabet)
    out._terms = terms
    return out


def divide_exact(alpha: AbelPoly, d: int) -> AbelPoly:
    """Divide every coefficient exactly by d, or raise NotDivisible."""
    if d < 1:
        raise ValueError("divisor must be positive")
    terms: dict[CircularWord, int] = {}
    for cw, c in alpha._terms.items():
        q, rem = divmod(c, d)
        if rem:
            raise NotDivisible(f"coefficient {c} of {cw.canonical!r} is not divisible by {d}")
        terms[cw] = q
    out = AbelPoly.zero(alpha.alphabet)
    out._terms = terms
    return out


def in_commutator_subgroup(f: FreePoly) -> bool:
    """Whether f lies in [A,A], i.e. its abelianization vanishes."""
    return abelianize(f).is_zero()
