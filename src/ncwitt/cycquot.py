"""The abelianization A/[A,A] of a free ring as the free abelian group on
circular words, with the canonical section sigma0 and exact division.

For a free algebra the additive commutator subgroup is spanned by
differences w - w' of words in the same cyclic rotation class, so the
quotient has the circular words as a free basis and membership in [A,A]
is decided by abelianizing.
"""

from __future__ import annotations

from typing import Mapping

from .freealg import Alphabet, FreePoly, SparseCombination, Word, format_word


class NotDivisible(ArithmeticError):
    """Exact division failed: some coefficient is not a multiple of the
    divisor.  In the R-map recursion this signals an internal-consistency
    failure and must abort the computation."""


def least_rotation(w: Word) -> Word:
    """The lexicographically least cyclic rotation of w.

    Direct enumeration of all n rotations, so O(n^2) letter comparisons
    per word.  Words get long: at p = 2, level 5, abelianize feeds it the
    65,536 words of (XY - YX)^16, each of 32 letters.
    """
    if len(w) <= 1:
        return w
    doubled = w + w
    n = len(w)
    return min(doubled[i : i + n] for i in range(n))


class AbelPoly(SparseCombination):
    """An element of A/[A,A]: a finite integer combination of circular
    words.  A circular word is keyed by its least rotation, so every key
    w satisfies w == least_rotation(w)."""

    __slots__ = ()

    def __init__(self, alphabet: Alphabet, terms: Mapping[Word, int] | None = None):
        super().__init__(alphabet, terms)
        for w in terms or ():
            if w != least_rotation(w):
                raise ValueError(f"non-canonical circular word {w!r}")

    # Bound here as well as inherited, so that it is an attribute of
    # AbelPoly itself: bench/tracing.py times methods it finds in the
    # class's own namespace.
    __str__ = SparseCombination.__str__

    def _format_term(self, w: Word, mag: int) -> str:
        body = f"[{format_word(w, self.alphabet)}]"
        return body if mag == 1 else f"{mag}{body}"


def abelianize(f: FreePoly) -> AbelPoly:
    """Project a free polynomial onto A/[A,A] by sending every word to its
    circular class.  Additive and trace-like: abelianize(fg) == abelianize(gf)."""
    terms: dict[Word, int] = {}
    for w, c in f._terms.items():
        cw = least_rotation(w)
        s = terms.get(cw, 0) + c
        if s:
            terms[cw] = s
        else:
            del terms[cw]
    return AbelPoly._from_terms(f.alphabet, terms)


def sigma0(alpha: AbelPoly) -> FreePoly:
    """The additive section of abelianize sending each circular class to its
    lexicographically least representative word."""
    return FreePoly._from_terms(alpha.alphabet, dict(alpha._terms))


def divide_exact(alpha: AbelPoly, d: int) -> AbelPoly:
    """Divide every coefficient exactly by d, or raise NotDivisible."""
    if d < 1:
        raise ValueError("divisor must be positive")
    terms: dict[Word, int] = {}
    for w, c in alpha._terms.items():
        q, rem = divmod(c, d)
        if rem:
            raise NotDivisible(f"coefficient {c} of {w!r} is not divisible by {d}")
        terms[w] = q
    return AbelPoly._from_terms(alpha.alphabet, terms)


def in_commutator_subgroup(f: FreePoly) -> bool:
    """Whether f lies in [A,A], i.e. its abelianization vanishes."""
    return abelianize(f).is_zero()
