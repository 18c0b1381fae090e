"""The abelianization A/[A,A] of a free ring as the free abelian group on
circular words, with the canonical section sigma0 and exact division.

For a free algebra the additive commutator subgroup is spanned by
differences w - w' of words in the same cyclic rotation class, so the
quotient has the circular words as a free basis and membership in [A,A]
is decided by abelianizing.
"""

from __future__ import annotations

from math import gcd
from typing import Iterator, Mapping

from .freealg import (
    COUNT_CAP,
    Alphabet,
    FreePoly,
    SparseCombination,
    Word,
    capped_power,
    check_bits,
    check_budget,
    check_letters,
    coefficient_bits,
    format_word,
    words_within_degree,
)


class NotDivisible(ArithmeticError):
    """Exact division failed: some coefficient is not a multiple of the
    divisor.  In the R-map recursion this signals an internal-consistency
    failure and must abort the computation."""


def least_rotation(w: Word) -> Word:
    """The lexicographically least cyclic rotation of w, the canonical key
    of its circular class, in O(n) letter comparisons.

    Two candidate starts i < j on s = w + w are compared letter by
    letter.  Every start before j other than i is already known to begin a
    larger rotation.  When the rotations at i and j first differ at offset
    k, say a = s[i + k] > b = s[j + k], the rotation at i + t is larger
    than the one at j + t for every t <= k (they agree for k - t letters,
    then a > b), so none of the starts i .. i + k can be least: j becomes the
    candidate and the new j is the first start not yet excluded.  If
    a < b, the starts j .. j + k are excluded likewise.  Every comparison
    raises i + j + k by at least one, and i + j + k < 3n, so there are
    fewer than 3n of them.  When j reaches n, i is the only start left.
    When k reaches n, the rotations at i and j are equal, so w has period
    j - i and every later start repeats one before j.
    """
    n = len(w)
    if n <= 1:
        return w
    s = w + w
    i, j = 0, 1
    while j < n:
        k = 0
        a = s[i]
        b = s[j]
        while a == b:
            k += 1
            if k == n:
                return s[i : i + n]
            a = s[i + k]
            b = s[j + k]
        if a < b:
            j += k + 1
        else:
            i, j = j, max(j, i + k) + 1
    return s[i : i + n]


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


def necklace_count(k: int, n: int) -> int:
    """N(k, n) = (1/n) sum_{d | n} phi(d) k^{n/d}, the number of necklaces
    of length n >= 1 over k letters; summed here as (1/n) sum_i k^gcd(i, n)."""
    return sum(k ** gcd(i, n) for i in range(1, n + 1)) // n


def _lyndon_words(k: int, n: int) -> Iterator[list[int]]:
    """The Lyndon words over range(k) whose length divides n, in
    lexicographic order, by Duval's (1988) generator.  The yielded list is
    reused by the next step."""
    w = [-1]
    while w:
        w[-1] += 1
        m = len(w)
        if n % m == 0:
            yield w
        # extend periodically to length n, then drop the trailing top letters
        w.extend(w[i % m] for i in range(m, n))
        while w and w[-1] == k - 1:
            w.pop()


def trace_power(f: FreePoly, n: int) -> AbelPoly:
    """abelianize(f ** n), built from whichever is fewer: the words of
    f ** n, or the necklaces of length n over the k terms of f.

    The words are at most min(k^n, W), with W = words_within_degree(f, n);
    the necklaces are N(k, n) = necklace_count(k, n).  A Lyndon word l of
    length d | n over the term indices stands for the necklace l^(n/d):
    its d rotations are d sequences of terms whose products are rotations
    of one another, so they add d * (prod of coefficients)^(n/d) to the
    class least_rotation(concatenation of l)^(n/d).  Raises ResourceLimit
    when the chosen path's bound exceeds TERM_BUDGET, its words
    LETTER_BUDGET, or its coefficients COEFF_BIT_BUDGET.
    """
    if n == 1:
        return abelianize(f)
    k = len(f)
    if n < 1 or k < 2:
        # no more words than necklaces; ** rejects a negative n
        return abelianize(f ** n)
    words = capped_power(k, n)
    # k^n saturates only for n >= 64, where N(k, n) is far past the
    # budget as well and only needs to compare as large
    necklaces = necklace_count(k, n) if words < COUNT_CAP else COUNT_CAP
    if words > necklaces:
        words = min(words, words_within_degree(f, n))
    if words <= necklaces:
        return abelianize(f ** n)
    check_budget(necklaces, f"classes of the trace of a {k}-term polynomial to the power {n}")
    check_letters(n, f.degree)
    check_bits(
        n * coefficient_bits(f),
        f"coefficients of the trace of a {k}-term polynomial to the power {n}",
    )

    term_words, coeffs = zip(*f._terms.items())
    terms: dict[Word, int] = {}
    for lyndon in _lyndon_words(k, n):
        d = len(lyndon)
        word: Word = ()
        c = 1
        for t in lyndon:
            word += term_words[t]
            c *= coeffs[t]
        key = least_rotation(word) * (n // d)
        s = terms.get(key, 0) + d * c ** (n // d)
        if s:
            terms[key] = s
        else:
            del terms[key]
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
