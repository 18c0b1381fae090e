"""Truncated Cuntz-Deninger vectors: tuples in A^{n+1} generated by
Verschiebung shifts of Teichmuller products, with componentwise ring
operations.

Vectors are plain tuples; membership in the generated subgroup is not
certified.  The blessed producers are the Teichmuller / Verschiebung /
product constructors and the commutator generators below, which is all
the verification pipeline needs.  Topological closure is probed only
through degree-bounded quotients mod 2, via the GF(2) span check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .freealg import Alphabet, FreePoly, Word, commutator, word_key
from .cycquot import AbelPoly, abelianize
from .ghost import (
    ContextMismatch,
    CoordinateTuple,
    GhostVector,
    WittContext,
    check_prime,
    witt_polynomial,
)


@dataclass(frozen=True)
class XVector:
    """An element of the truncated Cuntz-Deninger group: a tuple of
    level+1 free polynomials, indices 0..level."""

    alphabet: Alphabet
    p: int
    entries: tuple[FreePoly, ...]

    def __post_init__(self):
        check_prime(self.p)
        if not self.entries:
            raise ValueError("need at least one entry")
        for e in self.entries:
            if e.alphabet != self.alphabet:
                raise ContextMismatch("entry alphabet differs from vector alphabet")

    @property
    def level(self) -> int:
        return len(self.entries) - 1

    @classmethod
    def zero(cls, alphabet: Alphabet, p: int, level: int) -> "XVector":
        return cls(alphabet, p, tuple(FreePoly.zero(alphabet) for _ in range(level + 1)))

    def is_zero(self) -> bool:
        return all(e.is_zero() for e in self.entries)

    def __str__(self) -> str:
        return "(" + ", ".join(str(e) for e in self.entries) + ")"


def _check_compatible(x: XVector, y: XVector) -> None:
    if x.alphabet != y.alphabet or x.p != y.p or x.level != y.level:
        raise ContextMismatch("incompatible vectors")


def x_teichmuller(alphabet: Alphabet, p: int, a: FreePoly, level: int) -> XVector:
    """The Teichmuller lift (a, a^p, a^{p^2}, ..., a^{p^level})."""
    if a.alphabet != alphabet:
        raise ContextMismatch("alphabet mismatch")
    return XVector(alphabet, p, tuple(a ** (p**i) for i in range(level + 1)))


def x_verschiebung(x: XVector) -> XVector:
    """V(a_0,...,a_n) = p (0, a_0, ..., a_{n-1})."""
    shifted = (FreePoly.zero(x.alphabet),) + tuple(
        x.p * e for e in x.entries[:-1]
    )
    return XVector(x.alphabet, x.p, shifted)


def x_add(x: XVector, y: XVector) -> XVector:
    _check_compatible(x, y)
    return XVector(x.alphabet, x.p, tuple(a + b for a, b in zip(x.entries, y.entries)))


def x_neg(x: XVector) -> XVector:
    return XVector(x.alphabet, x.p, tuple(-e for e in x.entries))


def x_sub(x: XVector, y: XVector) -> XVector:
    return x_add(x, x_neg(y))


def x_mul(x: XVector, y: XVector) -> XVector:
    """Componentwise product (the ambient product ring structure)."""
    _check_compatible(x, y)
    return XVector(x.alphabet, x.p, tuple(a * b for a, b in zip(x.entries, y.entries)))


def x_scale(x: XVector, c: int) -> XVector:
    return XVector(x.alphabet, x.p, tuple(c * e for e in x.entries))


def omega_map(coords: CoordinateTuple) -> XVector:
    """Lift the ghost construction to the free ring: entry j is the j-th
    Witt polynomial, un-abelianized.  Equals the finite sum of V^i applied
    to the Teichmuller lift of a_i, truncated at the same level."""
    ctx = coords.context
    return XVector(
        ctx.alphabet, ctx.p, tuple(witt_polynomial(j, coords) for j in range(ctx.n))
    )


def omega_as_teichmuller_sum(coords: CoordinateTuple) -> XVector:
    """The right-hand side of the decomposition behind omega_map, computed
    the slow way from the V / Teichmuller generators."""
    ctx = coords.context
    level = ctx.n - 1
    total = XVector.zero(ctx.alphabet, ctx.p, level)
    for i, a in enumerate(coords.coords):
        term = x_teichmuller(ctx.alphabet, ctx.p, a, level)
        for _ in range(i):
            term = x_verschiebung(term)
        total = x_add(total, term)
    return total


def x_abelianize(x: XVector) -> GhostVector:
    """Componentwise abelianization, landing in ghost space."""
    ctx = WittContext(x.alphabet, x.p, x.level + 1)
    return GhostVector(ctx, tuple(abelianize(e) for e in x.entries))


def _teichmuller_product(
    alphabet: Alphabet, p: int, factors: Sequence[FreePoly], level: int
) -> XVector:
    prod = x_teichmuller(alphabet, p, factors[0], level)
    for a in factors[1:]:
        prod = x_mul(prod, x_teichmuller(alphabet, p, a, level))
    return prod


def commutator_generator(
    m: int,
    n_shift: int,
    a_factors: Sequence[FreePoly],
    b_factors: Sequence[FreePoly],
    level: int,
    p: int = 2,
) -> XVector:
    """A generator of the closed commutator subgroup:

        p^m V^n_shift([<a_1>...<a_s>, <b_1^{p^{n_shift-m}}>...<b_t^{p^{n_shift-m}}>])

    where the bracket is the componentwise additive commutator.
    """
    if m < 0 or n_shift < 0 or m > n_shift:
        raise ValueError(f"need 0 <= m <= n_shift, got m={m}, n_shift={n_shift}")
    if not a_factors or not b_factors:
        raise ValueError("factor lists must be non-empty")
    alphabet = a_factors[0].alphabet
    q = p ** (n_shift - m)
    left = _teichmuller_product(alphabet, p, a_factors, level)
    right = _teichmuller_product(alphabet, p, [b**q for b in b_factors], level)
    bracket = x_sub(x_mul(left, right), x_mul(right, left))
    for _ in range(n_shift):
        bracket = x_verschiebung(bracket)
    return x_scale(bracket, p**m)


def check_bracket_identity(
    m: int,
    n_shift: int,
    a_factors: Sequence[FreePoly],
    b_factors: Sequence[FreePoly],
    level: int,
    p: int = 2,
) -> bool:
    """Verify [V^n(<a_1>...<a_s>), V^m(<b_1>...<b_t>)] equals the
    commutator generator above, entrywise."""
    if m < 0 or n_shift < 0 or m > n_shift:
        raise ValueError(f"need 0 <= m <= n_shift, got m={m}, n_shift={n_shift}")
    alphabet = a_factors[0].alphabet
    left = _teichmuller_product(alphabet, p, a_factors, level)
    for _ in range(n_shift):
        left = x_verschiebung(left)
    right = _teichmuller_product(alphabet, p, b_factors, level)
    for _ in range(m):
        right = x_verschiebung(right)
    lhs = x_sub(x_mul(left, right), x_mul(right, left))
    rhs = commutator_generator(m, n_shift, a_factors, b_factors, level, p)
    return lhs == rhs


# -- the degree-4 obstruction ideal at p=2 over {X,Y} ---------------------

_EXCLUDED_DEGREE4: tuple[Word, Word] = ((0, 1, 0, 1), (1, 0, 1, 0))


def h_membership(f: FreePoly) -> bool:
    """Membership in the obstruction ideal H (two-generator alphabet, p=2):
    the span of all degree-4 words except XYXY and YXYX, everything of
    degree >= 5, and 2A.

    After reducing mod 2, f lies in H iff no term of degree <= 3 survives
    and the surviving degree-4 terms avoid XYXY and YXYX.
    """
    if len(f.alphabet) != 2:
        raise ValueError("H is defined only over a two-generator alphabet")
    reduced = f.reduce_mod(2)
    for w, _ in reduced.terms():
        if len(w) <= 3:
            return False
        if len(w) == 4 and w in _EXCLUDED_DEGREE4:
            return False
    return True


def check_component1_in_H(
    m: int,
    n_shift: int,
    a_factors: Sequence[FreePoly],
    b_factors: Sequence[FreePoly],
) -> bool:
    """Component 1 of every commutator generator lies in H (p=2)."""
    gen = commutator_generator(m, n_shift, a_factors, b_factors, level=1, p=2)
    return h_membership(gen.entries[1])


# -- GF(2) linear algebra over circular-word bases ------------------------


def _collect_basis(polys: Sequence[AbelPoly], degree_bound: int) -> list[Word]:
    basis: set[Word] = set()
    for poly in polys:
        for cw, _ in poly.terms():
            if len(cw) <= degree_bound:
                basis.add(cw)
    return sorted(basis, key=word_key)


def _to_bitset(poly: AbelPoly, index: dict[Word, int], degree_bound: int) -> int:
    bits = 0
    for cw, c in poly.terms():
        if len(cw) <= degree_bound and c % 2:
            bits |= 1 << index[cw]
    return bits


def _gf2_rank(rows: list[int]) -> int:
    rank = 0
    pivots: list[int] = []
    for row in rows:
        for pivot in pivots:
            row = min(row, row ^ pivot)
        if row:
            pivots.append(row)
            pivots.sort(reverse=True)
            rank += 1
    return rank


def f2_span_membership(
    target: AbelPoly, generators: Sequence[AbelPoly], degree_bound: int
) -> bool:
    """Whether target lies in the GF(2) span of the generators, inside the
    vector space with basis the circular words of degree <= degree_bound.
    Everything is reduced mod 2 and truncated to the bound first."""
    basis = _collect_basis([target, *generators], degree_bound)
    index = {cw: i for i, cw in enumerate(basis)}
    rows = [_to_bitset(g, index, degree_bound) for g in generators]
    vec = _to_bitset(target, index, degree_bound)
    if vec == 0:
        return True
    return _gf2_rank(rows) == _gf2_rank(rows + [vec])


def _all_words(alphabet: Alphabet, max_degree: int) -> list[Word]:
    words: list[Word] = [()]
    frontier: list[Word] = [()]
    for _ in range(max_degree):
        frontier = [w + (i,) for w in frontier for i in range(len(alphabet))]
        words.extend(frontier)
    return words


def square_class_generators(alphabet: Alphabet, max_degree: int = 2) -> list[AbelPoly]:
    """Abelianized squares of all words of degree <= max_degree, the
    candidate classes a sum of Teichmuller lifts can reach in component 1
    mod 2."""
    return [abelianize(FreePoly.monomial(alphabet, w) ** 2) for w in _all_words(alphabet, max_degree)]


def check_lemma_xyc(alphabet: Alphabet | None = None) -> bool:
    """The class of X^2 Y^2 is not a square: it lies outside the GF(2) span
    of {class of w^2 : w a word of degree <= 2} in degrees <= 4.

    Squaring is additive mod (2A + [A,A]), so this single span check rules
    out every c in A with c^2 congruent to X^2 Y^2 below degree 5.
    """
    if alphabet is None:
        alphabet = Alphabet(["X", "Y"])
    if len(alphabet) != 2:
        raise ValueError("the obstruction is formulated over a two-generator alphabet")
    target = abelianize(FreePoly.monomial(alphabet, (0, 0, 1, 1)))
    return not f2_span_membership(target, square_class_generators(alphabet), 4)
