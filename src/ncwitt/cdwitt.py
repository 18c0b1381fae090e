"""Truncated Cuntz-Deninger vectors: tuples in A^n generated by
Verschiebung shifts of Teichmuller products, with componentwise ring
operations.

Vectors are plain tuples; membership in the generated subgroup is not
certified.  The blessed producers are the Teichmuller / Verschiebung /
product constructors and the commutator generators below, which is all
the verification pipeline needs.  Topological closure is probed only
through degree-bounded quotients mod 2, via the GF(2) span check.
"""

from __future__ import annotations

from functools import reduce
from itertools import product
from typing import Sequence

from .freealg import Alphabet, FreePoly, InputError, Word, p_powers
from .cycquot import AbelPoly, abelianize
from .ghost import AdditiveWittTuple, CoordinateTuple, GhostVector, WittContext, verschiebung


class XVector(AdditiveWittTuple):
    """An element of the truncated Cuntz-Deninger group: n free
    polynomials, indices 0..n-1.  On top of the entrywise group law it
    has the componentwise product (the ambient product ring)."""

    def __mul__(self, other):
        if not isinstance(other, XVector):
            return super().__mul__(other)
        return XVector(self.context, tuple(a * b for a, b in self._pairs(other)))


def x_teichmuller(ctx: WittContext, a: FreePoly) -> XVector:
    """The Teichmuller lift (a, a^p, a^{p^2}, ..., a^{p^{n-1}}): a's p-power chain."""
    return XVector(ctx, tuple(p_powers(a, ctx.p, ctx.n)))


def omega_map(coords: CoordinateTuple) -> XVector:
    """Lift the ghost construction to the free ring: entry j is the j-th
    Witt polynomial, un-abelianized, from one p-power chain per coordinate.
    Equals the finite sum of V^i applied to the Teichmuller lift of a_i."""
    ctx = coords.context
    entries = [FreePoly.zero(ctx.alphabet)] * ctx.n
    for i, a in enumerate(coords.entries):
        for j, power in enumerate(p_powers(a, ctx.p, ctx.n - i), i):
            entries[j] = entries[j] + ctx.p**i * power
    return XVector(ctx, tuple(entries))


def x_abelianize(x: XVector) -> GhostVector:
    """Componentwise abelianization, landing in ghost space."""
    return GhostVector(x.context, tuple(abelianize(e) for e in x.entries))


def _teichmuller_product(ctx: WittContext, chains: Sequence[list], start: int = 0) -> XVector:
    """<a_1>...<a_s> from the p-power chain of each a_k, read from entry
    `start` on: a chain read from s is the lift of a^{p^s}."""
    windows = (chain[start : start + ctx.n] for chain in chains)
    return XVector(ctx, tuple(reduce(FreePoly.__mul__, e) for e in zip(*windows)))


def _generator(m: int, n_shift: int, a_factors, b_factors, level: int, p: int):
    """Validate the arguments; return commutator_generator's value, <a_1>...<a_s>
    and each b_k's p-power chain: its entries from s = n_shift - m on lift b_k^{p^s}."""
    if m < 0 or n_shift < 0 or m > n_shift:
        raise ValueError(f"need 0 <= m <= n_shift, got m={m}, n_shift={n_shift}")
    if not a_factors or not b_factors:
        raise ValueError("factor lists must be non-empty")
    ctx = WittContext(a_factors[0].alphabet, p, level + 1)
    left = _teichmuller_product(ctx, [p_powers(a, p, ctx.n) for a in a_factors])
    b_chains = [p_powers(b, p, ctx.n + n_shift - m) for b in b_factors]
    right = _teichmuller_product(ctx, b_chains, start=n_shift - m)
    bracket = left * right - right * left
    for _ in range(n_shift):
        bracket = verschiebung(bracket)
    return p**m * bracket, left, b_chains


def commutator_generator(
    m: int,
    n_shift: int,
    a_factors: Sequence[FreePoly],
    b_factors: Sequence[FreePoly],
    level: int,
    p: int = 2,
) -> XVector:
    """A generator of the closed commutator subgroup, with entries at
    indices 0..level:

        p^m V^n_shift([<a_1>...<a_s>, <b_1^{p^{n_shift-m}}>...<b_t^{p^{n_shift-m}}>])

    where the bracket is the componentwise additive commutator.
    """
    return _generator(m, n_shift, a_factors, b_factors, level, p)[0]


def check_bracket_identity(
    m: int,
    n_shift: int,
    a_factors: Sequence[FreePoly],
    b_factors: Sequence[FreePoly],
    level: int,
    p: int = 2,
) -> bool:
    """Verify [V^n(<a_1>...<a_s>), V^m(<b_1>...<b_t>)] equals the
    commutator generator above, entrywise.  Its arguments are checked and
    the generator built by commutator_generator's code, from the p-power
    chains both sides share: <b_k> is the start of b_k's chain."""
    generator, left, b_chains = _generator(m, n_shift, a_factors, b_factors, level, p)
    right = _teichmuller_product(left.context, b_chains)
    for _ in range(n_shift):
        left = verschiebung(left)
    for _ in range(m):
        right = verschiebung(right)
    return left * right - right * left == generator


# -- the degree-4 obstruction ideal at p=2 over {X,Y} ---------------------

_EXCLUDED_DEGREE4: tuple[Word, Word] = ((0, 1, 0, 1), (1, 0, 1, 0))


def check_h_alphabet(alphabet: Alphabet) -> None:
    """Raise InputError unless H is defined over alphabet: it has two generators."""
    if len(alphabet) != 2:
        raise InputError("H is defined only over a two-generator alphabet")


def h_membership(f: FreePoly) -> bool:
    """Membership in the obstruction ideal H (two-generator alphabet, p=2):
    the span of all degree-4 words except XYXY and YXYX, everything of
    degree >= 5, and 2A.

    After reducing mod 2, f lies in H iff no term of degree <= 3 survives
    and the surviving degree-4 terms avoid XYXY and YXYX.
    """
    check_h_alphabet(f.alphabet)
    return not any(c % 2 and (len(w) <= 3 or w in _EXCLUDED_DEGREE4) for w, c in f._terms.items())


# -- GF(2) linear algebra over circular-word bases ------------------------


def f2_span_membership(
    target: AbelPoly, generators: Sequence[AbelPoly], degree_bound: int
) -> bool:
    """Whether target lies in the GF(2) span of the generators, inside the
    vector space with basis the circular words of degree <= degree_bound.
    Everything is reduced mod 2 and truncated to the bound first.

    One elimination over bitsets: each circular word gets a bit when first
    seen, and each row is reduced against the pivot rows, keyed by their
    leading bit.  A generator that does not reduce to 0 becomes a pivot;
    target, reduced last, is in the span exactly when it reduces to 0."""
    bits: dict[Word, int] = {}
    pivots: dict[int, int] = {}
    for poly in (*generators, target):
        row = 0
        for cw, c in poly._terms.items():
            if c % 2 and len(cw) <= degree_bound:
                row |= 1 << bits.setdefault(cw, len(bits))
        while row and (lead := row.bit_length() - 1) in pivots:
            row ^= pivots[lead]
        if row:
            pivots[lead] = row
    return row == 0


def square_class_generators(alphabet: Alphabet, max_degree: int = 2) -> list[AbelPoly]:
    """Abelianized squares of all words of degree <= max_degree, the
    candidate classes a sum of Teichmuller lifts can reach in component 1
    mod 2."""
    letters = range(len(alphabet))
    return [
        abelianize(FreePoly.monomial(alphabet, w) ** 2)
        for d in range(max_degree + 1)
        for w in product(letters, repeat=d)
    ]


def check_lemma_xyc(alphabet: Alphabet | None = None) -> bool:
    """The class of X^2 Y^2 is not a square: it lies outside the GF(2) span
    of {class of w^2 : w a word of degree <= 2} in degrees <= 4.

    Squaring is additive mod (2A + [A,A]), so this single span check rules
    out every c in A with c^2 congruent to X^2 Y^2 below degree 5.
    """
    if alphabet is None:
        alphabet = Alphabet(["X", "Y"])
    if len(alphabet) != 2:
        raise InputError("the obstruction is formulated over a two-generator alphabet")
    target = abelianize(FreePoly.monomial(alphabet, (0, 0, 1, 1)))
    return not f2_span_membership(target, square_class_generators(alphabet), 4)
