"""Truncated p-typical Witt vectors of a free ring, represented through
the ghost map.

The ghost map sends a coordinate tuple (a_0,...,a_{n-1}) to the tuple of
Witt-polynomial values in A/[A,A].  For a free algebra the quotient is
p-torsion free, so the ghost map is injective on the Witt group and ghost
vectors are a faithful working representation: addition is componentwise,
Verschiebung multiplies by p and shifts, and a Teichmuller lift has ghost
components given by p-power conjugacy classes.  Coordinates are never
recovered from a ghost vector; nothing here needs that inverse.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .freealg import Alphabet, FreePoly
from .cycquot import AbelPoly, abelianize


@dataclass(frozen=True)
class WittContext:
    """Ambient data for truncated Witt computations: the alphabet, the
    prime p and the truncation length n (number of components)."""

    alphabet: Alphabet
    p: int
    n: int

    def __post_init__(self):
        if self.p < 2:
            raise ValueError("p must be a prime >= 2")
        if self.n < 1:
            raise ValueError("truncation length must be >= 1")


class ContextMismatch(ValueError):
    """Raised when combining vectors from different Witt contexts."""


def _check_context(a, b) -> None:
    if a.context != b.context:
        raise ContextMismatch(f"context mismatch: {a.context} vs {b.context}")


@dataclass(frozen=True)
class CoordinateTuple:
    """Coordinates (a_0,...,a_{n-1}) of a truncated Witt vector."""

    context: WittContext
    coords: tuple[FreePoly, ...]

    def __post_init__(self):
        if len(self.coords) != self.context.n:
            raise ValueError(
                f"expected {self.context.n} coordinates, got {len(self.coords)}"
            )
        for a in self.coords:
            if a.alphabet != self.context.alphabet:
                raise ContextMismatch("coordinate alphabet differs from context")

    @classmethod
    def of(cls, ctx: WittContext, coords: Sequence[FreePoly]) -> "CoordinateTuple":
        coords = tuple(coords)
        if len(coords) < ctx.n:
            coords += (FreePoly.zero(ctx.alphabet),) * (ctx.n - len(coords))
        return cls(ctx, coords)

    def __str__(self) -> str:
        return "(" + ", ".join(str(a) for a in self.coords) + ")"


@dataclass(frozen=True)
class GhostVector:
    """The ghost image of a truncated Witt vector: n classes in A/[A,A]."""

    context: WittContext
    components: tuple[AbelPoly, ...]

    def __post_init__(self):
        if len(self.components) != self.context.n:
            raise ValueError(
                f"expected {self.context.n} components, got {len(self.components)}"
            )

    @classmethod
    def zero(cls, ctx: WittContext) -> "GhostVector":
        return cls(ctx, tuple(AbelPoly.zero(ctx.alphabet) for _ in range(ctx.n)))

    def is_zero(self) -> bool:
        return all(g.is_zero() for g in self.components)

    def __str__(self) -> str:
        return "(" + ", ".join(str(g) for g in self.components) + ")"


def witt_polynomial(i: int, coords: CoordinateTuple) -> FreePoly:
    """The i-th Witt polynomial a_0^{p^i} + p a_1^{p^{i-1}} + ... + p^i a_i,
    evaluated exactly in the free ring (before abelianization)."""
    ctx = coords.context
    if not 0 <= i < ctx.n:
        raise IndexError(f"witt polynomial index {i} out of range for n={ctx.n}")
    total = FreePoly.zero(ctx.alphabet)
    for j in range(i + 1):
        total = total + (ctx.p**j) * (coords.coords[j] ** (ctx.p ** (i - j)))
    return total


def ghost_map(coords: CoordinateTuple) -> GhostVector:
    """Component i is the abelianized i-th Witt polynomial."""
    ctx = coords.context
    return GhostVector(
        ctx, tuple(abelianize(witt_polynomial(i, coords)) for i in range(ctx.n))
    )


def w_from_coordinates(coords: CoordinateTuple) -> GhostVector:
    """Alias of ghost_map: Witt vectors enter the system through coordinate
    tuples and live as ghost vectors."""
    return ghost_map(coords)


def w_add(u: GhostVector, v: GhostVector) -> GhostVector:
    """Witt addition, which on ghost vectors is componentwise."""
    _check_context(u, v)
    return GhostVector(
        u.context, tuple(a + b for a, b in zip(u.components, v.components))
    )


def w_equal(u: GhostVector, v: GhostVector) -> bool:
    """Ghost equality; for a free algebra this is Witt-group equality."""
    _check_context(u, v)
    return u.components == v.components


def w_verschiebung(u: GhostVector) -> GhostVector:
    """Verschiebung on ghosts: (g_0,...,g_{n-1}) -> (0, p g_0,..., p g_{n-2}).

    This is the ghost transform of the coordinate shift (a_0,...) ->
    (0, a_0, ...), since the i-th Witt polynomial of shifted coordinates
    is p times the (i-1)-th of the originals.
    """
    ctx = u.context
    shifted = (AbelPoly.zero(ctx.alphabet),) + tuple(
        ctx.p * g for g in u.components[: ctx.n - 1]
    )
    return GhostVector(ctx, shifted)


def w_teichmuller(ctx: WittContext, a: FreePoly) -> GhostVector:
    """Ghost of the Teichmuller lift (a, 0, ..., 0): component i is the
    class of a^{p^i}."""
    if a.alphabet != ctx.alphabet:
        raise ContextMismatch("alphabet differs from context")
    return GhostVector(
        ctx, tuple(abelianize(a ** (ctx.p**i)) for i in range(ctx.n))
    )


def check_wagen_decomposition(coords: CoordinateTuple) -> bool:
    """Verify that ghost(a_0,...,a_{n-1}) equals the sum of V^i applied to
    the Teichmuller ghost of a_i.  Holds for every input."""
    ctx = coords.context
    total = GhostVector.zero(ctx)
    for i, a in enumerate(coords.coords):
        term = w_teichmuller(ctx, a)
        for _ in range(i):
            term = w_verschiebung(term)
        total = w_add(total, term)
    return w_equal(total, ghost_map(coords))
