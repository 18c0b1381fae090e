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

from .freealg import Alphabet, FreePoly, InputError, Word
from .cycquot import AbelPoly, abelianize, trace_power


#: Miller-Rabin with these bases decides primality exactly below
#: PRIME_BOUND (Sorenson and Webster, 2015).
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3_317_044_064_679_887_385_961_981


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin for 0 <= p < PRIME_BOUND."""
    for q in _PRIME_BASES:
        if p % q == 0:
            return p == q
    if p < _PRIME_BASES[-1] ** 2:
        return p > 1
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _PRIME_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def check_prime(p: int) -> None:
    """Raise InputError unless p is a prime below PRIME_BOUND: p-typical
    Witt vectors and the ghost recursion are defined only for a prime p,
    and no computation is feasible near the bound."""
    if p >= PRIME_BOUND:
        raise InputError(f"p must be below {PRIME_BOUND:.2g}, got {p}")
    if not _is_prime(p):
        raise InputError(f"p must be a prime, got {p}")


@dataclass(frozen=True)
class WittContext:
    """Ambient data for truncated Witt computations: the alphabet, the
    prime p and the truncation length n (number of components)."""

    alphabet: Alphabet
    p: int
    n: int

    def __post_init__(self):
        check_prime(self.p)
        if self.n < 1:
            raise InputError(f"truncation length must be >= 1, got {self.n}")


class ContextMismatch(ValueError):
    """Raised when combining vectors from different Witt contexts."""


@dataclass(frozen=True)
class WittTuple:
    """n entries over a Witt context: the shape shared by coordinate
    tuples, ghost vectors and componentwise lifts.  Every entry is over
    the context's alphabet."""

    context: WittContext
    entries: tuple

    #: the type of the entries; its zero pads a short tuple in `of`
    entry_type = FreePoly

    def __post_init__(self):
        if len(self.entries) != self.context.n:
            raise ValueError(
                f"expected {self.context.n} entries, got {len(self.entries)}"
            )
        for e in self.entries:
            if e.alphabet != self.context.alphabet:
                raise ContextMismatch("entry alphabet differs from context")

    @classmethod
    def of(cls, ctx: WittContext, entries: Sequence = ()):
        """The tuple of the given entries, padded with zeros to length n;
        more than n entries are an InputError."""
        entries = tuple(entries)
        if len(entries) > ctx.n:
            raise InputError(f"expected at most {ctx.n} entries, got {len(entries)}")
        zero = cls.entry_type.zero(ctx.alphabet)
        return cls(ctx, entries + (zero,) * (ctx.n - len(entries)))

    def is_zero(self) -> bool:
        return all(e.is_zero() for e in self.entries)

    def __str__(self) -> str:
        return "(" + ", ".join(str(e) for e in self.entries) + ")"


class CoordinateTuple(WittTuple):
    """Coordinates (a_0,...,a_{n-1}) of a truncated Witt vector.  Witt
    addition of coordinates is not entrywise, so there is no arithmetic
    here: add through the ghost map."""


class AdditiveWittTuple(WittTuple):
    """A Witt tuple whose group law is entrywise: the ghost vectors and
    the componentwise lifts."""

    def _pairs(self, other):
        if type(other) is not type(self):
            raise TypeError(
                f"cannot combine {type(self).__name__} with {type(other).__name__}"
            )
        if other.context != self.context:
            raise ContextMismatch(f"context mismatch: {self.context} vs {other.context}")
        return zip(self.entries, other.entries)

    def __add__(self, other):
        return type(self)(self.context, tuple(a + b for a, b in self._pairs(other)))

    def __sub__(self, other):
        return type(self)(self.context, tuple(a - b for a, b in self._pairs(other)))

    def __mul__(self, c):
        """Integer scaling."""
        if not isinstance(c, int):
            return NotImplemented
        return type(self)(self.context, tuple(c * e for e in self.entries))

    __rmul__ = __mul__


class GhostVector(AdditiveWittTuple):
    """The ghost image of a truncated Witt vector: n classes in A/[A,A].
    For a free algebra, ghost equality is Witt-group equality."""

    entry_type = AbelPoly


def verschiebung(u: AdditiveWittTuple) -> AdditiveWittTuple:
    """V(e_0,...,e_{n-1}) = (0, p e_0, ..., p e_{n-2}).

    On ghost vectors this is the ghost transform of the coordinate shift
    (a_0,...) -> (0, a_0, ...), since the i-th Witt polynomial of shifted
    coordinates is p times the (i-1)-th of the originals; the
    componentwise lift shifts the same way.
    """
    if not isinstance(u, AdditiveWittTuple):
        raise TypeError(f"no Verschiebung on {type(u).__name__}")
    ctx = u.context
    shifted = (u.entry_type.zero(ctx.alphabet),) + tuple(ctx.p * e for e in u.entries[:-1])
    return type(u)(ctx, shifted)


def witt_polynomial(i: int, coords: CoordinateTuple) -> FreePoly:
    """The i-th Witt polynomial a_0^{p^i} + p a_1^{p^{i-1}} + ... + p^i a_i,
    evaluated exactly in the free ring (before abelianization)."""
    ctx = coords.context
    if not 0 <= i < ctx.n:
        raise IndexError(f"witt polynomial index {i} out of range for n={ctx.n}")
    total = FreePoly.zero(ctx.alphabet)
    for j in range(i + 1):
        total = total + (ctx.p**j) * (coords.entries[j] ** (ctx.p ** (i - j)))
    return total


def witt_class(i: int, entries: Sequence[FreePoly], p: int) -> AbelPoly:
    """The class in A/[A,A] of the i-th Witt polynomial of (a_0, a_1, ...),
    sum_j p^j tr(a_j^{p^{i-j}}), with the entries not given taken as zero
    and each trace taken by trace_power.  entries must not be empty and
    must share one alphabet."""
    terms: dict[Word, int] = {}
    for j, a in enumerate(entries[: i + 1]):
        scale = p**j
        for w, c in trace_power(a, p ** (i - j))._terms.items():
            s = terms.get(w, 0) + scale * c
            if s:
                terms[w] = s
            else:
                del terms[w]
    return AbelPoly._from_terms(entries[0].alphabet, terms)


def ghost_map(coords: CoordinateTuple) -> GhostVector:
    """Component i is the abelianized i-th Witt polynomial.  Each
    component is summed anew from the coordinates, but a trace power that
    r_map, or an earlier ghost_map, computed from the same coordinate
    object is reused: see trace_power."""
    ctx = coords.context
    return GhostVector(
        ctx, tuple(witt_class(i, coords.entries, ctx.p) for i in range(ctx.n))
    )


def w_teichmuller(ctx: WittContext, a: FreePoly) -> GhostVector:
    """Ghost of the Teichmuller lift (a, 0, ..., 0): component i is the
    class of a^{p^i}."""
    return GhostVector(
        ctx, tuple(abelianize(a ** (ctx.p**i)) for i in range(ctx.n))
    )


def check_wagen_decomposition(coords: CoordinateTuple) -> bool:
    """Verify that ghost(a_0,...,a_{n-1}) equals the sum of V^i applied to
    the Teichmuller ghost of a_i.  Holds for every input."""
    ctx = coords.context
    total = GhostVector.of(ctx)
    for i, a in enumerate(coords.entries):
        term = w_teichmuller(ctx, a)
        for _ in range(i):
            term = verschiebung(term)
        total = total + term
    return total == ghost_map(coords)
