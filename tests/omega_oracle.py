"""omega_map the slow way, from the Verschiebung / Teichmuller generators:
the finite sum of V^i applied to the Teichmuller lift of a_i.  Kept as
an oracle for test_cdwitt.py, which compares it with omega_map, whose
entry j is the j-th Witt polynomial."""

from __future__ import annotations

from ncwitt import CoordinateTuple, XVector, verschiebung, x_teichmuller


def omega_as_teichmuller_sum(coords: CoordinateTuple) -> XVector:
    ctx = coords.context
    total = XVector.of(ctx)
    for i, a in enumerate(coords.entries):
        term = x_teichmuller(ctx, a)
        for _ in range(i):
            term = verschiebung(term)
        total = total + term
    return total
