"""Ghost vectors, Teichmuller lifts and Verschiebung, on both sides of the
comparison: the ghost representation and the componentwise lift.

Run with: python3 demos/02_ghost_vectors_and_lifts.py
"""

from ncwitt import (
    Alphabet,
    CoordinateTuple,
    FreePoly,
    WittContext,
    check_wagen_decomposition,
    ghost_map,
    omega_map,
    verschiebung,
    w_teichmuller,
    x_abelianize,
    x_teichmuller,
)

ab = Alphabet(["X", "Y"])
X = FreePoly.generator(ab, "X")
Y = FreePoly.generator(ab, "Y")
ctx = WittContext(ab, 2, 3)

# A coordinate tuple enters the system through the ghost map.
coords = CoordinateTuple.of(ctx, [X, Y])
print("coords          =", coords)
print("ghost(coords)   =", ghost_map(coords))

# Every tuple decomposes into shifted Teichmuller ghosts.
print("decomposes?     ", check_wagen_decomposition(coords))
print("V<X> ghost      =", verschiebung(w_teichmuller(ctx, X)))

# The componentwise lift: Teichmuller is (a, a^2, a^4, ...) and the same
# Verschiebung shifts and multiplies by p.  Its Witt-polynomial image
# abelianizes back to the ghost.
print()
print("<X> lift        =", x_teichmuller(ctx, X))
print("V<X> lift       =", verschiebung(x_teichmuller(ctx, X)))
lifted = omega_map(coords)
print("lift of coords  =", lifted)
print("diagram commutes?", x_abelianize(lifted) == ghost_map(coords))
