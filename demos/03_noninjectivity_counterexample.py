"""The full counterexample: a nonzero element with vanishing ghost image.

Starting from the commutator XY - YX, the recursion produces coordinates
whose ghost is identically zero, yet whose componentwise lift has a
component-1 value that no element of the closed commutator subgroup can
reach (the obstruction-ideal test).  At p=2 this defeats any comparison
map compatible with the shift operator and the Teichmuller lift.

Run with: python3 demos/03_noninjectivity_counterexample.py
"""

from ncwitt import (
    Alphabet,
    FreePoly,
    WittContext,
    check_lemma_xyc,
    commutator,
    counterexample_report,
    ghost_map,
    h_membership,
    omega_map,
    r_map,
)

ab = Alphabet(["X", "Y"])
X = FreePoly.generator(ab, "X")
Y = FreePoly.generator(ab, "Y")
ctx = WittContext(ab, 2, 2)

eps = commutator(X, Y)
print("input commutator:", eps)

coords = r_map([eps], ctx)
print("recursion output:", coords)
print("ghost image:     ", ghost_map(coords))

lifted = omega_map(coords)
print("lift, entry 1:   ", lifted.entries[1])
print("in obstruction ideal H?", h_membership(lifted.entries[1]))

# Independent degree-4 obstruction: the class of X^2Y^2 is not a square
# mod 2 below degree 5.
print("square-span obstruction holds?", check_lemma_xyc(ab))

# The packaged report replays all steps with per-step status.
print()
print(counterexample_report(3))
