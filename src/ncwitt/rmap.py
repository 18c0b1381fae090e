"""The recursion turning a tuple of commutators into a coordinate tuple
whose ghost image vanishes, and the non-injectivity pipeline built on it.

Given epsilons in [A,A], the recursion sets r_0 = eps_0 and

    r_i = eps_i - sigma0( p^{-i} omega_i(r_0,...,r_{i-1},0) )

where omega_i is taken in A/[A,A] (divisibility by p^i only holds
there) and sigma0 lifts back along least rotations, with the class
taken from trace powers.  The general ghost-preimage step would also
subtract phi(omega_{i-1}(r_0,...,r_{i-1})), whose class is zero here:
every eps_i is in [A,A] and abelianize(sigma0(c)) = c, so each step
makes the next ghost component vanish.  The resulting tuple always
ghost-maps to zero, yet its un-abelianized Witt-polynomial lift can fail
the component-1 obstruction test, which is exactly the non-injectivity
counterexample this module replays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .freealg import Alphabet, FreePoly, InputError, commutator, phi_map
from .cycquot import abelianize, divide_exact, in_commutator_subgroup, sigma0
from .ghost import CoordinateTuple, WittContext, ghost_map, witt_class, witt_polynomial
from .cdwitt import h_membership


class EpsilonNotCommutator(ValueError):
    """An input polynomial is not in [A,A]; the recursion's divisibility
    guarantee presumes commutator inputs."""


def r_map(epsilons: Sequence[FreePoly], ctx: WittContext) -> CoordinateTuple:
    """Run the recursion on a tuple of commutator polynomials and return
    the coordinate tuple (r_0, ..., r_{n-1}).

    Raises EpsilonNotCommutator on invalid input, NotDivisible if a
    division step fails (an internal-consistency violation), and
    ResourceLimit, from the trace powers, when a step's powers exceed a
    budget of freealg (terms, letters or coefficient bits).
    """
    epsilons = CoordinateTuple.of(ctx, epsilons).entries
    for i, eps in enumerate(epsilons):
        if not in_commutator_subgroup(eps):
            raise EpsilonNotCommutator(f"epsilon {i} is not in [A,A]: {eps}")

    p = ctx.p
    rs: list[FreePoly] = [epsilons[0]]
    for i in range(1, ctx.n):
        diff = witt_class(i, rs, p)  # the class of w_i(r_0, ..., r_{i-1}, 0)
        rs.append(epsilons[i] - sigma0(divide_exact(diff, p**i)))
    return CoordinateTuple.of(ctx, rs)


def check_lemma_phi(x: FreePoly, k: int, p: int) -> bool:
    """Check that x^{p^k} and phi(x^{p^{k-1}}) agree mod (p^k A + [A,A]),
    and that phi preserves the commutator subgroup on brackets built from x."""
    if k < 1:
        raise ValueError("k must be >= 1")
    diff = abelianize(x ** (p**k) - phi_map(x ** (p ** (k - 1)), p))
    modulus = p**k
    if any(c % modulus for _, c in diff.terms()):
        return False
    # phi([A,A]) stays in [A,A]: probe with brackets of x against generators.
    for name in x.alphabet.names:
        g = FreePoly.generator(x.alphabet, name)
        if not in_commutator_subgroup(phi_map(commutator(x, g), p)):
            return False
    return True


# -- counterexample pipeline ----------------------------------------------


@dataclass(frozen=True)
class ReportStep:
    name: str
    input: str
    output: str
    status: str  # "pass" or "fail"


@dataclass(frozen=True)
class CounterexampleReport:
    level: int
    steps: tuple[ReportStep, ...]
    status: str  # "PASS" or "FAILED"

    def __str__(self) -> str:
        lines = [f"counterexample report (level {self.level}): {self.status}"]
        for s in self.steps:
            lines.append(f"  [{s.status}] {s.name}: {s.input} -> {s.output}")
        return "\n".join(lines)


def counterexample_report(n: int = 2) -> CounterexampleReport:
    """Replay the non-injectivity counterexample at p=2 over {X, Y}.

    Runs the recursion on (XY - YX, 0, ..., 0), confirms that the ghost
    of the result vanishes, and confirms that entry 1 of its
    Witt-polynomial lift, w_1 = r_0^2 + 2 r_1, equals
    -XYXY + YXYX - XYYX - YXXY + 2XXYY and fails the obstruction
    membership test.  Any failed assertion flips the report to FAILED.
    """
    if n < 2:
        raise InputError(f"the counterexample needs level >= 2, got {n}")
    alphabet = Alphabet(["X", "Y"])
    ctx = WittContext(alphabet, 2, n)
    x = FreePoly.generator(alphabet, "X")
    y = FreePoly.generator(alphabet, "Y")
    eps0 = commutator(x, y)

    steps: list[ReportStep] = []
    ok = True

    coords = r_map([eps0], ctx)
    coords_text = str(coords)
    steps.append(ReportStep("r_map", f"({eps0}, 0, ...)", coords_text, "pass"))

    # summed anew from the coordinates and abelianized r_j; the traces
    # tr(r_j^{p^k}) for k >= 1 are the ones r_map computed on these objects
    ghost = ghost_map(coords)
    vanishes = ghost.is_zero()
    steps.append(
        ReportStep("ghost_vanishes", coords_text, str(ghost), "pass" if vanishes else "fail")
    )
    ok &= vanishes

    entry1 = witt_polynomial(1, coords)
    expected = (
        -FreePoly.monomial(alphabet, (0, 1, 0, 1))
        + FreePoly.monomial(alphabet, (1, 0, 1, 0))
        - FreePoly.monomial(alphabet, (0, 1, 1, 0))
        - FreePoly.monomial(alphabet, (1, 0, 0, 1))
        + 2 * FreePoly.monomial(alphabet, (0, 0, 1, 1))
    )
    matches = entry1 == expected
    steps.append(
        ReportStep("omega_entry1", coords_text, str(entry1), "pass" if matches else "fail")
    )
    ok &= matches

    in_h = h_membership(entry1)
    steps.append(
        ReportStep(
            "obstruction_membership",
            str(entry1),
            "in H" if in_h else "not in H",
            "pass" if not in_h else "fail",
        )
    )
    ok &= not in_h

    return CounterexampleReport(n, tuple(steps), "PASS" if ok else "FAILED")
