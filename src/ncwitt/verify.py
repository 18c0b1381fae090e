"""Verification harness: seeded random sweeps and the named checks exposed
through the command line.

Every sweep draws from a seeded generator, so a run with the same seed is
fully deterministic.  Each check returns whether it passed and its
details; the table of checks below gives each one its id and description,
and run_checks aggregates the results into a VerifyReport.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass
from typing import Callable, Sequence

from .freealg import Alphabet, FreePoly, commutator
from .cycquot import abelianize
from .ghost import CoordinateTuple, WittContext, check_wagen_decomposition, ghost_map
from .cdwitt import (
    check_bracket_identity,
    check_component1_in_H,
    check_lemma_xyc,
    f2_span_membership,
    omega_map,
    square_class_generators,
    x_abelianize,
)
from .rmap import check_ghost_vanishes, check_lemma_phi, counterexample_report, r_map


# -- seeded sampling --------------------------------------------------------


def sample_word(rng: random.Random, alphabet: Alphabet, max_degree: int):
    d = rng.randint(0, max_degree)
    return tuple(rng.randrange(len(alphabet)) for _ in range(d))


def sample_poly(
    rng: random.Random,
    alphabet: Alphabet,
    max_degree: int = 2,
    max_terms: int = 3,
    coeff_bound: int = 3,
) -> FreePoly:
    total = FreePoly.zero(alphabet)
    for _ in range(rng.randint(1, max_terms)):
        c = rng.randint(-coeff_bound, coeff_bound)
        total = total + FreePoly.monomial(alphabet, sample_word(rng, alphabet, max_degree), c)
    return total


def sample_nonconstant_poly(
    rng: random.Random, alphabet: Alphabet, max_degree: int = 2
) -> FreePoly:
    """A single-term polynomial of degree between 1 and max_degree; used
    where the generator sampling policy excludes scalars."""
    d = rng.randint(1, max_degree)
    w = tuple(rng.randrange(len(alphabet)) for _ in range(d))
    c = rng.choice([-2, -1, 1, 2])
    return FreePoly.monomial(alphabet, w, c)


def sample_commutator(rng: random.Random, alphabet: Alphabet, max_degree: int = 2) -> FreePoly:
    """A sum of at most two brackets of degree-bounded polynomials."""
    total = FreePoly.zero(alphabet)
    for _ in range(rng.randint(1, 2)):
        f = sample_poly(rng, alphabet, max_degree, max_terms=2)
        g = sample_poly(rng, alphabet, max_degree, max_terms=2)
        total = total + commutator(f, g)
    return total


# -- named checks -----------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    description: str
    status: str  # "pass" or "fail"
    details: str = ""

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class VerifyReport:
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def as_dict(self) -> dict:
        return {
            "status": "pass" if self.passed else "fail",
            "checks": [c.as_dict() for c in self.checks],
        }

    def __str__(self) -> str:
        lines = [f"[{c.status}] {c.check_id}: {c.details or c.description}" for c in self.checks]
        lines.append(f"overall: {'pass' if self.passed else 'fail'}")
        return "\n".join(lines)


def check_wagen(alphabet: Alphabet, p: int, seed: int, cases: int = 20) -> tuple[bool, str]:
    """Ghost of a coordinate tuple decomposes as a sum of shifted
    Teichmuller ghosts, for random coordinates at lengths up to 4."""
    rng = random.Random(seed)
    failures = []
    for i in range(cases):
        n = rng.randint(1, 4)
        ctx = WittContext(alphabet, p, n)
        coords = CoordinateTuple.of(
            ctx, [sample_poly(rng, alphabet, 2, 2) for _ in range(n)]
        )
        if not check_wagen_decomposition(coords):
            failures.append(str(coords))
    return _tally(failures, cases)


def check_bracket_sweep(alphabet: Alphabet, p: int, seed: int, cases: int = 20) -> tuple[bool, str]:
    """Commutators of shifted Teichmuller products reduce to the single
    generator formula, entrywise, for all m <= n_shift <= 2."""
    rng = random.Random(seed)
    failures = []
    total = 0
    for n_shift in range(3):
        for m in range(n_shift + 1):
            for _ in range(max(4, cases // 5)):
                a_factors = [
                    sample_nonconstant_poly(rng, alphabet) for _ in range(rng.randint(1, 2))
                ]
                b_factors = [
                    sample_nonconstant_poly(rng, alphabet) for _ in range(rng.randint(1, 2))
                ]
                total += 1
                if not check_bracket_identity(m, n_shift, a_factors, b_factors, level=3, p=p):
                    failures.append(f"m={m}, n_shift={n_shift}")
    return _tally(failures, total)


def check_phi_sweep(alphabet: Alphabet, seed: int, cases: int = 20) -> tuple[bool, str]:
    """p-power congruence for the word-power map, at p in {2, 3}, k <= 2."""
    rng = random.Random(seed)
    failures = []
    for i in range(cases):
        p = rng.choice([2, 3])
        k = rng.randint(1, 2)
        x = sample_poly(rng, alphabet, 2, 3)
        if not check_lemma_phi(x, k, p):
            failures.append(f"x={x}, k={k}, p={p}")
    return _tally(failures, cases)


def check_thelemma_sweep(alphabet: Alphabet, seed: int, cases: int = 30) -> tuple[bool, str]:
    """Component 1 of every commutator generator lies in the obstruction
    ideal H: all m <= n_shift <= 1 sampled, plus every m=n_shift=0 pair of
    single words of degree 1 or 2."""
    rng = random.Random(seed)
    failures = []
    total = 0
    # exhaustive single-word pairs at m = n_shift = 0
    words = [(i,) for i in range(2)] + [(i, j) for i in range(2) for j in range(2)]
    for wa in words:
        for wb in words:
            total += 1
            a = FreePoly.monomial(alphabet, wa)
            b = FreePoly.monomial(alphabet, wb)
            if not check_component1_in_H(0, 0, [a], [b]):
                failures.append(f"a={a}, b={b}")
    # seeded random sweep over all m <= n_shift <= 1
    for i in range(cases):
        n_shift = rng.randint(0, 1)
        m = rng.randint(0, n_shift)
        a_factors = [sample_nonconstant_poly(rng, alphabet) for _ in range(rng.randint(1, 2))]
        b_factors = [sample_nonconstant_poly(rng, alphabet) for _ in range(rng.randint(1, 2))]
        total += 1
        if not check_component1_in_H(m, n_shift, a_factors, b_factors):
            failures.append(f"m={m}, n_shift={n_shift}")
    return _tally(failures, total)


def check_xyc(alphabet: Alphabet) -> tuple[bool, str]:
    """The class of X^2Y^2 is outside the GF(2) span of word squares in
    degrees <= 4, while the control targets XYXY and X^4 are inside."""
    generators = square_class_generators(alphabet)
    outside = check_lemma_xyc(alphabet)
    control1 = f2_span_membership(
        abelianize(FreePoly.monomial(alphabet, (0, 1, 0, 1))), generators, 4
    )
    control2 = f2_span_membership(
        abelianize(FreePoly.monomial(alphabet, (0, 0, 0, 0))), generators, 4
    )
    if outside and control1 and control2:
        return True, "target outside span; controls inside"
    return False, f"outside={outside}, control_xyxy={control1}, control_x4={control2}"


def check_omegar0_sweep(alphabet: Alphabet, p: int, seed: int, cases: int = 10) -> tuple[bool, str]:
    """Ghost vanishing for the recursion output on random commutator
    tuples at lengths up to 3."""
    rng = random.Random(seed)
    failures = []
    for i in range(cases):
        n = rng.randint(1, 3)
        ctx = WittContext(alphabet, p, n)
        eps = [sample_commutator(rng, alphabet) for _ in range(n)]
        result = r_map(eps, ctx)
        if not check_ghost_vanishes(result):
            failures.append(str(result.coords))
    return _tally(failures, cases)


def check_counterexample(level: int = 2) -> tuple[bool, str]:
    report = counterexample_report(max(level, 2))
    return report.status == "PASS", str(report)


def check_pin_sweep(alphabet: Alphabet, p: int, seed: int, cases: int = 20) -> tuple[bool, str]:
    """Abelianizing the Witt-polynomial lift recovers the ghost map."""
    rng = random.Random(seed)
    failures = []
    for i in range(cases):
        n = rng.randint(1, 3)
        ctx = WittContext(alphabet, p, n)
        coords = CoordinateTuple.of(
            ctx, [sample_poly(rng, alphabet, 2, 2) for _ in range(n)]
        )
        if x_abelianize(omega_map(coords)) != ghost_map(coords):
            failures.append(str(coords))
    return _tally(failures, cases)


def classical_witt_sum(x0, x1, y0, y1):
    """Hand-solved p=2 length-2 Witt addition: s0 = x0+y0 and, from the
    ghost equation s0^2 + 2 s1 = x0^2 + 2 x1 + y0^2 + 2 y1,
    s1 = x1 + y1 - x0 y0."""
    return x0 + y0, x1 + y1 - x0 * y0


def check_commutative_sanity(seed: int, cases: int = 20) -> tuple[bool, str]:
    """On a one-generator alphabet the ring is commutative; ghost addition
    must agree with the classical Witt sum."""
    alphabet = Alphabet(["T"])
    ctx = WittContext(alphabet, 2, 2)
    rng = random.Random(seed)
    failures = []
    for i in range(cases):
        x0, x1, y0, y1 = (sample_poly(rng, alphabet, 2, 2) for _ in range(4))
        s0, s1 = classical_witt_sum(x0, x1, y0, y1)
        lhs = ghost_map(CoordinateTuple.of(ctx, [x0, x1])) + ghost_map(
            CoordinateTuple.of(ctx, [y0, y1])
        )
        rhs = ghost_map(CoordinateTuple.of(ctx, [s0, s1]))
        if lhs != rhs:
            failures.append(f"x=({x0},{x1}), y=({y0},{y1})")
    return _tally(failures, cases)


def _tally(failures: list, total: int) -> tuple[bool, str]:
    if failures:
        return False, f"{len(failures)}/{total} failed: {failures[:3]}"
    return True, f"{total} cases"


#: Every named check, in report order: its id, its description, a runner
#: (alphabet, p, level, seed) -> (passed, details), whether the check
#: exists only at p = 2, and whether it needs a two-generator alphabet.
#: Four ignore p: the obstruction ideal H, the mod-2 square classes, the
#: counterexample and the hand-solved classical Witt sum are formulated at
#: p = 2 alone.  H and the square classes are formulated over {X, Y}; the
#: counterexample and the classical sum fix their own alphabets.
_CHECKS: dict[str, tuple[str, Callable[[Alphabet, int, int, int], tuple[bool, str]], bool, bool]] = {
    "wagen": (
        "ghost decomposition into shifted Teichmuller ghosts",
        lambda alphabet, p, level, seed: check_wagen(alphabet, p, seed),
        False,
        False,
    ),
    "bracket-identity": (
        "commutator of shifted products equals the scaled shifted bracket",
        lambda alphabet, p, level, seed: check_bracket_sweep(alphabet, p, seed),
        False,
        False,
    ),
    "lemma-phi": (
        "x^(p^k) agrees with the word-power map of x^(p^(k-1)) mod p^k and brackets",
        lambda alphabet, p, level, seed: check_phi_sweep(alphabet, seed),
        False,
        False,
    ),
    "lemma-thelemma": (
        "component 1 of commutator generators lies in the obstruction ideal",
        lambda alphabet, p, level, seed: check_thelemma_sweep(alphabet, seed),
        True,
        True,
    ),
    "lemma-xyc": (
        "the class of X^2Y^2 is not a square mod 2 below degree 5",
        lambda alphabet, p, level, seed: check_xyc(alphabet),
        True,
        True,
    ),
    "omegar0": (
        "the recursion output ghost-maps to zero",
        lambda alphabet, p, level, seed: check_omegar0_sweep(alphabet, p, seed),
        False,
        False,
    ),
    "counterexample": (
        "the component-1 obstruction defeats injectivity of the ghost analogue",
        lambda alphabet, p, level, seed: check_counterexample(level),
        True,
        False,
    ),
    "commutative-sanity": (
        "ghost addition agrees with classical Witt addition on one generator",
        lambda alphabet, p, level, seed: check_commutative_sanity(seed),
        True,
        False,
    ),
    "pin": (
        "abelianized Witt-polynomial lift equals the ghost map",
        lambda alphabet, p, level, seed: check_pin_sweep(alphabet, p, seed),
        False,
        False,
    ),
}

CHECK_IDS = tuple(_CHECKS)

DEFAULT_SEED = 20230817


class UnknownCheck(ValueError):
    """A selected check id is not in the check table."""


class PrimeNotSupported(ValueError):
    """Some selected checks exist only at p = 2, and another p was asked for."""


class AlphabetNotSupported(ValueError):
    """Some selected checks need a two-generator alphabet, and another was given."""


def run_checks(
    selection: Sequence[str],
    alphabet: Alphabet | None = None,
    p: int = 2,
    level: int = 2,
    seed: int = DEFAULT_SEED,
) -> VerifyReport:
    """Run the named checks and aggregate a report.  Results follow the
    order of the check table, independent of the order of the selection.
    Raises UnknownCheck on an id outside the table, PrimeNotSupported if
    p != 2 and the selection holds a check that exists only at p = 2, and
    AlphabetNotSupported if the alphabet has other than two generators and
    the selection holds a check that needs two, all before running
    anything."""
    if alphabet is None:
        alphabet = Alphabet(["X", "Y"])
    unknown = [s for s in selection if s not in CHECK_IDS]
    if unknown:
        raise UnknownCheck(f"unknown check ids: {unknown}; valid ids: {list(CHECK_IDS)}")
    p2_only = [c for c, (_, _, only_p2, _) in _CHECKS.items() if only_p2 and c in selection]
    if p != 2 and p2_only:
        raise PrimeNotSupported(f"checks {p2_only} exist only at p = 2, not at p = {p}")
    two_only = [c for c, (*_, only_two) in _CHECKS.items() if only_two and c in selection]
    if len(alphabet) != 2 and two_only:
        names = ",".join(alphabet.names)
        raise AlphabetNotSupported(f"checks {two_only} need a two-generator alphabet, not {names}")

    results = []
    for check_id, (description, runner, *_) in _CHECKS.items():
        if check_id in selection:
            passed, details = runner(alphabet, p, level, seed)
            results.append(
                CheckResult(check_id, description, "pass" if passed else "fail", details)
            )
    return VerifyReport(tuple(results))
