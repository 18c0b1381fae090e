"""Verification harness: seeded random sweeps and the named checks exposed
through the command line.

Every sweep draws from a seeded generator, so a run with the same seed is
fully deterministic.  Each check returns a CheckResult; run_checks
aggregates them into a VerifyReport.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Sequence

from .freealg import Alphabet, FreePoly, commutator, phi_map
from .cycquot import abelianize
from .ghost import (
    CoordinateTuple,
    WittContext,
    check_wagen_decomposition,
    ghost_map,
    w_add,
    w_equal,
)
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
        return {
            "check_id": self.check_id,
            "description": self.description,
            "status": self.status,
            "details": self.details,
        }


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


def check_wagen(alphabet: Alphabet, p: int, seed: int, cases: int = 20) -> CheckResult:
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
    return _result(
        "wagen",
        "ghost decomposition into shifted Teichmuller ghosts",
        failures,
        cases,
    )


def check_bracket_sweep(alphabet: Alphabet, p: int, seed: int, cases: int = 20) -> CheckResult:
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
    return _result(
        "bracket-identity",
        "commutator of shifted products equals the scaled shifted bracket",
        failures,
        total,
    )


def check_phi_sweep(alphabet: Alphabet, seed: int, cases: int = 20) -> CheckResult:
    """p-power congruence for the word-power map, at p in {2, 3}, k <= 2."""
    rng = random.Random(seed)
    failures = []
    for i in range(cases):
        p = rng.choice([2, 3])
        k = rng.randint(1, 2)
        x = sample_poly(rng, alphabet, 2, 3)
        if not check_lemma_phi(x, k, p):
            failures.append(f"x={x}, k={k}, p={p}")
    return _result(
        "lemma-phi",
        "x^(p^k) agrees with the word-power map of x^(p^(k-1)) mod p^k and brackets",
        failures,
        cases,
    )


def check_thelemma_sweep(alphabet: Alphabet, seed: int, cases: int = 30) -> CheckResult:
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
    return _result(
        "lemma-thelemma",
        "component 1 of commutator generators lies in the obstruction ideal",
        failures,
        total,
    )


def check_xyc(alphabet: Alphabet) -> CheckResult:
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
    ok = outside and control1 and control2
    details = (
        "target outside span; controls inside"
        if ok
        else f"outside={outside}, control_xyxy={control1}, control_x4={control2}"
    )
    return CheckResult(
        "lemma-xyc",
        "the class of X^2Y^2 is not a square mod 2 below degree 5",
        "pass" if ok else "fail",
        details,
    )


def check_omegar0_sweep(alphabet: Alphabet, p: int, seed: int, cases: int = 10) -> CheckResult:
    """Ghost vanishing for the recursion output on random commutator
    tuples at lengths up to 3."""
    rng = random.Random(seed)
    failures = []
    for i in range(cases):
        n = rng.randint(1, 3)
        ctx = WittContext(alphabet, p, n)
        eps = [sample_commutator(rng, alphabet) for _ in range(n)]
        result = r_map(eps, ctx, degree_cap=128)
        if not check_ghost_vanishes(result):
            failures.append(str(result.coords))
    return _result(
        "omegar0",
        "the recursion output ghost-maps to zero",
        failures,
        cases,
    )


def check_counterexample(level: int = 2) -> CheckResult:
    report = counterexample_report(max(level, 2))
    return CheckResult(
        "counterexample",
        "the component-1 obstruction defeats injectivity of the ghost analogue",
        "pass" if report.status == "PASS" else "fail",
        str(report),
    )


def check_pin_sweep(alphabet: Alphabet, p: int, seed: int, cases: int = 20) -> CheckResult:
    """Abelianizing the Witt-polynomial lift recovers the ghost map."""
    rng = random.Random(seed)
    failures = []
    for i in range(cases):
        n = rng.randint(1, 3)
        ctx = WittContext(alphabet, p, n)
        coords = CoordinateTuple.of(
            ctx, [sample_poly(rng, alphabet, 2, 2) for _ in range(n)]
        )
        if not w_equal(x_abelianize(omega_map(coords)), ghost_map(coords)):
            failures.append(str(coords))
    return _result(
        "pin",
        "abelianized Witt-polynomial lift equals the ghost map",
        failures,
        cases,
    )


def classical_witt_sum(x0, x1, y0, y1):
    """Hand-solved p=2 length-2 Witt addition: s0 = x0+y0 and, from the
    ghost equation s0^2 + 2 s1 = x0^2 + 2 x1 + y0^2 + 2 y1,
    s1 = x1 + y1 - x0 y0."""
    return x0 + y0, x1 + y1 - x0 * y0


def check_commutative_sanity(seed: int, cases: int = 20) -> CheckResult:
    """On a one-generator alphabet the ring is commutative; ghost addition
    must agree with the classical Witt sum."""
    alphabet = Alphabet(["T"])
    ctx = WittContext(alphabet, 2, 2)
    rng = random.Random(seed)
    failures = []
    for i in range(cases):
        x0, x1, y0, y1 = (sample_poly(rng, alphabet, 2, 2) for _ in range(4))
        s0, s1 = classical_witt_sum(x0, x1, y0, y1)
        lhs = w_add(
            ghost_map(CoordinateTuple.of(ctx, [x0, x1])),
            ghost_map(CoordinateTuple.of(ctx, [y0, y1])),
        )
        rhs = ghost_map(CoordinateTuple.of(ctx, [s0, s1]))
        if not w_equal(lhs, rhs):
            failures.append(f"x=({x0},{x1}), y=({y0},{y1})")
    return _result(
        "commutative-sanity",
        "ghost addition agrees with classical Witt addition on one generator",
        failures,
        cases,
    )


def _result(check_id: str, description: str, failures: list, total: int) -> CheckResult:
    if failures:
        return CheckResult(
            check_id, description, "fail", f"{len(failures)}/{total} failed: {failures[:3]}"
        )
    return CheckResult(check_id, description, "pass", f"{total} cases")


CHECK_IDS = (
    "wagen",
    "bracket-identity",
    "lemma-phi",
    "lemma-thelemma",
    "lemma-xyc",
    "omegar0",
    "counterexample",
    "commutative-sanity",
    "pin",
)

DEFAULT_SEED = 20230817


def run_checks(
    selection: Sequence[str],
    alphabet: Alphabet | None = None,
    p: int = 2,
    level: int = 2,
    seed: int = DEFAULT_SEED,
) -> VerifyReport:
    """Run the named checks and aggregate a report.  Results are ordered
    by check id, independent of execution order."""
    if alphabet is None:
        alphabet = Alphabet(["X", "Y"])
    unknown = [s for s in selection if s not in CHECK_IDS]
    if unknown:
        raise ValueError(f"unknown check ids: {unknown}; valid ids: {list(CHECK_IDS)}")

    runners: dict[str, Callable[[], CheckResult]] = {
        "wagen": lambda: check_wagen(alphabet, p, seed),
        "bracket-identity": lambda: check_bracket_sweep(alphabet, p, seed),
        "lemma-phi": lambda: check_phi_sweep(alphabet, seed),
        "lemma-thelemma": lambda: check_thelemma_sweep(alphabet, seed),
        "lemma-xyc": lambda: check_xyc(alphabet),
        "omegar0": lambda: check_omegar0_sweep(alphabet, p, seed),
        "counterexample": lambda: check_counterexample(level),
        "commutative-sanity": lambda: check_commutative_sanity(seed),
        "pin": lambda: check_pin_sweep(alphabet, p, seed),
    }
    results = [runners[name]() for name in CHECK_IDS if name in selection]
    return VerifyReport(tuple(results))
