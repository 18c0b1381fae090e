"""Verification harness: seeded random sweeps and the named checks exposed
through the command line.

Every sweep draws from a seeded generator, so a run with the same seed is
fully deterministic.  Each check is a runner (alphabet, p, level, seed)
-> (passed, details); the table of checks below gives each one its id,
description, prime and number of generators, and run_checks aggregates
the results into a VerifyReport.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass
from typing import Callable, Iterable, Sequence

from .freealg import Alphabet, FreePoly, InputError, commutator
from .cycquot import abelianize
from .ghost import CoordinateTuple, WittContext, check_prime, check_wagen_decomposition, ghost_map
from .cdwitt import (
    check_bracket_identity,
    check_lemma_xyc,
    commutator_generator,
    f2_span_membership,
    h_membership,
    omega_map,
    square_class_generators,
    x_abelianize,
)
from .rmap import check_lemma_phi, counterexample_report, r_map


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


def _sweep(seed: int, cases: Iterable, case: Callable) -> tuple[bool, str]:
    """Run case(rng, item) for each item of cases, all drawing from one
    generator seeded with seed.  A case returns None when its identity
    holds and a description of its input when it fails; the details count
    the cases, or the failures and the first three failing inputs."""
    rng = random.Random(seed)
    outcomes = [case(rng, item) for item in cases]
    failures = [f for f in outcomes if f is not None]
    if failures:
        return False, f"{len(failures)}/{len(outcomes)} failed: {failures[:3]}"
    return True, f"{len(outcomes)} cases"


def _factors(rng: random.Random, alphabet: Alphabet) -> list[FreePoly]:
    return [sample_nonconstant_poly(rng, alphabet) for _ in range(rng.randint(1, 2))]


def check_wagen(alphabet: Alphabet, p: int, level: int, seed: int) -> tuple[bool, str]:
    """Ghost of a coordinate tuple decomposes as a sum of shifted
    Teichmuller ghosts, for random coordinates at lengths up to 4."""

    def case(rng, _):
        n = rng.randint(1, 4)
        entries = [sample_poly(rng, alphabet, 2, 2) for _ in range(n)]
        coords = CoordinateTuple.of(WittContext(alphabet, p, n), entries)
        return None if check_wagen_decomposition(coords) else str(coords)

    return _sweep(seed, range(20), case)


def check_bracket_sweep(alphabet: Alphabet, p: int, level: int, seed: int) -> tuple[bool, str]:
    """Commutators of shifted Teichmuller products reduce to the single
    generator formula, entrywise, four cases for each m <= n_shift <= 2."""

    def case(rng, shifts):
        m, n_shift = shifts
        a, b = _factors(rng, alphabet), _factors(rng, alphabet)
        holds = check_bracket_identity(m, n_shift, a, b, level=3, p=p)
        return None if holds else f"m={m}, n_shift={n_shift}"

    schedule = [(m, n_shift) for n_shift in range(3) for m in range(n_shift + 1) for _ in range(4)]
    return _sweep(seed, schedule, case)


def check_phi_sweep(alphabet: Alphabet, p: int, level: int, seed: int) -> tuple[bool, str]:
    """p-power congruence for the word-power map, at p in {2, 3}, k <= 2;
    the sweep draws its own p."""

    def case(rng, _):
        p = rng.choice([2, 3])
        k = rng.randint(1, 2)
        x = sample_poly(rng, alphabet, 2, 3)
        return None if check_lemma_phi(x, k, p) else f"x={x}, k={k}, p={p}"

    return _sweep(seed, range(20), case)


def check_thelemma_sweep(alphabet: Alphabet, p: int, level: int, seed: int) -> tuple[bool, str]:
    """Component 1 of every commutator generator lies in the obstruction
    ideal H: every m=n_shift=0 pair of single words of degree 1 or 2 first,
    then 30 seeded draws over all m <= n_shift <= 1."""
    words = [FreePoly.monomial(alphabet, w) for w in [(0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1)]]
    pairs = [([a], [b]) for a in words for b in words]

    def case(rng, pair):
        if pair is None:
            n_shift = rng.randint(0, 1)
            m = rng.randint(0, n_shift)
            a, b = _factors(rng, alphabet), _factors(rng, alphabet)
        else:
            m = n_shift = 0
            a, b = pair
        if h_membership(commutator_generator(m, n_shift, a, b, level=1, p=2).entries[1]):
            return None
        return f"a={a[0]}, b={b[0]}" if pair else f"m={m}, n_shift={n_shift}"

    return _sweep(seed, pairs + [None] * 30, case)


def check_xyc(alphabet: Alphabet, p: int, level: int, seed: int) -> tuple[bool, str]:
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


def check_omegar0_sweep(alphabet: Alphabet, p: int, level: int, seed: int) -> tuple[bool, str]:
    """Ghost vanishing for the recursion output on random commutator
    tuples at lengths up to 3."""

    def case(rng, _):
        n = rng.randint(1, 3)
        eps = [sample_commutator(rng, alphabet) for _ in range(n)]
        coords = r_map(eps, WittContext(alphabet, p, n))
        return None if ghost_map(coords).is_zero() else str(coords)

    return _sweep(seed, range(10), case)


def check_counterexample(alphabet: Alphabet, p: int, level: int, seed: int) -> tuple[bool, str]:
    """The p = 2 counterexample over {X, Y}, at level >= 2."""
    report = counterexample_report(level)
    return report.status == "PASS", str(report)


def check_pin_sweep(alphabet: Alphabet, p: int, level: int, seed: int) -> tuple[bool, str]:
    """Abelianizing the Witt-polynomial lift recovers the ghost map."""

    def case(rng, _):
        n = rng.randint(1, 3)
        entries = [sample_poly(rng, alphabet, 2, 2) for _ in range(n)]
        coords = CoordinateTuple.of(WittContext(alphabet, p, n), entries)
        return None if x_abelianize(omega_map(coords)) == ghost_map(coords) else str(coords)

    return _sweep(seed, range(20), case)


def classical_witt_sum(x0, x1, y0, y1):
    """Hand-solved p=2 length-2 Witt addition: s0 = x0+y0 and, from the
    ghost equation s0^2 + 2 s1 = x0^2 + 2 x1 + y0^2 + 2 y1,
    s1 = x1 + y1 - x0 y0."""
    return x0 + y0, x1 + y1 - x0 * y0


def check_commutative_sanity(alphabet: Alphabet, p: int, level: int, seed: int) -> tuple[bool, str]:
    """On the one-generator alphabet {T} the ring is commutative; ghost
    addition at p = 2 must agree with the classical Witt sum."""
    t = Alphabet(["T"])
    ctx = WittContext(t, 2, 2)

    def case(rng, _):
        x0, x1, y0, y1 = (sample_poly(rng, t, 2, 2) for _ in range(4))
        s0, s1 = classical_witt_sum(x0, x1, y0, y1)
        gx, gy, gs = (ghost_map(CoordinateTuple.of(ctx, e)) for e in ([x0, x1], [y0, y1], [s0, s1]))
        return None if gx + gy == gs else f"x=({x0},{x1}), y=({y0},{y1})"

    return _sweep(seed, range(20), case)


#: Every named check, in report order: its id, its description, its runner
#: (alphabet, p, level, seed) -> (passed, details), the only prime it is
#: formulated at and the number of generators it needs (None: any).  The
#: obstruction ideal H, the mod-2 square classes, the counterexample and
#: the hand-solved classical Witt sum are formulated at p = 2.  H, the
#: square classes and the counterexample live on {X, Y}; the classical sum
#: fixes its own alphabet {T}.
_Runner = Callable[[Alphabet, int, int, int], tuple[bool, str]]
_CHECKS: dict[str, tuple[str, _Runner, int | None, int | None]] = {
    "wagen": ("ghost decomposition into shifted Teichmuller ghosts", check_wagen, None, None),
    "bracket-identity": (
        "commutator of shifted products equals the scaled shifted bracket",
        check_bracket_sweep,
        None,
        None,
    ),
    "lemma-phi": (
        "x^(p^k) agrees with the word-power map of x^(p^(k-1)) mod p^k and brackets",
        check_phi_sweep,
        None,
        None,
    ),
    "lemma-thelemma": (
        "component 1 of commutator generators lies in the obstruction ideal",
        check_thelemma_sweep,
        2,
        2,
    ),
    "lemma-xyc": ("the class of X^2Y^2 is not a square mod 2 below degree 5", check_xyc, 2, 2),
    "omegar0": ("the recursion output ghost-maps to zero", check_omegar0_sweep, None, None),
    "counterexample": (
        "the component-1 obstruction defeats injectivity of the ghost analogue",
        check_counterexample,
        2,
        2,
    ),
    "commutative-sanity": (
        "ghost addition agrees with classical Witt addition on one generator",
        check_commutative_sanity,
        2,
        None,
    ),
    "pin": ("abelianized Witt-polynomial lift equals the ghost map", check_pin_sweep, None, None),
}

CHECK_IDS = tuple(_CHECKS)

#: How run_checks spells the number of generators a check needs.
_NUMBER_WORDS = {1: "one", 2: "two", 3: "three", 4: "four"}

DEFAULT_SEED = 20230817


def run_checks(
    selection: Sequence[str],
    alphabet: Alphabet | None = None,
    p: int = 2,
    level: int = 2,
    seed: int = DEFAULT_SEED,
) -> VerifyReport:
    """Run the named checks and aggregate a report.  Results follow the
    order of the check table, independent of the order of the selection.
    Raises InputError, before running anything, if p is not prime, if
    level (the counterexample's) is below 2, on an id outside the table,
    or if the selection holds a check whose prime is not p or whose
    number of generators is not the alphabet's; the message names the
    primes or the numbers of generators those checks need."""
    if alphabet is None:
        alphabet = Alphabet(["X", "Y"])
    check_prime(p)
    if level < 2:
        raise InputError(f"the counterexample needs level >= 2, got {level}")
    unknown = [s for s in selection if s not in CHECK_IDS]
    if unknown:
        raise InputError(f"unknown check ids: {unknown}; valid ids: {list(CHECK_IDS)}")
    chosen = [(c, row) for c, row in _CHECKS.items() if c in selection]
    off_p = {c: prime for c, (_, _, prime, _) in chosen if prime not in (None, p)}
    if off_p:
        primes = " or ".join(map(str, sorted(set(off_p.values()))))
        raise InputError(f"checks {list(off_p)} exist only at p = {primes}, not at p = {p}")
    off_size = {c: letters for c, (*_, letters) in chosen if letters not in (None, len(alphabet))}
    if off_size:
        sizes = " or ".join(_NUMBER_WORDS.get(k, str(k)) for k in sorted(set(off_size.values())))
        names = ",".join(alphabet.names)
        raise InputError(f"checks {list(off_size)} need a {sizes}-generator alphabet, not {names}")

    results = []
    for check_id, (description, runner, *_) in chosen:
        passed, details = runner(alphabet, p, level, seed)
        results.append(CheckResult(check_id, description, "pass" if passed else "fail", details))
    return VerifyReport(tuple(results))
