"""Acceptance suite: one test per criterion, exact equality throughout,
each printing a pass/fail line and enforcing its runtime budget.

Criteria 3, 5 and 7 draw exactly what the checks bracket-identity,
lemma-thelemma and omegar0 draw at SEED, so they run those checks through
run_checks instead of repeating their sweeps.  Criteria 4, 6, 8 and 9 keep
their own loops: they draw other inputs than the matching checks (up to
three terms per sampled polynomial where the checks draw two, or another
draw order and an extra commutator loop)."""

import random
import time

import pytest

from ncwitt import (
    Alphabet,
    CoordinateTuple,
    FreePoly,
    WittContext,
    check_lemma_phi,
    check_lemma_xyc,
    check_wagen_decomposition,
    commutator,
    commutator_generator,
    f2_span_membership,
    ghost_map,
    h_membership,
    omega_map,
    r_map,
)
from ncwitt.cdwitt import square_class_generators
from ncwitt.verify import classical_witt_sum, run_checks, sample_commutator, sample_poly

SEED = 20230817


def mono(ab, *letters, coeff=1):
    return FreePoly.monomial(ab, tuple(letters), coeff)


class Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"{status} {self.name} ({elapsed:.3f}s)")
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"{self.name} took {elapsed:.3f}s, budget {self.seconds}s"
            )
        return False


def test_criterion_1_counterexample_reproduction(ab, X, Y):
    with Budget("criterion 1: counterexample reproduction", 1.0):
        ctx = WittContext(ab, 2, 2)
        coords = r_map([commutator(X, Y)], ctx)
        r0, r1 = coords.entries
        assert r1 == -mono(ab, 0, 1, 0, 1) + mono(ab, 0, 0, 1, 1)
        omega1 = r0**2 + 2 * r1
        assert omega1 == (
            -mono(ab, 0, 1, 0, 1)
            + mono(ab, 1, 0, 1, 0)
            - mono(ab, 0, 1, 1, 0)
            - mono(ab, 1, 0, 0, 1)
            + 2 * mono(ab, 0, 0, 1, 1)
        )
        assert omega_map(coords).entries[1] == omega1
        assert h_membership(omega1) is False
        assert ghost_map(coords).is_zero()


def test_criterion_2_square_span_obstruction(ab):
    with Budget("criterion 2: degree-4 square-span obstruction", 0.1):
        assert check_lemma_xyc(ab) is True
        gens = square_class_generators(ab)
        from ncwitt import abelianize

        assert f2_span_membership(abelianize(mono(ab, 0, 1, 0, 1)), gens, 4)
        assert f2_span_membership(abelianize(mono(ab, 0, 0, 0, 0)), gens, 4)


def test_criterion_3_bracket_identity_sweep(ab):
    with Budget("criterion 3: bracket identity sweep", 10.0):
        # four cases for each m <= n_shift <= 2, at level 3
        (result,) = run_checks(["bracket-identity"], alphabet=ab, p=2, seed=SEED).checks
        assert result.passed
        assert result.details == "24 cases"


def test_criterion_4_ghost_decomposition_sweep(ab):
    with Budget("criterion 4: ghost decomposition sweep", 5.0):
        rng = random.Random(SEED)
        for _ in range(20):
            n = rng.randint(1, 4)
            ctx = WittContext(ab, 2, n)
            coords = CoordinateTuple.of(ctx, [sample_poly(rng, ab, 2) for _ in range(n)])
            assert check_wagen_decomposition(coords)


def test_criterion_5_component1_obstruction_sweep(ab):
    with Budget("criterion 5: component-1 obstruction sweep", 10.0):
        # the 36 m = n_shift = 0 pairs of single words of degree 1..2, then
        # 30 seeded draws over all m <= n_shift <= 1
        (result,) = run_checks(["lemma-thelemma"], alphabet=ab, p=2, seed=SEED).checks
        assert result.passed
        assert result.details == "66 cases"


def test_criterion_6_power_congruence_sweep(ab):
    with Budget("criterion 6: p-power congruence sweep", 5.0):
        from ncwitt import in_commutator_subgroup, phi_map

        rng = random.Random(SEED)
        for _ in range(20):
            x = sample_poly(rng, ab, 2)
            k = rng.randint(1, 2)
            p = rng.choice([2, 3])
            assert check_lemma_phi(x, k, p)
        for p in (2, 3):
            for _ in range(5):
                c = sample_commutator(rng, ab)
                assert in_commutator_subgroup(phi_map(c, p))


def test_criterion_7_ghost_vanishing_sweep(ab):
    with Budget("criterion 7: recursion ghost-vanishing sweep", 30.0):
        # ten seeded commutator tuples at lengths up to 3
        (result,) = run_checks(["omegar0"], alphabet=ab, p=2, seed=SEED).checks
        assert result.passed
        assert result.details == "10 cases"


def test_criterion_8_abelianized_lift_diagram(ab):
    with Budget("criterion 8: abelianized lift equals ghost map", 5.0):
        from ncwitt import x_abelianize

        rng = random.Random(SEED)
        for _ in range(20):
            n = rng.randint(1, 3)
            ctx = WittContext(ab, 2, n)
            coords = CoordinateTuple.of(ctx, [sample_poly(rng, ab, 2) for _ in range(n)])
            assert x_abelianize(omega_map(coords)) == ghost_map(coords)


def test_criterion_9_commutative_sanity():
    with Budget("criterion 9: classical Witt addition on one generator", 1.0):
        ab1 = Alphabet(["T"])
        ctx = WittContext(ab1, 2, 2)
        rng = random.Random(SEED)
        for _ in range(20):
            x0, x1, y0, y1 = (sample_poly(rng, ab1, 2) for _ in range(4))
            s0, s1 = classical_witt_sum(x0, x1, y0, y1)
            lhs = ghost_map(CoordinateTuple.of(ctx, [x0, x1])) + ghost_map(
                CoordinateTuple.of(ctx, [y0, y1])
            )
            assert lhs == ghost_map(CoordinateTuple.of(ctx, [s0, s1]))


def test_criterion_10_nonexistence_core(ab, X, Y):
    # the full inverse-limit statements are covered by the computational
    # cores exercised in criteria 1, 2, and 5; re-run them jointly
    with Budget("criterion 10: non-existence computational core", 15.0):
        ctx = WittContext(ab, 2, 2)
        coords = r_map([commutator(X, Y)], ctx)
        omega1 = omega_map(coords).entries[1]
        assert ghost_map(coords).is_zero()
        assert not h_membership(omega1)
        assert check_lemma_xyc(ab)
        assert h_membership(commutator_generator(0, 0, [X], [Y], level=1, p=2).entries[1])
