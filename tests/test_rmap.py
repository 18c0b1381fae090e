import time

import pytest

from ncwitt import (
    Alphabet,
    CoordinateTuple,
    EpsilonNotCommutator,
    FreePoly,
    LETTER_BUDGET,
    ResourceLimit,
    WittContext,
    abelianize,
    check_lemma_phi,
    commutator,
    counterexample_report,
    ghost_map,
    omega_map,
    phi_map,
    r_map,
    witt_polynomial,
    x_abelianize,
)
from ncwitt.verify import sample_commutator, sample_poly


def mono(ab, *letters, coeff=1):
    return FreePoly.monomial(ab, tuple(letters), coeff)


def mutated_result(ab, X, Y):
    # the level-2 recursion output on XY - YX with r_1 replaced by 0
    ctx = WittContext(ab, 2, 2)
    coords = r_map([commutator(X, Y)], ctx)
    return CoordinateTuple.of(ctx, [coords.entries[0], FreePoly.zero(ab)])


class TestRMap:
    def test_zero_input(self, ab):
        ctx = WittContext(ab, 2, 3)
        assert all(r.is_zero() for r in r_map([], ctx).entries)

    def test_commutator_input(self, ab, X, Y):
        ctx = WittContext(ab, 2, 2)
        r0, r1 = r_map([commutator(X, Y)], ctx).entries
        assert r0 == commutator(X, Y)
        assert r1 == -mono(ab, 0, 1, 0, 1) + mono(ab, 0, 0, 1, 1)
        # omega_1(r) = r0^2 + 2 r1
        assert r0**2 + 2 * r1 == (
            -mono(ab, 0, 1, 0, 1)
            + mono(ab, 1, 0, 1, 0)
            - mono(ab, 0, 1, 1, 0)
            - mono(ab, 1, 0, 0, 1)
            + 2 * mono(ab, 0, 0, 1, 1)
        )

    def test_one_generator_alphabet(self):
        ab1 = Alphabet(["T"])
        ctx = WittContext(ab1, 2, 3)
        assert all(r.is_zero() for r in r_map([FreePoly.zero(ab1)] * 3, ctx).entries)

    def test_r0_is_first_epsilon(self, ab, rng):
        for _ in range(5):
            eps0 = sample_commutator(rng, ab)
            ctx = WittContext(ab, 2, 2)
            assert r_map([eps0], ctx).entries[0] == eps0

    def test_rejects_non_commutator(self, ab, X):
        ctx = WittContext(ab, 2, 2)
        with pytest.raises(EpsilonNotCommutator):
            r_map([X], ctx)

    def test_determinism(self, ab, X, Y):
        ctx = WittContext(ab, 2, 3)
        a = r_map([commutator(X, Y), commutator(Y, X * Y)], ctx)
        b = r_map([commutator(X, Y), commutator(Y, X * Y)], ctx)
        assert a == b

    def test_letter_budget_refuses_long_steps(self, ab, X, Y):
        # step 2 takes tr(r_0^4), and r_0 has degree 1,501: 6,004 letters
        start = time.process_time()
        with pytest.raises(ResourceLimit, match="6,004") as refusal:
            r_map([commutator(X**1500, Y)], WittContext(ab, 2, 3))
        assert time.process_time() - start < 1
        assert f"{LETTER_BUDGET:,}" in str(refusal.value)

    @pytest.mark.parametrize("p", [2, 3])
    def test_pre_division_matches_expanded_recursion(self, ab, rng, p):
        # the oracle: abelianize w_i and phi(w_{i-1}) of the expanded
        # Witt polynomials of (r_0, ..., r_{i-1}, 0).  r_map divided that
        # class by p^i and lifted it, r_i = eps_i - sigma0(class / p^i), so
        # the class is p^i [eps_i - r_i].
        for _ in range(4):
            n = 3 if p == 2 else 2
            ctx = WittContext(ab, p, n)
            eps = [sample_commutator(rng, ab) for _ in range(n)]
            coords = r_map(eps, ctx).entries
            for i in range(1, n):
                partial = CoordinateTuple.of(WittContext(ab, p, i + 1), coords[:i])
                expected = abelianize(witt_polynomial(i, partial)) - abelianize(
                    phi_map(witt_polynomial(i - 1, partial), p)
                )
                assert p**i * abelianize(eps[i] - coords[i]) == expected

    def test_level_compatibility(self, ab, X, Y):
        # the first components of the recursion do not depend on the level
        eps = [commutator(X, Y), commutator(X, Y * X)]
        r2 = r_map(eps, WittContext(ab, 2, 2)).entries
        r3 = r_map(eps, WittContext(ab, 2, 3)).entries
        assert r3[:2] == r2


class TestGhostVanishes:
    def test_paper_case(self, ab, X, Y):
        ctx = WittContext(ab, 2, 2)
        assert ghost_map(r_map([commutator(X, Y)], ctx)).is_zero()

    def test_zero_case(self, ab):
        ctx = WittContext(ab, 2, 3)
        assert ghost_map(r_map([], ctx)).is_zero()

    def test_random_sweep(self, ab, rng):
        for _ in range(10):
            n = rng.randint(1, 3)
            ctx = WittContext(ab, 2, n)
            eps = [sample_commutator(rng, ab) for _ in range(n)]
            assert ghost_map(r_map(eps, ctx)).is_zero()

    def test_mutated_result_fails(self, ab, X, Y):
        assert not ghost_map(mutated_result(ab, X, Y)).is_zero()


class TestLemmaPhi:
    def test_single_word(self, ab, X):
        assert check_lemma_phi(X, 2, 2)
        # on a single word the congruence is an equality
        assert (X ** 4 - phi_map(X ** 2, 2)).is_zero()

    def test_sum_of_generators(self, ab, X, Y):
        diff = abelianize((X + Y) ** 2 - (X**2 + Y**2))
        assert all(c % 2 == 0 for _, c in diff.terms())
        assert check_lemma_phi(X + Y, 1, 2)

    def test_random_sweep(self, ab, rng):
        for _ in range(20):
            x = sample_poly(rng, ab, 2)
            k = rng.randint(1, 2)
            p = rng.choice([2, 3])
            assert check_lemma_phi(x, k, p)

    def test_phi_preserves_commutators(self, ab, rng):
        from ncwitt import in_commutator_subgroup

        for p in (2, 3):
            for _ in range(10):
                c = sample_commutator(rng, ab)
                assert in_commutator_subgroup(phi_map(c, p))


class TestCounterexampleReport:
    def test_level_two(self):
        report = counterexample_report(2)
        assert report.status == "PASS"
        assert [s.status for s in report.steps] == ["pass"] * 4

    def test_level_four_same_entry1(self, ab):
        # r_2, r_3 do not affect the level-1 Witt polynomial
        report2 = counterexample_report(2)
        report4 = counterexample_report(4)
        assert report4.status == "PASS"
        entry2 = next(s.output for s in report2.steps if s.name == "omega_entry1")
        entry4 = next(s.output for s in report4.steps if s.name == "omega_entry1")
        assert entry2 == entry4

    def test_rejects_small_level(self):
        with pytest.raises(ValueError):
            counterexample_report(1)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_ghost_step_is_ghost_map(self, ab, X, Y, n):
        # the report's abelianized lift prints exactly as ghost_map would
        report = counterexample_report(n)
        step = next(s for s in report.steps if s.name == "ghost_vanishes")
        coords = r_map([commutator(X, Y)], WittContext(ab, 2, n))
        assert step.output == str(ghost_map(coords))
        assert step.output == str(x_abelianize(omega_map(coords)))

    def test_level_five_expanded_ghost_vanishes(self, ab, X, Y):
        # the expanded oracle for level 5's trace powers, (XY - YX)^16 included
        coords = r_map([commutator(X, Y)], WittContext(ab, 2, 5))
        expanded = x_abelianize(omega_map(coords))
        assert expanded.is_zero()
        assert expanded == ghost_map(coords)

    def test_mutated_recursion_fails_report(self, monkeypatch, ab, X, Y):
        mutated = mutated_result(ab, X, Y)
        monkeypatch.setattr("ncwitt.rmap.r_map", lambda eps, ctx: mutated)
        report = counterexample_report(2)
        assert report.status == "FAILED"
        step = next(s for s in report.steps if s.name == "ghost_vanishes")
        assert step.status == "fail"

    # each fake fails exactly one step; a verdict left out of the report's
    # status would let that report pass
    def test_nonzero_ghost_fails_only_its_step(self, monkeypatch, ab, X, Y):
        nonzero = ghost_map(mutated_result(ab, X, Y))
        monkeypatch.setattr("ncwitt.rmap.ghost_map", lambda coords: nonzero)
        report = counterexample_report(2)
        assert report.status == "FAILED"
        assert [s.status for s in report.steps] == ["pass", "fail", "pass", "pass"]

    def test_wrong_entry1_fails_only_its_step(self, monkeypatch):
        # -entry1 differs from entry1 and, H being additive, is outside H too
        monkeypatch.setattr(
            "ncwitt.rmap.witt_polynomial", lambda i, coords: -witt_polynomial(i, coords)
        )
        report = counterexample_report(2)
        assert report.status == "FAILED"
        assert [s.status for s in report.steps] == ["pass", "pass", "fail", "pass"]

    def test_entry1_in_h_fails_only_its_step(self, monkeypatch):
        monkeypatch.setattr("ncwitt.rmap.h_membership", lambda f: True)
        report = counterexample_report(2)
        assert report.status == "FAILED"
        assert [s.status for s in report.steps] == ["pass", "pass", "pass", "fail"]
        assert report.steps[3].output == "in H"
