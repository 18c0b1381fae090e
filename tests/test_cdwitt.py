import pytest

from ncwitt import (
    Alphabet,
    CoordinateTuple,
    FreePoly,
    WittContext,
    XVector,
    abelianize,
    check_bracket_identity,
    check_component1_in_H,
    check_lemma_xyc,
    commutator,
    commutator_generator,
    f2_span_membership,
    ghost_map,
    h_membership,
    omega_map,
    w_equal,
    x_abelianize,
    x_add,
    x_mul,
    x_teichmuller,
    x_verschiebung,
)
from ncwitt.cdwitt import omega_as_teichmuller_sum, square_class_generators, x_scale
from ncwitt.verify import sample_nonconstant_poly, sample_poly


def mono(ab, *letters, coeff=1):
    return FreePoly.monomial(ab, tuple(letters), coeff)


class TestXVector:
    @pytest.mark.parametrize("p", [1, 4, 6])
    def test_rejects_non_prime(self, ab, p):
        with pytest.raises(ValueError, match="prime"):
            XVector(ab, p, (FreePoly.zero(ab),))


class TestTeichmuller:
    def test_zero(self, ab):
        assert x_teichmuller(ab, 2, FreePoly.zero(ab), 3).is_zero()

    def test_one(self, ab):
        t = x_teichmuller(ab, 2, FreePoly.one(ab), 3)
        assert all(e == FreePoly.one(ab) for e in t.entries)

    def test_generator(self, ab, X):
        t = x_teichmuller(ab, 2, X, 2)
        assert t.entries == (X, X**2, X**4)


class TestVerschiebung:
    def test_zero(self, ab):
        assert x_verschiebung(XVector.zero(ab, 2, 2)).is_zero()

    def test_shift_and_scale(self, ab):
        ones = x_teichmuller(ab, 2, FreePoly.one(ab), 2)
        v = x_verschiebung(ones)
        two = FreePoly.constant(ab, 2)
        assert v.entries == (FreePoly.zero(ab), two, two)

    def test_double_shift(self, ab, X):
        v2 = x_verschiebung(x_verschiebung(x_teichmuller(ab, 2, X, 2)))
        assert v2.entries == (FreePoly.zero(ab), FreePoly.zero(ab), 4 * X)


class TestRingOperations:
    def test_teichmuller_product(self, ab, X, Y):
        prod = x_mul(x_teichmuller(ab, 2, X, 2), x_teichmuller(ab, 2, Y, 2))
        assert prod.entries == (X * Y, X**2 * Y**2, X**4 * Y**4)

    def test_one_is_unit(self, ab, X, Y, rng):
        one = x_teichmuller(ab, 2, FreePoly.one(ab), 2)
        x = XVector(ab, 2, tuple(sample_poly(rng, ab, 2) for _ in range(3)))
        assert x_mul(one, x) == x

    def test_v_product_rule(self, ab, X, Y):
        # V(x) V(y) = p V(xy) on Teichmuller lifts
        lhs = x_mul(
            x_verschiebung(x_teichmuller(ab, 2, X, 2)),
            x_verschiebung(x_teichmuller(ab, 2, Y, 2)),
        )
        assert lhs.entries == (FreePoly.zero(ab), 4 * X * Y, 4 * X**2 * Y**2)
        rhs = x_scale(
            x_verschiebung(x_mul(x_teichmuller(ab, 2, X, 2), x_teichmuller(ab, 2, Y, 2))),
            2,
        )
        assert lhs == rhs

    def test_associativity_distributivity(self, ab, rng):
        for _ in range(10):
            x, y, z = (
                XVector(ab, 2, tuple(sample_poly(rng, ab, 2) for _ in range(3)))
                for _ in range(3)
            )
            assert x_mul(x_mul(x, y), z) == x_mul(x, x_mul(y, z))
            assert x_mul(x, x_add(y, z)) == x_add(x_mul(x, y), x_mul(x, z))


class TestOmegaMap:
    def test_teichmuller_case(self, ab, X):
        ctx = WittContext(ab, 2, 3)
        assert omega_map(CoordinateTuple.of(ctx, [X])) == x_teichmuller(ab, 2, X, 2)

    def test_verschiebung_case(self, ab, X):
        ctx = WittContext(ab, 2, 3)
        coords = CoordinateTuple.of(ctx, [FreePoly.zero(ab), X])
        assert omega_map(coords) == x_verschiebung(x_teichmuller(ab, 2, X, 2))

    def test_level1_values(self, ab, X, Y):
        ctx = WittContext(ab, 2, 2)
        lifted = omega_map(CoordinateTuple.of(ctx, [X, Y]))
        assert lifted.entries == (X, X**2 + 2 * Y)

    def test_equals_teichmuller_sum(self, ab, rng):
        for _ in range(15):
            n = rng.randint(1, 4)
            ctx = WittContext(ab, 2, n)
            coords = CoordinateTuple.of(ctx, [sample_poly(rng, ab, 2) for _ in range(n)])
            assert omega_map(coords) == omega_as_teichmuller_sum(coords)


class TestAbelianizeDiagram:
    def test_commutes_with_ghost(self, ab, X, Y):
        ctx = WittContext(ab, 2, 2)
        coords = CoordinateTuple.of(ctx, [X, Y])
        assert w_equal(x_abelianize(omega_map(coords)), ghost_map(coords))

    def test_teichmuller(self, ab, X):
        g = x_abelianize(x_teichmuller(ab, 2, X, 2))
        assert g.components == tuple(abelianize(X ** (2**i)) for i in range(3))

    def test_commutator_generator_dies(self, ab, X, Y):
        gen = commutator_generator(0, 0, [X], [Y], level=2)
        assert x_abelianize(gen).is_zero()

    def test_random_sweep(self, ab, rng):
        for _ in range(20):
            n = rng.randint(1, 3)
            ctx = WittContext(ab, 2, n)
            coords = CoordinateTuple.of(ctx, [sample_poly(rng, ab, 2) for _ in range(n)])
            assert w_equal(x_abelianize(omega_map(coords)), ghost_map(coords))


class TestCommutatorGenerator:
    def test_plain_bracket(self, ab, X, Y):
        gen = commutator_generator(0, 0, [X], [Y], level=2)
        for i, entry in enumerate(gen.entries):
            q = 2**i
            assert entry == commutator(X**q, Y**q)

    def test_self_bracket(self, ab, X):
        assert commutator_generator(0, 0, [X], [X], level=2).is_zero()

    def test_shifted_bracket(self, ab, X, Y):
        gen = commutator_generator(0, 1, [X], [Y], level=2)
        assert gen.entries[0].is_zero()
        assert gen.entries[1] == 2 * commutator(X, Y**2)
        assert gen.entries[2] == 2 * commutator(X**2, Y**4)

    def test_rejects_m_above_shift(self, X, Y):
        with pytest.raises(ValueError):
            commutator_generator(2, 1, [X], [Y], level=2)

    def test_scalar_divisibility(self, ab, rng):
        # every entry abelianizes to zero; with m > 0 entries are divisible by p^m
        for _ in range(10):
            n_shift = rng.randint(0, 2)
            m = rng.randint(0, n_shift)
            a = [sample_nonconstant_poly(rng, ab) for _ in range(rng.randint(1, 2))]
            b = [sample_nonconstant_poly(rng, ab) for _ in range(rng.randint(1, 2))]
            gen = commutator_generator(m, n_shift, a, b, level=2)
            if n_shift >= 1:
                assert gen.entries[0].is_zero()
            for entry in gen.entries:
                assert abelianize(entry).is_zero()
                assert all(c % 2**m == 0 for _, c in entry.terms())


class TestBracketIdentity:
    def test_paper_case(self, ab, X, Y):
        assert check_bracket_identity(0, 1, [X], [Y], level=3)

    def test_equal_exponents(self, ab, X, Y):
        for m in range(3):
            assert check_bracket_identity(m, m, [X + Y], [X * Y], level=3)

    def test_random_sweep(self, ab, rng):
        for _ in range(20):
            n_shift = rng.randint(0, 2)
            m = rng.randint(0, n_shift)
            a = [sample_nonconstant_poly(rng, ab) for _ in range(rng.randint(1, 2))]
            b = [sample_nonconstant_poly(rng, ab) for _ in range(rng.randint(1, 2))]
            assert check_bracket_identity(m, n_shift, a, b, level=3)


class TestHMembership:
    def test_constructed_member(self, ab, X, Y):
        f = 3 * X**5 + X**4 + 2 * mono(ab, 0, 1, 0, 1)
        assert h_membership(f)

    def test_excluded_word(self, ab):
        assert not h_membership(mono(ab, 0, 1, 0, 1))

    def test_counterexample_value(self, ab):
        f = (
            -mono(ab, 0, 1, 0, 1)
            + mono(ab, 1, 0, 1, 0)
            - mono(ab, 0, 1, 1, 0)
            - mono(ab, 1, 0, 0, 1)
            + 2 * mono(ab, 0, 0, 1, 1)
        )
        assert not h_membership(f)

    def test_low_degree_rejected(self, X):
        assert not h_membership(X)

    def test_even_part_absorbed(self, ab, X, Y):
        assert h_membership(2 * (X * Y - Y * X))

    def test_requires_two_generators(self):
        ab3 = Alphabet(["X", "Y", "Z"])
        with pytest.raises(ValueError):
            h_membership(FreePoly.generator(ab3, "Z"))


class TestComponent1InH:
    def test_squares_bracket(self, ab, X, Y):
        assert check_component1_in_H(0, 0, [X], [Y])

    def test_shifted_always_even(self, ab, X, Y):
        assert check_component1_in_H(0, 1, [X + Y], [Y])
        assert check_component1_in_H(1, 1, [X], [X * Y])

    def test_random_sweep(self, ab, rng):
        for _ in range(30):
            n_shift = rng.randint(0, 1)
            m = rng.randint(0, n_shift)
            a = [sample_nonconstant_poly(rng, ab) for _ in range(rng.randint(1, 2))]
            b = [sample_nonconstant_poly(rng, ab) for _ in range(rng.randint(1, 2))]
            assert check_component1_in_H(m, n_shift, a, b)


class TestF2Span:
    def test_member_of_generator_list(self, ab, X, Y):
        gens = [abelianize(X * Y), abelianize(Y**2)]
        assert f2_span_membership(abelianize(X * Y), gens, 4)

    def test_empty_generators(self, ab, X):
        assert not f2_span_membership(abelianize(X), [], 4)

    def test_zero_target(self, ab):
        assert f2_span_membership(abelianize(FreePoly.zero(ab)), [], 4)

    def test_sum_membership(self, ab, X, Y):
        gens = [abelianize(X), abelianize(Y), abelianize(X + Y)]
        # dependent set: third = first + second
        assert f2_span_membership(abelianize(X + Y), gens[:2], 4)


class TestLemmaXYC:
    def test_target_outside_span(self, ab):
        assert check_lemma_xyc(ab)

    def test_control_xyxy_inside(self, ab):
        gens = square_class_generators(ab)
        target = abelianize(mono(ab, 0, 1, 0, 1))  # class of (XY)^2
        assert f2_span_membership(target, gens, 4)

    def test_control_x4_inside(self, ab):
        gens = square_class_generators(ab)
        target = abelianize(mono(ab, 0, 0, 0, 0))  # class of (X^2)^2
        assert f2_span_membership(target, gens, 4)

    def test_brute_force_oracle(self, ab):
        # independent oracle: enumerate all 2^7 GF(2) combinations of the
        # seven word-square classes and compare against the target directly
        from itertools import product

        gens = [g.reduce_mod(2) for g in square_class_generators(ab)]
        target = abelianize(mono(ab, 0, 0, 1, 1)).reduce_mod(2)
        reachable = False
        for picks in product([0, 1], repeat=len(gens)):
            total = sum(
                (g for g, pick in zip(gens, picks) if pick),
                abelianize(FreePoly.zero(ab)),
            )
            if total.reduce_mod(2) == target:
                reachable = True
                break
        assert not reachable
        assert check_lemma_xyc(ab) == (not reachable)
