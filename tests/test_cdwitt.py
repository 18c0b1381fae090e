import random
from itertools import product

import pytest
from omega_oracle import omega_as_teichmuller_sum

from ncwitt import (
    AbelPoly,
    Alphabet,
    CoordinateTuple,
    FreePoly,
    WittContext,
    XVector,
    abelianize,
    check_bracket_identity,
    check_lemma_xyc,
    commutator,
    commutator_generator,
    f2_span_membership,
    ghost_map,
    h_membership,
    omega_map,
    verschiebung,
    x_abelianize,
    x_teichmuller,
)
from ncwitt.cdwitt import square_class_generators
from ncwitt.verify import sample_nonconstant_poly, sample_poly


@pytest.fixture
def ctx3(ab):
    return WittContext(ab, 2, 3)


def reduce_mod(f, m):
    # f with each coefficient replaced by its representative in [0, m)
    return type(f)(f.alphabet, {w: c % m for w, c in f._terms.items()})


def h_membership_by_reduce_mod(f):
    # the definition: after reducing mod 2, no term of degree <= 3 survives
    # and no surviving degree-4 term is XYXY or YXYX
    reduced = reduce_mod(f, 2)
    return all(len(w) >= 4 and w not in ((0, 1, 0, 1), (1, 0, 1, 0)) for w, _ in reduced.terms())


def brute_f2_span_membership(target, generators, degree_bound):
    # the definition: some subset of the generators sums to target mod 2,
    # below the bound; each class is the set of its words of degree <=
    # degree_bound with an odd coefficient
    assert len(generators) <= 8

    def support(poly):
        return frozenset(w for w, c in poly.terms() if c % 2 and len(w) <= degree_bound)

    goal = support(target)
    supports = [support(g) for g in generators]
    for picks in product([False, True], repeat=len(supports)):
        total = frozenset()
        for s, pick in zip(supports, picks):
            if pick:
                total ^= s
        if total == goal:
            return True
    return False


def random_class(rng, alphabet, max_degree=6):
    # even, odd and negative coefficients; some terms cancel against a
    # rotation of their word, which has the same class
    total = FreePoly.zero(alphabet)
    for _ in range(rng.randint(0, 4)):
        w = tuple(rng.randrange(len(alphabet)) for _ in range(rng.randint(0, max_degree)))
        c = rng.choice([-4, -3, -2, -1, 1, 2, 3, 4])
        total = total + FreePoly.monomial(alphabet, w, c)
        if rng.random() < 0.3:
            k = rng.randint(0, len(w))
            total = total - FreePoly.monomial(alphabet, w[k:] + w[:k], c)
    return abelianize(total)


def span_target(rng, alphabet, generators, degree_bound, kind):
    """A zero target, a random class, or the sum of a subset of the
    generators plus an even class and an odd term above the bound."""
    if kind == "zero":
        return AbelPoly.zero(alphabet)
    if kind == "random":
        return random_class(rng, alphabet)
    total = 2 * random_class(rng, alphabet)
    for g in generators:
        if rng.random() < 0.5:
            total = total + g
    high = tuple(rng.randrange(len(alphabet)) for _ in range(degree_bound + 1 + rng.randint(0, 1)))
    return total + abelianize(FreePoly.monomial(alphabet, high, rng.choice([-3, 1, 5])))


def mono(ab, *letters, coeff=1):
    return FreePoly.monomial(ab, tuple(letters), coeff)


class TestXVector:
    @pytest.mark.parametrize("p", [1, 4, 6])
    def test_rejects_non_prime(self, ab, p):
        with pytest.raises(ValueError, match="prime"):
            XVector(WittContext(ab, p, 1), (FreePoly.zero(ab),))


class TestTeichmuller:
    def test_zero(self, ab):
        assert x_teichmuller(WittContext(ab, 2, 4), FreePoly.zero(ab)).is_zero()

    def test_one(self, ab):
        t = x_teichmuller(WittContext(ab, 2, 4), FreePoly.one(ab))
        assert all(e == FreePoly.one(ab) for e in t.entries)

    def test_generator(self, ab, X):
        t = x_teichmuller(WittContext(ab, 2, 3), X)
        assert t.entries == (X, X**2, X**4)


class TestVerschiebung:
    def test_zero(self, ab, ctx3):
        assert verschiebung(XVector.of(ctx3)).is_zero()

    def test_shift_and_scale(self, ab, ctx3):
        ones = x_teichmuller(ctx3, FreePoly.one(ab))
        v = verschiebung(ones)
        two = FreePoly.constant(ab, 2)
        assert v.entries == (FreePoly.zero(ab), two, two)

    def test_double_shift(self, ab, ctx3, X):
        v2 = verschiebung(verschiebung(x_teichmuller(ctx3, X)))
        assert v2.entries == (FreePoly.zero(ab), FreePoly.zero(ab), 4 * X)


class TestRingOperations:
    def test_teichmuller_product(self, ab, ctx3, X, Y):
        prod = x_teichmuller(ctx3, X) * x_teichmuller(ctx3, Y)
        assert prod.entries == (X * Y, X**2 * Y**2, X**4 * Y**4)

    def test_one_is_unit(self, ab, ctx3, X, Y, rng):
        one = x_teichmuller(ctx3, FreePoly.one(ab))
        x = XVector(ctx3, tuple(sample_poly(rng, ab, 2) for _ in range(3)))
        assert one * x == x

    def test_v_product_rule(self, ab, ctx3, X, Y):
        # V(x) V(y) = p V(xy) on Teichmuller lifts
        lhs = verschiebung(x_teichmuller(ctx3, X)) * verschiebung(x_teichmuller(ctx3, Y))
        assert lhs.entries == (FreePoly.zero(ab), 4 * X * Y, 4 * X**2 * Y**2)
        rhs = verschiebung(x_teichmuller(ctx3, X) * x_teichmuller(ctx3, Y)) * 2
        assert lhs == rhs

    def test_associativity_distributivity(self, ab, ctx3, rng):
        for _ in range(10):
            x, y, z = (
                XVector(ctx3, tuple(sample_poly(rng, ab, 2) for _ in range(3)))
                for _ in range(3)
            )
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z


class TestOmegaMap:
    def test_teichmuller_case(self, ab, X):
        ctx = WittContext(ab, 2, 3)
        assert omega_map(CoordinateTuple.of(ctx, [X])) == x_teichmuller(ctx, X)

    def test_verschiebung_case(self, ab, X):
        ctx = WittContext(ab, 2, 3)
        coords = CoordinateTuple.of(ctx, [FreePoly.zero(ab), X])
        assert omega_map(coords) == verschiebung(x_teichmuller(ctx, X))

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
        assert x_abelianize(omega_map(coords)) == ghost_map(coords)

    def test_teichmuller(self, ab, X):
        g = x_abelianize(x_teichmuller(WittContext(ab, 2, 3), X))
        assert g.entries == tuple(abelianize(X ** (2**i)) for i in range(3))

    def test_commutator_generator_dies(self, ab, X, Y):
        gen = commutator_generator(0, 0, [X], [Y], level=2)
        assert x_abelianize(gen).is_zero()

    def test_random_sweep(self, ab, rng):
        for _ in range(20):
            n = rng.randint(1, 3)
            ctx = WittContext(ab, 2, n)
            coords = CoordinateTuple.of(ctx, [sample_poly(rng, ab, 2) for _ in range(n)])
            assert x_abelianize(omega_map(coords)) == ghost_map(coords)


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
        assert h_membership(commutator_generator(0, 0, [X], [Y], level=1, p=2).entries[1])

    def test_shifted_always_even(self, ab, X, Y):
        assert h_membership(commutator_generator(0, 1, [X + Y], [Y], level=1, p=2).entries[1])
        assert h_membership(commutator_generator(1, 1, [X], [X * Y], level=1, p=2).entries[1])

    def test_random_sweep(self, ab, rng):
        for _ in range(30):
            n_shift = rng.randint(0, 1)
            m = rng.randint(0, n_shift)
            a = [sample_nonconstant_poly(rng, ab) for _ in range(rng.randint(1, 2))]
            b = [sample_nonconstant_poly(rng, ab) for _ in range(rng.randint(1, 2))]
            assert h_membership(commutator_generator(m, n_shift, a, b, level=1, p=2).entries[1])


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


class TestF2SpanOracle:
    """f2_span_membership against brute force over every subset of at most
    eight generators, over {X, Y} and {X, Y, Z} at degree bounds 0 to 5."""

    ALPHABETS = (Alphabet(["X", "Y"]), Alphabet(["X", "Y", "Z"]))

    def test_seeded_sweep(self):
        rng = random.Random(1717)
        verdicts = {True: 0, False: 0}
        for case in range(600):
            alphabet = self.ALPHABETS[case % 2]
            bound = rng.randint(0, 5)
            gens = [random_class(rng, alphabet) for _ in range(rng.randint(0, 8))]
            kind = rng.choice(["zero", "random", "sum"])
            target = span_target(rng, alphabet, gens, bound, kind)
            verdict = f2_span_membership(target, gens, bound)
            assert verdict == brute_f2_span_membership(target, gens, bound)
            if kind != "random":
                assert verdict
            shuffled = gens[:]
            rng.shuffle(shuffled)
            assert f2_span_membership(target, shuffled, bound) == verdict
            verdicts[verdict] += 1
        # both verdicts occur often, so the oracle is not compared on one answer
        assert min(verdicts.values()) >= 20

    @pytest.mark.parametrize("bound", range(6))
    def test_degree_bound_edge(self, bound):
        for alphabet in self.ALPHABETS:
            assert f2_span_membership(AbelPoly.zero(alphabet), [], bound)
            # a term above the bound is ignored, one at the bound is not
            above = abelianize(FreePoly.monomial(alphabet, (0,) * (bound + 1)))
            at = abelianize(FreePoly.monomial(alphabet, (1,) * bound))
            assert f2_span_membership(above, [], bound)
            assert not f2_span_membership(at, [], bound)
            assert f2_span_membership(2 * at - 4 * above, [], bound)


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

        gens = [reduce_mod(g, 2) for g in square_class_generators(ab)]
        target = reduce_mod(abelianize(mono(ab, 0, 0, 1, 1)), 2)
        reachable = False
        for picks in product([0, 1], repeat=len(gens)):
            total = sum(
                (g for g, pick in zip(gens, picks) if pick),
                abelianize(FreePoly.zero(ab)),
            )
            if reduce_mod(total, 2) == target:
                reachable = True
                break
        assert not reachable
        assert check_lemma_xyc(ab) == (not reachable)
