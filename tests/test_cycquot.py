from itertools import product
from math import gcd

import pytest

from ncwitt import (
    AbelPoly,
    FreePoly,
    ResourceLimit,
    TERM_BUDGET,
    NotDivisible,
    abelianize,
    commutator,
    divide_exact,
    in_commutator_subgroup,
    least_rotation,
    necklace_count,
    parse_poly,
    sigma0,
    trace_power,
)
from ncwitt.freealg import words_within_degree
from ncwitt.verify import sample_poly


def brute_least_rotation(w):
    # independent oracle: build each rotation explicitly
    if not w:
        return w
    return min(w[i:] + w[:i] for i in range(len(w)))


class TestCircularClass:
    def test_yxxy(self):
        # rotations of YXXY: {YXXY, XXYY, XYYX, YYXX}; least is XXYY
        assert least_rotation((1, 0, 0, 1)) == (0, 0, 1, 1)

    def test_periodic(self):
        # rotations of YXYX: {YXYX, XYXY}
        assert least_rotation((1, 0, 1, 0)) == (0, 1, 0, 1)

    def test_single_letter(self):
        assert least_rotation((0,)) == (0,)

    def test_empty(self):
        assert least_rotation(()) == ()

    def test_against_brute_force(self, rng):
        for _ in range(50):
            w = tuple(rng.randrange(2) for _ in range(rng.randint(0, 8)))
            assert least_rotation(w) == brute_least_rotation(w)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_every_short_word_against_brute_force(self, k):
        # all 90,631 words of length <= 10 over at most three letters
        for n in range(11):
            for w in product(range(k), repeat=n):
                assert least_rotation(w) == brute_least_rotation(w)


def necklace_formula(k, d):
    # (1/d) * sum over e | d of phi(e) * k^(d/e)
    def phi(e):
        return sum(1 for j in range(1, e + 1) if gcd(j, e) == 1)

    return sum(phi(e) * k ** (d // e) for e in range(1, d + 1) if d % e == 0) // d


class TestNecklaceCount:
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("d", range(1, 9))
    def test_classes_match_necklace_formula(self, k, d):
        classes = {least_rotation(w) for w in product(range(k), repeat=d)}
        assert len(classes) == necklace_formula(k, d) == necklace_count(k, d)
        assert all(least_rotation(c) == c for c in classes)

    def test_level_bounds(self):
        # the trace powers that p = 2 level 5 takes and level 6 is refused
        assert necklace_count(2, 16) == 4116
        assert necklace_count(2, 32) == 134_219_796


class TestTracePower:
    def test_necklace_path_refuses_long_words(self, X, Y):
        # 99,858 necklaces are within the term budget and fewer than the
        # 2^21 sequences of terms, so the necklace path is chosen; its
        # words would have 21 * 200 letters
        assert necklace_count(2, 21) <= TERM_BUDGET < 2**21
        with pytest.raises(ResourceLimit, match="4,200.*letter budget"):
            trace_power(X**200 + Y, 21)

    def test_necklace_path_refuses_large_coefficients(self, X, Y):
        # the necklace path as above, but 21 times the 401 bits of the
        # coefficient sum 2^400 + 1 exceed the coefficient budget
        assert necklace_count(2, 21) <= TERM_BUDGET < 2**21
        with pytest.raises(ResourceLimit, match="8,421 bits.*coefficient budget of 8,192"):
            trace_power(2**400 * X + Y, 21)

    def test_necklace_path_matches_expanded_power(self, ab, rng):
        # k >= 3 terms of mixed length, where the necklaces are fewer than
        # the words, so the necklace enumeration is what runs
        checked = 0
        for _ in range(12):
            f = FreePoly.zero(ab)
            while len(f) < 3:
                f = sample_poly(rng, ab, max_degree=3, max_terms=5)
            for n in range(2, 9):
                k = len(f)
                if k**n > 20_000:
                    break
                assert necklace_count(k, n) < min(k**n, words_within_degree(f, n))
                assert trace_power(f, n) == abelianize(f**n)
                checked += 1
        assert checked >= 30

    def test_mixed_lengths(self, ab):
        f = parse_poly("X^2Y - 3Y + 2XYXY - YX^2", ab)
        for n in range(9):
            assert trace_power(f, n) == abelianize(f**n)

    def test_commutator_sixteenth_power(self, X, Y):
        # level 5's largest trace: 4,115 classes from 4,116 necklaces; the
        # expanded oracle runs in tests/test_rmap.py's level-5 ghost test
        assert len(trace_power(commutator(X, Y), 16)) == 4115

    def test_small_exponents(self, ab, X, Y):
        f = X + 2 * Y
        assert trace_power(f, 0) == AbelPoly(ab, {(): 1})
        assert trace_power(f, 1) == abelianize(f)
        assert trace_power(FreePoly.zero(ab), 3).is_zero()
        with pytest.raises(ValueError):
            trace_power(f, -1)


class TestAbelianize:
    def test_commutator_dies(self, X, Y):
        assert abelianize(X * Y - Y * X).is_zero()

    def test_single_word(self, ab):
        f = FreePoly.monomial(ab, (0, 1, 1, 0))  # XYYX
        assert abelianize(f) == AbelPoly(ab, {(0, 0, 1, 1): 1})

    def test_distinct_classes(self, ab):
        f = FreePoly.monomial(ab, (0, 0, 1, 1)) + FreePoly.monomial(ab, (0, 1, 0, 1))
        expected = AbelPoly(ab, {(0, 0, 1, 1): 1, (0, 1, 0, 1): 1})
        assert abelianize(f) == expected

    def test_trace_like(self, ab, rng):
        for _ in range(15):
            f = sample_poly(rng, ab, 3)
            g = sample_poly(rng, ab, 3)
            assert abelianize(f * g) == abelianize(g * f)
            assert abelianize(commutator(f, g)).is_zero()

    def test_graded_commutators(self, ab, rng):
        # [A,A] is a graded subgroup: each homogeneous part of a commutator dies
        for _ in range(10):
            c = commutator(sample_poly(rng, ab, 2), sample_poly(rng, ab, 2))
            for d in range(5):
                part = FreePoly(ab, {w: k for w, k in c.terms() if len(w) == d})
                assert abelianize(part).is_zero()


class TestSigma0:
    def test_canonical_representative(self, ab):
        alpha = AbelPoly(ab, {(0, 0, 1, 1): 1})
        assert sigma0(alpha) == FreePoly.monomial(ab, (0, 0, 1, 1))

    def test_paper_section_choice(self, ab):
        alpha = AbelPoly(ab, {(0, 1, 0, 1): 1, (0, 0, 1, 1): -1})
        expected = FreePoly.monomial(ab, (0, 1, 0, 1)) - FreePoly.monomial(ab, (0, 0, 1, 1))
        assert sigma0(alpha) == expected

    def test_zero(self, ab):
        assert sigma0(AbelPoly.zero(ab)).is_zero()

    def test_section_property(self, ab, rng):
        for _ in range(20):
            alpha = abelianize(sample_poly(rng, ab, 4, 5))
            assert abelianize(sigma0(alpha)) == alpha


class TestDivideExact:
    def test_halving(self, ab):
        alpha = AbelPoly(ab, {(0, 1, 0, 1): 2, (0, 0, 1, 1): -2})
        expected = AbelPoly(ab, {(0, 1, 0, 1): 1, (0, 0, 1, 1): -1})
        assert divide_exact(alpha, 2) == expected

    def test_zero(self, ab):
        assert divide_exact(AbelPoly.zero(ab), 4).is_zero()

    def test_odd_coefficient(self, ab):
        alpha = AbelPoly(ab, {(0,): 1})
        with pytest.raises(NotDivisible):
            divide_exact(alpha, 2)

    def test_inverse_of_scaling(self, ab, rng):
        for d in (2, 3, 8):
            alpha = abelianize(sample_poly(rng, ab, 3))
            assert divide_exact(d * alpha, d) == alpha


class TestCommutatorMembership:
    def test_basic_bracket(self, X, Y):
        assert in_commutator_subgroup(X * Y - Y * X)

    def test_same_class_difference(self, ab):
        f = FreePoly.monomial(ab, (0, 1, 0, 1)) - FreePoly.monomial(ab, (1, 0, 1, 0))
        assert in_commutator_subgroup(f)

    def test_distinct_classes(self, ab):
        f = FreePoly.monomial(ab, (0, 0, 1, 1)) - FreePoly.monomial(ab, (0, 1, 0, 1))
        assert not in_commutator_subgroup(f)


class TestSquaringAdditivity:
    def test_mod_two(self, ab, rng):
        # (f+g)^2 - f^2 - g^2 = fg + gf, even in the abelianization
        for _ in range(15):
            f = sample_poly(rng, ab, 2)
            g = sample_poly(rng, ab, 2)
            diff = abelianize((f + g) ** 2 - f**2 - g**2)
            assert all(c % 2 == 0 for _, c in diff.terms())
