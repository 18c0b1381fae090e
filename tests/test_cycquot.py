import pytest

from ncwitt import (
    AbelPoly,
    FreePoly,
    NotDivisible,
    abelianize,
    commutator,
    divide_exact,
    in_commutator_subgroup,
    least_rotation,
    sigma0,
)
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
                assert abelianize(c.graded_component(d)).is_zero()


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
