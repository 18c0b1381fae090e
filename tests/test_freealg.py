from itertools import groupby

import pytest
from test_cdwitt import reduce_mod

from ncwitt import (
    Alphabet,
    AlphabetMismatch,
    COEFF_BIT_BUDGET,
    FreePoly,
    LETTER_BUDGET,
    MINUS_INFINITY,
    ResourceLimit,
    TERM_BUDGET,
    commutator,
    phi_map,
)
from ncwitt.freealg import squaring_work, words_within_degree
from ncwitt.verify import sample_poly


def groupby_format_word(w, alphabet):
    # independent oracle for format_word: one group per run of a letter
    if not w:
        return "1"
    parts = []
    for x, run in groupby(w):
        k = len(list(run))
        parts.append(alphabet.names[x] + ("" if k == 1 else f"^{k}"))
    return ("" if alphabet.single_char else "*").join(parts)


def mono(ab, *letters, coeff=1):
    return FreePoly.monomial(ab, tuple(letters), coeff)


class TestAlphabet:
    def test_order_and_index(self):
        ab = Alphabet(["X", "Y"])
        assert ab.index("X") == 0
        assert ab.index("Y") == 1

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            Alphabet(["X", "X"])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Alphabet([])


class TestAddition:
    def test_cancellation(self, ab, X, Y):
        assert (X * Y - Y * X) + Y * X == X * Y

    def test_identity(self, ab, X, Y):
        f = X * Y + 2 * Y
        assert f + FreePoly.zero(ab) == f

    def test_symmetry(self, X, Y):
        assert (X + Y) + (X - Y) == 2 * X

    def test_alphabet_mismatch(self, X):
        other = FreePoly.generator(Alphabet(["Z"]), "Z")
        with pytest.raises(AlphabetMismatch):
            X + other


class TestMultiplication:
    def test_unit(self, ab, X, Y):
        f = X * Y - Y * X
        assert FreePoly.one(ab) * f == f

    def test_two_by_two_expansion(self, ab, X, Y):
        # oracle: direct expansion XX - XY + YX - YY
        expected = mono(ab, 0, 0) - mono(ab, 0, 1) + mono(ab, 1, 0) - mono(ab, 1, 1)
        assert (X + Y) * (X - Y) == expected

    def test_commutator_square(self, ab, X, Y):
        # oracle: direct expansion of (XY - YX)^2
        expected = (
            mono(ab, 0, 1, 0, 1)
            - mono(ab, 0, 1, 1, 0)
            - mono(ab, 1, 0, 0, 1)
            + mono(ab, 1, 0, 1, 0)
        )
        f = X * Y - Y * X
        assert f * f == expected


class TestPower:
    def test_cube(self, ab, X):
        assert X**3 == mono(ab, 0, 0, 0)

    def test_square_of_sum(self, ab, X, Y):
        expected = mono(ab, 0, 0) + mono(ab, 0, 1) + mono(ab, 1, 0) + mono(ab, 1, 1)
        assert (X + Y) ** 2 == expected

    def test_zeroth_power(self, ab, X, Y):
        assert (X * Y - 3 * Y) ** 0 == FreePoly.one(ab)

    def test_negative_exponent_rejected(self, X):
        with pytest.raises(ValueError):
            X ** (-1)


class TestPowerGuard:
    def test_refused_past_budget(self, X, Y):
        assert TERM_BUDGET == 2**20
        with pytest.raises(ResourceLimit, match="2,097,152"):
            (X + Y) ** 21

    def test_one_letter_power_is_bounded_by_its_degree(self):
        ab = Alphabet(["T"])
        one_plus_t = FreePoly.one(ab) + FreePoly.generator(ab, "T")
        # 2^64 sequences of terms, but only the 65 words 1, T, ..., T^64
        assert words_within_degree(one_plus_t, 64) == 65
        assert len(one_plus_t**64) == 65

    def test_letter_budget_bounds_exponent_and_word_length(self, ab, X, Y):
        assert LETTER_BUDGET == 2**12
        assert (X**4096).degree == 4096
        with pytest.raises(ResourceLimit, match="4,097.*letter budget of 4,096"):
            X**4097
        # a degree-2 base reaches the budget at half the exponent
        with pytest.raises(ResourceLimit, match="4,098"):
            (X * Y) ** 2049
        # constants and zero have no letters, but the exponent is bounded too
        with pytest.raises(ResourceLimit, match="4,097"):
            FreePoly.constant(ab, 2) ** 4097
        with pytest.raises(ResourceLimit, match="4,097"):
            FreePoly.zero(ab) ** 4097

    def test_squaring_work_bounds_term_products(self):
        ab = Alphabet(["T"])
        one_plus_t = FreePoly.one(ab) + FreePoly.generator(ab, "T")
        # squares of 2, 3, 5, 9 and 17 terms
        assert squaring_work(one_plus_t, 16) == 4 + 9 + 25 + 81
        # 13 = 1101b: three squares, and two products into the result
        assert squaring_work(one_plus_t, 13) == (4 + 9 + 25) + (2 * 5 + 6 * 9)
        assert len(one_plus_t**512) == 513
        with pytest.raises(ResourceLimit, match="term products.*5,600,607"):
            one_plus_t**4096
        # (1+T)^2048 took 30 s of big-integer products
        with pytest.raises(ResourceLimit, match="term products.*1,402,206"):
            one_plus_t**2048

    def test_squaring_work_only_past_term_budget(self, monkeypatch, X, Y):
        # below TERM_BUDGET, terms^k bounds the products as well
        def refuse(f, n):
            raise AssertionError("squaring_work called")

        monkeypatch.setattr("ncwitt.freealg.squaring_work", refuse)
        assert len((X + Y) ** 12) == 2**12
        assert len((3 * X) ** 4096) == 1

    def test_coefficient_budget_bounds_power_coefficients(self, ab, X, Y):
        assert COEFF_BIT_BUDGET == 2**13
        # the sum of |c| of 5X has 3 bits: 2,730 * 3 = 8,190 is within
        # the budget, 2,731 * 3 = 8,193 is not
        assert (5 * X) ** 2730 == mono(ab, *[0] * 2730, coeff=5**2730)
        with pytest.raises(ResourceLimit, match="8,193 bits.*coefficient budget of 8,192 bits"):
            (5 * X) ** 2731
        # (9^999)^999 needs 999 times the 3,167 bits of 9^999
        nine = FreePoly.constant(ab, 9) ** 999
        with pytest.raises(ResourceLimit, match="3,163,833 bits"):
            nine**999
        # a sum of |c| of 1 keeps every coefficient at +-1
        assert ((X - Y) * (X - Y)) ** 2 == (X * X - X * Y - Y * X + Y * Y) ** 2

    def test_words_within_degree(self, ab, X, Y):
        # words of degree <= 6 over X, Y: 2^7 - 1
        assert words_within_degree(X * Y + 3 * Y, 3) == 127
        assert words_within_degree(3 * X**2, 5) == 11
        assert words_within_degree(FreePoly.constant(ab, 5), 9) == 1


class TestCommutator:
    def test_basic(self, X, Y):
        assert commutator(X, Y) == X * Y - Y * X

    def test_self_commutator(self, X, Y):
        f = X * Y + 2 * Y
        assert commutator(f, f).is_zero()

    def test_x_yxy(self, ab, X, Y):
        assert commutator(X, Y * X * Y) == mono(ab, 0, 1, 0, 1) - mono(ab, 1, 0, 1, 0)


class TestPhiMap:
    def test_wordwise_on_commutator(self, ab, X, Y):
        assert phi_map(X * Y - Y * X, 2) == mono(ab, 0, 1, 0, 1) - mono(ab, 1, 0, 1, 0)

    def test_wordwise_with_coefficients(self, ab, X, Y):
        assert phi_map(3 * X + Y, 2) == 3 * mono(ab, 0, 0) + mono(ab, 1, 1)

    def test_zero(self, ab):
        assert phi_map(FreePoly.zero(ab), 2).is_zero()

    def test_additive(self, ab, rng):
        for _ in range(10):
            f = sample_poly(rng, ab, 3)
            g = sample_poly(rng, ab, 3)
            assert phi_map(f + g, 2) == phi_map(f, 2) + phi_map(g, 2)


class TestReduceMod:
    # the reduction mod m that the H-membership oracle of test_cdwitt rests on

    def test_drops_even(self, ab, X, Y):
        f = 2 * FreePoly.monomial(ab, (0, 1, 0, 1)) + Y * X
        assert reduce_mod(f, 2) == Y * X

    def test_canonical_representative(self, X):
        assert reduce_mod(3 * X, 2) == X

    def test_negative_coefficient(self, ab):
        f = FreePoly.monomial(ab, (0, 1, 0, 1), -1)
        assert reduce_mod(f, 2) == FreePoly.monomial(ab, (0, 1, 0, 1), 1)


class TestDegreeAndAxioms:
    def test_zero_degree_sentinel(self, ab):
        assert FreePoly.zero(ab).degree == MINUS_INFINITY

    def test_degree_additivity(self, ab, rng):
        for _ in range(20):
            f = sample_poly(rng, ab, 4)
            g = sample_poly(rng, ab, 4)
            if f.is_zero() or g.is_zero():
                continue
            assert (f * g).degree == f.degree + g.degree

    def test_associativity(self, ab, rng):
        for _ in range(10):
            f, g, h = (sample_poly(rng, ab, 3, 4) for _ in range(3))
            assert (f * g) * h == f * (g * h)

    def test_distributivity(self, ab, rng):
        for _ in range(10):
            f, g, h = (sample_poly(rng, ab, 3, 4) for _ in range(3))
            assert f * (g + h) == f * g + f * h
            assert (g + h) * f == g * f + h * f
