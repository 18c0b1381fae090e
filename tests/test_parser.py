import pytest

from ncwitt import Alphabet, FreePoly, ParseError, UnknownGenerator, parse_poly
from ncwitt.verify import sample_poly


class TestParsing:
    def test_explicit_products(self, ab, X, Y):
        assert parse_poly("X*Y - Y*X", ab) == X * Y - Y * X

    def test_parenthesized_power(self, ab, X, Y):
        assert parse_poly("(X+Y)^2", ab) == (X + Y) ** 2

    def test_juxtaposition(self, ab, X, Y):
        expected = -(X * Y * X * Y) + 2 * X * X * Y * Y
        assert parse_poly("-XYXY + 2XXYY", ab) == expected

    def test_run_exponents(self, ab, X, Y):
        assert parse_poly("X^2Y^2", ab) == X * X * Y * Y

    def test_integer_literal(self, ab):
        assert parse_poly("7", ab) == FreePoly.constant(ab, 7)

    def test_unary_minus_binds_product(self, ab, X, Y):
        assert parse_poly("-2XY", ab) == -2 * X * Y

    def test_whitespace_insensitive(self, ab, X, Y):
        assert parse_poly("  X  * Y-Y*X ", ab) == parse_poly("XY-YX", ab)

    def test_nested_parens(self, ab, X, Y):
        assert parse_poly("((X+Y)*(X-Y))^2", ab) == ((X + Y) * (X - Y)) ** 2


class TestErrors:
    def test_unknown_generator(self, ab):
        with pytest.raises(UnknownGenerator):
            parse_poly("X + Q", ab)

    def test_syntax_error_position(self, ab):
        with pytest.raises(ParseError) as err:
            parse_poly("X + ", ab)
        assert err.value.position == 4

    def test_unbalanced_paren(self, ab):
        with pytest.raises(ParseError):
            parse_poly("(X + Y", ab)

    def test_bad_exponent(self, ab):
        with pytest.raises(ParseError):
            parse_poly("X^Y", ab)

    def test_stray_character(self, ab):
        with pytest.raises(ParseError):
            parse_poly("X @ Y", ab)


class TestMultiCharAlphabet:
    def test_requires_star(self):
        ab = Alphabet(["Ab", "Cd"])
        f = parse_poly("Ab*Cd - Cd*Ab", ab)
        a = FreePoly.generator(ab, "Ab")
        c = FreePoly.generator(ab, "Cd")
        assert f == a * c - c * a

    def test_rejects_run(self):
        ab = Alphabet(["Ab", "Cd"])
        with pytest.raises(UnknownGenerator):
            parse_poly("AbCd", ab)

    def test_round_trip(self, rng):
        ab = Alphabet(["Ab", "Cd"])
        for _ in range(20):
            f = sample_poly(rng, ab, 3, 4)
            assert parse_poly(str(f), ab) == f


class TestFormatting:
    def test_zero(self, ab):
        assert str(FreePoly.zero(ab)) == "0"

    def test_commutator(self, ab, X, Y):
        assert str(X * Y - Y * X) == "XY - YX"

    def test_coefficient_one_suppressed(self, ab, X):
        assert str(X) == "X"
        assert str(-X) == "-X"

    def test_constant_term(self, ab, X):
        assert str(X + FreePoly.one(ab)) == "1 + X"

    def test_run_lengths(self, ab, X, Y):
        assert str(2 * X * X * Y * Y) == "2X^2Y^2"

    def test_round_trip_random(self, ab, rng):
        for _ in range(50):
            f = sample_poly(rng, ab, 4, 5, coeff_bound=9)
            assert parse_poly(str(f), ab) == f

    def test_format_parse_idempotent(self, ab, rng):
        for _ in range(20):
            f = sample_poly(rng, ab, 3, 4)
            s = str(f)
            assert str(parse_poly(s, ab)) == s
