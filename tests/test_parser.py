import random
import re
import tracemalloc
from pathlib import Path

import parser_oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncwitt import Alphabet, FreePoly, ParseError, ResourceLimit, UnknownGenerator, parse_poly
from ncwitt.verify import sample_poly

# r_4 of `ncwitt rmap --level 5 XY-YX`: 4,115 terms of degree 32
GOLDEN_R4 = (
    (Path(__file__).parent / "golden" / "rmap_l5.txt").read_text().strip()[1:-1].split(", ")[-1]
)


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

    def test_factors_after_parens_keep_their_order(self, ab, X, Y):
        assert parse_poly("2X(X+Y)^2Y 3 - -Y(X)X", ab) == 6 * X * (X + Y) ** 2 * Y + Y * X * X

    def test_exponent_binds_to_last_letter_of_a_run(self, ab, X, Y):
        assert parse_poly("XY^3X^0", ab) == X * Y**3

    def test_plain_terms_take_no_ring_product(self, ab, monkeypatch):
        calls = []

        def counting(f, g, product=FreePoly.__mul__):
            calls.append(1)
            return product(f, g)

        monkeypatch.setattr(FreePoly, "__mul__", counting)
        f = parse_poly("-X^2YXY^2 + 3XYXY - 2^3Y^2X*Y + 7", ab)
        assert not calls
        assert len(f) == 4
        parse_poly("X(X+Y)", ab)
        assert calls


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

    def test_non_decimal_digit_is_a_stray_character(self, ab):
        # str.isdigit() accepts '²', but int() does not
        with pytest.raises(ParseError, match="unexpected character '²'") as err:
            parse_poly("X^²", ab)
        assert err.value.position == 2

    @pytest.mark.parametrize("text", ["X^4097", "XY^99999999999", "2^4097", "(X)^4097"])
    def test_exponent_past_letter_budget(self, ab, text):
        with pytest.raises(ResourceLimit, match="letter budget of 4,096"):
            parse_poly(text, ab)


    @pytest.mark.parametrize(
        "text, bits",
        [
            ("99999^999", "16,983"),
            ("7" * 5000, "16,610"),
            ("((9^999)^999)^9", "3,163,833"),
            ("3^4000 3^4000", "12,680"),
            ("(3^4000)(3^4000)", "12,680"),
            ("(3^4000 X) 3^4000", "12,680"),
            ("(3^4000)" * 2000, "12,680"),
        ],
    )
    def test_coefficient_past_bit_budget(self, ab, text, bits):
        with pytest.raises(ResourceLimit, match=f"{bits} bits.*coefficient budget of 8,192 bits"):
            parse_poly(text, ab)

    @pytest.mark.parametrize("text", ["7" * 2466 + "X", "3^4000 2^1800 Y", "(3^2500 X)(3^2500 Y)"])
    def test_coefficient_within_bit_budget_prints_and_parses_back(self, ab, text):
        f = parse_poly(text, ab)
        assert parse_poly(str(f), ab) == f


class TestWordBudget:
    # the letter budget bounds the word of each term, however it is written

    @pytest.mark.parametrize(
        "text",
        ["X^4096", "X^4095Y", "X^2048X^2048", "X^2048 * X^2048", "(X^2048)(X^2048)",
         "X^4000(X^96)", "(X^4095)Y", "(X^2048)^2"],
    )
    def test_at_the_budget(self, ab, text):
        assert parse_poly(text, ab).degree == 4096

    def test_zero_factor_at_the_budget(self, ab):
        assert parse_poly("(0)X^4096", ab).is_zero()

    @pytest.mark.parametrize(
        "text",
        ["X^4096Y", "X^2048X^2049", "X^2048 * X^2049", "(X^2048)(X^2049)", "X^4000(X^97)",
         "(X^4096)Y", "Y(X^4096)", "(0)X^4096X", "XY^4096"],
    )
    def test_past_the_budget(self, ab, text):
        message = "^a term of 4,097 letters, above the letter budget of 4,096$"
        with pytest.raises(ResourceLimit, match=message):
            parse_poly(text, ab)

    def test_refused_before_the_word_is_built(self, ab):
        # 384 characters that would spell 262,144 letters
        with pytest.raises(ResourceLimit, match="^a term of 8,192 letters"):
            parse_poly("X^4096" * 64, ab)


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


# -- against the parser whose tokens carry no exponent ------------------------

ORACLE_ALPHABETS = [
    Alphabet(names) for names in (["X", "Y"], ["X", "Y", "Z"], ["T"], ["Ab", "Cd", "E"], ["Ab", "X"])
]
# Texts are drawn from the alphabet's own names and the grammar's
# characters, with now and then a stray piece: a letter or name outside the
# alphabet, a digit that is not decimal ('²') or not ASCII ('٣'), a stray
# character or '_'.  '^' is listed twice, so that exponents are common.
GRAMMAR_PIECES = ("0", "1", "2", "3", "12", "+", "-", "*", "^", "^", "(", ")", " ", "\t")
STRAY_PIECES = ("A", "b", "Z", "T", "Cd", "²", "٣", "@", "_")


def random_text(rng, alphabet, length):
    pieces = alphabet.names + GRAMMAR_PIECES
    return "".join(
        rng.choice(STRAY_PIECES) if rng.random() < 0.03 else rng.choice(pieces) for _ in range(length)
    )


def outcome(parse, text, alphabet):
    """The parsed polynomial, or the exception's type, message and position."""
    try:
        return parse(text, alphabet)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "position", None)


def assert_agrees_with_oracle(text, alphabet):
    expected = outcome(parser_oracle.parse_poly, text, alphabet)
    assert outcome(parse_poly, text, alphabet) == expected, (text, alphabet)


class TestAgainstOracle:
    @pytest.mark.parametrize(
        "text",
        ["X^", "X^Y", "X^2^3", "2^3^4", "(X)^", ")^2", "X ^ 2", "X^²", "(X+Y",
         "(X)^2^3", "X^^2", "X^ \t3Y", "X^٣", "-(X-Y)^2X", "X^4096X", "X^4096X@",
         "(X^4096)(Y)", "X^4097Y^5000", "(X^2048)(X^2049)Q", "XY^0", "X^0Q", "Ab^0Q"],
    )
    def test_listed_texts(self, text):
        for alphabet in ORACLE_ALPHABETS:
            assert_agrees_with_oracle(text, alphabet)

    @pytest.mark.parametrize(
        "text",
        ["X^" + "9" * 4301, "X^" + "0" * 4301 + "9" * 4301, "X^" + "0" * 5000 + "3",
         "X ^ " + "0" * 4400 + "2", "XY^" + "7" * 5000 + "X", "(X)^" + "9" * 5000,
         "(X+Y)^" + "0" * 5000 + "2", "(X)^" + "0" * 300 + "9" * 4301, "2^" + "9" * 5000,
         "2^" + "0" * 5000 + "3", "9" * 4301, "0" * 4301 + "7", "9" * 5000 + "X",
         "X^" + "9" * 4301 + "@", "Ab^" + "9" * 4301, "X^" + "9" * 20, "(XY)^" + "9" * 21],
        ids=lambda text: re.sub(r"(\d)\1+", lambda m: f"{m[1]}{{{len(m[0])}}}", text),
    )
    def test_long_digit_runs(self, text):
        # Python's int() refuses more than 4,300 digits; the parser's own
        # errors, or a value, come out instead
        for alphabet in ORACLE_ALPHABETS:
            assert_agrees_with_oracle(text, alphabet)
            result = outcome(parse_poly, text, alphabet)
            assert isinstance(result, FreePoly) or result[0] in (
                ParseError, UnknownGenerator, ResourceLimit
            ), (text, alphabet, result)

    @pytest.mark.parametrize(
        "text, letters",
        [
            # every piece of the long term was cached by the term before it
            ("XY^2 + " + "XY^2" * 1366, 4098),
            # the crossing piece is the first YX^2
            ("XY^2 - " + "XY^2" * 1365 + "YX^2", 4098),
            ("XY^2 + " + "XY^2" * 1365 + "X^2", 4097),
            # after a parenthesised factor, and between two
            ("XY^2 + (X^98)" + "XY^2" * 1333, 4097),
            ("XY^2 + (X^98)" + "XY^2" * 1333 + "(Y)", 4097),
            ("XY^2 + 3(X^49 - 2)^2" + "XY^2" * 1333 + "X", 4097),
        ],
        ids=["cached", "new YX^2", "new X^2", "after (X^98)", "between parens", "after a power"],
    )
    def test_word_budget_through_cached_pieces(self, text, letters):
        ab = Alphabet(["X", "Y"])
        assert_agrees_with_oracle(text, ab)
        with pytest.raises(ResourceLimit, match=f"^a term of {letters:,} letters,"):
            parse_poly(text, ab)

    def test_seeded_sweep(self):
        rng = random.Random(2017)
        valid = 0
        for _ in range(50_000):
            alphabet = rng.choice(ORACLE_ALPHABETS)
            text = random_text(rng, alphabet, rng.randint(0, 14))
            expected = outcome(parser_oracle.parse_poly, text, alphabet)
            assert outcome(parse_poly, text, alphabet) == expected, (text, alphabet)
            valid += isinstance(expected, FreePoly)
        # the sweep reaches values as well as errors
        assert valid > 2_000

    @settings(max_examples=400, deadline=None)
    @given(st.sampled_from(ORACLE_ALPHABETS), st.randoms(use_true_random=False), st.integers(0, 16))
    def test_property(self, alphabet, rng, length):
        assert_agrees_with_oracle(random_text(rng, alphabet, length), alphabet)

    def test_rmap_output(self):
        assert_agrees_with_oracle(GOLDEN_R4, Alphabet(["X", "Y"]))

    def test_formatted_polynomials_respaced(self):
        rng = random.Random(3401)
        for _ in range(300):
            alphabet = rng.choice(ORACLE_ALPHABETS)
            f = sample_poly(rng, alphabet, 8, 8, coeff_bound=200)
            text = respace(rng, str(f), alphabet)
            assert parse_poly(text, alphabet) == f, text
            assert_agrees_with_oracle(text, alphabet)

    def test_sums_of_products_of_long_names(self):
        # juxtaposed names (AbCd, Ab Cd, 2Ab) are refused, at the same place
        rng = random.Random(3402)
        alphabet = Alphabet(["Ab", "Cd", "E"])
        valid = 0
        for _ in range(1000):
            products = [long_name_product(rng) for _ in range(rng.randint(1, 6))]
            text = rng.choice(["", "-"]) + " + ".join(products)
            expected = outcome(parser_oracle.parse_poly, text, alphabet)
            assert outcome(parse_poly, text, alphabet) == expected, text
            valid += isinstance(expected, FreePoly)
        assert 100 < valid < 900


def respace(rng, text, alphabet):
    """text with whitespace around each '^' and '*' and, over single-character
    names, a '*' or whitespace or nothing before each letter that follows a
    value."""
    def gap(choices):
        return lambda m: rng.choice(choices) + m[0].strip() + rng.choice(choices)

    text = re.sub(r"\s*[*^]\s*", gap(["", " ", "\t"]), text)
    if alphabet.single_char:
        text = re.sub(r"(?<=\w)(?=[^\W\d])", lambda m: rng.choice(["", "", "*", " * ", " "]), text)
    return text


def long_name_product(rng):
    factors = [
        rng.choice(["Ab", "Cd", "E", "2", "13"]) + rng.choice(["", "", "^2", " ^ 3"])
        for _ in range(rng.randint(1, 6))
    ]
    return factors[0] + "".join(rng.choice(["*"] * 12 + [" * ", "", " "]) + f for f in factors[1:])


def test_parse_keeps_no_copy_per_token():
    # a list of tokens would cost several times the polynomial it spells
    ab = Alphabet(["X", "Y"])
    parse_poly(GOLDEN_R4, ab)  # compiles the patterns once
    tracemalloc.start()
    try:
        f = parse_poly(GOLDEN_R4, ab)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(f) == 4115
    assert peak <= 2 * retained


def test_parse_of_cancelling_terms_keeps_no_word_per_term():
    # each term's word is dropped once it is added, and the kept pieces are
    # short: the peak stays near one word of LETTER_BUDGET letters (32 KB)
    ab = Alphabet(["X", "Y"])
    text = "0" + "".join(f"+X^{n}-X^{n}" for n in range(4096, 96, -1))
    parse_poly("X", ab)  # compiles the patterns once
    tracemalloc.start()
    try:
        f = parse_poly(text, ab)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(text) > 50_000 and f == FreePoly.zero(ab)
    assert peak < 1_000_000
