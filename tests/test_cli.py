import json

import pytest

from ncwitt import Alphabet, abelianize, parse_poly
from ncwitt.cli import run


@pytest.fixture
def capture(capsys):
    def invoke(*argv):
        code = run(list(argv))
        captured = capsys.readouterr()
        return code, captured.out.strip(), captured.err.strip()

    return invoke


class TestGhostCommand:
    def test_paper_example(self, capture, ab):
        code, out, _ = capture("ghost", "--p", "2", "--level", "2", "XY-YX", "0")
        assert code == 0
        # component 1 equals the abelianized square of the commutator
        expected = abelianize(parse_poly("(XY-YX)^2", ab))
        assert str(expected) in out
        assert out.startswith("(0, ")

    def test_too_many_coordinates(self, capture):
        code, _, err = capture("ghost", "--level", "1", "X", "Y")
        assert code == 2
        assert "usage error" in err


class TestOmegaCommand:
    def test_level1_lift(self, capture, ab):
        code, out, _ = capture("omega", "--p", "2", "--level", "1", "X", "Y")
        assert code == 0
        entries = out.strip("()").split(", ")
        assert parse_poly(entries[0], ab) == parse_poly("X", ab)
        assert parse_poly(entries[1], ab) == parse_poly("X^2 + 2Y", ab)


class TestRmapCommand:
    def test_counterexample_coordinates(self, capture, ab):
        code, out, _ = capture("rmap", "--p", "2", "--level", "2", "XY-YX", "0")
        assert code == 0
        entries = out.strip("()").split(", ")
        assert parse_poly(entries[0], ab) == parse_poly("XY - YX", ab)
        assert parse_poly(entries[1], ab) == parse_poly("-XYXY + XXYY", ab)

    def test_non_commutator_input_fails(self, capture):
        code, _, err = capture("rmap", "--level", "2", "X")
        assert code == 1
        assert "error" in err


class TestAbelianizeCommand:
    def test_commutator(self, capture):
        code, out, _ = capture("abelianize", "XY - YX")
        assert code == 0
        assert out == "0"

    def test_distinct_classes(self, capture):
        code, out, _ = capture("abelianize", "XYYX")
        assert code == 0
        assert out == "[X^2Y^2]"


class TestHmemberCommand:
    def test_member(self, capture):
        code, out, _ = capture("hmember", "3X^5 + X^4 + 2XYXY")
        assert code == 0
        assert out == "true"

    def test_non_member(self, capture):
        code, out, _ = capture("hmember", "XYXY")
        assert code == 0
        assert out == "false"


class TestVerifyCommand:
    def test_single_check(self, capture):
        code, out, _ = capture("verify", "lemma-xyc")
        assert code == 0
        assert "[pass] lemma-xyc" in out

    def test_counterexample_json(self, capture):
        code, out, _ = capture(
            "verify", "counterexample", "--level", "3", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["command"] == "verify"
        assert payload["params"]["level"] == 3
        assert payload["report"]["status"] == "pass"
        checks = payload["report"]["checks"]
        assert checks[0]["check_id"] == "counterexample"

    def test_all(self, capture):
        code, out, _ = capture("verify", "--all", "--p", "2")
        assert code == 0
        assert "overall: pass" in out
        for check_id in (
            "wagen",
            "bracket-identity",
            "lemma-phi",
            "lemma-thelemma",
            "lemma-xyc",
            "omegar0",
            "counterexample",
            "commutative-sanity",
            "pin",
        ):
            assert f"[pass] {check_id}" in out

    def test_deterministic_under_seed(self, capture):
        _, out1, _ = capture("verify", "wagen", "--seed", "7", "--format", "json")
        _, out2, _ = capture("verify", "wagen", "--seed", "7", "--format", "json")
        assert out1 == out2

    def test_unknown_check_id(self, capture):
        code, _, err = capture("verify", "no-such-check")
        assert code == 1
        assert "unknown check ids" in err


class TestUsageErrors:
    @pytest.mark.parametrize("p", ["1", "4", "6"])
    def test_non_prime_p(self, capture, p):
        code, _, err = capture("ghost", "--p", p, "X")
        assert code == 2
        assert err.startswith("usage error:")

    @pytest.mark.parametrize("level", ["0", "-1"])
    def test_level_below_one(self, capture, level):
        code, _, err = capture("ghost", "--level", level, "X")
        assert code == 2
        assert err.startswith("usage error:")

    def test_omega_level_zero_is_valid(self, capture):
        # omega's level is the index of its last entry
        code, out, _ = capture("omega", "--level", "0", "X")
        assert code == 0
        assert out == "(X)"

    @pytest.mark.parametrize("alphabet", ["X,X", "X+,Y"])
    def test_bad_alphabet(self, capture, alphabet):
        code, _, err = capture("abelianize", "--alphabet", alphabet, "X")
        assert code == 2
        assert err.startswith("usage error:")

    def test_argparse_error_returns_two(self, capture):
        # text starting with '-' reads as an unknown flag unless passed after --
        code, _, err = capture("abelianize", "-XY")
        assert code == 2
        assert "the following arguments are required: poly" in err

    def test_help_returns_zero(self, capture):
        code, out, _ = capture("--help")
        assert code == 0
        assert "usage:" in out


class TestJsonSchema:
    def test_compute_schema(self, capture):
        code, out, _ = capture("ghost", "--format", "json", "X")
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"command", "params", "result"}
        assert set(payload["params"]) == {"p", "level", "alphabet", "seed"}

    def test_custom_alphabet(self, capture):
        code, out, _ = capture("abelianize", "--alphabet", "A,B", "AB - BA")
        assert code == 0
        assert out == "0"
