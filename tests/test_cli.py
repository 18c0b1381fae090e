import argparse
import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import ncwitt
from ncwitt import AbelPoly, Alphabet, abelianize, parse_poly
from ncwitt import cli
from ncwitt.cli import build_parser, run

SRC = Path(__file__).resolve().parent.parent / "src"
README = SRC.parent / "README.md"


@pytest.fixture
def capture(capsys):
    def invoke(*argv):
        code = run(list(argv))
        captured = capsys.readouterr()
        return code, captured.out.strip(), captured.err.strip()

    return invoke


#: The flags each command reads
FLAGS = {
    "ghost": ("--p", "--level", "--alphabet", "--format"),
    "omega": ("--p", "--level", "--alphabet", "--format"),
    "rmap": ("--p", "--level", "--alphabet", "--format"),
    "abelianize": ("--alphabet", "--format"),
    "hmember": ("--alphabet", "--format"),
    "verify": ("--all", "--p", "--level", "--alphabet", "--format", "--seed"),
}
#: A value each flag accepts, None for a switch
FLAG_VALUES = {
    "--all": None,
    "--p": "2",
    "--level": "2",
    "--alphabet": "X,Y",
    "--format": "text",
    "--seed": "1",
}
#: A positional argument each command accepts
POSITIONAL = {
    "ghost": "X", "omega": "X", "rmap": "XY-YX", "abelianize": "X", "hmember": "XYXY",
    "verify": "lemma-xyc",
}


def flag_argv(command: str, flag: str) -> list[str]:
    value = FLAG_VALUES[flag]
    return [command, flag, *([] if value is None else [value]), POSITIONAL[command]]


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
        assert code == 2
        assert err.startswith("usage error: epsilon 0 is not in [A,A]: X")

    def test_degree_past_64_runs(self, capture):
        # r_1 has degree 82 and r_2 degree 164, well inside the letter budget
        code, out, _ = capture("rmap", "--level", "3", "X^40Y-YX^40")
        assert code == 0
        code, ghost, _ = capture("ghost", "--level", "3", "--", *out.strip("()").split(", "))
        assert code == 0
        assert ghost == "(0, 0, 0)"


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

    def test_p_is_a_usage_error(self, capture):
        # H is the paper's ideal at p = 2; hmember takes no --p to ignore
        code, out, err = capture("hmember", "--p", "3", "XYXY")
        assert code == 2
        assert out == ""
        assert "unrecognized arguments: --p" in err


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
        assert code == 2
        assert err.startswith("usage error:")
        assert "unknown check ids" in err

    def test_checks_at_any_p_run_at_p3(self, capture):
        code, out, _ = capture(
            "verify", "bracket-identity", "lemma-phi", "omegar0", "pin", "--p", "3"
        )
        assert code == 0
        assert "overall: pass" in out

    def test_wagen_at_p3_is_refused(self, capture):
        # lengths up to 4 raise a two-term polynomial to the power 27
        code, out, err = capture("verify", "wagen", "--p", "3")
        assert code == 1
        assert out == ""
        assert err.startswith("error:")
        assert "134,217,728" in err


class TestResourceGuard:
    """Work past the term budget is refused before it starts, naming its
    bound: the number of necklace classes of the first trace power over
    budget."""

    @pytest.mark.parametrize(
        "argv, bound",
        [
            (["rmap", "--level", "6", "XY-YX"], "134,219,796"),
            (["rmap", "--p", "3", "--level", "4", "XY-YX"], "4,971,068"),
            (["rmap", "--p", "5", "--level", "3", "XY-YX"], "1,342,184"),
            (["abelianize", "(X+Y)^40"], "1,099,511,627,776"),
        ],
    )
    def test_refused_with_bound(self, capture, argv, bound):
        code, out, err = capture(*argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error:")
        assert bound in err
        assert "budget" in err

    @pytest.mark.parametrize(
        "argv, bound",
        [
            (["ghost", "--level", "40", "X"], "8,192"),
            (["abelianize", "--", "X^99999999999"], "99,999,999,999"),
        ],
    )
    def test_long_words_refused_within_a_second(self, capture, argv, bound):
        # one-term powers pass the term budget; their length is bounded
        start = time.process_time()
        code, out, err = capture(*argv)
        assert time.process_time() - start < 1
        assert code == 1
        assert out == ""
        assert err.startswith("error:")
        assert bound in err
        assert "letter budget" in err

    @pytest.mark.parametrize("base", ["X", "(X)", "2"])
    def test_long_exponents_refused_by_their_digits(self, capture, base):
        # not Python's message about its 4,300-digit limit, nor the number
        code, out, err = capture("abelianize", "--", base + "^" + "9" * 5000)
        assert (code, out) == (1, "")
        assert err == "error: an exponent of 5,000 digits, above the letter budget of 4,096"

    def test_leading_zeros_of_an_exponent_are_dropped(self, capture):
        assert capture("abelianize", "--", "X^" + "0" * 5000 + "3") == (0, "[X^3]", "")

    @pytest.mark.parametrize("text", ["99999^999", "7" * 5000, "((9^999)^999)^9"])
    def test_large_coefficients_refused_within_a_second(self, capture, text):
        # not Python's message about its 4,300-digit limit on int and str
        start = time.process_time()
        code, out, err = capture("abelianize", "--", text)
        assert time.process_time() - start < 1
        assert code == 1
        assert out == ""
        assert err.startswith("error:")
        assert "coefficient budget of 8,192 bits" in err
        assert "4300" not in err

    @pytest.mark.parametrize(
        "argv", [["--", "(2+X)^4096"], ["--alphabet", "T", "--", "(1+T)^4096"]]
    )
    def test_term_products_refused_within_a_second(self, capture, argv):
        # 4,097 terms, 4,096 letters and 8,192 coefficient bits pass their
        # budgets, but the squarings would take some 5.6 million products
        start = time.process_time()
        code, out, err = capture("abelianize", *argv)
        assert time.process_time() - start < 1
        assert code == 1
        assert out == ""
        assert err.startswith("error:")
        assert "term products" in err
        assert "5,600,607, above the budget of 1,048,576" in err

    def test_huge_exponent_is_refused_at_once(self, capture):
        code, _, err = capture("abelianize", "(X+Y)^1000000000000")
        assert code == 1
        assert "at least 18,446,744,073,709,551,616" in err

    def test_long_word_is_refused(self, capture):
        # each power is within the letter budget, their product is not
        code, out, err = capture("abelianize", "X^4096" * 3)
        assert (code, out) == (1, "")
        assert err == "error: a term of 8,192 letters, above the letter budget of 4,096"


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

    @pytest.mark.parametrize("selection", ["counterexample", "--all"])
    def test_verify_level_below_two(self, capture, selection):
        # verify's level is the counterexample's, which needs two entries
        code, out, err = capture("verify", selection, "--level", "1")
        assert (code, out) == (2, "")
        assert err.startswith("usage error:")

    def test_omega_level_zero_is_valid(self, capture):
        # omega's level is the index of its last entry
        code, out, _ = capture("omega", "--level", "0", "X")
        assert code == 0
        assert out == "(X)"

    # a name the parser cannot read as one generator is refused too: it
    # would read the generator 2 as an integer, and X., 1X and A[1] not at all
    @pytest.mark.parametrize("alphabet", ["X,X", "X+,Y", "2,Y", "X.,Y", "1X,Y", "A[1],B"])
    def test_bad_alphabet(self, capture, alphabet):
        code, out, err = capture("abelianize", "--alphabet", alphabet, "Y")
        assert (code, out) == (2, "")
        assert err.startswith("usage error:")

    @pytest.mark.parametrize("alphabet", ["X", "X,Y,Z"])
    def test_hmember_needs_two_generators(self, capture, alphabet):
        code, _, err = capture("hmember", "--alphabet", alphabet, "X")
        assert code == 2
        assert err.startswith("usage error:")

    @pytest.mark.parametrize(
        "checks, named",
        [
            (["counterexample"], ["counterexample"]),
            (["lemma-xyc", "commutative-sanity"], ["lemma-xyc", "commutative-sanity"]),
            (["--all"], ["lemma-thelemma", "lemma-xyc", "counterexample", "commutative-sanity"]),
        ],
    )
    def test_p2_only_checks_reject_other_p(self, capture, checks, named):
        code, out, err = capture("verify", *checks, "--p", "3")
        assert code == 2
        assert out == ""
        assert err.startswith("usage error:")
        assert all(check_id in err for check_id in named)
        assert "wagen" not in err

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["lemma-xyc", "--alphabet", "X,Y,Z"], ["lemma-xyc"]),
            (["lemma-thelemma", "--alphabet", "X,Y,Z"], ["lemma-thelemma"]),
            (["--all", "--alphabet", "T"], ["lemma-thelemma", "lemma-xyc", "counterexample"]),
            (
                ["counterexample", "commutative-sanity", "--alphabet", "A,B,C"],
                ["counterexample"],
            ),
        ],
    )
    def test_two_generator_checks_reject_other_alphabets(self, capture, argv, named):
        # refused before any check runs, so nothing is printed
        code, out, err = capture("verify", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("usage error:")
        assert all(check_id in err for check_id in named)
        assert "wagen" not in err

    def test_argparse_error_returns_two(self, capture):
        # text starting with '-' reads as an unknown flag unless passed after --
        code, _, err = capture("abelianize", "-XY")
        assert code == 2
        assert "the following arguments are required: poly" in err

    def test_help_returns_zero(self, capture):
        code, out, _ = capture("--help")
        assert code == 0
        assert "usage:" in out


#: The exit code of every exception class the package defines.  A new
#: exception class fails test_every_exception_class_has_an_exit_code
#: until its exit code is decided here.
EXIT_CODES = {
    "InputError": 2,
    "ParseError": 2,
    "UnknownGenerator": 2,
    "EpsilonNotCommutator": 2,
    "ResourceLimit": 1,
    "NotDivisible": 1,
    "AlphabetMismatch": 1,
    "ContextMismatch": 1,
}


def package_exceptions() -> dict[str, type]:
    """Every exception class defined in a module of ncwitt, by name."""
    found = {}
    for info in pkgutil.iter_modules(ncwitt.__path__):
        module = importlib.import_module(f"ncwitt.{info.name}")
        for name, value in vars(module).items():
            if (
                isinstance(value, type)
                and issubclass(value, BaseException)
                and value.__module__ == module.__name__
            ):
                found[name] = value
    return found


class TestExitMapping:
    """Exit 2 is exactly an InputError (or an argparse rejection): any other
    exception from inside a computation is not the user's mistake."""

    def test_every_exception_class_has_an_exit_code(self):
        assert sorted(package_exceptions()) == sorted(EXIT_CODES)

    @pytest.mark.parametrize("name", sorted(EXIT_CODES))
    def test_exception_exits_with_its_code(self, capture, monkeypatch, name):
        exc_type = package_exceptions()[name]
        assert issubclass(exc_type, ncwitt.InputError) == (EXIT_CODES[name] == 2)

        def raising(names):
            # __new__ alone: some classes' __init__ takes more than a message
            raise exc_type.__new__(exc_type, "boom")

        monkeypatch.setattr(cli, "Alphabet", raising)
        prefix = "usage error" if EXIT_CODES[name] == 2 else "error"
        assert capture("abelianize", "X") == (EXIT_CODES[name], "", f"{prefix}: boom")

    def test_internal_key_error_propagates(self, monkeypatch):
        def broken(coords):
            raise KeyError((0, 1))

        monkeypatch.setattr(cli, "ghost_map", broken)
        with pytest.raises(KeyError):
            run(["ghost", "XY"])

    def test_value_error_in_a_computation_exits_one(self, capture, monkeypatch):
        def failing(coords):
            raise ValueError("not an input error")

        monkeypatch.setattr(cli, "ghost_map", failing)
        assert capture("ghost", "XY") == (1, "", "error: not an input error")


class TestFlagsPerCommand:
    """Each command takes only the flags it reads, so a flag it would
    ignore is an argparse usage error."""

    @pytest.mark.parametrize(
        "command, flag",
        [(c, f) for c, flags in FLAGS.items() for f in FLAG_VALUES if f not in flags],
    )
    def test_unread_flag_is_refused(self, capture, command, flag):
        code, out, err = capture(*flag_argv(command, flag))
        assert code == 2
        assert out == ""
        assert f"unrecognized arguments: {flag}" in err

    @pytest.mark.parametrize("command, flag", [(c, f) for c, flags in FLAGS.items() for f in flags])
    def test_read_flag_is_accepted(self, capture, command, flag):
        code, _, _ = capture(*flag_argv(command, flag))
        assert code == 0

    def test_verify_takes_all_five_flags(self, capture):
        code, out, _ = capture(
            "verify", "lemma-xyc", "--p", "2", "--level", "3", "--alphabet", "X,Y",
            "--format", "json", "--seed", "5",
        )
        assert code == 0
        assert json.loads(out)["params"] == {"p": 2, "level": 3, "alphabet": "X,Y", "seed": 5}


def subparsers() -> dict[str, argparse.ArgumentParser]:
    (action,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def command_line_section() -> str:
    text = README.read_text()
    start = text.index("## Command line")
    return text[start : text.index("\n## ", start)]


@pytest.mark.parametrize("command", list(subparsers()))
def test_readme_lists_every_flag(command):
    # the README's row for the command lists exactly its flags, and the
    # section names every option string, --help included
    options = [o for a in subparsers()[command]._actions for o in a.option_strings]
    section = command_line_section()
    assert [o for o in options if f"`{o}`" not in section] == []
    rows = [line.split("|") for line in section.splitlines() if line.startswith("|")]
    (row,) = [cells for cells in rows if f"`{command}`" in cells[1]]
    listed = re.findall(r"`(-[\w-]+)`", row[2])
    assert sorted(listed) == sorted(set(options) - {"-h", "--help"})


class TestFormatOnce:
    """Each result is formatted once and the text serves both --format
    values: a long result's text costs as much as reading its input."""

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize(
        "argv, calls",
        [(["abelianize", "XYXY + 2X^2Y - YX"], 1), (["ghost", "--level", "2", "XY - YX", "X"], 2)],
    )
    def test_one_str_per_class(self, capture, monkeypatch, argv, calls, fmt):
        counted = []
        original = AbelPoly.__str__

        def counting_str(self):
            counted.append(self)
            return original(self)

        monkeypatch.setattr(AbelPoly, "__str__", counting_str)
        code, out, _ = capture(argv[0], "--format", fmt, *argv[1:])
        assert code == 0
        assert len(counted) == calls
        assert str(counted[-1]) in out


class TestJsonSchema:
    @pytest.mark.parametrize(
        "command, params",
        [
            ("ghost", ["p", "level", "alphabet"]),
            ("omega", ["p", "level", "alphabet"]),
            ("rmap", ["p", "level", "alphabet"]),
            ("abelianize", ["alphabet"]),
            ("hmember", ["alphabet"]),
            ("verify", ["p", "level", "alphabet", "seed"]),
        ],
    )
    def test_compute_schema(self, capture, command, params):
        # params holds the command's own flags but --format and --all
        code, out, _ = capture(command, "--format", "json", POSITIONAL[command])
        assert code == 0
        payload = json.loads(out)
        key = "report" if command == "verify" else "result"
        assert list(payload) == ["command", "params", key]
        assert list(payload["params"]) == params

    def test_custom_alphabet(self, capture):
        code, out, _ = capture("abelianize", "--alphabet", "A,B", "AB - BA")
        assert code == 0
        assert out == "0"


class TestBrokenPipe:
    def test_closed_stdout_exits_one_quietly(self):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "ncwitt.cli", "abelianize", "XY"],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=dict(os.environ, PYTHONPATH=str(SRC)),
                timeout=60,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert proc.stderr == b""
