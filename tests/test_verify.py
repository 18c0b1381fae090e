"""The verification harness itself: how a failing sweep is reported, and
that the README names every check."""

from pathlib import Path

import pytest

from ncwitt import verify
from ncwitt.cli import run

README = Path(__file__).resolve().parent.parent / "README.md"


class TestSweepFailures:
    """A sweep whose identity fails reports how many cases failed and the
    first three failing inputs, and the CLI exits 1."""

    def test_wagen_reports_first_three_inputs(self, monkeypatch):
        monkeypatch.setattr(verify, "check_wagen_decomposition", lambda coords: False)
        (result,) = verify.run_checks(["wagen"]).checks
        assert result.status == "fail"
        assert result.details == "20/20 failed: ['(Y)', '(0, 3X^2, 3Y^2)', '(X, 1 + X, 0)']"

    def test_thelemma_reports_exhaustive_pairs_first(self, monkeypatch):
        monkeypatch.setattr(verify, "h_membership", lambda f: False)
        (result,) = verify.run_checks(["lemma-thelemma"]).checks
        assert result.status == "fail"
        assert result.details == "66/66 failed: ['a=X, b=X', 'a=X, b=Y', 'a=X, b=X^2']"

    def test_thelemma_reports_random_cases_by_shift(self, monkeypatch):
        # the 36 exhaustive word pairs come first; fail only the 30 draws after them
        calls = []
        holds = verify.h_membership

        def after_exhaustive(f):
            calls.append(f)
            return len(calls) <= 36 and holds(f)

        monkeypatch.setattr(verify, "h_membership", after_exhaustive)
        (result,) = verify.run_checks(["lemma-thelemma"]).checks
        assert result.status == "fail"
        assert result.details == (
            "30/66 failed: ['m=0, n_shift=0', 'm=0, n_shift=1', 'm=0, n_shift=0']"
        )

    def test_failing_check_exits_one(self, monkeypatch, capsys):
        monkeypatch.setattr(verify, "check_wagen_decomposition", lambda coords: False)
        assert run(["verify", "wagen"]) == 1
        out = capsys.readouterr().out
        assert "[fail] wagen: 20/20 failed:" in out
        assert out.rstrip().endswith("overall: fail")


def test_counterexample_refuses_level_one():
    with pytest.raises(ValueError, match="level >= 2"):
        verify.run_checks(["counterexample"], level=1)


def _verify_all_paragraph() -> str:
    paragraphs = README.read_text().split("\n\n")
    (paragraph,) = [p for p in paragraphs if p.startswith("`verify --all` runs")]
    return paragraph


@pytest.mark.parametrize("check_id", verify.CHECK_IDS)
def test_readme_names_every_check(check_id):
    assert f"`{check_id}`" in _verify_all_paragraph()
