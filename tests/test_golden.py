"""Byte-identical CLI output: each command's stdout must equal the file
captured under tests/golden/.  Regenerate a file only when a change of
output is intended, and say so in the change log."""

from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from ncwitt import Alphabet, WittContext, parse_poly, r_map
from ncwitt.cli import run
from test_demos import DEMOS, golden_name

GOLDEN = Path(__file__).parent / "golden"

# p = 2 at level >= 6 and p = 3 at level >= 4 are refused by the resource
# guard (tests/test_cli.py::TestResourceGuard).  ghost_T_l6.txt takes the
# power (1+T)^32, whose 33 words are far fewer than its N(2, 32) necklaces.
CASES = {
    "verify_all.json": ["verify", "--all", "--format", "json"],
    "verify_counterexample_l4.json": ["verify", "counterexample", "--level", "4", "--format", "json"],
    "rmap_l4.txt": ["rmap", "--level", "4", "XY-YX"],
    "rmap_l5.txt": ["rmap", "--level", "5", "XY-YX"],
    "ghost_T_l6.txt": ["ghost", "--alphabet", "T", "--level", "6", "1+T"],
    "omega_l3.txt": ["omega", "--level", "3", "XY-YX", "X^2+Y", "3XYY"],
    "ghost_p3_l3.txt": ["ghost", "--p", "3", "--level", "3", "XY-YX", "X+2Y"],
    "abelianize.txt": ["abelianize", "XYYX + 3YXXY - XYXY"],
    "hmember.txt": ["hmember", "XYYX + 3YXXY - XYXY"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(name):
    out = StringIO()
    with redirect_stdout(out):
        code = run(CASES[name])
    assert code == 0
    assert out.getvalue() == (GOLDEN / name).read_text()


def test_every_golden_file_is_checked():
    checked = [*CASES, *(golden_name(demo) for demo in DEMOS)]
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(checked)


def test_rmap_l5_coordinates_parse_back_exactly():
    # r_0, ..., r_4 of XY - YX at p = 2; r_4 has 4,115 terms of degree 32
    ab = Alphabet(["X", "Y"])
    texts = (GOLDEN / "rmap_l5.txt").read_text().strip()[1:-1].split(", ")
    parsed = tuple(parse_poly(text, ab) for text in texts)
    assert [str(f) for f in parsed] == texts
    assert [len(f) for f in parsed] == [2, 2, 5, 35, 4115]
    assert parsed == r_map([parse_poly("XY-YX", ab)], WittContext(ab, 2, 5)).entries
