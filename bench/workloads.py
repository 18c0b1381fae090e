"""The benchmark workloads: how each makes its inputs from the seed, what
one op is, and the oracle that checks the op's output.

Each workload is a closed loop with one client: the next op starts only
after the previous one has finished, all from one process.

  counterexample-l5  the paper pipeline at p = 2, level 5, one fresh
                     interpreter per op.  The deepest level reachable
                     today: least_rotation over long words and repeated
                     p-th powers dominate.  The paper fixes the input, so
                     the seed does not change it.
  verify-sweep       run_checks over eight pinned check ids, one seed per
                     op.  Many small polynomials: per-object overhead in
                     freealg and cdwitt, short words in cycquot.  The
                     control for changes aimed at long words.
  cli-roundtrip      in-process ncwitt.cli.run calls (abelianize, hmember,
                     ghost --level 1; text and json) on the text of seeded
                     polynomials of 200 to 4,000 terms, shaped like the
                     r_4 that `ncwitt rmap --level 5` prints.  Parsing and
                     argparse dominate.

Importing this module imports ncwitt, so the import is part of set-up.
A workload is made from the seed and the name of the library copy its
process imported ('program' or 'reference', see child.py); only
counterexample-l5 uses the name, to start its op processes on that copy.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import operator
import os
import random
import re
import subprocess
import sys

# Called through their modules, so that the tracer's wrappers are seen.
from ncwitt import cli, verify

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

#: The highest level scheduled per prime.  p = 2 at level 6 needs a power
#: with 2^32 terms and p = 3 at level 4 one with 2^27; neither fits in memory.
MAX_LEVEL = {2: 5, 3: 3}


def check_schedulable(p: int, level: int) -> None:
    if level > MAX_LEVEL.get(p, 0):
        raise ValueError(f"p = {p} at level {level} is not schedulable: its powers do not fit in memory")


class OpFailed(Exception):
    """An op finished but its output is wrong."""


# -- counterexample-l5 --------------------------------------------------------

COUNTEREXAMPLE_LEVEL = 5
COUNTEREXAMPLE_ARGV = ["verify", "counterexample", "--level", str(COUNTEREXAMPLE_LEVEL), "--format", "json"]
#: Terms of r_4 at p = 2 from (XY - YX, 0, 0, 0, 0).
R4_TERMS = 4115
OP_TIMEOUT_S = 150


def _count_terms(text: str) -> int:
    """Terms in the canonical text of a polynomial."""
    if text == "0":
        return 0
    return 1 + text.count(" + ") + text.count(" - ")


def check_counterexample_output(stdout: str) -> None:
    payload = json.loads(stdout)
    report = payload["report"]
    if report["status"] != "pass":
        raise OpFailed(f"report status {report['status']!r}")
    checks = report["checks"]
    if [c["check_id"] for c in checks] != ["counterexample"] or checks[0]["status"] != "pass":
        raise OpFailed(f"unexpected checks {[(c['check_id'], c['status']) for c in checks]}")
    lines = checks[0]["details"].splitlines()
    if lines[0] != f"counterexample report (level {COUNTEREXAMPLE_LEVEL}): PASS":
        raise OpFailed(f"report header {lines[0]!r}")
    rmap_line = next(line for line in lines if line.lstrip().startswith("[pass] r_map:"))
    coords = rmap_line.split(" -> ", 1)[1].strip("()").split(", ")
    if len(coords) != COUNTEREXAMPLE_LEVEL or coords[0] != "XY - YX":
        raise OpFailed(f"r_map output has {len(coords)} coordinates, r_0 = {coords[0]!r}")
    if _count_terms(coords[-1]) != R4_TERMS:
        raise OpFailed(f"r_4 has {_count_terms(coords[-1])} terms, expected {R4_TERMS}")


class CounterexampleL5:
    name = "counterexample-l5"
    in_process = False
    cycle = 1
    trace_ops = 2

    def __init__(self, seed: int, lib: str):
        check_schedulable(2, COUNTEREXAMPLE_LEVEL)
        self.lib = lib

    def op(self, i: int, trace: bool) -> dict:
        """Run the CLI in a fresh interpreter; returns that process's report."""
        cmd = [
            sys.executable, os.path.join(BENCH_DIR, "child.py"), "op",
            "--lib", self.lib, "--trace", str(int(trace)), "--", *COUNTEREXAMPLE_ARGV,
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=OP_TIMEOUT_S)
        if proc.returncode != 0:
            raise OpFailed(f"op process exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
        return json.loads(proc.stdout.splitlines()[-1])

    def check(self, i: int, outcome: dict) -> None:
        if outcome["rc"] != 0:
            raise OpFailed(f"cli exited {outcome['rc']}")
        check_counterexample_output(outcome["stdout"])


def run_cli(argv: list[str]) -> tuple[int, str]:
    """ncwitt.cli.run with stdout captured; SystemExit becomes the exit code."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            rc = cli.run(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    return rc, buf.getvalue()


# -- verify-sweep -------------------------------------------------------------

#: Named here rather than read from ncwitt.verify.CHECK_IDS, so that a check
#: registered later does not silently grow the workload.
VERIFY_CHECK_IDS = (
    "wagen",
    "bracket-identity",
    "lemma-phi",
    "lemma-thelemma",
    "lemma-xyc",
    "omegar0",
    "counterexample",
    "commutative-sanity",
)
VERIFY_LEVEL = 2


class VerifySweep:
    name = "verify-sweep"
    in_process = True
    cycle = 1
    trace_ops = 20

    def __init__(self, seed: int, lib: str):
        check_schedulable(2, VERIFY_LEVEL)
        self.seed = seed

    def op(self, i: int, trace: bool):
        return verify.run_checks(VERIFY_CHECK_IDS, p=2, level=VERIFY_LEVEL, seed=self.seed + i)

    def check(self, i: int, report) -> None:
        ids = sorted(c.check_id for c in report.checks)
        if ids != sorted(VERIFY_CHECK_IDS):
            raise OpFailed(f"ran checks {ids}")
        failed = [c.check_id for c in report.checks if c.status != "pass"]
        if failed or not report.passed:
            raise OpFailed(f"seed {self.seed + i}: checks failed: {failed}")


# -- cli-roundtrip ------------------------------------------------------------

#: Term counts of the input pool: geometric from 200 to 4,000, the range
#: of sizes `ncwitt rmap --level 5` prints.  Fixed, so that every seed
#: gives the same mix of op costs and only the polynomials' content varies.
#: An odd count puts the median op inside one size class rather than on
#: the gap between two.
CLI_SIZES = tuple(round(200 * 20 ** (k / 12)) for k in range(13))
CLI_COMMANDS = (
    ("abelianize", "text"),
    ("abelianize", "json"),
    ("hmember", "text"),
    ("hmember", "json"),
    ("ghost", "text"),
    ("ghost", "json"),
)
_LETTERS = str.maketrans("01", "XY")

#: The shape of the long terms, measured on the output of
#: `ncwitt rmap --level 5` for XY - YX (p = 2).  It prints r_0 to r_4 with
#: 2, 2, 5, 35 and 4,115 terms, so every coordinate of 200 terms or more is
#: r_4.  Each word of r_4 has degree 32 and is 12 runs of X alternating
#: with 12 runs of Y, starting with X; four runs of each letter are doubled.
CLI_RUNS_PER_LETTER = 12
CLI_DOUBLED_RUNS = 4
#: The coefficients of r_4, with the number of its terms that carry each.
CLI_COEFF_COUNTS = {
    -22: 1, -18: 1, -17: 2, -15: 1, -12: 1, -11: 10, -9: 8, -8: 4, -7: 2, -6: 12,
    -5: 24, -4: 49, -3: 72, -2: 142, -1: 1738, 1: 1714, 2: 155, 3: 60, 4: 54,
    5: 23, 6: 10, 7: 4, 8: 7, 9: 5, 11: 7, 12: 1, 14: 1, 16: 2, 17: 2, 18: 1, 22: 2,
}
#: The short terms of each hmember input, in input order: every seed checks
#: an input in H and one out of H each way, through an odd term of degree
#: <= 3 and through an odd XYXY or YXYX.
H_CASES = ("in", "odd-low", "odd-xyxy", "in")
_ODD = (-3, -1, 1, 3)
_ALLOWED_DEGREE4 = tuple(
    w for w in (format(n, "04b").translate(_LETTERS) for n in range(16)) if w not in ("XYXY", "YXYX")
)


def _word(rng: random.Random, length: int) -> str:
    return format(rng.getrandbits(length), f"0{length}b").translate(_LETTERS)


def short_terms(rng: random.Random, case: str) -> dict[str, int]:
    """Two to five terms of degree <= 4, which decide H-membership.  All
    are in H: even coefficients on any words and an odd one on a degree-4
    word other than XYXY and YXYX.  'odd-low' adds an odd term of degree
    <= 3 and 'odd-xyxy' an odd XYXY or YXYX; either takes the sum out of H."""
    terms = {_word(rng, rng.randint(1, 4)): 2 * rng.choice(_ODD) for _ in range(rng.randint(1, 3))}
    terms[rng.choice(_ALLOWED_DEGREE4)] = rng.choice(_ODD)
    if case == "odd-low":
        terms[_word(rng, rng.randint(1, 3))] = rng.choice(_ODD)
    elif case == "odd-xyxy":
        terms[rng.choice(("XYXY", "YXYX"))] = rng.choice(_ODD)
    return terms


def _doubled_runs(letter: str) -> tuple[tuple[str, ...], ...]:
    """Every way to double CLI_DOUBLED_RUNS of the runs of one letter."""
    return tuple(
        tuple(letter * (2 if j in doubled else 1) for j in range(CLI_RUNS_PER_LETTER))
        for doubled in itertools.combinations(range(CLI_RUNS_PER_LETTER), CLI_DOUBLED_RUNS)
    )


_X_RUNS = _doubled_runs("X")
_Y_RUNS = _doubled_runs("Y")


def rmap_word(rng: random.Random) -> str:
    """A word of the shape that r_4 has (see CLI_RUNS_PER_LETTER)."""
    return "".join(map(operator.add, rng.choice(_X_RUNS), rng.choice(_Y_RUNS)))


def random_terms(rng: random.Random, size: int, case: str) -> dict[str, int]:
    """`size` distinct words: the short terms of `case`, and the rest of
    the shape and with the coefficients of r_4."""
    terms = short_terms(rng, case)
    long_words: dict[str, None] = {}  # a dict, so that the order is the seed's
    while len(terms) + len(long_words) < size:
        long_words[rmap_word(rng)] = None
    coeffs = rng.choices(list(CLI_COEFF_COUNTS), weights=list(CLI_COEFF_COUNTS.values()), k=len(long_words))
    terms.update(zip(long_words, coeffs))
    return terms


def _runs(word: str) -> str:
    return re.sub(r"(.)\1+", lambda m: f"{m.group(1)}^{len(m.group(0))}", word)


def format_terms(terms: dict[str, int]) -> str:
    """Canonical text: degree then lexicographic order, runs as X^k."""
    text = ""
    for word in sorted(terms, key=lambda w: (len(w), w)):
        c = terms[word]
        body = ("" if abs(c) == 1 else str(abs(c))) + _runs(word)
        if not text:
            text = ("-" if c < 0 else "") + body
        else:
            text += (" - " if c < 0 else " + ") + body
    return text


def circular_classes(terms: dict[str, int]) -> dict[str, int]:
    """The naive abelianization: every word goes to its least rotation."""
    classes: dict[str, int] = {}
    for word, c in terms.items():
        key = min(word[k:] + word[:k] for k in range(len(word)))
        classes[key] = classes.get(key, 0) + c
    return {w: c for w, c in classes.items() if c}


def in_h(terms: dict[str, int]) -> bool:
    """H (p = 2 over X, Y): no odd coefficient of degree <= 3, nor on XYXY or YXYX."""
    return not any(c % 2 and (len(w) <= 3 or w in ("XYXY", "YXYX")) for w, c in terms.items())


_CLASS_TERM = re.compile(r"(-?)(\d*)\[([A-Z0-9^]+)\]")
_RUN = re.compile(r"([A-Z])(?:\^(\d+))?")


def parse_classes(text: str) -> dict[str, int]:
    """Read the library's text for an element of A/[A,A], e.g. '2[X^2Y] - [XY]'."""
    if text == "0":
        return {}
    classes: dict[str, int] = {}
    for piece in text.replace(" - ", " + -").split(" + "):
        m = _CLASS_TERM.fullmatch(piece)
        if m is None:
            raise OpFailed(f"unreadable class term {piece!r}")
        sign, mag, body = m.groups()
        word = "".join(letter * int(run or 1) for letter, run in _RUN.findall(body))
        classes[word] = (-1 if sign else 1) * int(mag or 1)
    return classes


class CliRoundtrip:
    name = "cli-roundtrip"
    in_process = True
    cycle = len(CLI_SIZES)
    trace_ops = len(CLI_SIZES)

    def __init__(self, seed: int, lib: str):
        check_schedulable(2, 1)
        rng = random.Random(seed)
        cases = iter(H_CASES)
        self.terms = [
            random_terms(rng, size, next(cases) if CLI_COMMANDS[k % len(CLI_COMMANDS)][0] == "hmember" else "in")
            for k, size in enumerate(CLI_SIZES)
        ]
        self.argvs = []
        for k, terms in enumerate(self.terms):
            command, fmt = CLI_COMMANDS[k % len(CLI_COMMANDS)]
            level = ["--level", "1"] if command == "ghost" else []
            # '--' keeps text that starts with '-' from being read as an option
            self.argvs.append([command, "--format", fmt, *level, "--", format_terms(terms)])
        self.expected: dict = {}

    def _expected(self, k: int, command: str):
        """The oracle's answer for input k, computed on first use."""
        if k not in self.expected:
            terms = self.terms[k]
            self.expected[k] = in_h(terms) if command == "hmember" else circular_classes(terms)
        return self.expected[k]

    def op(self, i: int, trace: bool) -> tuple[int, str]:
        return run_cli(self.argvs[i % self.cycle])

    def check(self, i: int, outcome: tuple[int, str]) -> None:
        k = i % self.cycle
        command, fmt = CLI_COMMANDS[k % len(CLI_COMMANDS)]
        rc, out = outcome
        if rc != 0:
            raise OpFailed(f"{command} exited {rc}")
        result = out.strip()
        if fmt == "json":
            payload = json.loads(out)
            if payload["command"] != command:
                raise OpFailed(f"json command {payload['command']!r}")
            result = payload["result"]
        if command == "hmember":
            got = result if fmt == "json" else {"true": True, "false": False}.get(result)
        elif command == "ghost":
            if not (result.startswith("(") and result.endswith(")")):
                raise OpFailed(f"ghost output {result[:40]!r}")
            got = parse_classes(result[1:-1])
        else:
            got = parse_classes(result)
        if got != self._expected(k, command):
            raise OpFailed(f"{command} --format {fmt} on input {k}: output differs from the oracle")


WORKLOADS = {w.name: w for w in (CounterexampleL5, VerifySweep, CliRoundtrip)}
