"""Per-layer timing for the traced benchmark run.

The library has no instrumentation of its own, so the tracer wraps the
public functions and methods of each ncwitt module from the outside.  A
wrapped function is replaced in every ncwitt module that binds it (the
defining module, the package namespace and each importer), and a wrapped
method is replaced on its class, so calls made inside the library are
timed too.  A name that a later version of the library no longer has is
reported as absent.

Each wrapper records its call count and self time: its duration minus
the time spent in wrapped calls made beneath it.  Work counts (letters,
words, terms, characters) are taken by hooks that run after the timed
call; their own cost is hidden from every span's self time.  Spans are
aggregated per name as they close instead of being kept as a list: the
level-5 workload makes over 200,000 calls per op.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time


def _size(poly) -> int:
    """Number of stored terms of a FreePoly or an AbelPoly."""
    return len(poly._terms)


def _is_poly(outcome) -> bool:
    return hasattr(outcome, "_terms")


def _count_max_terms(tracer: "Tracer", outcome) -> None:
    if _is_poly(outcome):
        n = _size(outcome)
        if n > tracer.counts["freealg.max_terms"]:
            tracer.counts["freealg.max_terms"] = n


def _hook_add(tracer, args, outcome):
    _count_max_terms(tracer, outcome)


def _hook_mul(tracer, args, outcome):
    if not _is_poly(outcome):
        return
    left, right = args
    # an integer scalar acts as a constant polynomial of one term (none if 0)
    right_terms = _size(right) if _is_poly(right) else int(right != 0)
    tracer.counts["freealg.mul.pairs"] += _size(left) * right_terms
    tracer.counts["freealg.mul.terms_out"] += _size(outcome)
    _count_max_terms(tracer, outcome)


def _hook_pow(tracer, args, outcome):
    if not _is_poly(outcome):
        return
    key = (args[0], args[1])
    if key in tracer.pow_seen:
        tracer.counts["freealg.pow.repeats"] += 1
    else:
        tracer.pow_seen.add(key)
    _count_max_terms(tracer, outcome)


def _hook_format(tracer, args, outcome):
    if isinstance(outcome, str):
        tracer.counts["freealg.format.chars_out"] += len(outcome)


def _hook_least_rotation(tracer, args, outcome):
    tracer.counts["cycquot.least_rotation.letters_in"] += len(args[0])


def _hook_abelianize(tracer, args, outcome):
    if _is_poly(outcome):
        tracer.counts["cycquot.abelianize.words_in"] += _size(args[0])
        tracer.counts["cycquot.abelianize.classes_out"] += _size(outcome)


def _hook_parse(tracer, args, outcome):
    tracer.counts["parser.parse_poly.chars_in"] += len(args[0])


def _hook_cli_run(tracer, args, outcome):
    if isinstance(outcome, SystemExit):
        failed = outcome.code not in (0, None)
    else:
        failed = outcome != 0
    tracer.counts["cli.run.nonzero_exits"] += int(failed)


#: (span name, module under ncwitt, attribute or Class.method, count hook)
TARGETS = (
    ("freealg.add", "freealg", "FreePoly.__add__", _hook_add),
    ("freealg.mul", "freealg", "FreePoly.__mul__", _hook_mul),
    ("freealg.pow", "freealg", "FreePoly.__pow__", _hook_pow),
    ("freealg.format", "freealg", "FreePoly.__str__", _hook_format),
    ("cycquot.least_rotation", "cycquot", "least_rotation", _hook_least_rotation),
    ("cycquot.abelianize", "cycquot", "abelianize", _hook_abelianize),
    ("cycquot.divide_exact", "cycquot", "divide_exact", None),
    ("cycquot.sigma0", "cycquot", "sigma0", None),
    ("cycquot.format", "cycquot", "AbelPoly.__str__", None),
    ("ghost.witt_polynomial", "ghost", "witt_polynomial", None),
    ("ghost.ghost_map", "ghost", "ghost_map", None),
    ("cdwitt.commutator_generator", "cdwitt", "commutator_generator", None),
    ("cdwitt.f2_span_membership", "cdwitt", "f2_span_membership", None),
    ("cdwitt.h_membership", "cdwitt", "h_membership", None),
    ("cdwitt.omega_map", "cdwitt", "omega_map", None),
    ("rmap.r_map", "rmap", "r_map", None),
    ("rmap.counterexample_report", "rmap", "counterexample_report", None),
    ("parser.parse_poly", "parser", "parse_poly", _hook_parse),
    ("verify.run_checks", "verify", "run_checks", None),
    ("cli.build_parser", "cli", "build_parser", None),
    ("cli.run", "cli", "run", _hook_cli_run),
)

COUNT_NAMES = (
    "freealg.max_terms",
    "freealg.mul.pairs",
    "freealg.mul.terms_out",
    "freealg.pow.repeats",
    "freealg.format.chars_out",
    "cycquot.least_rotation.letters_in",
    "cycquot.abelianize.words_in",
    "cycquot.abelianize.classes_out",
    "parser.parse_poly.chars_in",
    "cli.run.nonzero_exits",
)


def empty_record() -> dict:
    return {
        "calls": {name: 0 for name, *_ in TARGETS},
        "self_ns": {name: 0 for name, *_ in TARGETS},
        "counts": {name: 0 for name in COUNT_NAMES},
        "absent": [],
    }


def merge(total: dict, part: dict) -> None:
    """Add the record `part` (from another op or process) into `total`."""
    for field in ("calls", "self_ns"):
        for name, value in part[field].items():
            total[field][name] += value
    for name, value in part["counts"].items():
        if name == "freealg.max_terms":
            total["counts"][name] = max(total["counts"][name], value)
        else:
            total["counts"][name] += value
    total["absent"] = sorted(set(total["absent"]) | set(part["absent"]))


class Tracer:
    """Installs timing wrappers into the loaded ncwitt modules and
    accumulates a record while installed.  Use one tracer per op: a power
    counts as a repeat when the same tracer saw its (base, exponent)."""

    def __init__(self):
        record = empty_record()
        self.calls = record["calls"]
        self.self_ns = record["self_ns"]
        self.counts = record["counts"]
        self.absent: set[str] = set()
        self.pow_seen: set = set()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def record(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_ns": dict(self.self_ns),
            "counts": dict(self.counts),
            "absent": sorted(self.absent),
        }

    def _wrap(self, name: str, fn, hook):
        stack = self._stack
        clock = time.perf_counter_ns
        calls = self.calls
        self_ns = self.self_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0)
            start = clock()
            outcome = None
            try:
                outcome = fn(*args, **kwargs)
                return outcome
            except BaseException as exc:
                outcome = exc
                raise
            finally:
                elapsed = clock() - start
                calls[name] += 1
                self_ns[name] += elapsed - stack.pop()
                if hook is not None:
                    hook(self, args, outcome)
                if stack:
                    # the hook's time is hidden from the caller's self time too
                    stack[-1] += clock() - start

        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for module_name in {target[1] for target in TARGETS}:
            try:
                importlib.import_module(f"ncwitt.{module_name}")
            except ImportError:
                pass
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "ncwitt" or key.startswith("ncwitt."))
        ]
        for name, module_name, attr, hook in TARGETS:
            home = sys.modules.get(f"ncwitt.{module_name}")
            owner_name, _, member = attr.rpartition(".")
            owner = getattr(home, owner_name, None) if owner_name else home
            original = vars(owner).get(member) if owner is not None else None
            if not callable(original):
                self.absent.add(name)
                continue
            wrapped = self._wrap(name, original, hook)
            if owner_name:
                self._patch(owner, member, wrapped)
            else:
                for module in modules:
                    if vars(module).get(member) is original:
                        self._patch(module, member, wrapped)

    def _patch(self, owner, member: str, value) -> None:
        self._patches.append((owner, member, getattr(owner, member)))
        setattr(owner, member, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, member, original = self._patches.pop()
            setattr(owner, member, original)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


#: Work counts and waste ratios: (metric, span it belongs to, unit, value).
#: merge_ratio is terms out over term pairs formed; repeat_ratio is the share
#: of ** calls whose (base, exponent) the same op computed before;
#: class_ratio is circular classes out over words in.
DERIVED = (
    ("freealg.max_terms", "freealg.mul", "count", lambda c, n: c["freealg.max_terms"]),
    ("freealg.mul.terms_out", "freealg.mul", "count", lambda c, n: c["freealg.mul.terms_out"]),
    ("freealg.mul.merge_ratio", "freealg.mul", "ratio",
     lambda c, n: _ratio(c["freealg.mul.terms_out"], c["freealg.mul.pairs"])),
    ("freealg.pow.repeat_ratio", "freealg.pow", "ratio",
     lambda c, n: _ratio(c["freealg.pow.repeats"], n["freealg.pow"])),
    ("freealg.format.chars_out", "freealg.format", "count", lambda c, n: c["freealg.format.chars_out"]),
    ("cycquot.least_rotation.letters_in", "cycquot.least_rotation", "count",
     lambda c, n: c["cycquot.least_rotation.letters_in"]),
    ("cycquot.abelianize.words_in", "cycquot.abelianize", "count",
     lambda c, n: c["cycquot.abelianize.words_in"]),
    ("cycquot.abelianize.class_ratio", "cycquot.abelianize", "ratio",
     lambda c, n: _ratio(c["cycquot.abelianize.classes_out"], c["cycquot.abelianize.words_in"])),
    ("parser.parse_poly.chars_in", "parser.parse_poly", "count", lambda c, n: c["parser.parse_poly.chars_in"]),
    ("cli.run.nonzero_exits", "cli.run", "count", lambda c, n: c["cli.run.nonzero_exits"]),
)


def layer_metrics(record: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics by name, as (value, unit), from a merged record.
    Metrics of spans absent from the library are left out."""
    calls, self_ns, counts = record["calls"], record["self_ns"], record["counts"]
    absent = set(record["absent"])
    out: dict[str, tuple[float, str]] = {}
    for name, *_ in TARGETS:
        if name not in absent:
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.self_s"] = (self_ns[name] / 1e9, "s")
    for metric, span, unit, value in DERIVED:
        if span not in absent:
            out[metric] = (value(counts, calls), unit)
    return out
