"""Worker process of the benchmark; bench/run.py starts it.

    child.py serve --workload W --seed S [--lib program|reference]
        import ncwitt, make the workload's inputs and print one JSON line
        with the workload's shape (the span that setup_s times).  Then
        read commands from stdin, one a line, and answer each with one
        JSON line:
          op I T   run op I (traced if T is 1) and check its output; the
                   answer holds the op's wall time and CPU time
          end      the ops attempted and failed, the first failures, the
                   peak resident memory and the merged per-layer record;
                   then exit
    child.py op --trace 0|1 [--lib program|reference] -- ARGV...
        one fresh-interpreter op: ncwitt.cli.run(ARGV) with stdout
        captured, printed back as one JSON line.

--lib picks the copy of the library: 'program' is the src/ directory of
the checkout that holds this file, 'reference' the frozen copy under
bench/reference (see bench/run.py).  Never an installed copy.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
LIB_DIRS = {
    "program": os.path.join(os.path.dirname(BENCH_DIR), "src"),
    "reference": os.path.join(BENCH_DIR, "reference"),
}


def _lib_from_argv() -> str:
    """The --lib value, read before argparse runs: it decides the import."""
    own = sys.argv[1 : sys.argv.index("--")] if "--" in sys.argv else sys.argv[1:]
    lib = own[own.index("--lib") + 1] if "--lib" in own[:-1] else "program"
    if lib not in LIB_DIRS:
        sys.exit(f"--lib must be one of {sorted(LIB_DIRS)}, not {lib!r}")
    return lib


LIB = _lib_from_argv()
sys.path.insert(0, LIB_DIRS[LIB])

import ncwitt  # noqa: E402

if not os.path.abspath(ncwitt.__file__).startswith(LIB_DIRS[LIB] + os.sep):
    sys.exit(f"ncwitt was imported from {ncwitt.__file__}, not from {LIB_DIRS[LIB]}")

import tracing  # noqa: E402
import workloads  # noqa: E402

#: Failure messages kept for the report; the count is always complete.
KEEP_FAILURES = 3


class Runner:
    """Runs ops of one workload, checks their outputs and, for traced ops,
    merges their per-layer records."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.record = tracing.empty_record()

    def run(self, i: int, trace: bool = False) -> tuple[float, float]:
        """Run op i and check it; returns the op's wall time and CPU time
        in seconds.  The CPU time includes that of any op process."""
        tracer = tracing.Tracer() if trace and self.workload.in_process else None
        outcome = error = None
        if tracer is not None:
            tracer.install()
        start = time.perf_counter()
        cpu_start = _cpu_s()
        try:
            outcome = self.workload.op(i, trace)
        except Exception as exc:  # a failing op is counted, not fatal
            error = exc
        finally:
            elapsed = time.perf_counter() - start
            cpu = _cpu_s() - cpu_start
            if tracer is not None:
                tracer.uninstall()
        if error is None:
            try:
                self.workload.check(i, outcome)
            except Exception as exc:
                error = exc
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.failures) < KEEP_FAILURES:
                self.failures.append(f"op {i}: {type(error).__name__}: {error}")
        if tracer is not None:
            tracing.merge(self.record, tracer.record())
        elif trace and error is None:
            tracing.merge(self.record, outcome["trace"])
        return elapsed, cpu


def _cpu_s() -> float:
    """CPU seconds used by this process and its waited-for children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _reply(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def serve(workload) -> None:
    """Answer op and end commands from stdin (see the module docstring)."""
    runner = Runner(workload)
    _reply({"cycle": workload.cycle, "in_process": workload.in_process, "trace_ops": workload.trace_ops})
    for line in sys.stdin:
        command = line.split()
        if command[0] == "op":
            elapsed, cpu = runner.run(int(command[1]), trace=command[2] == "1")
            _reply({"elapsed": elapsed, "cpu": cpu})
        elif command[0] == "end":
            break
        else:
            sys.exit(f"unknown command {line!r}")
    _reply(
        {
            "attempted": runner.attempted,
            "failed": runner.failed,
            "failures": runner.failures,
            "peak_rss_kb": max(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
            ),
            "layers": runner.record,
        }
    )


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("mode", choices=["serve", "op"])
    ap.add_argument("--lib", choices=sorted(LIB_DIRS), default="program")
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    own = sys.argv[1:]
    cli_argv = []
    if "--" in own:
        cli_argv = own[own.index("--") + 1 :]
        own = own[: own.index("--")]
    args = ap.parse_args(own)

    if args.mode == "op":
        tracer = tracing.Tracer() if args.trace else None
        if tracer is not None:
            tracer.install()
        rc, out = workloads.run_cli(cli_argv)
        if tracer is not None:
            tracer.uninstall()
        record = tracer.record() if tracer is not None else None
        print(json.dumps({"rc": rc, "stdout": out, "trace": record}))
        return

    if args.workload is None:
        ap.error("--workload is required")
    serve(workloads.WORKLOADS[args.workload](args.seed, LIB))


if __name__ == "__main__":
    main()
