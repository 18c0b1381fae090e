"""ncwitt benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload counterexample-l5 --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 1

Run from a checkout of the repository; the library is taken from its
src/ directory.  With --trace 0 the run measures the end-to-end metrics
with tracing off; with --trace 1 it runs a fixed set of ops untraced and
traced and reports the per-layer metrics.  The names of the metrics in
the closing JSON line come from BENCHMARK.json; the lines before it show
every metric, including those that BENCHMARK.json leaves out.

On a shared host, speed drifts by 15-40% over seconds to minutes, more than any
bound a regression check could use, and it moves everything that runs on
it alike.  So the untraced run times each op on two copies of the
library at once: the one in src/ and bench/reference/ncwitt, a frozen
copy of src/ncwitt as of commit 84f9067 that must never be edited.  The
two workers share one CPU, which the kernel hands back and forth every
few milliseconds, and each op is timed by the CPU time it used.  Both
copies see the same host speed, so the time ratios cancel the drift,
and they move as a change to src/ makes the program faster or
slower.  The ratios are the gated metrics; the CPU seconds are printed
beside them.

Each copy of the library runs in its own worker process (bench/child.py),
driven one op at a time from this process, and each worker's address
space is capped (RLIMIT_AS), so a runaway input fails its op instead of
exhausting the machine.  The workloads are described in
bench/workloads.py.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
CHILD = os.path.join(BENCH_DIR, "child.py")
sys.path.insert(0, BENCH_DIR)

import tracing  # noqa: E402

#: Address-space cap of every workload process.  A level-5 op peaks near
#: 50 MB resident; a power with 2^27 terms needs tens of GB.
MEMORY_LIMIT_BYTES = 1 << 30
#: Set-ups timed per run; setup_s is their median.
SETUP_REPEATS = 9
#: The whole benchmark must end within 180 s.
DEADLINE_S = 170
#: op_p90_s needs at least this many ops in the run.
P90_MIN_OPS = 100


def _limit_memory() -> None:
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    limit = MEMORY_LIMIT_BYTES if hard == resource.RLIM_INFINITY else min(hard, MEMORY_LIMIT_BYTES)
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


class Worker:
    """A bench/child.py serve process for one workload on one library copy."""

    live: list["Worker"] = []

    def __init__(self, workload: str, seed: int, lib: str, cpus: set[int] | None = None):
        """cpus, if given, is the set of CPUs the worker and its op
        processes may run on."""

        def prepare() -> None:
            _limit_memory()
            if cpus is not None:
                try:
                    os.sched_setaffinity(0, cpus)
                except OSError:
                    pass  # unpinned, the copies still run at once and are timed by CPU time

        self.proc = subprocess.Popen(
            [sys.executable, CHILD, "serve", "--workload", workload, "--seed", str(seed), "--lib", lib],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            cwd=ROOT,
            preexec_fn=prepare,
            start_new_session=True,
        )
        Worker.live.append(self)
        self.lib = lib
        self.shape = self._read()  # the workload's cycle, in_process and trace_ops

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            sys.exit(f"{self.lib} worker exited {self.proc.wait()}")
        return json.loads(line)

    def _send(self, command: str) -> None:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()

    def start_op(self, i: int, trace: bool = False) -> None:
        self._send(f"op {i} {int(trace)}")

    def finish_op(self) -> dict:
        """The op's wall time ('elapsed') and CPU time ('cpu'), once done."""
        return self._read()

    def op(self, i: int, trace: bool = False) -> dict:
        self.start_op(i, trace)
        return self.finish_op()

    def end(self) -> dict:
        """The worker's totals; the worker exits."""
        self._send("end")
        summary = self._read()
        self.stop()
        return summary

    def stop(self) -> None:
        """Kill the worker with any op process it started, and wait for it."""
        if self.proc.poll() is None:
            os.killpg(self.proc.pid, signal.SIGKILL)
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            try:
                stream.close()
            except OSError:
                pass
        if self in Worker.live:
            Worker.live.remove(self)


class DeadlineExceeded(Exception):
    pass


def _on_alarm(signum, frame):
    raise DeadlineExceeded


def time_setups(workload: str, seed: int) -> list[float]:
    """Wall time from starting a fresh interpreter to the workload's inputs
    being ready, measured SETUP_REPEATS times."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        worker = Worker(workload, seed, "program")
        times.append(time.perf_counter() - start)
        worker.end()
    return times


def pair_ops(workload: str, seed: int, seconds: float) -> tuple[list[dict], list[dict], dict, dict]:
    """Run each op on both library copies at once, both workers sharing
    one CPU, until `seconds` have passed and the input pool has been run
    through whole a number of times.  Returns the per-op timings of the
    program and of the reference, and each worker's totals."""
    shared_cpu = {min(os.sched_getaffinity(0))}
    program = Worker(workload, seed, "program", shared_cpu)
    reference = Worker(workload, seed, "reference", shared_cpu)
    workers = (program, reference)
    cycle = program.shape["cycle"]
    if program.shape["in_process"]:
        for worker in workers:
            worker.op(0)  # warm-up: checked, not timed
    timings: dict[Worker, list[dict]] = {program: [], reference: []}
    start = time.monotonic()
    i = 0
    while True:
        for worker in workers:
            worker.start_op(i)
        for worker in workers:
            timings[worker].append(worker.finish_op())
        i += 1
        if i % cycle == 0 and time.monotonic() - start >= seconds:
            break
    return timings[program], timings[reference], program.end(), reference.end()


def trace_ops(workload: str, seed: int) -> tuple[dict, float]:
    """The workload's fixed ops, each untraced then traced, so that
    per-layer counts repeat exactly and the overhead compares like with
    like.  Returns the worker's totals and the tracing overhead."""
    worker = Worker(workload, seed, "program")
    untraced = traced = 0.0
    for i in range(worker.shape["trace_ops"]):
        untraced += worker.op(i)["elapsed"]
        traced += worker.op(i, trace=True)["elapsed"]
    return worker.end(), traced / untraced - 1


def environment() -> str:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return (
        f"python {platform.python_version()}, nproc {os.cpu_count()}, cpu {cpu}, "
        f"commit {_commit()}"
    )


def _commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.exists(ref_file):
            with open(ref_file) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            return next((ln.split()[0] for ln in f if ln.rstrip().endswith(" " + ref)), "unknown")
    except OSError:
        return "unknown (not a git checkout)"


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, help="a workload name, or 'all' to run each in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "ncwitt", "__init__.py")):
        sys.exit(f"no ncwitt sources under {ROOT}/src: run from a checkout of the repository")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    print(f"environment: {environment()}")
    names = [w["name"] for w in spec["workloads"]] if args.workload == "all" else [args.workload]
    for name in names:
        report_workload(spec, name, args.seed, args.seconds, args.trace)


def report_workload(spec: dict, workload: str, seed: int, seconds: float, trace: int) -> None:
    """Run one workload; its result is the JSON line printed last."""
    print(f"workload {workload}, seed {seed}, seconds {seconds:g}, trace {trace}")
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(DEADLINE_S)
    try:
        if trace:
            summary, overhead = trace_ops(workload, seed)
            reference_summary = None
        else:
            setups = time_setups(workload, seed)
            program, reference, summary, reference_summary = pair_ops(workload, seed, seconds)
    except DeadlineExceeded:
        sys.exit(f"workload {workload} did not finish within {DEADLINE_S} s")
    finally:
        signal.alarm(0)
        for worker in list(Worker.live):
            worker.stop()

    attempted, failed = summary["attempted"], summary["failed"]
    for failure in summary["failures"]:
        print(f"failure: {failure}")
    print(f"fail_ratio {failed / attempted:.4g} ({failed} of {attempted} ops)")
    correct = failed == 0
    if reference_summary is not None:
        # the reference runs the same ops; a failure there is a broken benchmark
        for failure in reference_summary["failures"]:
            print(f"reference failure: {failure}")
        correct = correct and reference_summary["failed"] == 0

    if trace:
        measured = tracing.layer_metrics(summary["layers"])
        measured["trace.overhead_ratio"] = (overhead, "ratio")
        print(f"per-layer metrics over {attempted // 2} traced ops (each also run untraced):")
        for name, (value, unit) in measured.items():
            print(f"  {name:42} {value:>14.6g} {unit}")
        for name in summary["layers"]["absent"]:
            print(f"  {name:42} {'absent':>14}")
        wanted = spec["per_layer"]
    else:
        measured = end_to_end_metrics(setups, program, reference, summary)
        wanted = spec["end_to_end"]

    metrics = {
        m["name"]: {"value": measured[m["name"]][0], "unit": measured[m["name"]][1]}
        for m in wanted
        if m["name"] in measured
    }
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))


def end_to_end_metrics(setups: list[float], program: list[dict], reference: list[dict], summary: dict) -> dict:
    """The end-to-end metrics by name, as (value, unit); prints each with
    its sample count.

    Op times are CPU seconds: the two copies run each op at the same time
    on one shared CPU, so an op's wall time is about twice its own.  The
    library is single-threaded and does no I/O, so alone its wall time
    and CPU time agree.  op_ratio_p50 is the median over ops of the op's
    time on src/ divided by that of the same op on the reference copy.
    ops_per_s_ratio is the program's ops per second over the reference's,
    the total op time of the reference over that of the program.  Both
    read 1 at the commit the reference was frozen at, up to noise."""
    durations = [t["cpu"] for t in program]
    reference_durations = [t["cpu"] for t in reference]
    ratios = [p / r for p, r in zip(durations, reference_durations)]
    measured = {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "op_ratio_p50": (statistics.median(ratios), "ratio", len(ratios)),
        "ops_per_s_ratio": (sum(reference_durations) / sum(durations), "ratio", len(durations)),
        "op_p50_s": (statistics.median(durations), "s", len(durations)),
        "ops_per_s": (len(durations) / sum(durations), "1/s", len(durations)),
        "reference.op_p50_s": (statistics.median(reference_durations), "s", len(reference)),
        "peak_rss_mb": (summary["peak_rss_kb"] / 1024, "MB", 1),
    }
    if len(durations) >= P90_MIN_OPS:
        measured["op_p90_s"] = (statistics.quantiles(durations, n=10)[-1], "s", len(durations))
    for name, (value, unit, n) in measured.items():
        print(f"  {name:20} {value:>12.6g} {unit:5} (n={n})")
    if len(durations) < P90_MIN_OPS:
        print(f"  op_p90_s not reported: {len(durations)} ops, fewer than {P90_MIN_OPS}")
    return {name: (value, unit) for name, (value, unit, _) in measured.items()}


if __name__ == "__main__":
    main()
