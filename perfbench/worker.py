"""Workload process: runs one workload closed-loop and prints its metrics.

``run.py`` starts this in a fresh process with BLAS pinned to one thread and
``QPROC_SIM_THREADS`` unset. One client runs sessions back to back; the next
session starts when the previous one and its output checks are done.

``--trace 0`` times sessions with nothing wrapped. ``--trace 1`` runs each
session twice, untraced and traced in alternating order, checks that both
write the same bytes, and reports per-layer self times and counts per traced
session. Both loops stop only at the end of a whole cycle of sessions, so the
mix of sessions is the same in every run and traced counts repeat exactly for
a given seed.

The package is imported from ``src/`` of the checkout this file lives in;
scratch outputs go to ``.perfbench_work/<workload>`` there.

Prints one JSON line: metrics by name, attempted/failed session counts, the
first problems found and run details.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import qproc_sim
from spans import COUNTS, TIME_BUCKETS, Instrumentation, Tracer, time_metric
from summary import tail
from workloads import (
    CYCLE,
    WORKLOADS,
    Session,
    clear,
    evaluate,
    make_sessions,
    output_bytes,
    run_session,
    write_noisy_config,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
MAX_PROBLEMS = 5


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Run:
    """Session bookkeeping shared by the untraced and the traced loop."""

    def __init__(self, workload: str, seed: int, work: Path):
        self.work = work
        clear(work)
        work.mkdir(parents=True)
        self.noisy_config = write_noisy_config(work / "noisy_device.json")
        self.sessions = make_sessions(workload, seed)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.readbacks: list[float] = []
        self.program_peak_mb: float | None = None

    def timed(self, session: Session, out: Path) -> tuple[float, list[int]]:
        clear(out)
        start = time.perf_counter()
        codes = run_session(session, out, self.noisy_config)
        return time.perf_counter() - start, codes

    def settle(self, session: Session, out: Path, codes: list[int], extra=()) -> None:
        """Read back and check a finished session, counting it as attempted."""
        readback, problems = evaluate(session, out, codes)
        problems.extend(extra)
        if readback is not None:
            self.readbacks.append(readback)
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[:MAX_PROBLEMS - len(self.problems)])

    def warm_up(self) -> Path:
        """Run the first session untimed; its outputs anchor the determinism check.

        The process's memory high-water mark is read before the session is
        read back, so it covers the imports and one session of the program
        but not the benchmark's own readback and comparisons.
        """
        first = self.work / "first"
        _, codes = self.timed(self.sessions[0], first)
        self.program_peak_mb = peak_rss_mb()
        self.settle(self.sessions[0], first, codes)
        return first

    def rerun_first(self, first: Path) -> None:
        rerun = self.work / "rerun"
        _, codes = self.timed(self.sessions[0], rerun)
        same = output_bytes(first) == output_bytes(rerun)
        self.settle(self.sessions[0], rerun, codes,
                    [] if same else ["rerun of the first session wrote different bytes"])


def untraced_loop(run: Run, seconds: float) -> tuple[dict, dict]:
    out = run.work / "session"
    durations = []
    deadline = time.perf_counter() + seconds
    while len(durations) % CYCLE or not durations or time.perf_counter() < deadline:
        session = run.sessions[len(durations) % CYCLE]
        elapsed, codes = run.timed(session, out)
        durations.append(elapsed)
        run.settle(session, out, codes)
    pct, tail_value = tail(durations)
    metrics = {
        "session_p50_s": statistics.median(durations),
        "session_tail_s": tail_value,
        "sessions_per_s": len(durations) / sum(durations),
        "readback_p50_s": statistics.median(run.readbacks),
        "peak_rss_mb": run.program_peak_mb,
    }
    return metrics, {"sessions": len(durations), "session_tail_pct": pct,
                     "process_peak_rss_mb": peak_rss_mb()}


def traced_loop(run: Run, seconds: float) -> tuple[dict, dict]:
    tracer = Tracer()
    instrumentation = Instrumentation(tracer)
    plain_out, traced_out = run.work / "untraced", run.work / "traced"
    plain, traced = [], []

    def run_traced(session):
        clear(traced_out)
        with instrumentation:
            tracer.push("session")
            try:
                codes = run_session(session, traced_out, run.noisy_config)
            finally:
                elapsed = tracer.pop()
        return elapsed, codes

    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        for session in run.sessions:
            if len(traced) % 2 == 0:
                plain_s, plain_codes = run.timed(session, plain_out)
                traced_s, traced_codes = run_traced(session)
            else:
                traced_s, traced_codes = run_traced(session)
                plain_s, plain_codes = run.timed(session, plain_out)
            plain.append(plain_s)
            traced.append(traced_s)
            written = output_bytes(traced_out)
            tracer.counts["harness.bytes_written"] += sum(len(b) for b in written.values())
            same = plain_codes == traced_codes and written == output_bytes(plain_out)
            run.settle(session, plain_out, plain_codes,
                       [] if same else ["traced session wrote different bytes"])

    n = len(traced)
    metrics = {time_metric(b): tracer.self_s[b] / n for b in TIME_BUCKETS}
    metrics.update({name: tracer.counts[name] / n for name in COUNTS})
    metrics["trace.session_s"] = sum(traced) / n
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1

    unknown = sorted(set(tracer.self_s) - set(TIME_BUCKETS))
    if unknown:
        run.problems.append(f"time in unlisted buckets {unknown}")
    self_total = sum(tracer.self_s.values())
    if abs(self_total - sum(traced)) > 1e-9 * sum(traced) + 1e-9:
        run.problems.append(f"self times add to {self_total} s, sessions to {sum(traced)} s")
    return metrics, {"traced_sessions": n}


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "QPROC_SIM_THREADS": os.environ.get("QPROC_SIM_THREADS"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    package = Path(qproc_sim.__file__).resolve()
    if SRC not in package.parents:
        print(f"qproc_sim imported from {package}, not from {SRC}", file=sys.stderr)
        return 1

    work = WORK / args.workload
    run = Run(args.workload, args.seed, work)
    first = run.warm_up()
    loop = traced_loop if args.trace else untraced_loop
    metrics, details = loop(run, args.seconds)
    run.rerun_first(first)
    clear(work)
    details["environment"] = environment()
    print(json.dumps({
        "metrics": metrics,
        "attempted": run.attempted,
        "failed": run.failed,
        "problems": run.problems,
        "details": details,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
