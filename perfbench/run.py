"""qproc-sim benchmark: ``python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1``.

Run from the root of a source checkout. The package is imported from
``src/``; nothing is installed. Every run

* with ``--trace 0``, first times ``SETUP_PROBES`` fresh processes that import
  ``qproc_sim.harness`` and load the default device (``setup_s``, median);
* starts the workload process (``worker.py``) with BLAS pinned to one thread
  and ``QPROC_SIM_THREADS`` unset, which runs sessions closed-loop for
  ``--seconds`` and checks every session's outputs;
* prints a details line (environment, tail percentile, sample counts, first
  problems) and, last, one JSON object with ``correct``, ``attempted``,
  ``failed`` and the metrics named in ``BENCHMARK.json`` with their units.

Scratch outputs go to ``.perfbench_work/`` in the checkout and are removed at
the end. Exits nonzero, printing no result, when the checkout has no source
tree or the workload process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_PROBES = 9
SETUP_CODE = (
    "import time\n"
    "start = time.perf_counter()\n"
    "from qproc_sim.harness import load_device_document\n"
    "load_device_document()\n"
    "print(repr(time.perf_counter() - start))\n"
)
# every run must end within 180 s
DEADLINE_S = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("QPROC_SIM_THREADS", None)
    env.update({
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "PYTHONHASHSEED": "0",
        "PYTHONPATH": str(SRC),
    })
    return env


def measure_setup(env: dict, deadline: float) -> float:
    """Median setup time over fresh processes; the first probe is discarded
    because it may also write the bytecode caches."""
    times = []
    for _ in range(SETUP_PROBES + 1):
        probe = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
            stdout=subprocess.PIPE, text=True, check=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
        times.append(float(probe.stdout))
    return statistics.median(times[1:])


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description="qproc-sim benchmark")
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]],
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    if not (SRC / "qproc_sim" / "harness.py").is_file():
        print(f"no qproc_sim source tree under {SRC}", file=sys.stderr)
        return 2
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    env = child_env()

    metrics = {}
    if not args.trace:
        metrics["setup_s"] = measure_setup(env, deadline)

    try:
        worker = subprocess.run(
            [sys.executable, str(HERE / "worker.py"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    if worker.returncode != 0:
        print(f"workload process exited with {worker.returncode}", file=sys.stderr)
        return 1
    report = json.loads(worker.stdout.strip().splitlines()[-1])
    metrics.update(report["metrics"])
    if set(metrics) != set(units):
        print(f"metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(units)}",
              file=sys.stderr)
        return 1

    details = dict(report["details"], problems=report["problems"], git_commit=git_commit())
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": report["failed"] == 0 and not report["problems"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
