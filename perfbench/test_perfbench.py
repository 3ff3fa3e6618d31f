"""Tests of the benchmark's own code: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import numpy as np  # noqa: E402

from qproc_sim import dynamics, harness, hilbert  # noqa: E402
from qproc_sim.hilbert import QuantumState  # noqa: E402
from spans import COUNTS, TIME_BUCKETS, Instrumentation, Tracer, _eig_span, time_metric  # noqa: E402
from summary import tail, tail_percentile  # noqa: E402
from workloads import (  # noqa: E402
    CYCLE, evaluate, make_sessions, output_bytes, run_session, write_noisy_config,
)
import worker  # noqa: E402


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_of_nested_spans():
    # session [0, 10] > harness [1, 9] > dynamics [2, 6] > dynamics.eig [3, 4];
    # harness > hilbert [7, 8.5]
    tracer = Tracer(FakeClock([0, 1, 2, 3, 4, 6, 7, 8.5, 9, 10]))
    tracer.push("session")
    tracer.push("harness")
    tracer.push("dynamics")
    tracer.push("dynamics.eig")
    assert tracer.layer == "dynamics"
    assert tracer.pop() == 1
    assert tracer.pop() == 4
    tracer.push("hilbert")
    tracer.pop()
    assert tracer.pop() == 8
    assert tracer.pop() == 10
    assert dict(tracer.self_s) == {
        "session": 2, "harness": 2.5, "dynamics": 3, "dynamics.eig": 1, "hilbert": 1.5,
    }
    assert sum(tracer.self_s.values()) == 10


def test_repeated_spans_accumulate_per_bucket():
    tracer = Tracer(FakeClock([0, 1, 3, 4, 7, 10]))
    tracer.push("session")
    for _ in range(2):
        tracer.push("noise")
        tracer.pop()
    tracer.pop()
    assert dict(tracer.self_s) == {"session": 5, "noise": 5}


@pytest.mark.parametrize("n, pct", [
    (5, 50), (19, 50), (20, 50), (21, 52), (40, 75), (50, 80), (99, 89),
    (100, 90), (110, 90), (200, 95), (1000, 99), (10_000, 99),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, pct):
    assert tail_percentile(n) == pct


def test_tail_percentile_is_the_highest_that_qualifies():
    for n in range(20, 2000):
        beyond = lambda p: n - math.ceil(p * n / 100)
        pct = tail_percentile(n)
        assert beyond(pct) >= 10
        assert pct == 99 or beyond(pct + 1) < 10


def test_tail_value_is_nearest_rank():
    values = list(range(40, 0, -1))  # ranks do not depend on input order
    pct, value = tail(values)
    assert (pct, value) == (75, 30)
    assert sum(v > value for v in values) == 10


def test_instrumentation_restores_every_original():
    originals = (harness.run_experiment, harness.swap_spectroscopy, dynamics.swap_spectroscopy,
                 QuantumState.__dict__["__post_init__"], np.linalg.eigh)
    tracer = Tracer()
    with Instrumentation(tracer):
        assert harness.swap_spectroscopy is dynamics.swap_spectroscopy
        assert harness.run_experiment is not originals[0]
        np.linalg.eigh(np.eye(3))
    assert (harness.run_experiment, harness.swap_spectroscopy, dynamics.swap_spectroscopy,
            QuantumState.__dict__["__post_init__"], np.linalg.eigh) == originals


def _eig_counts(tracer):
    return {k: v for k, v in tracer.counts.items() if ".eig_" in k}


def test_eigensolver_calls_are_charged_to_the_calling_layer():
    H = hilbert.QuantumOperator(hilbert.SpaceLayout.qubits(2), np.diag([0.0, 1.0, 2.0, 3.0]),
                                hermitian=True)
    tracer = Tracer()
    with Instrumentation(tracer):
        hilbert.hermitian_exponential(H, 0.1)  # one eigh of 4x4 inside hilbert
        assert _eig_counts(tracer) == {"hilbert.eig_calls": 1, "hilbert.eig_n3": 64}
        np.linalg.eigh(np.eye(3))  # outside any layer: timed, not counted
        np.linalg.eigvalsh(np.eye(3))
    assert _eig_counts(tracer) == {"hilbert.eig_calls": 1, "hilbert.eig_n3": 64}
    assert tracer.self_s["hilbert.eig"] > 0
    assert "session" in tracer.self_s


def test_batched_eigensolver_counts_every_matrix():
    tracer = Tracer()
    eigh = _eig_span(tracer, np.linalg.eigh)
    tracer.push("dynamics.hamiltonian")  # a part's layer is the part's prefix
    eigh(np.stack([np.eye(4)] * 3))
    tracer.pop()
    assert _eig_counts(tracer) == {"dynamics.eig_calls": 1, "dynamics.eig_n3": 3 * 4 ** 3}
    assert set(tracer.self_s) == {"dynamics.hamiltonian", "dynamics.eig"}


@pytest.fixture(scope="module")
def factoring_session(tmp_path_factory):
    work = tmp_path_factory.mktemp("factoring")
    noisy = write_noisy_config(work / "noisy.json")
    session = make_sessions("factoring", 0)[0]
    codes = run_session(session, work / "out", noisy)
    return session, work / "out", codes


def _copy(src: Path, dst: Path) -> Path:
    for rel, data in output_bytes(src).items():
        (dst / rel).parent.mkdir(parents=True, exist_ok=True)
        (dst / rel).write_bytes(data)
    return dst


def test_clean_session_passes(factoring_session):
    session, out, codes = factoring_session
    readback, problems = evaluate(session, out, codes)
    assert problems == [] and readback > 0


@pytest.mark.parametrize("corrupt", [
    "truncated_json", "wrong_period", "bad_density_matrix", "missing_file",
])
def test_corrupted_output_counts_as_failed(factoring_session, tmp_path, corrupt):
    session, out, codes = factoring_session
    out = _copy(out, tmp_path / "out")
    path = out / "three_qubit_ideal" / "factoring.json"
    text = path.read_text()
    if corrupt == "truncated_json":
        path.write_text(text[: len(text) // 2])
    elif corrupt == "wrong_period":
        doc = json.loads(text)
        doc["result"]["period_r"] = 4
        path.write_text(json.dumps(doc))
    elif corrupt == "bad_density_matrix":
        doc = json.loads(text)
        doc["breakpoints"]["step1"]["rho_hat"][0][0] = [2.0, 0.0]
        path.write_text(json.dumps(doc))
    else:
        path.unlink()
    _, problems = evaluate(session, out, codes)
    assert problems


def test_nonzero_exit_code_counts_as_failed(factoring_session):
    session, out, codes = factoring_session
    readback, problems = evaluate(session, out, [2] + codes[1:])
    assert readback is None and problems == ["three_qubit_ideal: exit code 2"]


def test_chevron_grid_with_a_missing_row_fails(tmp_path):
    session = make_sessions("chevron", 0)[0]
    out = tmp_path / "out"
    codes = run_session(session, out, write_noisy_config(tmp_path / "noisy.json"))
    assert evaluate(session, out, codes)[1] == []
    csv = out / "spectroscopy" / "spectroscopy.csv"
    lines = csv.read_text().splitlines()
    csv.write_text("\n".join(lines[:100] + lines[101:]) + "\n")
    assert evaluate(session, out, codes)[1]


def test_sessions_follow_the_workload_seed():
    assert make_sessions("collective", 3) == make_sessions("collective", 3)
    assert make_sessions("collective", 3) != make_sessions("collective", 4)


def _declared(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec[kind]}


def test_loops_report_the_declared_metrics(tmp_path):
    run = worker.Run("factoring", 0, tmp_path / "work")
    first = run.warm_up()
    metrics, details = worker.untraced_loop(run, 0.0)
    assert set(metrics) | {"setup_s"} == _declared("end_to_end")
    assert details["sessions"] == CYCLE
    assert 0 < metrics["peak_rss_mb"] <= details["process_peak_rss_mb"]

    metrics, details = worker.traced_loop(run, 0.0)
    assert set(metrics) == _declared("per_layer")
    assert set(metrics) >= {time_metric(b) for b in TIME_BUCKETS} | set(COUNTS)
    assert details["traced_sessions"] == CYCLE
    run.rerun_first(first)
    assert (run.attempted, run.failed, run.problems) == (2 + 2 * CYCLE, 0, [])
    layer_s = sum(metrics[time_metric(b)] for b in TIME_BUCKETS)
    assert layer_s == pytest.approx(metrics["trace.session_s"], rel=1e-9)
    assert metrics["tomography.records"] == 24
    assert metrics["dynamics.calls"] == 0
