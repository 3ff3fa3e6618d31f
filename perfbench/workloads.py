"""The benchmark's workloads: sessions, how they run, and how outputs are checked.

A session is the fixed list of ``run_experiment`` calls a researcher makes to
reproduce one figure of the paper. Each workload draws ``CYCLE`` sessions from
its seed; a run loops over them in order. Only the generated inputs (CLI
arguments and ``--seed``) reach the program.
"""

from __future__ import annotations

import json
import math
import random
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from qproc_sim import harness
from qproc_sim.circuits import FactoringResult
from qproc_sim.harness import (
    ExperimentSpec,
    build_parser,
    default_config_path,
    read_rabi_traces_csv,
    read_spectroscopy_csv,
)
from qproc_sim.tomography import TomographyRecord

WORKLOADS = ("chevron", "collective", "factoring")

# distinct sessions per workload; traced runs cover whole cycles so that
# their per-session counts repeat exactly
CYCLE = 4

# the README's invented-default noise block, for the noisy factoring runs
NOISE_BLOCK = {
    "t1_ns": [400, 400, 400, 400],
    "t_phi_ns": [200, 200, 200, 200],
    "gate_time_1q_ns": 10,
    "gate_time_2q_ns": 50,
    "invented_default": True,
}

SHOR_VARIANTS = ("three_qubit", "four_qubit", "control")


@dataclass(frozen=True)
class Call:
    """One ``run_experiment`` call; ``options`` are what the CLI would pass."""

    name: str
    experiment: str
    options: dict
    seed: int
    noisy: bool = False


@dataclass(frozen=True)
class Session:
    calls: tuple[Call, ...]


def _call(name: str, argv: list[str], seed: int, noisy: bool = False) -> Call:
    args = vars(build_parser().parse_args(argv))
    options = {k: v for k, v in args.items() if k not in ("command", "config", "out", "seed")}
    return Call(name, argv[0], options, seed, noisy)


def _labels(qubits) -> str:
    return ",".join(str(q) for q in sorted(qubits))


def make_sessions(workload: str, seed: int) -> list[Session]:
    """The ``CYCLE`` sessions of a workload, drawn from the workload seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}/{seed}")
    program_seed = lambda: rng.randrange(1_000_000)
    sessions = []
    for _ in range(CYCLE):
        if workload == "chevron":
            qubit = rng.randint(1, 4)
            calls = (_call("spectroscopy", ["spectroscopy", "--qubit", str(qubit)], program_seed()),)
        elif workload == "collective":
            pair = rng.sample(range(1, 5), 2)
            triple = rng.sample(range(1, 5), 3)
            calls = (
                _call("rabi", ["rabi_scaling"], program_seed()),
                _call("bell", ["entangle", "--participants", _labels(pair)], program_seed()),
                _call("w3", ["entangle", "--participants", _labels(triple)], program_seed()),
                _call("w4", ["entangle", "--participants", "1,2,3,4"], program_seed()),
            )
        else:
            calls = tuple(
                _call(f"{variant}_{'noisy' if noisy else 'ideal'}",
                      ["shor", "--variant", variant], program_seed(), noisy)
                for variant in SHOR_VARIANTS
                for noisy in (False, True)
            )
        sessions.append(Session(calls))
    return sessions


def write_noisy_config(path: Path) -> Path:
    """Shipped default device plus the README noise block."""
    doc = json.loads(default_config_path().read_text())
    doc["noise"] = NOISE_BLOCK
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return path


def run_session(session: Session, out_dir: Path, noisy_config: Path) -> list[int]:
    """Run every call of a session into ``out_dir/<call>``; returns exit codes."""
    codes = []
    for call in session.calls:
        spec = ExperimentSpec(call.experiment, dict(call.options), out_dir / call.name, call.seed)
        # looked up on the module at call time, so a traced session reaches the wrapper
        codes.append(harness.run_experiment(spec, noisy_config if call.noisy else None))
    return codes


def clear(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)


def output_bytes(out_dir: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(out_dir)): p.read_bytes()
        for p in sorted(out_dir.rglob("*")) if p.is_file()
    }


# ---------------------------------------------------------------------------
# read side: parse a session's outputs with the package's public readers
# ---------------------------------------------------------------------------

def _json(path: Path):
    return json.loads(path.read_text())


def read_outputs(session: Session, out_dir: Path) -> dict:
    parsed = {}
    for call in session.calls:
        d = out_dir / call.name
        entry = {"manifest": _json(d / "manifest.json")}
        if call.experiment == "spectroscopy":
            entry["map"] = read_spectroscopy_csv(d / "spectroscopy.csv")
        elif call.experiment == "rabi_scaling":
            entry["traces"] = read_rabi_traces_csv(d / "rabi_traces.csv")
            entry["fits"] = _json(d / "rabi_fits.json")
        elif call.experiment == "entangle":
            entry["record"] = TomographyRecord.from_dict(_json(d / "tomography.json"))
        else:
            doc = _json(d / "factoring.json")
            entry["mode"] = doc["mode"]
            entry["result"] = FactoringResult.from_dict(doc["result"])
            entry["records"] = [TomographyRecord.from_dict(r) for r in doc["breakpoints"].values()]
            entry["records"].append(TomographyRecord.from_dict(doc["register_qst"]))
        parsed[call.name] = entry
    return parsed


# ---------------------------------------------------------------------------
# output checks; each returns a list of problems, empty when the call passed
# ---------------------------------------------------------------------------

def _check_chevron(call: Call, entry: dict) -> list[str]:
    freqs, _, grid = entry["map"]
    config = entry["manifest"]["config"]
    qubit = call.options["qubit"]
    step = call.options["f_step"]
    depth = grid.min(axis=1)
    problems = []
    for label, f_res in (("bus", config["f_bus_ghz"]),
                         (f"memory Q{qubit}", config["f_memory_ghz"][qubit - 1])):
        window = np.abs(freqs - f_res) <= 0.25
        found = float(freqs[window][np.argmin(depth[window])])
        if abs(found - f_res) > step + 1e-9:
            problems.append(f"{call.name}: {label} chevron minimum at {found} GHz, expected {f_res}")
    return problems


def _check_rabi(call: Call, entry: dict) -> list[str]:
    g_bus = entry["manifest"]["config"]["g_bus_mhz"]
    problems = []
    if sorted(entry["traces"]) != [fit["n"] for fit in entry["fits"]]:
        problems.append(f"{call.name}: traces and fits list different N")
    for fit in entry["fits"]:
        gs = [g_bus[q - 1] * 1e-3 for q in fit["participants"]]
        expected = math.sqrt(len(gs)) * math.sqrt(sum(g * g for g in gs) / len(gs))
        if abs(fit["fitted_freq_ghz"] - expected) > 0.01 * expected:
            problems.append(f"{call.name}: N={fit['n']} fit {fit['fitted_freq_ghz']} GHz vs {expected}")
    return problems


def _check_entangle(call: Call, entry: dict) -> list[str]:
    record = entry["record"]
    metrics = record.metrics
    problems = []
    if record.rho_hat is None or len(record.settings) != 3 ** record.n_qubits:
        problems.append(f"{call.name}: incomplete tomography record")
    if metrics["fidelity_ideal_gauged"] < 0.99:
        problems.append(f"{call.name}: ideal gauged fidelity {metrics['fidelity_ideal_gauged']}")
    if record.n_qubits == 3 and metrics.get("witness_passed") != 1.0:
        problems.append(f"{call.name}: W witness failed")
    return problems


def _check_shor(call: Call, entry: dict) -> list[str]:
    result = entry["result"]
    expected_mode = "noisy_density" if call.noisy else "ideal_pure"
    problems = []
    if entry["mode"] != expected_mode:
        problems.append(f"{call.name}: mode {entry['mode']}, expected {expected_mode}")
    if call.noisy:
        return problems
    if call.options["variant"] == "control":
        zeros = "0" * len(next(iter(result.output_counts)))
        if result.output_counts.get(zeros) != result.shots or result.factors is not None:
            problems.append(f"{call.name}: control run gave {result.output_counts}, factors {result.factors}")
    elif result.period_r != 2 or result.factors != (3, 5):
        problems.append(f"{call.name}: period {result.period_r}, factors {result.factors}")
    return problems


CHECKS = {
    "spectroscopy": _check_chevron,
    "rabi_scaling": _check_rabi,
    "entangle": _check_entangle,
    "shor": _check_shor,
}


def check_outputs(session: Session, parsed: dict) -> list[str]:
    problems = []
    for call in session.calls:
        problems.extend(CHECKS[call.experiment](call, parsed[call.name]))
    return problems


def evaluate(session: Session, out_dir: Path, codes: list[int]) -> tuple[float | None, list[str]]:
    """Read back and check one session's outputs; returns (read time, problems).

    A nonzero exit code, an output the readers cannot parse and a failed
    physics check each make the session fail.
    """
    problems = [f"{call.name}: exit code {code}"
                for call, code in zip(session.calls, codes) if code != 0]
    if problems:
        return None, problems
    start = time.perf_counter()
    try:
        parsed = read_outputs(session, out_dir)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return time.perf_counter() - start, [f"unreadable output: {type(exc).__name__}: {exc}"]
    elapsed = time.perf_counter() - start
    try:
        return elapsed, check_outputs(session, parsed)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return elapsed, [f"malformed output: {type(exc).__name__}: {exc}"]
