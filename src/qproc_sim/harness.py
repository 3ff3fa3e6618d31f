"""Experiment orchestration and the ``qproc-sim`` command-line front end.

Four experiments reproduce the device's headline measurements end to end:

* ``spectroscopy``  - swap-spectroscopy chevron map, written as CSV
* ``rabi_scaling``  - P_B traces for N=1..4 resonant qubits plus fitted
  oscillation frequencies with -3 dB error bars
* ``entangle``      - Bell/W preparation, full QST and the metric suite
* ``shor``          - compiled factoring run with breakpoint QST records

Every run writes a ``manifest.json`` (config echo, options, seed, versions -
no timestamps or paths, so identical invocations are byte-identical).
Exit codes: 0 success, 1 config error, 2 numerical-invariant violation.
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import sys
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__
from .circuits import SHOR_VARIANTS, Gate, build_shor, factor_fifteen, gate_unitary
from .dynamics import (
    OPERATING_HALF_RANGE_GHZ,
    ConfigError,
    DeviceConfig,
    effective_coupling,
    fit_oscillation_frequency,
    prepare_shared_excitation,
    simultaneous_resonance,
    swap_spectroscopy,
)
from .hilbert import InvariantError, partial_trace, qubit_ket
from .noise import NoiseParams
from .tomography import (
    bell_phi_plus,
    bell_singlet,
    concurrence_eof,
    ghz_state,
    linear_entropy,
    max_abs_imag,
    maximally_mixed_qubit,
    phase_gauged_fidelity,
    reconstruct,
    simulate_tomography,
    state_fidelity,
    uhlmann_fidelity,
    w_state,
    witness_check,
)

EXPERIMENTS = ("spectroscopy", "rabi_scaling", "entangle", "shor")

# each experiment's options and their defaults, as the CLI passes them
_OPTION_DEFAULTS = {
    "spectroscopy": {"qubit": 1, "f_min": 6.0, "f_max": 7.3, "f_step": 0.005,
                     "tau_max": 100.0, "tau_step": 0.5},
    "rabi_scaling": {"qubits": [1, 2, 3, 4], "dtau_max": 200.0, "sample_dt": 0.25},
    "entangle": {"participants": [1, 2], "qst_shots": 10_000},
    "shor": {"variant": "three_qubit", "shots": 150_000, "qst_shots": 10_000},
}

# the option naming each experiment's 1-based qubit labels
_LABEL_OPTIONS = {"spectroscopy": "qubit", "rabi_scaling": "qubits", "entangle": "participants"}


@dataclass
class ExperimentSpec:
    """One experiment invocation. Qubit labels in options are 1-based (Q1..Q4)."""

    name: str
    options: dict = field(default_factory=dict)
    output_dir: Path = Path(".")
    seed: int = 0


@dataclass
class ValidationReport:
    violations: list[str]

    @property
    def ok(self) -> bool:
        return not self.violations


# ---------------------------------------------------------------------------
# config loading
# ---------------------------------------------------------------------------

def default_config_path() -> Path:
    return Path(str(resources.files("qproc_sim").joinpath("data/default_device.json")))


def load_device_document(config_path=None) -> tuple[DeviceConfig, NoiseParams | None]:
    """Parse the device JSON; a ``noise`` key selects noisy (density) mode."""
    path = Path(config_path) if config_path else default_config_path()
    try:
        doc = json.loads(path.read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config file {path} is not valid JSON (line {exc.lineno}, column {exc.colno}): {exc.msg}"
        ) from exc
    config = DeviceConfig.from_dict(doc)
    noise = None
    if "noise" in doc:
        try:
            noise = NoiseParams.from_dict(doc["noise"], n_qubits=config.n_qubits)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad noise parameters: {exc}") from exc
    return config, noise


def validate_config(config_path) -> ValidationReport:
    """Collect every device/noise invariant violation in the given file."""
    try:
        load_device_document(config_path)
    except ConfigError as exc:
        return ValidationReport(list(exc.violations))
    return ValidationReport([])


def device_document(config: DeviceConfig, noise: NoiseParams | None) -> dict:
    doc = config.to_dict()
    if noise is not None:
        doc["noise"] = noise.to_dict()
    return doc


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _write_csv(path: Path, header, columns) -> None:
    """Write equal-length columns as CSV rows of Python int/float ``repr`` cells."""
    # each distinct bit pattern is formatted once; 0.0 and -0.0 stay distinct
    cells = []
    for column in map(np.ascontiguousarray, columns):
        keys = column.view(np.int64) if column.dtype == np.float64 else column
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        text = np.array([repr(v) for v in column[first].tolist()], dtype=object)
        cells.append(text[inverse])
    lines = [",".join(header)]
    lines.extend(map(",".join, zip(*cells)))
    path.write_text("\n".join(lines) + "\n")


def _write_manifest(spec: ExperimentSpec, config, noise) -> None:
    _write_json(spec.output_dir / "manifest.json", {
        "experiment": spec.name,
        "options": spec.options,
        "seed": spec.seed,
        "config": device_document(config, noise),
        "versions": {
            "qproc-sim": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
    })


# ---------------------------------------------------------------------------
# schema parsers (round-trip contract for every output file)
# ---------------------------------------------------------------------------

def _read_csv(path, columns) -> np.ndarray:
    """Check a CSV's header against ``columns``; return its body as a float table."""
    lines = Path(path).read_text().strip().splitlines()
    header = ",".join(columns)
    if not lines or lines[0] != header:
        raise ValueError(f"unexpected header in {path}: {lines[:1]}, expected {header!r}")
    if len(lines) == 1:
        return np.empty((0, len(columns)))
    table = np.loadtxt(lines[1:], delimiter=",", ndmin=2)
    if table.shape[1] != len(columns):
        raise ValueError(f"{path}: rows have {table.shape[1]} values, expected {len(columns)}")
    return table


def read_spectroscopy_csv(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return (freqs GHz, taus ns, P_e map) from a spectroscopy CSV."""
    table = _read_csv(path, ("freq_ghz", "tau_ns", "p_e"))
    freqs, f_index = np.unique(table[:, 0], return_inverse=True)
    taus, t_index = np.unique(table[:, 1], return_inverse=True)
    grid = np.full((freqs.size, taus.size), np.nan)
    grid[f_index, t_index] = table[:, 2]
    if np.isnan(grid).any():
        raise ValueError("spectroscopy CSV does not cover the full grid")
    return freqs, taus, grid


def read_rabi_traces_csv(path) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Return {N: (times, p_bus)} from a rabi_scaling traces CSV."""
    table = _read_csv(path, ("n_participants", "time_ns", "p_bus"))
    ns = table[:, 0].astype(int)
    if not np.array_equal(ns, table[:, 0]):
        raise ValueError(f"{path}: n_participants must be whole numbers")
    return {n: (table[ns == n, 1], table[ns == n, 2]) for n in dict.fromkeys(ns.tolist())}


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def _option(spec: ExperimentSpec, key: str):
    return spec.options.get(key, _OPTION_DEFAULTS[spec.name][key])


def _qubit_labels(spec: ExperimentSpec) -> list[int]:
    """The 1-based qubit labels the experiment's options name, defaults included."""
    raw = _option(spec, _LABEL_OPTIONS[spec.name])
    return [int(q) for q in (raw if isinstance(raw, (list, tuple)) else [raw])]


def _spectroscopy_grids(spec: ExperimentSpec) -> tuple[np.ndarray, np.ndarray]:
    f_min, f_max, f_step, tau_max, tau_step = (
        float(_option(spec, key)) for key in ("f_min", "f_max", "f_step", "tau_max", "tau_step"))
    freqs = np.round(np.arange(f_min, f_max + f_step / 2, f_step), 9)
    taus = np.round(np.arange(0.0, tau_max + tau_step / 2, tau_step), 9)
    return freqs, taus


def _check_options(spec: ExperimentSpec, config: DeviceConfig) -> None:
    """Reject options the experiment cannot run with, before any file is written."""
    for key, value in spec.options.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"option {key!r} must be a finite number (got {value})")
    if spec.name in _LABEL_OPTIONS:
        key, labels = _LABEL_OPTIONS[spec.name], _qubit_labels(spec)
        bad = [q for q in labels if not 1 <= q <= config.n_qubits]
        if bad:
            raise ConfigError(f"option {key!r} names qubit(s) {bad} outside "
                              f"Q1..Q{config.n_qubits} (labels are 1-based)")
        if not labels or len(set(labels)) != len(labels):
            raise ConfigError(f"option {key!r} must name distinct qubits (got {labels})")
    for key in ("f_step", "tau_step", "sample_dt", "shots", "qst_shots"):
        if key not in _OPTION_DEFAULTS[spec.name]:
            continue
        value = _option(spec, key)
        if not float(value) > 0:
            raise ConfigError(f"option {key!r} must be > 0")
        if key.endswith("shots") and value > 2**63 - 1:  # multinomial draws take int64 counts
            raise ConfigError(f"option {key!r} must be at most 2**63 - 1 (got {value})")

    if spec.name == "spectroscopy":
        freqs, taus = _spectroscopy_grids(spec)
        idle = config.f_idle[labels[0] - 1]
        if freqs.size == 0 or taus.size == 0:
            raise ConfigError("spectroscopy grid is empty (need f_min <= f_max and tau_max >= 0)")
        if np.max(np.abs(freqs - idle)) > OPERATING_HALF_RANGE_GHZ + 1e-12:
            raise ConfigError(
                f"frequency grid {freqs[0]}..{freqs[-1]} GHz leaves the operating range "
                f"{idle} ± {OPERATING_HALF_RANGE_GHZ} GHz of Q{labels[0]}")
    elif spec.name == "rabi_scaling":
        dtau_max, sample_dt = float(_option(spec, "dtau_max")), float(_option(spec, "sample_dt"))
        n_steps = math.floor(dtau_max / sample_dt + 1e-12)
        if n_steps < 7 or n_steps * sample_dt < dtau_max - 1e-12:
            raise ConfigError(
                f"dtau_max ({dtau_max} ns) must be a whole number of at least 7 sample_dt "
                f"steps ({sample_dt} ns): the frequency fit needs 8 evenly spaced samples")
    elif spec.name == "entangle" and len(labels) < 2:
        raise ConfigError("option 'participants' must name at least 2 qubits")
    elif spec.name == "shor" and _option(spec, "variant") not in SHOR_VARIANTS:
        raise ConfigError(f"option 'variant' must be one of {SHOR_VARIANTS} "
                          f"(got {_option(spec, 'variant')!r})")


def _run_spectroscopy(spec: ExperimentSpec, config: DeviceConfig) -> None:
    freqs, taus = _spectroscopy_grids(spec)
    grid = swap_spectroscopy(config, _qubit_labels(spec)[0] - 1, freqs, taus)
    f_col, tau_col = np.meshgrid(freqs, taus, indexing="ij")
    _write_csv(spec.output_dir / "spectroscopy.csv", ["freq_ghz", "tau_ns", "p_e"],
               [f_col.ravel(), tau_col.ravel(), grid.ravel()])


def _run_rabi_scaling(spec: ExperimentSpec, config: DeviceConfig) -> None:
    pool = [q - 1 for q in _qubit_labels(spec)]
    dtau_max = float(_option(spec, "dtau_max"))
    sample_dt = float(_option(spec, "sample_dt"))

    traces = []
    fits = []
    for n in range(1, len(pool) + 1):
        participants = tuple(pool[:n])
        trace = simultaneous_resonance(config, participants, dtau_max, sample_dt)
        freq, err = fit_oscillation_frequency(trace.times, trace.p_bus)
        traces.append((np.full(trace.times.size, n), trace.times, trace.p_bus))
        fits.append({
            "n": n,
            "participants": [q + 1 for q in participants],
            "fitted_freq_ghz": freq,
            "err_3db_ghz": err,
            "effective_coupling_ghz": effective_coupling(config, participants),
        })
    _write_csv(spec.output_dir / "rabi_traces.csv", ["n_participants", "time_ns", "p_bus"],
               [np.concatenate(column) for column in zip(*traces)])
    _write_json(spec.output_dir / "rabi_fits.json", fits)


def _entangle_target(n: int):
    return bell_singlet() if n == 2 else w_state(n)


def _run_entangle(spec: ExperimentSpec, config: DeviceConfig) -> None:
    participants = tuple(sorted(q - 1 for q in _qubit_labels(spec)))
    shots = int(_option(spec, "qst_shots"))

    state = prepare_shared_excitation(config, participants)
    target = _entangle_target(len(participants))
    record = simulate_tomography(state, tuple(range(len(participants))), shots, spec.seed)
    rho_hat = reconstruct(record)
    record.rho_hat = rho_hat

    ideal = phase_gauged_fidelity(state, target)
    qst = phase_gauged_fidelity(rho_hat, target)
    metrics = {
        "tau_ns": 1.0 / (2 * effective_coupling(config, participants)),
        "fidelity_ideal_raw": ideal.raw,
        "fidelity_ideal_gauged": ideal.gauged,
        "fidelity_qst_raw": qst.raw,
        "fidelity_qst_gauged": qst.gauged,
        "max_abs_imag": max_abs_imag(rho_hat),
    }
    if len(participants) == 2:
        c, eof = concurrence_eof(rho_hat)
        metrics["concurrence"] = c
        metrics["eof"] = eof
    if len(participants) == 3:
        witness = witness_check(rho_hat, "W", w_state())
        metrics["witness_fidelity"] = witness.fidelity
        metrics["witness_margin"] = witness.margin
        metrics["witness_passed"] = float(witness.passed)
    record.metrics = metrics
    _write_json(spec.output_dir / "tomography.json", record.to_dict())


def _qst_with_metrics(state, qubits, shots, seed, metric_fn) -> dict:
    record = simulate_tomography(state, qubits, shots, seed)
    record.rho_hat = reconstruct(record)
    record.metrics = metric_fn(record.rho_hat)
    record.metrics["max_abs_imag"] = max_abs_imag(record.rho_hat)
    return record.to_dict()


def _run_shor(spec: ExperimentSpec, config: DeviceConfig, noise: NoiseParams | None) -> None:
    variant = str(_option(spec, "variant"))
    shots = int(_option(spec, "shots"))
    qst_shots = int(_option(spec, "qst_shots"))
    mode = "noisy_density" if noise is not None else "ideal_pure"

    circuit = build_shor(variant)
    result, run = factor_fifteen(variant, shots, spec.seed, mode, noise)
    psi3 = gate_unitary(Gate("H", (0,)), 3).apply(ghz_state())
    sigma_m = maximally_mixed_qubit()

    def step1_metrics(rho_hat):
        pair = partial_trace(rho_hat, {0, 1})
        circuit_frame = phase_gauged_fidelity(pair, bell_phi_plus())
        singlet_frame = phase_gauged_fidelity(pair, bell_singlet())
        c, eof = concurrence_eof(pair)
        return {
            "fidelity_bell_circuit_raw": circuit_frame.raw,
            "fidelity_bell_circuit_gauged": circuit_frame.gauged,
            "fidelity_bell_singlet_raw": singlet_frame.raw,
            "fidelity_bell_singlet_gauged": singlet_frame.gauged,
            "concurrence": c,
            "eof": eof,
        }

    def step2_metrics(rho_hat):
        witness = witness_check(rho_hat, "GHZ", ghz_state())
        return {
            "fidelity_ghz": witness.fidelity,
            "witness_margin": witness.margin,
            "witness_passed": float(witness.passed),
        }

    def step3_metrics(rho_hat):
        register = partial_trace(rho_hat, {0})
        return {
            "fidelity_psi3": state_fidelity(rho_hat, psi3),
            "register_uhlmann_to_mixed": uhlmann_fidelity(register, sigma_m),
            "register_linear_entropy": linear_entropy(register),
        }

    metric_fns = {"step1": step1_metrics, "step2": step2_metrics, "step3": step3_metrics}
    breakpoints = {}
    for k, name in enumerate(sorted(circuit.breakpoints)):
        breakpoints[name] = _qst_with_metrics(
            run.breakpoint_states[name], circuit.analysis_qubits,
            qst_shots, spec.seed + 1 + k, metric_fns[name],
        )

    def register_metrics(rho_hat):
        return {
            "uhlmann_to_mixed": uhlmann_fidelity(rho_hat, sigma_m),
            "linear_entropy": linear_entropy(rho_hat),
            "fidelity_ground": state_fidelity(rho_hat, qubit_ket("g")),
        }

    register_qst = _qst_with_metrics(
        run.final, (circuit.analysis_qubits[0],), qst_shots, spec.seed + 100,
        register_metrics,
    )

    _write_json(spec.output_dir / "factoring.json", {
        "variant": variant,
        "mode": mode,
        "result": result.to_dict(),
        "breakpoints": breakpoints,
        "register_qst": register_qst,
    })


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def run_experiment(spec: ExperimentSpec, config_path=None) -> int:
    """Run one named experiment; returns the process exit code."""
    try:
        if spec.name not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {spec.name!r}; choose from {EXPERIMENTS}")
        config, noise = load_device_document(config_path)
        _check_options(spec, config)
        spec.output_dir = Path(spec.output_dir)
        spec.output_dir.mkdir(parents=True, exist_ok=True)
        _write_manifest(spec, config, noise)
        if spec.name == "spectroscopy":
            _run_spectroscopy(spec, config)
        elif spec.name == "rabi_scaling":
            _run_rabi_scaling(spec, config)
        elif spec.name == "entangle":
            _run_entangle(spec, config)
        else:
            _run_shor(spec, config, noise)
    except ConfigError as exc:
        for violation in exc.violations:
            print(f"config error: {violation}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except InvariantError as exc:
        print(f"numerical invariant violated: {exc}", file=sys.stderr)
        return 2
    return 0


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qproc-sim",
        description="Simulate the four-qubit / five-resonator processor experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="device JSON (default: shipped device file)")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("spectroscopy", help="swap-spectroscopy chevron map")
    p.add_argument("--qubit", type=int, default=1, help="scanned qubit, 1-based")
    p.add_argument("--f-min", type=float, default=6.0)
    p.add_argument("--f-max", type=float, default=7.3)
    p.add_argument("--f-step", type=float, default=0.005)
    p.add_argument("--tau-max", type=float, default=100.0)
    p.add_argument("--tau-step", type=float, default=0.5)
    common(p)

    p = sub.add_parser("rabi_scaling", help="sqrt(N) collective-coupling scaling")
    p.add_argument("--qubits", type=_int_list, default=[1, 2, 3, 4],
                   help="participant pool, cumulative, 1-based (e.g. 1,2,3,4)")
    p.add_argument("--dtau-max", type=float, default=200.0)
    p.add_argument("--sample-dt", type=float, default=0.25)
    common(p)

    p = sub.add_parser("entangle", help="Bell/W preparation with full QST")
    p.add_argument("--participants", type=_int_list, default=[1, 2],
                   help="participating qubits, 1-based (2 for Bell, 3 for W)")
    p.add_argument("--qst-shots", type=int, default=10_000)
    common(p)

    p = sub.add_parser("shor", help="compiled factoring of 15 with runtime QST")
    p.add_argument("--variant", choices=SHOR_VARIANTS, default="three_qubit")
    p.add_argument("--shots", type=int, default=150_000)
    p.add_argument("--qst-shots", type=int, default=10_000)
    common(p)

    p = sub.add_parser("validate", help="check a device/noise config file")
    p.add_argument("--config", required=True)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1

    if args.command == "validate":
        report = validate_config(args.config)
        for violation in report.violations:
            print(f"violation: {violation}", file=sys.stderr)
        print("config ok" if report.ok else f"{len(report.violations)} violation(s)")
        return 0 if report.ok else 1

    options = {k: getattr(args, k) for k in _OPTION_DEFAULTS[args.command]}
    spec = ExperimentSpec(
        name=args.command,
        options=options,
        output_dir=Path(args.out),
        seed=args.seed,
    )
    return run_experiment(spec, config_path=args.config)


if __name__ == "__main__":
    raise SystemExit(main())
