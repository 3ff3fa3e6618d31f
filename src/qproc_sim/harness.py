"""Experiment orchestration and the ``qproc-sim`` command-line front end.

Four experiments reproduce the device's headline measurements end to end:

* ``spectroscopy``  - swap-spectroscopy chevron map, written as CSV
* ``rabi_scaling``  - P_B traces for N=1..4 resonant qubits plus fitted
  oscillation frequencies with -3 dB error bars
* ``entangle``      - Bell/W preparation, full QST and the metric suite
* ``shor``          - compiled factoring run with breakpoint QST records

Each experiment returns its files, each as one text or as an iterable of text chunks (a
CSV comes block by block, so no whole-file string is held); ``run_experiment`` writes
them once the run has succeeded, ``manifest.json`` last (config echo, options, seed,
versions - no timestamps or paths, so identical invocations are byte-identical). A
failed run writes no file.
Exit codes: 0 success, 1 config error, 2 numerical-invariant violation.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import functools
import json
import math
import os
import platform
import sys
import warnings
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Iterator

import numpy as np

from . import __version__
from .circuits import SHOR_VARIANTS, SINGLE_QUBIT_GATES, build_shor, factor_fifteen
from .dynamics import (
    ConfigError,
    DeviceConfig,
    _real,
    effective_coupling,
    fit_oscillation_frequencies,
    prepare_shared_excitation,
    simultaneous_resonance,
    swap_spectroscopy,
)
from .hilbert import InvariantError, QuantumState, apply_local, partial_trace, qubit_ket
from .noise import NoiseParams
from .tomography import (
    TomographyRecord,
    _outcome_labels,
    all_settings,
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

# each experiment's options and their defaults, as the CLI passes them and builds its flags
_OPTION_DEFAULTS = {
    "spectroscopy": {"qubit": 1, "f_min": 6.0, "f_max": 7.3, "f_step": 0.005,
                     "tau_max": 100.0, "tau_step": 0.5},
    "rabi_scaling": {"qubits": [1, 2, 3, 4], "dtau_max": 200.0, "sample_dt": 0.25},
    "entangle": {"participants": [1, 2], "qst_shots": 10_000},
    "shor": {"variant": "three_qubit", "shots": 150_000, "qst_shots": 10_000},
}
EXPERIMENTS = tuple(_OPTION_DEFAULTS)

# --help text of each experiment and of the options that have one
_HELP = {
    "spectroscopy": "swap-spectroscopy chevron map",
    "rabi_scaling": "sqrt(N) collective-coupling scaling",
    "entangle": "Bell/W preparation with full QST",
    "shor": "compiled factoring of 15 with runtime QST",
    "qubit": "scanned qubit, 1-based",
    "qubits": "participant pool, cumulative, 1-based (e.g. 1,2,3,4)",
    "participants": "participating qubits, 1-based (2 for Bell, 3 for W)",
}

# size budget, checked before any grid is built: rows of one output CSV (38x the
# default chevron), and qubits in one QST register (3^n settings of 2^n outcomes and a
# 2^n x 2^n estimate; one 7-qubit entangle run takes about 0.4 s and 85 MB)
MAX_CSV_ROWS = 2_000_000
MAX_QST_QUBITS = 7
# rows of one CSV formatted together; the writer holds one block's cell strings
CSV_BLOCK_ROWS = 4096
# decimal places of the probability columns (P_e, P_B in [0, 1]): a decimal of at most 15
# significant digits parses to a float in one exact operation, where the 17 of a full repr
# take the slow correctly-rounded path; each value moves by at most 5.6e-16
PROBABILITY_DECIMALS = 15

# the option naming each experiment's 1-based qubit labels
_LABEL_OPTIONS = {"spectroscopy": "qubit", "rabi_scaling": "qubits", "entangle": "participants"}


@dataclass
class ExperimentSpec:
    """One experiment invocation. Qubit labels in options are 1-based (Q1..Q4)."""

    name: str
    options: dict = field(default_factory=dict)
    output_dir: Path = Path(".")
    seed: int = 0


# ---------------------------------------------------------------------------
# config loading
# ---------------------------------------------------------------------------

@functools.cache
def default_config_path() -> Path:
    return Path(str(resources.files("qproc_sim").joinpath("data/default_device.json")))


def load_device_document(config_path=None) -> tuple[DeviceConfig, NoiseParams | None]:
    """Parse the device JSON; a ``noise`` key selects noisy (density) mode."""
    path = Path(config_path) if config_path else default_config_path()
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8 text: {exc}") from exc
    return _parse_device_document(path, text)


@functools.lru_cache(maxsize=16)
def _parse_device_document(path: Path, text: str) -> tuple[DeviceConfig, NoiseParams | None]:
    """The checked values of one device text, built once per distinct (path, text): both are
    frozen, and a text that fails a check raises on every call, as no failure is cached."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config file {path} is not valid JSON (line {exc.lineno}, column {exc.colno}): {exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise ConfigError(f"config file {path} nests too deeply to parse") from exc
    config = DeviceConfig.from_dict(doc)
    noise = None
    if "noise" in doc:
        try:
            noise = NoiseParams.from_dict(doc["noise"], n_qubits=config.n_qubits)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad noise parameters: {exc}") from exc
    return config, noise


def validate_config(config_path) -> list[str]:
    """Every device/noise invariant violation in the given file; none if it is valid."""
    try:
        load_device_document(config_path)
    except ConfigError as exc:
        return list(exc.violations)
    return []


# ---------------------------------------------------------------------------
# output encoders: each experiment returns its files as text or text chunks
# ---------------------------------------------------------------------------

def _json_text(doc) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True) + "\\n"``, byte for byte, for a document
    whose keys are strings, with each ``TomographyRecord`` (alone, or a value of a dict or
    of a nested dict) written as its ``to_dict()``. A record's arrays, most of an output's
    values, fill a cached %-template: json's ``indent`` encoder costs ~1 µs per value."""
    return _json_value(doc, "\n") + "\n"


def _json_value(value, nl: str) -> str:
    """The JSON text of ``value``, nested so that its line breaks are ``nl``. Indentation is
    additive and a JSON string holds no raw line break, so json's text of a value nested
    deeper is its own text with every line break replaced by ``nl``."""
    if isinstance(value, TomographyRecord):
        return _record_text(value, nl)
    if _holds_record(value):
        return _json_container("{}", [f"{json.dumps(k)}: {_json_value(value[k], nl + '  ')}"
                                      for k in sorted(value)], nl)
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", nl)


def _holds_record(value) -> bool:
    return isinstance(value, dict) and any(
        isinstance(v, TomographyRecord) or _holds_record(v) for v in value.values())


def _json_container(brackets: str, items: list[str], nl: str) -> str:
    inner = nl + "  "
    return brackets[0] + inner + ("," + inner).join(items) + nl + brackets[1] if items else brackets


def _record_text(record: TomographyRecord, nl: str) -> str:
    """``_json_value(record.to_dict(), nl)``: the record's counts, metrics text, qubits,
    ``rho_hat`` (finite, as a ``DensityMatrix``), seed and shots filled into its template.
    An int64 count and a finite float format by ``%s`` as their ``repr``."""
    template = _record_template(record.n_qubits, nl, record.rho_hat is not None)
    values = record.counts.ravel().tolist()
    values += [_json_value(record.metrics, nl + "  "), *record.qubits]
    if record.rho_hat is not None:
        values += record.rho_hat.elements.view(np.float64).ravel().tolist()
    values += [record.seed, record.shots_per_setting]
    return template % tuple(values)


@functools.lru_cache(maxsize=32)
def _record_template(n: int, nl: str, has_rho: bool) -> str:
    """The %-template of an n-qubit record's ``to_dict`` text at line breaks ``nl``: the
    json text of a skeleton record whose settings are written out and whose every other
    leaf, and its whole metrics dict, is one ``%s``, in ``_record_text`` order."""
    mark, d = "\0", 2 ** n
    skeleton = {
        "counts": [dict.fromkeys(_outcome_labels(n), mark)] * 3 ** n,
        "metrics": mark,
        "qubits": [mark] * n,
        "rho_hat": [[[mark] * 2] * d] * d if has_rho else None,
        "seed": mark,
        "settings": [list(s) for s in all_settings(n)],
        "shots_per_setting": mark,
    }
    return _json_value(skeleton, nl).replace("%", "%%").replace(json.dumps(mark), "%s")


def _digit_quads() -> np.ndarray:
    """uint32 cells of four bytes: the ASCII triples "000".."999" and a NUL, then the same
    with their trailing zeros as NUL."""
    triples = np.arange(1000)[:, None] // [100, 10, 1] % 10 + 48
    trailing = np.logical_and.accumulate(triples[:, ::-1] == 48, axis=1)[:, ::-1]
    quads = np.zeros((2000, 4), np.uint8)
    quads[:, :3] = np.concatenate([triples, np.where(trailing, 0, triples)])
    return quads.view(np.uint32).ravel()


_DIGIT_QUADS = _digit_quads()


def _digit_cells(k: np.ndarray) -> np.ndarray:
    """The 24-byte cell of each whole float64 0 < k < 10**15: "0.", then the 15 digits of k
    with its trailing zeros as NUL."""
    # five base-1000 groups, least significant first, each exact in float64 (see
    # ``_csv_chunks``); a group whose later groups are all zero takes the table's second
    # half, so the digits end at the last nonzero one
    cells = np.empty((len(k), 6), np.uint32)
    cells[:, 0] = np.frombuffer(b"0.\0\0", np.uint32)[0]
    rest, tail_zero = k, np.ones(len(k), bool)
    for column in range(5, 0, -1):
        quotient = np.floor(rest / 1000)
        group = rest - quotient * 1000
        cells[:, column] = _DIGIT_QUADS[(group + 1000 * tail_zero).astype(np.intp)]
        tail_zero &= group == 0
        rest = quotient
    return cells.view("S24")[:, 0]


def _repr_cells(block: np.ndarray) -> np.ndarray:
    """The ``repr`` of each value as a NUL-padded byte string, made once per distinct bit
    pattern (0.0 and -0.0 stay distinct)."""
    keys = block.view(np.int64) if block.dtype == np.float64 else block
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return np.array([repr(v) for v in block[first].tolist()], dtype=bytes)[inverse]


def _cell_bytes(block: np.ndarray) -> np.ndarray:
    """Each cell of a 1-D block as a NUL-padded byte string (see ``_csv_chunks``)."""
    with np.errstate(over="ignore"):  # huge values overflow to inf, and are not fast
        k = np.rint(block * 1e15)
    fast = (block >= 1e-4) & (block < 1) & (k / 1e15 == block)
    if not fast.any():
        return _repr_cells(block)
    cells = _digit_cells(np.where(fast, k, 1.0))
    if not fast.all():
        # a float64 repr is at most 24 bytes, as in "-2.2250738585072014e-308"
        cells[~fast] = _repr_cells(block[~fast])
    return cells


def _csv_chunks(header, outer, inner, values) -> Iterator[str]:
    """The grid ``values[i, j]`` as CSV rows ``outer[i],inner[j],values[i, j]`` in
    row-major order, each cell the ``repr`` of its Python int or float.

    A float64 cell ``v`` with 1e-4 <= v < 1 whose ``k = rint(v * 1e15)`` gives back
    ``k / 1e15 == v`` is written as "0." and the 15 digits of k, trailing zeros dropped.
    That is ``repr(v)``: the division is correctly rounded, so v is the double nearest
    that 15-place decimal; another decimal of at most 15 places is 1e-15 away, more than
    one ulp below 1, so none is shorter; and ``repr`` uses exponent form only below 1e-4.
    Every probability rounded to ``PROBABILITY_DECIMALS`` in that range takes this path;
    every other cell is the ``repr`` of its bit pattern. The digits are built in float64,
    where every whole number below 2**53 is exact: the true quotient of a whole
    ``rest < 10**15`` by 1000 is q + r/1000, and for r > 0 it lies at least 0.001 from
    any integer, while the division errs by at most 1.2e-4; so ``q = floor(rest / 1000)``
    is exact, and so is the group ``r = rest - q * 1000``. Each group is gathered from a
    table of four-byte digit cells.

    Each axis is formatted once, with ``repr`` alone: one 24-byte digit cell in an axis
    would widen that field of every line. The header line is yielded first, then the
    values ``CSV_BLOCK_ROWS`` rows at a time; each line of a block is one record of
    NUL-padded fields, its axis cells taken by ``divmod(row, len(inner))``, and the
    block's NULs are deleted. A consumer that writes each chunk as it comes holds one
    block at a time, whatever the size of the grid.
    """
    yield ",".join(header) + "\n"
    outer_cells, inner_cells = (np.char.add(_repr_cells(np.asarray(axis)), b",")
                                for axis in (outer, inner))
    flat = np.ravel(values)
    for start in range(0, flat.size, CSV_BLOCK_ROWS):
        i, j = np.divmod(np.arange(start, min(start + CSV_BLOCK_ROWS, flat.size)), len(inner))
        cells = _cell_bytes(flat[start:start + CSV_BLOCK_ROWS])
        lines = np.empty(len(i), [("outer", outer_cells.dtype), ("inner", inner_cells.dtype),
                                  ("value", cells.dtype), ("newline", "S1")])
        lines["outer"], lines["inner"], lines["value"], lines["newline"] = (
            outer_cells[i], inner_cells[j], cells, b"\n")
        yield lines.tobytes().translate(None, b"\0").decode("ascii")


def _manifest(spec: ExperimentSpec, config: DeviceConfig, noise: NoiseParams | None) -> dict:
    device = config.to_dict()
    if noise is not None:
        device["noise"] = noise.to_dict()
    return {
        "experiment": spec.name,
        "options": spec.options,
        "seed": spec.seed,
        "config": device,
        "versions": {
            "qproc-sim": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
    }


# ---------------------------------------------------------------------------
# schema parsers (round-trip contract for every output file)
# ---------------------------------------------------------------------------

def _read_grid(path, columns) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The inverse of ``_csv_chunks``: (outer, inner, values) from a CSV headed ``columns``
    whose rows hold a grid row-major, each cell once, both axes strictly increasing."""
    with open(path) as f:
        first = f.readline().rstrip("\n")
    if first != (header := ",".join(columns)):
        raise ValueError(f"unexpected header in {path}: {first!r}, expected {header!r}")
    with warnings.catch_warnings():  # given a path, numpy reads in chunks, not by lines
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        table = np.loadtxt(path, delimiter=",", ndmin=2, skiprows=1)
    if table.size == 0:
        return np.empty(0), np.empty(0), np.empty((0, 0))
    if table.shape[1] != len(columns):
        raise ValueError(f"{path}: rows have {table.shape[1]} values, expected {len(columns)}")
    # the inner axis ends where column 0 first changes; NaN != NaN fails every test below
    n_inner = int(np.argmax(table[:, 0] != table[0, 0])) or len(table)
    grid = table[:len(table) // n_inner * n_inner].reshape(-1, n_inner, 3)
    outer, inner = grid[:, 0, 0], grid[0, :, 1]
    if not (grid.size == table.size and (grid[..., 0] == outer[:, None]).all()
            and (grid[..., 1] == inner).all() and (outer[1:] > outer[:-1]).all()
            and (inner[1:] > inner[:-1]).all()):
        raise ValueError(f"{path}: rows are not a row-major grid of strictly increasing axes")
    return outer.copy(), inner.copy(), grid[..., 2].copy()


def _read_probability_grid(path, columns) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_read_grid`` of a grid of probabilities: each cell must lie in [0, 1]."""
    outer, inner, values = _read_grid(path, columns)
    if not (np.isfinite(outer).all() and np.isfinite(inner).all()):
        raise ValueError(f"{path}: every {columns[0]} and {columns[1]} must be finite")
    if not ((values >= 0) & (values <= 1)).all():  # NaN fails both comparisons
        raise ValueError(f"{path}: every {columns[2]} must be a probability in [0, 1]")
    return outer, inner, values


def read_spectroscopy_csv(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return (freqs GHz, taus ns, P_e map) from a spectroscopy CSV."""
    return _read_probability_grid(path, ("freq_ghz", "tau_ns", "p_e"))


def read_rabi_traces_csv(path) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Return {N: (times, p_bus)} from a rabi_scaling traces CSV."""
    ns, times, p_bus = _read_probability_grid(path, ("n_participants", "time_ns", "p_bus"))
    if not ((np.floor(ns) == ns) & (ns >= 1) & (ns < 2**63)).all():  # before a cast, which warns
        raise ValueError(f"{path}: n_participants must be whole numbers from 1 to below 2**63")
    return {n: (times, trace) for n, trace in zip(ns.astype(int).tolist(), p_bus)}


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def _typed(key: str, value, default):
    """``value`` as the type of ``default``: a float takes a finite int or float, an int a
    Python int (not a bool, nor a numpy integer, which the manifest cannot echo), a list a
    list or tuple of such ints, a str a str."""
    whole = lambda v: type(v) is int
    if isinstance(default, list) and isinstance(value, (list, tuple)) and all(map(whole, value)):
        return list(value)
    if isinstance(default, float) and (whole(value) or isinstance(value, float)):
        value = _real(key, value)
        if not math.isfinite(value):
            raise ConfigError(f"option {key!r} must be a finite number (got {value})")
        return value
    if type(value) is type(default) and isinstance(default, (int, str)):
        return value
    kind = {list: "a list of ints", float: "a number", int: "an int", str: "a str"}
    raise ConfigError(f"option {key!r} must be {kind[type(default)]} (got {value!r})")


def _checked_options(spec: ExperimentSpec, config: DeviceConfig) -> dict:
    """The experiment's options, defaults included, each of its default's type, checked
    before any file is written; with the 0-based ``qubits`` its labels name, for
    ``spectroscopy`` the ``freqs`` and ``taus`` grids, and for ``shor`` the ``circuit``."""
    if type(spec.seed) is not int:  # numpy seed sequences take non-negative integers only
        raise ConfigError(f"seed must be an int (got {spec.seed!r})")
    if spec.seed < 0:
        raise ConfigError(f"seed must be >= 0 (got {spec.seed})")
    if type(spec.options) is not dict:
        raise ConfigError(f"options must be a dict (got {type(spec.options).__name__})")
    defaults = _OPTION_DEFAULTS[spec.name]
    unknown = sorted(set(spec.options) - set(defaults), key=str)
    if unknown:  # not echoed in the manifest as if they had acted
        raise ConfigError(f"unknown option(s) {unknown} for {spec.name}; "
                          f"valid options: {list(defaults)}")
    opts = {key: _typed(key, spec.options.get(key, default), default)
            for key, default in defaults.items()}
    if spec.name in _LABEL_OPTIONS:
        key = _LABEL_OPTIONS[spec.name]
        labels = opts[key] if isinstance(opts[key], list) else [opts[key]]
        bad = [q for q in labels if not 1 <= q <= config.n_qubits]
        if bad:
            raise ConfigError(f"option {key!r} names qubit(s) {bad} outside "
                              f"Q1..Q{config.n_qubits} (labels are 1-based)")
        if not labels or len(set(labels)) != len(labels):
            raise ConfigError(f"option {key!r} must name distinct qubits (got {labels})")
        opts["qubits"] = [q - 1 for q in labels]
    for key in ("f_step", "tau_step", "sample_dt", "shots", "qst_shots"):
        if key in opts and not opts[key] > 0:
            raise ConfigError(f"option {key!r} must be > 0")
        if key in opts and key.endswith("shots") and opts[key] > 2**63 - 1:  # int64 draws
            raise ConfigError(f"option {key!r} must be at most 2**63 - 1 (got {opts[key]})")

    if spec.name == "spectroscopy":
        f_min, f_max, f_step, tau_max, tau_step = (
            opts[key] for key in ("f_min", "f_max", "f_step", "tau_max", "tau_step"))
        # the lengths np.arange will give, checked before either grid is built; floats,
        # since a ratio may overflow to inf, and compared by a quotient, as a product may
        n_f = np.ceil((f_max + f_step / 2 - f_min) / f_step)
        n_tau = np.ceil((tau_max + tau_step / 2) / tau_step)
        if n_f < 1 or n_tau < 1:
            raise ConfigError("spectroscopy grid is empty (need f_min <= f_max and tau_max >= 0)")
        if n_tau > MAX_CSV_ROWS / n_f:
            raise ConfigError(f"spectroscopy grid has {n_f:.4g} x {n_tau:.4g} cells, more than "
                              f"the {MAX_CSV_ROWS} rows one output CSV may hold")
        # at 9 decimals a step below 1e-9 repeats values, which the CSV reader rejects
        for key, start, stop, step in (("freqs", f_min, f_max, f_step),
                                       ("taus", 0.0, tau_max, tau_step)):
            grid = opts[key] = np.round(np.arange(start, stop + step / 2, step), 9)
            if not (np.diff(grid) > 0).all():
                raise ConfigError(f"the {key} grid repeats a value at 9 decimals "
                                  f"(step {step}); use a step of at least 1e-9")
    elif spec.name == "rabi_scaling":
        dtau_max, sample_dt = opts["dtau_max"], opts["sample_dt"]
        n_steps = np.floor(dtau_max / sample_dt + 1e-12)  # a float: the ratio may be inf
        if n_steps < 7 or n_steps * sample_dt < dtau_max - 1e-12:
            raise ConfigError(
                f"dtau_max ({dtau_max} ns) must be a whole number of at least 7 sample_dt "
                f"steps ({sample_dt} ns): the frequency fit needs 8 evenly spaced samples")
        if n_steps + 1 > MAX_CSV_ROWS / len(labels):
            raise ConfigError(f"rabi_scaling traces have {len(labels)} x {n_steps + 1:.4g} "
                              f"samples, more than the {MAX_CSV_ROWS} rows one output CSV may hold")
    elif spec.name == "entangle" and len(labels) < 2:
        raise ConfigError("option 'participants' must name at least 2 qubits")
    elif spec.name == "entangle" and len(labels) > MAX_QST_QUBITS:
        raise ConfigError(f"option 'participants' names {len(labels)} qubits; QST takes at most "
                          f"{MAX_QST_QUBITS}")
    elif spec.name == "shor":
        if opts["variant"] not in SHOR_VARIANTS:
            raise ConfigError(f"option 'variant' must be one of {SHOR_VARIANTS} "
                              f"(got {opts['variant']!r})")
        circuit = opts["circuit"] = build_shor(opts["variant"])
        if circuit.n_qubits > config.n_qubits:
            raise ConfigError(f"variant {opts['variant']!r} needs {circuit.n_qubits} qubits; "
                              f"the device has {config.n_qubits}")
    return opts


def _run_spectroscopy(opts: dict, seed: int, config: DeviceConfig,
                      noise) -> dict[str, Iterator[str]]:
    freqs, taus = opts["freqs"], opts["taus"]
    grid = swap_spectroscopy(config, opts["qubits"][0], freqs, taus)
    np.round(grid, PROBABILITY_DECIMALS, out=grid)  # in place: a rounded copy costs RSS
    return {"spectroscopy.csv": _csv_chunks(["freq_ghz", "tau_ns", "p_e"], freqs, taus, grid)}


def _run_rabi_scaling(opts: dict, seed: int, config: DeviceConfig,
                      noise) -> dict[str, str | Iterator[str]]:
    pool = opts["qubits"]
    groups = [tuple(pool[:n]) for n in range(1, len(pool) + 1)]
    traces = [simultaneous_resonance(config, group, opts["dtau_max"], opts["sample_dt"])
              for group in groups]
    # one time axis for every N: the CSV is the grid N x time, and one FFT fits every trace
    times = traces[0].times
    if not all(np.array_equal(trace.times, times) for trace in traces):
        raise InvariantError("rabi_scaling traces do not share one time axis")
    fits = [{
        "n": len(group),
        "participants": [q + 1 for q in group],
        "fitted_freq_ghz": freq,
        "err_3db_ghz": err,
        "effective_coupling_ghz": effective_coupling(config, group),
    } for group, (freq, err) in zip(
        groups, fit_oscillation_frequencies(times, [trace.p_bus for trace in traces]))]
    p_bus = np.round([trace.p_bus for trace in traces], PROBABILITY_DECIMALS)
    return {
        "rabi_traces.csv": _csv_chunks(["n_participants", "time_ns", "p_bus"],
                                       np.arange(1, len(traces) + 1), times, p_bus),
        "rabi_fits.json": _json_text(fits),
    }


def _run_entangle(opts: dict, seed: int, config: DeviceConfig, noise) -> dict[str, str]:
    participants = tuple(sorted(opts["qubits"]))
    n = len(participants)
    state = prepare_shared_excitation(config, participants)
    target = bell_singlet() if n == 2 else w_state(n)
    ideal = phase_gauged_fidelity(state, target)

    def metrics(rho_hat):
        qst = phase_gauged_fidelity(rho_hat, target)
        out = {
            "tau_ns": 1.0 / (2 * effective_coupling(config, participants)),
            "fidelity_ideal_raw": ideal.raw,
            "fidelity_ideal_gauged": ideal.gauged,
            "fidelity_qst_raw": qst.raw,
            "fidelity_qst_gauged": qst.gauged,
        }
        if n == 2:
            out["concurrence"], out["eof"] = concurrence_eof(rho_hat)
        if n == 3:
            witness = witness_check(rho_hat, "W", w_state())
            out["witness_fidelity"] = witness.fidelity
            out["witness_margin"] = witness.margin
            out["witness_passed"] = float(witness.passed)
        return out

    record = _qst_with_metrics(state, tuple(range(n)), opts["qst_shots"], seed, metrics)
    return {"tomography.json": _json_text(record)}


def _qst_with_metrics(state, qubits, shots, seed, metric_fn) -> TomographyRecord:
    record = simulate_tomography(state, qubits, shots, seed)
    rho_hat = reconstruct(record)
    metrics = metric_fn(rho_hat)
    metrics["max_abs_imag"] = max_abs_imag(rho_hat)
    return dataclasses.replace(record, rho_hat=rho_hat, metrics=metrics)


def _run_shor(opts: dict, seed: int, config: DeviceConfig,
             noise: NoiseParams | None) -> dict[str, str]:
    variant, circuit, qst_shots = opts["variant"], opts["circuit"], opts["qst_shots"]
    result, run = factor_fifteen(circuit, opts["shots"], seed, noise)
    ghz = ghz_state()
    psi3 = QuantumState(apply_local(SINGLE_QUBIT_GATES["H"], ghz.amplitudes,
                                    (2,) * ghz.n_qubits, (0,)))
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
            qst_shots, seed + 1 + k, metric_fns[name],
        )

    def register_metrics(rho_hat):
        return {
            "uhlmann_to_mixed": uhlmann_fidelity(rho_hat, sigma_m),
            "linear_entropy": linear_entropy(rho_hat),
            "fidelity_ground": state_fidelity(rho_hat, qubit_ket("g")),
        }

    register_qst = _qst_with_metrics(
        run.final, (circuit.analysis_qubits[0],), qst_shots, seed + 100,
        register_metrics,
    )

    return {"factoring.json": _json_text({
        "variant": variant,
        "mode": "noisy_density" if noise is not None else "ideal_pure",
        "result": result.to_dict(),
        "breakpoints": breakpoints,
        "register_qst": register_qst,
    })}


_RUNNERS = {"spectroscopy": _run_spectroscopy, "rabi_scaling": _run_rabi_scaling,
            "entangle": _run_entangle, "shor": _run_shor}


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def run_experiment(spec: ExperimentSpec, config_path=None) -> int:
    """Run one named experiment; returns the process exit code."""
    try:
        if spec.name not in EXPERIMENTS:  # compared, not hashed
            raise ConfigError(f"unknown experiment {spec.name!r}; choose from {EXPERIMENTS}")
        config, noise = load_device_document(config_path)
        if noise is not None and spec.name != "shor":  # not echoed as if it had acted
            raise ConfigError("the noise block is used only by shor")
        files = _RUNNERS[spec.name](_checked_options(spec, config), spec.seed, config, noise)
        # written last: a manifest marks a finished run
        files["manifest.json"] = _json_text(_manifest(spec, config, noise))
        out = Path(spec.output_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "manifest.json").unlink(missing_ok=True)  # an earlier run's, now stale
        tmps = {name: out / f".{name}.tmp" for name in files}
        try:
            # every file is complete before any is renamed into place, so a chunk
            # iterator that fails leaves no file
            for name, body in files.items():
                with open(tmps[name], "w") as f:
                    f.writelines((body,) if isinstance(body, str) else body)
            for name, tmp in tmps.items():
                os.replace(tmp, out / name)
        finally:
            for tmp in tmps.values():
                tmp.unlink(missing_ok=True)
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

    for name, defaults in _OPTION_DEFAULTS.items():
        p = sub.add_parser(name, help=_HELP[name])
        for key, default in defaults.items():
            kind = _int_list if isinstance(default, list) else type(default)
            choices = SHOR_VARIANTS if key == "variant" else None
            p.add_argument("--" + key.replace("_", "-"), type=kind, default=copy.copy(default),
                           choices=choices, help=_HELP.get(key))
        p.add_argument("--config", default=None, help="device JSON (default: shipped device file)")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("validate", help="check a device/noise config file")
    p.add_argument("--config", required=True)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1

    if args.command == "validate":
        violations = validate_config(args.config)
        for violation in violations:
            print(f"violation: {violation}", file=sys.stderr)
        print(f"{len(violations)} violation(s)" if violations else "config ok")
        return 1 if violations else 0

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
