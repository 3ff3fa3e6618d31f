import contextlib
import copy
import functools
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qproc_sim
from qproc_sim import dynamics, harness
from qproc_sim.circuits import SHOR_VARIANTS, FactoringResult
from qproc_sim.dynamics import (
    ConfigError,
    DeviceConfig,
    effective_coupling,
    fit_oscillation_frequency,
    simultaneous_resonance,
    swap_spectroscopy,
)
from qproc_sim.harness import (
    _OPTION_DEFAULTS,
    CSV_BLOCK_ROWS,
    EXPERIMENTS,
    MAX_CSV_ROWS,
    MAX_QST_QUBITS,
    PROBABILITY_DECIMALS,
    ExperimentSpec,
    _checked_options,
    _csv_chunks,
    build_parser,
    default_config_path,
    load_device_document,
    main,
    read_rabi_traces_csv,
    read_spectroscopy_csv,
    run_experiment,
    validate_config,
)
from qproc_sim.hilbert import DensityMatrix, InvariantError
from qproc_sim.tomography import TomographyRecord, bell_singlet, max_abs_imag


def test_package_export_list_resolves():
    assert [name for name in qproc_sim.__all__ if not hasattr(qproc_sim, name)] == []
    namespace = {}
    exec("from qproc_sim import *", namespace)
    assert set(qproc_sim.__all__) <= set(namespace)


def write_config(tmp_path, doc, name="device.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def fitted_config_doc():
    doc = DeviceConfig.default().to_dict()
    doc["g_bus_mhz"] = [56.5] * 4
    return doc


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

def test_shipped_default_config_is_valid():
    assert validate_config(default_config_path()) == []
    config, noise = load_device_document(None)
    assert config == DeviceConfig.default()
    assert noise is None


def test_negative_coupling_violation_names_field(tmp_path):
    doc = DeviceConfig.default().to_dict()
    doc["g_mem_mhz"][2] = -5.0
    violations = validate_config(write_config(tmp_path, doc))
    assert any("g_mem[2]" in v for v in violations)


def test_idle_near_bus_reports_coupling_off_violation(tmp_path):
    doc = DeviceConfig.default().to_dict()
    doc["f_idle_ghz"] = [6.2, 6.6, 6.6, 6.6]  # within ~2x coupling of the bus
    violations = validate_config(write_config(tmp_path, doc))
    assert any("coupling-off regime violated" in v for v in violations)


def test_parse_failure_reports_line_context(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "n_qubits": 4,\n}')
    violations = validate_config(path)
    assert any("line" in v for v in violations)


def test_missing_file_is_config_error(tmp_path):
    assert validate_config(tmp_path / "absent.json") != []


def test_noise_block_roundtrip(tmp_path):
    doc = DeviceConfig.default().to_dict()
    doc["noise"] = {"t1_ns": [400] * 4, "t_phi_ns": ["inf"] * 4}
    _, noise = load_device_document(write_config(tmp_path, doc))
    assert noise is not None
    assert math.isinf(noise.t_phi[0])


# each bad device document, as a change to the shipped one, with a fragment of its message
NOISE_BLOCK = {"t1_ns": [400] * 4, "t_phi_ns": [200] * 4, "gate_time_1q_ns": 10,
               "gate_time_2q_ns": 50, "invented_default": True}
CONFIG_ERRORS = {
    "unknown_key": ({"g_bus_MHz": 55.0}, "unknown device config key(s) ['g_bus_MHz']"),
    "nan_bus": ({"f_bus_ghz": math.nan}, "f_bus must be finite"),
    "inf_memory": ({"f_memory_ghz": [6.8, math.inf, 7.1, 6.9]}, "f_memory must be finite"),
    "nan_coupling": ({"g_mem_mhz": [20.0, 20.0, math.nan, 20.0]}, "g_mem must be finite"),
    "fractional_n_max": ({"n_max": 2.5}, "n_max must be a whole number"),
    "boolean_n_max": ({"n_max": True}, "n_max must be a whole number"),
    "short_noise_lists": ({"noise": dict(NOISE_BLOCK, t1_ns=[400] * 2, t_phi_ns=[200] * 2)},
                          "t1_ns must list one value per qubit (4), got 2"),
    "long_dephasing_list": ({"noise": dict(NOISE_BLOCK, t_phi_ns=[200] * 5)},
                            "t_phi_ns must list one value per qubit (4), got 5"),
    "unknown_noise_key": ({"noise": dict(NOISE_BLOCK, t2_ns=[100] * 4)},
                          "unknown noise key(s) ['t2_ns']"),
    "nan_t1": ({"noise": dict(NOISE_BLOCK, t1_ns=[400, math.nan, 400, 400])}, "t1[1] must be > 0"),
    "inf_gate_time": ({"noise": dict(NOISE_BLOCK, gate_time_2q_ns=math.inf)},
                      "gate times must be finite"),
    "noise_not_object": ({"noise": [400, 200]}, "noise block must be a JSON object"),
    "string_flag": ({"noise": dict(NOISE_BLOCK, invented_default="false")},
                    "invented_default must be true or false"),
    # JSON true/false in a number field, which float() would read as 1/0
    "boolean_bus": ({"f_bus_ghz": True}, "f_bus must hold numbers"),
    "boolean_memory": ({"f_memory_ghz": [6.8, 7.2, False, 6.9]}, "f_memory must hold numbers"),
    "boolean_idle": ({"f_idle_ghz": [True, 6.6, 6.6, 6.6]}, "f_idle must hold numbers"),
    "boolean_bus_coupling": ({"g_bus_mhz": [55.0, True, 55.0, 55.0]}, "g_bus must hold numbers"),
    "boolean_memory_coupling": ({"g_mem_mhz": [20.0, 20.0, 20.0, True]},
                                "g_mem must hold numbers"),
    "boolean_t1": ({"noise": dict(NOISE_BLOCK, t1_ns=[400, True, 400, 400])},
                   "t1_ns must hold numbers"),
    "boolean_dephasing": ({"noise": dict(NOISE_BLOCK, t_phi_ns=[200, 200, 200, True])},
                          "t_phi_ns must hold numbers"),
    "boolean_gate_1q": ({"noise": dict(NOISE_BLOCK, gate_time_1q_ns=True)},
                        "gate_time_1q_ns must hold numbers"),
    "boolean_gate_2q": ({"noise": dict(NOISE_BLOCK, gate_time_2q_ns=True)},
                        "gate_time_2q_ns must hold numbers"),
    # a JSON string where a number belongs, which float() would read as the number it spells
    "string_bus": ({"f_bus_ghz": "6.1", "g_bus_mhz": ["55"] * 4},
                   "f_bus must hold numbers (got '6.1')"),
    "string_bus_couplings": ({"g_bus_mhz": ["55"] * 4}, "g_bus must hold numbers (got '55')"),
    # a JSON integer beyond the float range, read as inf (as json reads 1e400)
    "huge_bus": ({"f_bus_ghz": 10 ** 400}, "f_bus must be finite (got [inf])"),
    "huge_memory_list": ({"f_memory_ghz": [6.8, -10 ** 400, 7.1, 6.9]},
                         "f_memory must be finite"),
    # a JSON string where a per-qubit list belongs, which would be read one digit per qubit
    "string_memory": ({"f_memory_ghz": "7777"}, "f_memory must list one value per qubit"),
    "string_idle": ({"f_idle_ghz": "6666"}, "f_idle must list one value per qubit"),
    "string_bus_coupling": ({"g_bus_mhz": "5555"}, "g_bus must list one value per qubit"),
    "string_memory_coupling": ({"g_mem_mhz": "2222"}, "g_mem must list one value per qubit"),
    "string_t1": ({"noise": dict(NOISE_BLOCK, t1_ns="1111")}, "t1_ns must be a JSON list"),
    "string_dephasing": ({"noise": dict(NOISE_BLOCK, t_phi_ns="2222")},
                         "t_phi_ns must be a JSON list"),
    "number_memory": ({"f_memory_ghz": 6.8}, "f_memory must list one value per qubit"),
    # frequencies outside the physical band, couplings above its ceiling
    "negative_bus": ({"f_bus_ghz": -1}, "f_bus must lie in 1.0..20.0 GHz"),
    "low_bus": ({"f_bus_ghz": 0.5}, "f_bus must lie in 1.0..20.0 GHz"),
    "huge_idle": ({"f_idle_ghz": [1e308, 6.6, 6.6, 6.6]}, "f_idle[0] must lie in 1.0..20.0 GHz"),
    "huge_memory": ({"f_memory_ghz": [6.8, 7.2, 1e308, 6.9]}, "f_memory[2] must lie in"),
    "high_memory": ({"f_memory_ghz": [6.8, 7.2, 7.1, 20.5]}, "f_memory[3] must lie in"),
    "huge_memory_coupling": ({"g_mem_mhz": [20.0, 1e308, 20.0, 20.0]},
                             "g_mem[1] must be > 0 and at most 500.0 MHz"),
    "strong_memory_coupling": ({"g_mem_mhz": [20.0, 20.0, 20.0, 501.0]},
                               "g_mem[3] must be > 0 and at most 500.0 MHz"),
}


@pytest.mark.parametrize("case", list(CONFIG_ERRORS))
def test_bad_config_documents_exit_one(tmp_path, capsys, case):
    change, fragment = CONFIG_ERRORS[case]
    path = write_config(tmp_path, dict(DeviceConfig.default().to_dict(), **change))
    out = tmp_path / "out"
    assert main(["shor", "--shots", "100", "--qst-shots", "100",
                 "--config", str(path), "--out", str(out)]) == 1
    assert not (out / "manifest.json").exists()
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error:")
    assert fragment in err[0]

    assert main(["validate", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert fragment in captured.err
    assert "config ok" not in captured.out


@pytest.mark.parametrize("value", [None, "x", {}, [6.1]],
                         ids=["null", "string", "object", "list"])
def test_non_number_bus_frequency_is_one_violation_naming_it(tmp_path, capsys, value):
    doc = dict(DeviceConfig.default().to_dict(), f_bus_ghz=value)
    with pytest.raises(ConfigError) as exc:
        DeviceConfig.from_dict(doc)
    assert exc.value.violations == [f"f_bus must hold numbers (got {value!r})"]
    assert main(["validate", "--config", str(write_config(tmp_path, doc))]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"violation: f_bus must hold numbers (got {value!r})"]


def test_whole_number_bus_frequency_is_echoed_as_a_float(tmp_path):
    path = write_config(tmp_path, dict(DeviceConfig.default().to_dict(), f_bus_ghz=6))
    assert DeviceConfig.from_dict(json.loads(path.read_text())).f_bus == 6.0
    spec = ExperimentSpec("shor", {"shots": 100, "qst_shots": 100}, tmp_path / "out", 0)
    assert run_experiment(spec, config_path=path) == 0
    assert '"f_bus_ghz": 6.0,' in (tmp_path / "out" / "manifest.json").read_text()


@pytest.mark.parametrize("key", ["t1_ns", "t_phi_ns"])
def test_string_coherence_times_are_one_violation(tmp_path, capsys, key):
    doc = dict(DeviceConfig.default().to_dict(), noise=dict(NOISE_BLOCK, **{key: "1111"}))
    assert main(["validate", "--config", str(write_config(tmp_path, doc))]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"violation: bad noise parameters: {key} must be a JSON list of one value per qubit "
        "(got '1111')"]


@pytest.mark.parametrize("raw, fragment", [(b"\xff\xfe{", "is not UTF-8 text"),
                                           (b"[" * 100_000, "nests too deeply to parse")],
                         ids=["not_utf8", "deep_nesting"])
def test_unparseable_config_files_exit_one(tmp_path, capsys, raw, fragment):
    path = tmp_path / "device.json"
    path.write_bytes(raw)
    for argv in (["validate"], ["spectroscopy", "--out", str(tmp_path / "out")]):
        assert main(argv + ["--config", str(path)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and fragment in err[0]
    assert not (tmp_path / "out").exists()


def test_huge_coherence_time_is_a_disabled_channel(tmp_path, capsys):
    doc = dict(DeviceConfig.default().to_dict(),
               noise=dict(NOISE_BLOCK, t1_ns=[400, 10 ** 400, 400, 400]))
    path = write_config(tmp_path, doc)
    assert main(["validate", "--config", str(path)]) == 0
    assert capsys.readouterr().out == "config ok\n"
    assert load_device_document(path)[1].t1 == (400.0, math.inf, 400.0, 400.0)


def narrow_device(n, noisy):
    """The shipped device cut to its first n qubits, with or without the noise block."""
    cut = lambda block: {k: v[:n] if isinstance(v, list) else v for k, v in block.items()}
    doc = dict(cut(DeviceConfig.default().to_dict()), n_qubits=n)
    if noisy:
        doc["noise"] = cut(NOISE_BLOCK)
    return doc


@pytest.mark.parametrize("noisy", [False, True], ids=["ideal", "noisy"])
@pytest.mark.parametrize("n, variant, width", [(3, "four_qubit", 4), (2, "three_qubit", 3),
                                               (2, "control", 3)])
def test_shor_variant_wider_than_the_device_exits_one(tmp_path, capsys, n, variant, width, noisy):
    # the noisy run ended in an IndexError, the ideal four-qubit one ran and exited 0
    path = write_config(tmp_path, narrow_device(n, noisy))
    assert validate_config(path) == []
    out = tmp_path / "out"
    assert main(["shor", "--variant", variant, "--shots", "100", "--qst-shots", "100",
                 "--config", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"config error: variant {variant!r} needs {width} qubits; the device has {n}"]
    assert not out.exists()


@pytest.mark.parametrize("noisy", [False, True], ids=["ideal", "noisy"])
def test_shor_variant_as_wide_as_the_device_runs(tmp_path, noisy):
    path = write_config(tmp_path, narrow_device(3, noisy))
    assert main(["shor", "--shots", "100", "--qst-shots", "100",
                 "--config", str(path), "--out", str(tmp_path / "out")]) == 0


def test_benchmark_noise_block_is_valid(tmp_path):
    doc = dict(DeviceConfig.default().to_dict(), noise=NOISE_BLOCK)
    assert validate_config(write_config(tmp_path, doc)) == []


@pytest.mark.parametrize("argv", [["spectroscopy"], ["rabi_scaling"], ["entangle"]],
                         ids=lambda argv: argv[0])
def test_noise_block_is_a_config_error_outside_shor(tmp_path, capsys, argv):
    path = write_config(tmp_path, dict(DeviceConfig.default().to_dict(), noise=NOISE_BLOCK))
    out = tmp_path / "out"
    assert main(argv + ["--config", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "config error: the noise block is used only by shor"]
    assert not out.exists()


# ---------------------------------------------------------------------------
# experiments end to end
# ---------------------------------------------------------------------------

def test_spectroscopy_writes_roundtrippable_grid(tmp_path):
    spec = ExperimentSpec(
        name="spectroscopy",
        options={"qubit": 1, "f_min": 6.05, "f_max": 6.15, "f_step": 0.005,
                 "tau_max": 30.0, "tau_step": 0.5},
        output_dir=tmp_path,
        seed=3,
    )
    assert run_experiment(spec) == 0
    freqs, taus, grid = read_spectroscopy_csv(tmp_path / "spectroscopy.csv")
    assert freqs.size == 21 and taus.size == 61
    assert grid.min() >= 0 and grid.max() <= 1
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["experiment"] == "spectroscopy"
    assert manifest["seed"] == 3
    assert manifest["config"]["f_bus_ghz"] == 6.1


def test_rabi_scaling_fits_match_sqrt_n(tmp_path):
    config_path = write_config(tmp_path, fitted_config_doc())
    out = tmp_path / "out"
    spec = ExperimentSpec(name="rabi_scaling", options={"qubits": [1, 2, 3, 4]},
                          output_dir=out, seed=1)
    assert run_experiment(spec, config_path=config_path) == 0
    fits = json.loads((out / "rabi_fits.json").read_text())
    for entry, expected_mhz in zip(fits, (56.5, 79.9, 97.9, 113.0)):
        assert entry["fitted_freq_ghz"] * 1e3 == pytest.approx(expected_mhz, rel=1e-2)
        assert entry["err_3db_ghz"] > 0
    traces = read_rabi_traces_csv(out / "rabi_traces.csv")
    assert set(traces) == {1, 2, 3, 4}
    times, p_bus = traces[1]
    assert p_bus[0] == pytest.approx(1.0, abs=1e-9)


def test_entangle_bell_metrics(tmp_path):
    spec = ExperimentSpec(name="entangle", options={"participants": [1, 2], "qst_shots": 2000},
                          output_dir=tmp_path, seed=11)
    assert run_experiment(spec) == 0
    record = TomographyRecord.from_dict(json.loads((tmp_path / "tomography.json").read_text()))
    assert record.metrics["fidelity_ideal_gauged"] >= 0.99
    assert record.metrics["fidelity_qst_gauged"] >= 0.95
    assert record.metrics["concurrence"] > 0.9
    assert record.rho_hat is not None


def test_entangle_w_witness(tmp_path):
    spec = ExperimentSpec(name="entangle", options={"participants": [1, 2, 3], "qst_shots": 2000},
                          output_dir=tmp_path, seed=12)
    assert run_experiment(spec) == 0
    record = TomographyRecord.from_dict(json.loads((tmp_path / "tomography.json").read_text()))
    assert record.metrics["witness_passed"] == 1.0
    assert record.metrics["witness_margin"] > 0.25


def test_shor_experiment_outputs(tmp_path):
    from qproc_sim.circuits import FactoringResult

    spec = ExperimentSpec(name="shor",
                          options={"variant": "three_qubit", "shots": 20_000, "qst_shots": 1000},
                          output_dir=tmp_path, seed=7)
    assert run_experiment(spec) == 0
    doc = json.loads((tmp_path / "factoring.json").read_text())
    parsed = FactoringResult.from_dict(doc["result"])
    assert parsed.to_dict() == doc["result"]
    assert doc["mode"] == "ideal_pure"
    assert doc["result"]["factors"] == [3, 5]
    assert doc["result"]["period_r"] == 2
    assert abs(doc["result"]["success_probability"] - 0.5) < 0.02
    assert set(doc["breakpoints"]) == {"step1", "step2", "step3"}
    step2 = TomographyRecord.from_dict(doc["breakpoints"]["step2"])
    assert step2.metrics["fidelity_ghz"] > 0.9
    register = TomographyRecord.from_dict(doc["register_qst"])
    assert register.metrics["uhlmann_to_mixed"] > 0.99
    assert register.metrics["linear_entropy"] > 0.98


def test_shor_noisy_mode_from_config(tmp_path):
    doc = DeviceConfig.default().to_dict()
    doc["noise"] = {"t1_ns": [400] * 4, "t_phi_ns": [200] * 4, "invented_default": True}
    config_path = write_config(tmp_path, doc)
    out = tmp_path / "noisy"
    spec = ExperimentSpec(name="shor",
                          options={"variant": "control", "shots": 5000, "qst_shots": 500},
                          output_dir=out, seed=5)
    assert run_experiment(spec, config_path=config_path) == 0
    result = json.loads((out / "factoring.json").read_text())
    assert result["mode"] == "noisy_density"
    # relaxation during the idle padding keeps the register near but below |g>
    fid = result["register_qst"]["metrics"]["fidelity_ground"]
    assert 0.7 < fid < 1.0


# ---------------------------------------------------------------------------
# determinism and exit codes
# ---------------------------------------------------------------------------

def test_shor_runs_are_byte_identical(tmp_path):
    outputs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        spec = ExperimentSpec(name="shor",
                              options={"variant": "three_qubit", "shots": 10_000, "qst_shots": 500},
                              output_dir=out, seed=7)
        assert run_experiment(spec) == 0
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert outputs[0] == outputs[1]
    assert set(outputs[0]) == {"factoring.json", "manifest.json"}


def test_unknown_experiment_is_config_error(tmp_path):
    spec = ExperimentSpec(name="teleport", output_dir=tmp_path)
    assert run_experiment(spec) == 1


def test_bad_config_path_exits_one(tmp_path):
    spec = ExperimentSpec(name="shor", options={"shots": 10, "qst_shots": 100},
                          output_dir=tmp_path)
    assert run_experiment(spec, config_path=tmp_path / "nope.json") == 1


def test_non_hermitian_gate_result_exits_two(tmp_path, capsys, monkeypatch):
    # a noisy gate's bare matrix is checked once, in the noise step, before it is
    # re-symmetrized: a defect above DM_HERM_TOL must not be hidden
    def skewed(op, array, dims, axes):
        out = circuits_apply_local(op, array, dims, axes)
        return out + 1e-9 * np.triu(np.ones_like(out), 1) if out.ndim == 2 else out

    circuits_apply_local = qproc_sim.circuits.apply_local
    monkeypatch.setattr(qproc_sim.circuits, "apply_local", skewed)
    path = write_config(tmp_path, dict(DeviceConfig.default().to_dict(), noise=NOISE_BLOCK))
    out = tmp_path / "out"
    spec = ExperimentSpec("shor", {"shots": 100, "qst_shots": 100}, out)
    assert run_experiment(spec, config_path=path) == 2
    assert not out.exists() or not any(out.iterdir())
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["numerical invariant violated: density matrix is not Hermitian within tolerance"]


def test_invariant_violation_exits_two(tmp_path, monkeypatch):
    def boom(*args, **kwargs):
        raise InvariantError("synthetic violation")

    monkeypatch.setattr("qproc_sim.harness.prepare_shared_excitation", boom)
    spec = ExperimentSpec(name="entangle", options={"participants": [1, 2]},
                          output_dir=tmp_path)
    assert run_experiment(spec) == 2
    assert not any(tmp_path.iterdir())


def test_small_spectroscopy_csv_matches_reference(tmp_path):
    # reference written by the one-excitation block solver at the same options and seed;
    # test_small_spectroscopy_fixture_matches_full_space_oracle ties it to the full space
    options = {"qubit": 1, "f_min": 6.05, "f_max": 6.15, "f_step": 0.01,
               "tau_max": 20.0, "tau_step": 1.0}
    assert run_experiment(ExperimentSpec("spectroscopy", options, tmp_path, 1)) == 0
    reference = Path(__file__).parent / "data" / "spectroscopy_small.csv"
    assert (tmp_path / "spectroscopy.csv").read_bytes() == reference.read_bytes()


# SHA-256 of the default-size CSVs at seed 5: a default chevron map is 261 x 201 = 52,461
# rows, solved in 14 frequency blocks and written in 13 CSV blocks, so these pin every seam
# that the 231-row fixture above fits inside
DEFAULT_CSV_SHA256 = {
    ("spectroscopy", 1): "08621a6c9c59ee4fb4facd86d4cf13ed366af55dccea99786e95badfa9c56dc0",
    ("spectroscopy", 2): "83ac9d0979439e2420fb25c6da20004cacbd2e216a69cc05b5e6645e09a520e6",
    ("spectroscopy", 3): "84a48e380e430ceefe5697562192398b7ee51f1f2e229e89a5c45104c01868ef",
    ("spectroscopy", 4): "44b6695deaac9147fa3215503fa67cf4ca8ff6b51bfc60c7c503aab5709d6d13",
    ("rabi_scaling", None): "d9442b443f84ef3e6a47a9e585c80f7e2f9d800a66a2bd5c1b303333bab559c7",
}


@pytest.mark.parametrize("name, qubit", list(DEFAULT_CSV_SHA256))
def test_default_size_csvs_match_their_pinned_digests(tmp_path, name, qubit):
    options = {} if qubit is None else {"qubit": qubit}
    assert run_experiment(ExperimentSpec(name, options, tmp_path, 5)) == 0
    csv = "spectroscopy.csv" if qubit else "rabi_traces.csv"
    digest = hashlib.sha256((tmp_path / csv).read_bytes()).hexdigest()
    assert digest == DEFAULT_CSV_SHA256[name, qubit]


def spectroscopy_grids(spec):
    """The frequency and delay axes that a spectroscopy run of ``spec`` scans."""
    opts = _checked_options(spec, DeviceConfig.default())
    return opts["freqs"], opts["taus"]


def last_column_decimals(path):
    """The most digits after the point of any last-column cell of a CSV, exponent included."""
    lines = Path(path).read_text().splitlines()[1:]
    return max(-Decimal(line.rsplit(",", 1)[1]).as_tuple().exponent for line in lines)


def test_spectroscopy_csv_holds_the_grid_rounded_to_probability_decimals(tmp_path):
    spec = ExperimentSpec("spectroscopy", {"qubit": 2, "f_min": 6.0, "f_max": 6.3,
                                           "tau_max": 40.0}, tmp_path, 0)
    assert run_experiment(spec) == 0
    freqs, taus = spectroscopy_grids(spec)
    exact = swap_spectroscopy(DeviceConfig.default(), 1, freqs, taus)
    got_freqs, got_taus, grid = read_spectroscopy_csv(tmp_path / "spectroscopy.csv")
    np.testing.assert_array_equal(got_freqs, freqs)
    np.testing.assert_array_equal(got_taus, taus)
    np.testing.assert_array_equal(grid, np.round(exact, PROBABILITY_DECIMALS))
    assert (grid != exact).any()
    assert np.abs(grid - exact).max() <= 5.6e-16
    assert last_column_decimals(tmp_path / "spectroscopy.csv") <= PROBABILITY_DECIMALS == 15


def test_rabi_traces_are_rounded_after_the_fits(tmp_path):
    assert run_experiment(ExperimentSpec("rabi_scaling", {}, tmp_path, 0)) == 0
    config = DeviceConfig.default()
    traces = read_rabi_traces_csv(tmp_path / "rabi_traces.csv")
    expected_fits = []
    for n, (times, p_bus) in traces.items():
        participants = tuple(range(n))
        exact = simultaneous_resonance(config, participants, 200.0, 0.25)
        np.testing.assert_array_equal(times, exact.times)
        np.testing.assert_array_equal(p_bus, np.round(exact.p_bus, PROBABILITY_DECIMALS))
        assert np.abs(p_bus - exact.p_bus).max() <= 5.6e-16
        freq, err = fit_oscillation_frequency(exact.times, exact.p_bus)
        expected_fits.append({"n": n, "participants": [q + 1 for q in participants],
                              "fitted_freq_ghz": freq, "err_3db_ghz": err,
                              "effective_coupling_ghz": effective_coupling(config, participants)})
    assert list(traces) == [1, 2, 3, 4]
    assert json.loads((tmp_path / "rabi_fits.json").read_text()) == expected_fits
    assert last_column_decimals(tmp_path / "rabi_traces.csv") <= PROBABILITY_DECIMALS


def test_small_w4_tomography_json_matches_reference(tmp_path):
    # reference written at the same options and seed from the W4 state solved in the
    # one-excitation block (its two-excitation outcomes have probability exactly 0), with a
    # forward model equal bit for bit to the per-setting Kronecker one; W4's 81 settings
    # span three batched blocks of 27, so this pins the block seams
    options = {"participants": [1, 2, 3, 4], "qst_shots": 100}
    assert run_experiment(ExperimentSpec("entangle", options, tmp_path, 3)) == 0
    reference = Path(__file__).parent / "data" / "tomography_w4_small.json"
    assert (tmp_path / "tomography.json").read_bytes() == reference.read_bytes()


@pytest.mark.parametrize("variant, noisy, fixture", [
    ("three_qubit", True, "shor_three_qubit_noisy_small.json"),  # records at depth 2
    ("control", False, "shor_control_ideal_small.json"),  # "factors": null
    ("four_qubit", True, "shor_four_qubit_noisy_small.json"),  # 4-qubit noise steps
])
def test_small_factoring_json_matches_reference(tmp_path, variant, noisy, fixture):
    # reference written by json.dumps(indent=2, sort_keys=True) at the same options and seed
    doc = dict(DeviceConfig.default().to_dict(), **({"noise": NOISE_BLOCK} if noisy else {}))
    options = {"variant": variant, "shots": 2000, "qst_shots": 100}
    assert run_experiment(ExperimentSpec("shor", options, tmp_path / "out", 3),
                          config_path=write_config(tmp_path, doc)) == 0
    reference = Path(__file__).parent / "data" / fixture
    assert (tmp_path / "out" / "factoring.json").read_bytes() == reference.read_bytes()


# every shor variant, ideal and noisy, at three seeds, and entangle for N = 2, 3, 4
KERNEL_RUNS = [["shor", "--variant", variant, "--shots", "2000", "--qst-shots", "100",
                "--seed", str(seed)] + (["--config", "../noisy.json"] if noisy else [])
               for variant in SHOR_VARIANTS for noisy in (False, True) for seed in (3, 5, 11)]
KERNEL_RUNS += [["entangle", "--participants", participants, "--qst-shots", "100", "--seed", "3"]
                for participants in ("1,2", "1,2,3", "1,2,3,4")]
KERNEL_CODE = """
import json, sys
from qproc_sim.harness import main
for k, argv in enumerate(json.loads(sys.argv[1])):
    assert main(argv + ["--out", str(k)]) == 0
"""


def count_tables(doc):
    """Only the "counts" entries of a factoring or tomography document, nested as in it."""
    if isinstance(doc, list):
        return [count_tables(v) for v in doc]
    if isinstance(doc, dict):
        return {k: v if k == "counts" else count_tables(v) for k, v in doc.items()
                if k == "counts" or isinstance(v, (dict, list))}
    return None


@pytest.mark.parametrize("kernel", ["Prescott", "SandyBridge"])
def test_counts_do_not_depend_on_the_blas_kernel(tmp_path, kernel):
    # OPENBLAS_CORETYPE picks the kernel of a DYNAMIC_ARCH OpenBLAS build for one process.
    # States differ between kernels in their last bits, and so do rho_hat and the metrics;
    # the counts must not, since every multinomial draws from rounded probabilities
    write_config(tmp_path, dict(DeviceConfig.default().to_dict(), noise=NOISE_BLOCK),
                 "noisy.json")
    src = str(Path(qproc_sim.__file__).parents[1])
    tables = {}
    for name in ("default", kernel):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
        env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])
        if name == kernel:
            env["OPENBLAS_CORETYPE"] = kernel
        cwd = tmp_path / name
        cwd.mkdir()
        subprocess.run([sys.executable, "-c", KERNEL_CODE, json.dumps(KERNEL_RUNS)],
                       cwd=cwd, env=env, check=True)
        tables[name] = [count_tables(json.loads(
            (cwd / str(k) / ("factoring.json" if argv[0] == "shor" else "tomography.json"))
            .read_text())) for k, argv in enumerate(KERNEL_RUNS)]
    assert tables[kernel] == tables["default"]


# each bad option, with a fragment its one-line message must contain
OPTION_ERRORS = {
    ("spectroscopy", "--qubit", "0"): "1-based",
    ("spectroscopy", "--qubit", "5"): "1-based",
    ("entangle", "--participants", "0,1"): "1-based",
    ("rabi_scaling", "--qubits", "0,1"): "1-based",
    ("spectroscopy", "--f-max", "9"): "operating range",
    ("spectroscopy", "--tau-step", "0"): "'tau_step' must be > 0",
    ("spectroscopy", "--f-step", "-0.005"): "'f_step' must be > 0",
    ("rabi_scaling", "--sample-dt", "0"): "'sample_dt' must be > 0",
    ("rabi_scaling", "--dtau-max", "1"): "8 evenly spaced samples",
    ("entangle", "--participants", "1"): "at least 2 qubits",
    ("entangle", "--qst-shots", "0"): "'qst_shots' must be > 0",
    ("shor", "--shots", "0"): "'shots' must be > 0",
    ("rabi_scaling", "--dtau-max", "20.1"): "8 evenly spaced samples",
    ("entangle", "--participants", "1,1,2"): "distinct",
    ("spectroscopy", "--f-min", "7", "--f-max", "6"): "grid is empty",
    ("spectroscopy", "--tau-max", "nan"): "finite",
    ("shor", "--shots", "100000000000000000000000"): "'shots' must be at most 2**63 - 1",
    ("entangle", "--qst-shots", "100000000000000000000000"): "'qst_shots' must be at most 2**63 - 1",
    ("spectroscopy", "--f-step", "1e-12"): "rows one output CSV may hold",
    ("spectroscopy", "--tau-step", "1e-9"): "rows one output CSV may hold",
    ("rabi_scaling", "--sample-dt", "1e-9"): "rows one output CSV may hold",
    ("rabi_scaling", "--dtau-max", "1e300", "--sample-dt", "1e-300"): "rows one output CSV may hold",
    ("spectroscopy", "--tau-step", "1e-300"): "261 x 1e+302 cells",
    ("rabi_scaling", "--qubits", "1", "--dtau-max", "1e300"): "1 x 4e+300 samples",
    ("spectroscopy", "--tau-max", "1e308", "--tau-step", "1"): "261 x 1e+308 cells",
    ("rabi_scaling", "--dtau-max", "1e308", "--sample-dt", "1"): "4 x 1e+308 samples",
    ("entangle", "--seed", "-1"): "seed must be >= 0",
    ("shor", "--seed", "-1"): "seed must be >= 0",
}


@pytest.mark.parametrize("argv", [list(case) for case in OPTION_ERRORS])
def test_out_of_range_qubit_labels_exit_one(tmp_path, capsys, argv):
    # every option the experiment cannot run with is rejected before any file is written
    assert main(argv + ["--out", str(tmp_path)]) == 1
    assert not any(tmp_path.iterdir())
    err = capsys.readouterr().err.strip().splitlines()
    # one readable line: a count of 300 digits would not be
    assert len(err) == 1 and err[0].startswith("config error:") and len(err[0]) < 200
    assert OPTION_ERRORS[tuple(argv)] in err[0]


# options the CLI's argument parser cannot pass, called through the library entry point
LIBRARY_OPTION_ERRORS = {
    ("shor", "variant", "five_qubit"): "option 'variant' must be one of",
    ("shor", "shotz", 5): "unknown option(s) ['shotz'] for shor; valid options: "
                          "['variant', 'shots', 'qst_shots']",
    ("spectroscopy", "qubits", 1): "unknown option(s) ['qubits'] for spectroscopy",
    # a bare label is not a list of them; it used to run as [2]
    ("rabi_scaling", "qubits", 2): "option 'qubits' must be a list of ints (got 2)",
    ("shor", "shots", 1.5): "option 'shots' must be an int (got 1.5)",
    ("spectroscopy", "tau_max", 10**400): "option 'tau_max' must be a finite number (got inf)",
}


@pytest.mark.parametrize("case", list(LIBRARY_OPTION_ERRORS))
def test_library_option_errors_exit_one(tmp_path, capsys, case):
    name, key, value = case
    assert run_experiment(ExperimentSpec(name, {key: value}, tmp_path)) == 1
    assert not (tmp_path / "manifest.json").exists()
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error:")
    assert LIBRARY_OPTION_ERRORS[case] in err[0]


@pytest.mark.parametrize("name, options, message", [
    (["shor"], {}, "unknown experiment ['shor']"),
    ("shor", None, "options must be a dict (got NoneType)"),
    ("shor", [("shots", 5)], "options must be a dict (got list)"),
])
def test_malformed_spec_exits_one(tmp_path, capsys, name, options, message):
    assert run_experiment(ExperimentSpec(name, options, tmp_path)) == 1
    assert not any(tmp_path.iterdir())
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error:") and message in err[0]


@pytest.mark.parametrize("name", EXPERIMENTS)
def test_negative_seed_exits_one(tmp_path, capsys, name):
    # numpy's seed sequences would raise on it mid-run; every experiment rejects it first
    assert run_experiment(ExperimentSpec(name, {}, tmp_path, seed=-1)) == 1
    assert not any(tmp_path.iterdir())
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["config error: seed must be >= 0 (got -1)"]


def test_qst_records_are_built_through_their_constructor():
    # metrics and the estimate reach the record through its checks, not by assignment
    state = bell_singlet()
    with pytest.raises(ValueError, match="metrics must map names to real numbers"):
        harness._qst_with_metrics(state, (0, 1), 100, 0, lambda rho: {"passed": True})
    record = harness._qst_with_metrics(state, (0, 1), 100, 0,
                                       lambda rho: {"f": np.float64(0.5)})
    assert record.metrics == {"f": 0.5, "max_abs_imag": max_abs_imag(record.rho_hat)}
    assert all(type(v) is float for v in record.metrics.values())


def test_non_finite_chevron_exits_two(tmp_path, capsys, monkeypatch):
    # a memory frequency this far out fails the device band; with the band lifted the
    # device loads, but the chevron solve overflows to NaN
    doc = DeviceConfig.default().to_dict()
    doc["f_memory_ghz"][0] = 1e308
    path = write_config(tmp_path, doc)
    assert main(["validate", "--config", str(path)]) == 1
    monkeypatch.setattr(dynamics, "FREQUENCY_BAND_GHZ", (1.0, math.inf))
    assert main(["validate", "--config", str(path)]) == 0
    capsys.readouterr()
    with pytest.warns(RuntimeWarning):
        code = main(["spectroscopy", "--qubit", "1", "--config", str(path),
                     "--out", str(tmp_path / "out")])
    assert code == 2
    assert not (tmp_path / "out").exists()
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "chevron probabilities must be finite" in err[0]


def test_rabi_traces_must_share_one_time_axis(tmp_path, capsys, monkeypatch):
    resonance = harness.simultaneous_resonance

    def shifted(config, participants, dtau_max, sample_dt):
        trace = resonance(config, participants, dtau_max, sample_dt)
        if len(participants) == 2:
            object.__setattr__(trace, "times", trace.times + 1e-9)
        return trace

    monkeypatch.setattr(harness, "simultaneous_resonance", shifted)
    assert run_experiment(ExperimentSpec("rabi_scaling", {}, tmp_path / "out", 0)) == 2
    assert "do not share one time axis" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_sampled_norm_defect_exits_two(tmp_path, capsys, monkeypatch):
    eigh = np.linalg.eigh

    def scaled_eigh(a, *args, **kwargs):
        evals, vecs = eigh(a, *args, **kwargs)
        return evals, vecs * (1 + 1e-6)

    monkeypatch.setattr(np.linalg, "eigh", scaled_eigh)
    assert main(["rabi_scaling", "--dtau-max", "10", "--out", str(tmp_path)]) == 2
    assert "sampled state norm" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


# option sets whose CSV has exactly MAX_CSV_ROWS rows, and one row step more
@pytest.mark.parametrize("name, options, fits", [
    ("spectroscopy", {"f_min": 6.5, "f_max": 6.5, "tau_max": MAX_CSV_ROWS - 1.0, "tau_step": 1.0},
     True),
    ("spectroscopy", {"f_min": 6.5, "f_max": 6.5, "tau_max": float(MAX_CSV_ROWS), "tau_step": 1.0},
     False),
    ("rabi_scaling", {"dtau_max": MAX_CSV_ROWS / 4 - 1, "sample_dt": 1.0}, True),
    ("rabi_scaling", {"dtau_max": MAX_CSV_ROWS / 4, "sample_dt": 1.0}, False),
])
def test_csv_row_budget_boundary(name, options, fits):
    spec = ExperimentSpec(name, options)
    if fits:
        _checked_options(spec, DeviceConfig.default())
    else:
        with pytest.raises(ConfigError, match="rows one output CSV may hold"):
            _checked_options(spec, DeviceConfig.default())


def test_qst_register_budget_exits_one(tmp_path, capsys):
    n = MAX_QST_QUBITS + 1
    doc = {"n_qubits": n, "f_bus_ghz": 6.1, "f_memory_ghz": [6.8] * n, "f_idle_ghz": [6.6] * n,
           "g_bus_mhz": [55.0] * n, "g_mem_mhz": [20.0] * n, "n_max": 1}
    config_path = write_config(tmp_path, doc)
    out = tmp_path / "out"
    participants = ",".join(str(q) for q in range(1, n + 1))
    assert main(["entangle", "--participants", participants,
                 "--config", str(config_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error:")
    assert f"QST takes at most {MAX_QST_QUBITS}" in err[0]
    assert not out.exists()


def test_failed_write_leaves_no_manifest_or_temp_file(tmp_path, capsys):
    argv = ["shor", "--shots", "100", "--qst-shots", "100", "--out", str(tmp_path)]
    assert main(argv) == 0
    (tmp_path / "factoring.json").unlink()
    (tmp_path / "factoring.json").mkdir()
    assert main(argv) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error:")
    assert [p.name for p in tmp_path.iterdir()] == ["factoring.json"]


@pytest.mark.parametrize("name", ["spectroscopy", "rabi_scaling"])
def test_csv_chunks_that_fail_leave_no_file(tmp_path, monkeypatch, name):
    chunks = harness._csv_chunks

    def failing_chunks(*args):
        yield next(chunks(*args))
        raise InvariantError("synthetic failure after the first chunk")

    monkeypatch.setattr(harness, "_csv_chunks", failing_chunks)
    options = {"f_max": 6.2} if name == "spectroscopy" else {}
    assert run_experiment(ExperimentSpec(name, options, tmp_path, 0)) == 2
    assert list(tmp_path.iterdir()) == []


def test_large_chevron_run_holds_its_grid_and_one_block(tmp_path):
    # 1,301 x 201 cells: the grid itself is 2.1 MB, its CSV about 7.5 MB of text
    spec = ExperimentSpec("spectroscopy", {"f_step": 0.001}, tmp_path, 0)
    freqs, taus = spectroscopy_grids(spec)
    grid_bytes = freqs.size * taus.size * 8
    tracemalloc.start()
    try:
        assert run_experiment(spec) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (freqs.size, taus.size) == (1301, 201)
    # the grid, one solve block and one CSV block: about 3 MB; the whole map's complex
    # arrays and CSV text took 24 MB
    assert peak < grid_bytes + 2 * 2**20


def test_rerun_over_earlier_outputs_matches_fresh_run(tmp_path):
    options = {"variant": "control", "shots": 500, "qst_shots": 100}
    reused, fresh = tmp_path / "reused", tmp_path / "fresh"
    assert run_experiment(ExperimentSpec("shor", dict(options, variant="four_qubit"), reused, 1)) == 0
    assert run_experiment(ExperimentSpec("shor", options, reused, 2)) == 0
    assert run_experiment(ExperimentSpec("shor", options, fresh, 2)) == 0
    outputs = [{p.name: p.read_bytes() for p in sorted(d.iterdir())} for d in (reused, fresh)]
    assert outputs[0] == outputs[1]
    assert set(outputs[0]) == {"factoring.json", "manifest.json"}


# ---------------------------------------------------------------------------
# JSON writer against json.dumps, its oracle
# ---------------------------------------------------------------------------

JSON_TEXTS = st.one_of(st.text(max_size=6),
                       st.sampled_from(["%", "%d", "%s%%", "a%(b)s", '"', "\\", "é", "☃", "\x00"]))
JSON_FLOATS = st.one_of(st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, -0.0,
                                                     5e-324, 1e16, 0.1, 1e308]))
JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), JSON_FLOATS, JSON_TEXTS)


@st.composite
def int_dict_lists(draw):
    """Lists of int-valued objects, each object possibly with its keys in another order, a
    key dropped or added, or a bool or float."""
    keys = draw(st.lists(JSON_TEXTS, max_size=4, unique=True))
    rows = []
    for _ in range(draw(st.integers(0, 4))):
        row_keys = list(draw(st.permutations(keys)))
        if row_keys and draw(st.integers(0, 5)) == 0:
            row_keys.pop()
        if draw(st.integers(0, 5)) == 0:
            row_keys.append(draw(JSON_TEXTS))
        values = st.one_of(st.integers(), st.just(True), st.just(1.0)) \
            if draw(st.integers(0, 3)) == 0 else st.integers()
        rows.append({k: draw(values) for k in row_keys})
    return rows


@st.composite
def float_rows(draw):
    """Lists of float rows, mostly of one width and finite, sometimes ragged or not finite."""
    width = draw(st.integers(0, 3))
    leaves = JSON_FLOATS if draw(st.booleans()) else st.floats(allow_nan=False,
                                                                allow_infinity=False)
    return [draw(st.lists(leaves, min_size=width, max_size=width + draw(st.integers(0, 1))))
            for _ in range(draw(st.integers(0, 4)))]


JSON_DOCS = st.recursive(
    st.one_of(JSON_SCALARS, int_dict_lists(), float_rows(), st.lists(JSON_TEXTS, max_size=4),
              st.lists(JSON_FLOATS, max_size=4), st.dictionaries(JSON_TEXTS, st.integers(),
                                                                  max_size=4)),
    lambda children: st.one_of(st.lists(children, max_size=4),
                               st.dictionaries(JSON_TEXTS, children, max_size=4)),
    max_leaves=12)


@settings(derandomize=True, deadline=None, max_examples=500)
@given(doc=JSON_DOCS)
def test_json_writer_matches_json_dumps(doc):
    assert harness._json_text(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("doc", [
    {"a%d": {"x%": 1, "y": 2}, "b": {"n": True, "m": 1}, "c": {}, "d": []},
    [{"b": 1, "a": 2}, {"a": 3, "b": 4}],  # one key set in two orders
    [{"a": 1, "b": 2}, {"a": 1, "c": 2}],  # two key sets
    [{"a": 1}, {"a": True}],
    [[0.5, -0.0], [5e-324, 1e16]],
    [[0.5, math.nan], [1.0, 2.0]],
    [[0.5], [1.0, 2.0]],
    [[], []],
    [["I", "X_half"], ["Y_half", "%s"]],
    [np.float64(0.1), 1.0, {"k": np.float64(-0.0)}],  # numpy floats are floats to json
    (1, (2.0, "three"), None),
])
def test_json_writer_matches_json_dumps_on_edge_documents(doc):
    assert harness._json_text(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"


@st.composite
def tomography_records(draw):
    """Records of 1..4 qubits with or without ``rho_hat``, and metrics that hold NaN, ±inf,
    -0.0 and a ``witness_passed`` flag."""
    n = draw(st.integers(1, 4))
    shots = draw(st.integers(1, 10 ** 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32)))
    rho = None
    if draw(st.booleans()):
        if draw(st.booleans()):
            a = rng.normal(size=(2 ** n, 2 ** n)) + 1j * rng.normal(size=(2 ** n, 2 ** n))
            elements = a @ a.conj().T
        else:  # real and diagonal, conjugated: every imaginary part is -0.0
            elements = np.diag(rng.random(2 ** n)).astype(complex).conj()
        rho = DensityMatrix(elements / np.trace(elements).real)
    values = st.one_of(JSON_FLOATS, st.sampled_from([0.0, 1.0]))
    metrics = draw(st.dictionaries(st.one_of(JSON_TEXTS, st.just("witness_passed")), values,
                                   max_size=5))
    return TomographyRecord(
        qubits=sorted(draw(st.sets(st.integers(0, 9), min_size=n, max_size=n))),
        shots_per_setting=shots, seed=draw(st.integers(0, 2 ** 64)),
        counts=rng.multinomial(shots, np.full(2 ** n, 2.0 ** -n), size=3 ** n),
        rho_hat=rho, metrics=metrics)


def as_dicts(doc):
    """The document with each TomographyRecord replaced by its ``to_dict()``."""
    if isinstance(doc, TomographyRecord):
        return doc.to_dict()
    return {k: as_dicts(v) for k, v in doc.items()} if isinstance(doc, dict) else doc


def example_record(n, metrics, rho=True):
    """An n-qubit record of one shot per outcome, estimated as the maximally mixed state."""
    d = 2 ** n
    return TomographyRecord(qubits=tuple(range(n)), shots_per_setting=d, seed=7,
                            counts=np.ones((3 ** n, d), np.int64), metrics=metrics,
                            rho_hat=DensityMatrix(np.eye(d, dtype=complex) / d) if rho else None)


# metric keys that could pass for a template's marker, a %-field or the end of a key
MARKER_KEYS = {"\x00": 1.0, "%s": 0.5, '"': -0.0}
NOT_FINITE = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf}


@settings(derandomize=True, deadline=None, max_examples=150)
@given(record=tomography_records(), other=tomography_records(), depth=st.integers(0, 2))
@example(record=example_record(2, MARKER_KEYS), other=example_record(1, {}), depth=0)
@example(record=example_record(1, MARKER_KEYS, rho=False),
         other=example_record(3, MARKER_KEYS), depth=2)
@example(record=example_record(2, NOT_FINITE), other=example_record(1, NOT_FINITE), depth=1)
@example(record=example_record(4, dict(MARKER_KEYS, **NOT_FINITE)),
         other=example_record(4, {}, rho=False), depth=2)
def test_json_writer_fills_records_as_json_dumps_writes_their_dicts(record, other, depth):
    # entangle writes a record alone (depth 0); shor writes register_qst at depth 1 and each
    # breakpoint record at depth 2
    doc = [record, {"register_qst": record, "mode": "x"},
           {"breakpoints": {"step1": record, "step2": other}, "register_qst": other}][depth]
    assert harness._json_text(doc) == json.dumps(as_dicts(doc), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("doc", [{"a": np.int64(1)}, [1.0, object()], {"a": [{1j}]}])
def test_json_writer_rejects_values_json_cannot_encode(doc):
    with pytest.raises(TypeError):
        json.dumps(doc, indent=2, sort_keys=True)
    with pytest.raises(TypeError):
        harness._json_text(doc)


# ---------------------------------------------------------------------------
# CSV writer and readers against the row-by-row versions they replaced
# ---------------------------------------------------------------------------

def row_write_csv(path, header, rows):
    def fmt(value):
        if isinstance(value, (int, np.integer)):
            return str(int(value))
        return repr(float(value))

    lines = [",".join(header)]
    lines.extend(",".join(fmt(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n")


def row_read_spectroscopy_csv(path):
    lines = Path(path).read_text().strip().splitlines()
    if lines[0] != "freq_ghz,tau_ns,p_e":
        raise ValueError(f"unexpected spectroscopy header {lines[0]!r}")
    triples = [tuple(float(tok) for tok in line.split(",")) for line in lines[1:]]
    freqs = sorted({t[0] for t in triples})
    taus = sorted({t[1] for t in triples})
    grid = np.full((len(freqs), len(taus)), np.nan)
    f_index = {f: i for i, f in enumerate(freqs)}
    t_index = {t: j for j, t in enumerate(taus)}
    for f, t, p in triples:
        grid[f_index[f], t_index[t]] = p
    if np.isnan(grid).any():
        raise ValueError("spectroscopy CSV does not cover the full grid")
    return np.array(freqs), np.array(taus), grid


def row_read_rabi_traces_csv(path):
    lines = Path(path).read_text().strip().splitlines()
    if lines[0] != "n_participants,time_ns,p_bus":
        raise ValueError(f"unexpected traces header {lines[0]!r}")
    rows = {}
    for line in lines[1:]:
        n, t, p = line.split(",")
        rows.setdefault(int(n), []).append((float(t), float(p)))
    return {
        n: (np.array([t for t, _ in pairs]), np.array([p for _, p in pairs]))
        for n, pairs in rows.items()
    }


def grid_rows(outer, inner, values):
    """The rows ``(outer[i], inner[j], values[i, j])`` of a grid, in row-major order."""
    return [(o, x, values[i, j]) for i, o in enumerate(outer) for j, x in enumerate(inner)]


@settings(derandomize=True, deadline=None, max_examples=80)
@given(data=st.data())
def test_grid_writer_matches_row_writer(tmp_path_factory, data):
    n_outer, n_inner = data.draw(st.integers(0, 6)), data.draw(st.integers(0, 8))
    # small pools, so values repeat; 0.0/-0.0, nan and inf included, and probabilities
    # rounded as the experiments write them, which take the writer's digit path
    rounded = st.floats(0, 1).map(lambda x: float(np.round(x, PROBABILITY_DECIMALS)))
    float_pool = np.array(data.draw(st.lists(
        st.floats(width=64) | st.sampled_from([0.0, -0.0]) | rounded, min_size=1, max_size=6)))

    def pick(n):
        return float_pool[data.draw(st.lists(st.integers(0, len(float_pool) - 1),
                                             min_size=n, max_size=n))]

    if data.draw(st.booleans()):
        outer = np.array(data.draw(st.lists(st.integers(-3, 3), min_size=n_outer,
                                            max_size=n_outer)), dtype=np.int64)
    else:
        outer = pick(n_outer)
    inner, values = pick(n_inner), pick(n_outer * n_inner).reshape(n_outer, n_inner)
    out = tmp_path_factory.mktemp("csv")
    (out / "grid.csv").write_text("".join(_csv_chunks(["n", "x", "y"], outer, inner, values)))
    row_write_csv(out / "rows.csv", ["n", "x", "y"], grid_rows(outer, inner, values))
    assert (out / "grid.csv").read_bytes() == (out / "rows.csv").read_bytes()


# cells on both sides of each bound of the writer's digit path (1e-4 <= v < 1, at most 15
# places), 0.0/-0.0, nan and inf, and the longest reprs
EDGE_VALUES = [1e-4, np.nextafter(1e-4, 0), np.nextafter(1e-4, 1), 0.1, 0.01, 0.001, 0.5,
               0.999999999999999, np.nextafter(1, 0), 1.0, 0.0, -0.0, math.nan, math.inf,
               -math.inf, -0.25, 0.12345678901234567, 0.00012345678901234567, 2 / 3,
               0.3000000000000001, 6.25, -2.2250738585072014e-308, 1.2345678901234567e-300,
               1e300]


# each grid named by its row count; inner axes that do not divide CSV_BLOCK_ROWS put the
# block boundaries inside an outer row
@pytest.mark.parametrize("shape", [
    pytest.param((0, 21), id="0"), pytest.param((1, 1), id="1"),
    pytest.param((195, 21), id="4095"), pytest.param((2, 2048), id="4096"),
    pytest.param((17, 241), id="4097"), pytest.param((5, 1639), id="8195"),
    pytest.param((2, 4095), id="8190"), pytest.param((2, 4097), id="8194"),
    pytest.param((3, 4096), id="12288")])
def test_block_writer_matches_row_writer_across_blocks(tmp_path, shape):
    n_outer, n_inner = shape
    rows = np.arange(n_outer * n_inner)
    pool = np.array(EDGE_VALUES)
    outer = np.arange(n_outer) % 5 - 2
    inner = pool[np.arange(n_inner) % len(pool)]
    # distinct per row except every third, so each block has its own set of values: repr'd
    # multiples of 0.1, and probabilities rounded as the experiments write them
    values = np.select([rows % 3 == 0, rows % 3 == 1], [pool[(rows // 3) % len(pool)], rows * 0.1],
                       np.round(np.sin(rows) ** 2, PROBABILITY_DECIMALS)).reshape(shape)
    (tmp_path / "grid.csv").write_text("".join(_csv_chunks(["n", "x", "y"], outer, inner, values)))
    row_write_csv(tmp_path / "rows.csv", ["n", "x", "y"], grid_rows(outer, inner, values))
    assert (tmp_path / "grid.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


@settings(derandomize=True, deadline=None, max_examples=200)
@given(ks=st.lists(st.integers(10**11, 10**15 - 1)
                   | st.integers(10**8, 10**12 - 1).map(lambda k: k * 1000)
                   | st.integers(10**5, 10**9 - 1).map(lambda k: k * 10**6),
                   min_size=1, max_size=40))
def test_digit_cells_are_the_repr_of_every_fifteen_place_decimal(ks):
    # multiples of 1000 and 10**6 end in whole zero groups, which the float groups must
    # find exactly
    values = np.array(ks) / 1e15
    expected = "p,k,v\n" + "".join(f"0,{k},{v!r}\n" for k, v in zip(ks, values.tolist()))
    assert "".join(_csv_chunks(["p", "k", "v"], [0], np.array(ks), values[None, :])) == expected


def test_digit_quad_table_is_the_padded_and_stripped_triples():
    triples = [f"{i:03d}" for i in range(1000)]
    stripped = [t.rstrip("0").ljust(3, "\0") for t in triples]
    assert harness._DIGIT_QUADS.dtype == np.uint32 and harness._DIGIT_QUADS.shape == (2000,)
    assert harness._DIGIT_QUADS.tobytes() == "".join(
        t + "\0" for t in triples + stripped).encode("ascii")


def default_chevron_grid(rounded):
    """The default Q1 map's axes and grid, raw or as ``_run_spectroscopy`` writes them."""
    freqs, taus = spectroscopy_grids(ExperimentSpec("spectroscopy", {"qubit": 1}))
    grid = swap_spectroscopy(DeviceConfig.default(), 0, freqs, taus)
    if rounded:
        np.round(grid, PROBABILITY_DECIMALS, out=grid)
    return freqs, taus, grid


def test_rounded_chevron_cells_take_the_digit_path(monkeypatch):
    calls = []

    def counting_repr(value):
        calls.append(value)
        return repr(value)

    freqs, taus, grid = default_chevron_grid(rounded=True)
    monkeypatch.setattr(harness, "repr", counting_repr, raising=False)
    "".join(_csv_chunks(["freq_ghz", "tau_ns", "p_e"], freqs, taus, grid))
    # each axis value once, and at most the P_e cells at 1 or below 1e-4: under 2% of
    # the map
    slow = ~((grid >= 1e-4) & (grid < 1))
    assert (len(freqs), len(taus)) == (261, 201)
    assert 0 < len(calls) <= 261 + 201 + slow.sum() < 0.02 * grid.size


def test_chevron_csv_peak_memory_is_a_small_multiple_of_its_text():
    # the raw grid mostly takes the repr path; the grid as the experiment writes it, the
    # digit path
    for rounded in (False, True):
        freqs, taus, grid = default_chevron_grid(rounded)
        args = (["freq_ghz", "tau_ns", "p_e"], freqs, taus, grid)
        tracemalloc.start()
        try:
            size = len("".join(_csv_chunks(*args)))
            _, joined_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            # consumed as they come, as the experiments write them
            assert sum(map(len, _csv_chunks(*args))) == size
            _, streamed_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert grid.size > 10 * CSV_BLOCK_ROWS
        # joined, the chunks and the text read 2.0x the text; every cell string of the map
        # at once, 9.1x
        assert joined_peak < 3 * size, rounded
        # one block at a time: 0.8x raw, 0.5x rounded
        assert streamed_peak < size, rounded


def test_readers_match_row_readers(tmp_path):
    assert run_experiment(ExperimentSpec("spectroscopy", {"qubit": 2}, tmp_path / "s", 4)) == 0
    path = tmp_path / "s" / "spectroscopy.csv"
    for got, expected in zip(read_spectroscopy_csv(path), row_read_spectroscopy_csv(path)):
        np.testing.assert_array_equal(got, expected)

    assert run_experiment(ExperimentSpec("rabi_scaling", {}, tmp_path / "r", 4)) == 0
    path = tmp_path / "r" / "rabi_traces.csv"
    got, expected = read_rabi_traces_csv(path), row_read_rabi_traces_csv(path)
    assert list(got) == list(expected) == [1, 2, 3, 4]
    for n in expected:
        np.testing.assert_array_equal(got[n][0], expected[n][0])
        np.testing.assert_array_equal(got[n][1], expected[n][1])


def increasing_axis(data, n):
    """n strictly increasing axis values: whole numbers, which the writer spells as ints;
    up to 8 floats from anywhere, -0.0 and ±inf included; or an evenly stepped float run."""
    if data.draw(st.booleans()):
        steps = data.draw(st.lists(st.integers(1, 10**6), min_size=1, max_size=8))
        return data.draw(st.integers(-10**9, 10**9)) + np.cumsum(np.resize(steps, n))
    if n <= 8:
        element = st.sampled_from([-0.0, -math.inf, math.inf]) | st.floats(allow_nan=False)
        return np.array(sorted(data.draw(st.lists(element, min_size=n, max_size=n,
                                                  unique=True))), dtype=float)
    return data.draw(st.floats(-1e6, 1e6)) + data.draw(st.floats(1e-3, 1e3)) * np.arange(n)


@pytest.mark.parametrize("shape", [(0, 5), (5, 0), (1, 1), (1, 9), (9, 1), (4, 6),
                                   (2, CSV_BLOCK_ROWS + 3)], ids="{0[0]}x{0[1]}".format)
@settings(derandomize=True, deadline=None, max_examples=25)
@given(data=st.data())
def test_grid_reader_inverts_the_grid_writer(tmp_path_factory, shape, data):
    outer, inner = (increasing_axis(data, n) for n in shape)
    picks = data.draw(st.lists(st.integers(0, len(EDGE_VALUES) - 1), min_size=1, max_size=16))
    values = np.resize(np.array(EDGE_VALUES)[picks], shape)
    path = tmp_path_factory.mktemp("csv") / "grid.csv"
    path.write_text("".join(_csv_chunks(["n", "x", "y"], outer, inner, values)))
    # a grid without cells is a header alone, which reads back empty
    expected = (outer, inner, values) if values.size else (np.empty(0), np.empty(0),
                                                            np.empty((0, 0)))
    for got, want in zip(harness._read_grid(path, ("n", "x", "y")), expected):
        want = np.asarray(want, dtype=float)
        assert got.dtype == np.float64 and got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("body", [
    "freq_ghz,tau,p_e\n6.1,0.0,1.0\n",                            # bad header
    "freq_ghz,tau_ns,p_e\n6.1,0.0,1.0\n6.1,1.0\n",              # ragged row
    "freq_ghz,tau_ns,p_e\n6.1,0.0,1.0\n6.1,x,1.0\n",            # malformed value
    "freq_ghz,tau_ns,p_e\n6.1,0.0,1.0\n6.2,1.0,0.5\n",          # grid not covered
    "freq_ghz,tau_ns,p_e\n6.1,0.0,1.0\n6.1,0.0,0.5\n",          # a cell written twice
    "freq_ghz,tau_ns,p_e\nnan,0.0,1.0\n",                        # NaN frequency
    "freq_ghz,tau_ns,p_e\n6.1,nan,1.0\n",                        # NaN delay
    # the 2x2 grid in column-major order
    "freq_ghz,tau_ns,p_e\n6.1,0.0,1.0\n6.2,0.0,0.5\n6.1,1.0,0.5\n6.2,1.0,0.5\n",
    # probabilities outside [0, 1], and NaN
    "freq_ghz,tau_ns,p_e\n6.1,0.0,7.5\n",
    "freq_ghz,tau_ns,p_e\n6.1,0.0,-2\n",
    "freq_ghz,tau_ns,p_e\n6.1,0.0,1.0000000000000002\n",
    "freq_ghz,tau_ns,p_e\n6.1,0.0,-0.0\n6.1,0.5,nan\n",
])
def test_spectroscopy_reader_rejects_bad_files(tmp_path, body):
    path = tmp_path / "spectroscopy.csv"
    path.write_text(body)
    with pytest.raises(ValueError):
        read_spectroscopy_csv(path)


@pytest.mark.parametrize("body, rows", [
    ("freq_ghz,tau_ns,p_e", 0),
    ("freq_ghz,tau_ns,p_e\n", 0),
    ("freq_ghz,tau_ns,p_e\n\n", 0),
    ("freq_ghz,tau_ns,p_e\r\n6.1,0.0,1.0\r\n", 1),
    ("freq_ghz,tau_ns,p_e\n6.1,0.0,1.0\n\n6.1,0.5,0.5\n\n", 2),
    ("freq_ghz,tau_ns,p_e\n6.1,0.0,1.0\n6.1,0.5,0.5", 2),   # no newline after the last row
])
def test_csv_reader_reads_the_body_after_the_header(tmp_path, body, rows):
    path = tmp_path / "spectroscopy.csv"
    path.write_bytes(body.encode())
    assert harness._read_grid(path, ("freq_ghz", "tau_ns", "p_e"))[2].size == rows


@pytest.mark.parametrize("body", [
    "",
    "\nfreq_ghz,tau_ns,p_e\n6.1,0.0,1.0\n",   # the header must be the first line
    " freq_ghz,tau_ns,p_e\n6.1,0.0,1.0\n",
    "freq_ghz,tau_ns,p_e\n6.1,0.0,1.0\n   \n",  # a line of blanks is not an empty line
    "freq_ghz,tau_ns\n6.1,0.0\n",
    "freq_ghz,tau_ns,p_e\n6.1,0.0\n",
])
def test_csv_reader_rejects_bad_files(tmp_path, body):
    path = tmp_path / "spectroscopy.csv"
    path.write_bytes(body.encode())
    with pytest.raises(ValueError):
        harness._read_grid(path, ("freq_ghz", "tau_ns", "p_e"))


@pytest.mark.parametrize("body", [
    "n,time_ns,p_bus\n1,0.0,1.0\n",
    "n_participants,time_ns,p_bus\n1,0.0\n",
    "n_participants,time_ns,p_bus\n1.5,0.0,1.0\n",
    # not whole numbers that fit an int64; a cast would warn before any check
    "n_participants,time_ns,p_bus\nnan,0.0,1.0\n",
    "n_participants,time_ns,p_bus\ninf,0.0,1.0\n",
    "n_participants,time_ns,p_bus\n1e300,0.0,1.0\n",
    "n_participants,time_ns,p_bus\n1,0.0,1.0\n1,0.5,0.5\n2,0.0,1.0\n",   # ragged traces
    # the writer numbers N from 1
    "n_participants,time_ns,p_bus\n0,0.0,1.0\n",
    "n_participants,time_ns,p_bus\n-3,0.0,1.0\n1,0.0,1.0\n",
    # probabilities outside [0, 1], and NaN
    "n_participants,time_ns,p_bus\n1,0.0,1.5\n",
    "n_participants,time_ns,p_bus\n1,0.0,1.0\n1,0.5,-1e-300\n",
    "n_participants,time_ns,p_bus\n1,0.0,nan\n",
])
def test_rabi_reader_rejects_bad_files(tmp_path, body):
    path = tmp_path / "rabi_traces.csv"
    path.write_text(body)
    with pytest.raises(ValueError):
        read_rabi_traces_csv(path)


# ---------------------------------------------------------------------------
# JSON document readers under single-field mutations
# ---------------------------------------------------------------------------

@functools.cache
def written_documents():
    """(reader, document, defaults of its optional keys) for a Bell record and a three_qubit
    factoring result, as the entangle and shor experiments write them."""
    with tempfile.TemporaryDirectory() as out:
        out = Path(out)
        assert run_experiment(ExperimentSpec("entangle", {"participants": [1, 2],
                                                          "qst_shots": 500}, out / "e", 2)) == 0
        assert run_experiment(ExperimentSpec("shor", {"variant": "three_qubit", "shots": 1000,
                                                      "qst_shots": 100}, out / "s", 2)) == 0
        bell = json.loads((out / "e" / "tomography.json").read_text())
        result = json.loads((out / "s" / "factoring.json").read_text())["result"]
    return ((TomographyRecord.from_dict, bell, {"rho_hat": None, "metrics": {}}),
            (FactoringResult.from_dict, result, {}))


DELETE = "<delete>"
MUTATIONS = [DELETE, 5, -1, 2.0, "x", True, None, [], {}, [[1]]]


def draw_single_field_mutation(data, source, mutations):
    """A copy of ``source`` with one field, at any depth, deleted or swapped for a mutation."""
    doc = copy.deepcopy(source)
    # walk down from the top level, stopping at some key or index of a dict or list
    node = doc
    key = data.draw(st.sampled_from(sorted(node)))
    while type(node[key]) in (dict, list) and node[key] and data.draw(st.booleans()):
        node = node[key]
        key = data.draw(st.sampled_from(sorted(node) if type(node) is dict else range(len(node))))
    mutation = data.draw(st.sampled_from(mutations))
    if mutation == DELETE:
        del node[key]
    else:
        node[key] = copy.deepcopy(mutation)
    return doc


@settings(derandomize=True, deadline=None, max_examples=400)
@given(data=st.data())
def test_document_readers_reject_or_round_trip_every_single_field_mutation(data):
    reader, source, defaults = data.draw(st.sampled_from(written_documents()))
    doc = draw_single_field_mutation(data, source, MUTATIONS)
    try:
        parsed = reader(doc)
    except ValueError:
        return
    # accepted: writing the parsed value back gives the same JSON, types included
    assert json.dumps(parsed.to_dict(), sort_keys=True) == json.dumps({**defaults, **doc},
                                                                      sort_keys=True)


@pytest.mark.parametrize("reader", [TomographyRecord.from_dict, FactoringResult.from_dict])
@pytest.mark.parametrize("doc", [5, "x", None, [], [[1]]])
def test_document_readers_reject_documents_that_are_not_objects(reader, doc):
    with pytest.raises(ValueError, match="must be a JSON object"):
        reader(doc)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(data=st.data())
def test_device_documents_load_or_fail_with_one_config_error_under_any_single_field_mutation(
        tmp_path_factory, data):
    source = dict(json.loads(default_config_path().read_text()), noise=NOISE_BLOCK)
    doc = draw_single_field_mutation(data, source, MUTATIONS + [math.nan, 1e308])
    path = write_config(tmp_path_factory.mktemp("device"), doc)
    try:
        load_device_document(path)
        loaded = True
    except ConfigError:
        loaded = False
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        assert main(["validate", "--config", str(path)]) == (0 if loaded else 1)
    assert "Traceback" not in err.getvalue()


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_validate_subcommand(tmp_path, capsys):
    assert main(["validate", "--config", str(default_config_path())]) == 0
    doc = DeviceConfig.default().to_dict()
    doc["g_bus_mhz"] = [0.0, 55.0, 55.0, 55.0]
    bad = write_config(tmp_path, doc, "bad.json")
    assert main(["validate", "--config", str(bad)]) == 1
    captured = capsys.readouterr()
    assert "g_bus[0]" in captured.err


def test_cli_runs_shor(tmp_path):
    code = main([
        "shor", "--variant", "control", "--shots", "500", "--qst-shots", "200",
        "--out", str(tmp_path), "--seed", "2",
    ])
    assert code == 0
    doc = json.loads((tmp_path / "factoring.json").read_text())
    assert doc["result"]["output_counts"]["00"] == 500


def test_cli_usage_errors_exit_one():
    assert main(["bogus-experiment"]) == 1
    assert main([]) == 1
    assert main(["--help"]) == 0


@pytest.mark.parametrize("name", EXPERIMENTS)
def test_parser_defaults_are_the_option_table(name):
    args = vars(build_parser().parse_args([name]))
    options = {k: v for k, v in args.items() if k not in ("command", "config", "out", "seed")}
    assert options == _OPTION_DEFAULTS[name]


def test_parser_rejects_unknown_variant(tmp_path):
    assert main(["shor", "--variant", "five_qubit", "--out", str(tmp_path)]) == 1
    assert not any(tmp_path.iterdir())


def test_cli_seed_and_qubit_parsing(tmp_path):
    code = main([
        "rabi_scaling", "--qubits", "1,2", "--dtau-max", "50", "--sample-dt", "0.5",
        "--out", str(tmp_path), "--seed", "9",
    ])
    assert code == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["options"]["qubits"] == [1, 2]
    assert manifest["seed"] == 9
