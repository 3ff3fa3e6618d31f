import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qproc_sim.dynamics import DeviceConfig
from qproc_sim.harness import (
    ExperimentSpec,
    _write_csv,
    default_config_path,
    load_device_document,
    main,
    read_rabi_traces_csv,
    read_spectroscopy_csv,
    run_experiment,
    validate_config,
)
from qproc_sim.hilbert import InvariantError
from qproc_sim.tomography import TomographyRecord


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
    report = validate_config(default_config_path())
    assert report.ok
    config, noise = load_device_document(None)
    assert config == DeviceConfig.default()
    assert noise is None


def test_negative_coupling_violation_names_field(tmp_path):
    doc = DeviceConfig.default().to_dict()
    doc["g_mem_mhz"][2] = -5.0
    report = validate_config(write_config(tmp_path, doc))
    assert not report.ok
    assert any("g_mem[2]" in v for v in report.violations)


def test_idle_near_bus_reports_coupling_off_violation(tmp_path):
    doc = DeviceConfig.default().to_dict()
    doc["f_idle_ghz"] = [6.2, 6.6, 6.6, 6.6]  # within ~2x coupling of the bus
    report = validate_config(write_config(tmp_path, doc))
    assert any("coupling-off regime violated" in v for v in report.violations)


def test_parse_failure_reports_line_context(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "n_qubits": 4,\n}')
    report = validate_config(path)
    assert not report.ok
    assert any("line" in v for v in report.violations)


def test_missing_file_is_config_error(tmp_path):
    report = validate_config(tmp_path / "absent.json")
    assert not report.ok


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


def test_benchmark_noise_block_is_valid(tmp_path):
    doc = dict(DeviceConfig.default().to_dict(), noise=NOISE_BLOCK)
    assert validate_config(write_config(tmp_path, doc)).ok


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


def test_invariant_violation_exits_two(tmp_path, monkeypatch):
    def boom(*args, **kwargs):
        raise InvariantError("synthetic violation")

    monkeypatch.setattr("qproc_sim.harness.prepare_shared_excitation", boom)
    spec = ExperimentSpec(name="entangle", options={"participants": [1, 2]},
                          output_dir=tmp_path)
    assert run_experiment(spec) == 2


def test_small_spectroscopy_csv_matches_reference(tmp_path):
    # reference written by the one-excitation block solver at the same options and seed;
    # test_small_spectroscopy_fixture_matches_full_space_oracle ties it to the full space
    options = {"qubit": 1, "f_min": 6.05, "f_max": 6.15, "f_step": 0.01,
               "tau_max": 20.0, "tau_step": 1.0}
    assert run_experiment(ExperimentSpec("spectroscopy", options, tmp_path, 1)) == 0
    reference = Path(__file__).parent / "data" / "spectroscopy_small.csv"
    assert (tmp_path / "spectroscopy.csv").read_bytes() == reference.read_bytes()


def test_small_w4_tomography_json_matches_reference(tmp_path):
    # reference written at the same options and seed from the W4 state solved in the
    # one-excitation block (its two-excitation outcomes have probability exactly 0), with a
    # forward model equal bit for bit to the per-setting Kronecker one; W4's 81 settings
    # span three batched blocks of 27, so this pins the block seams
    options = {"participants": [1, 2, 3, 4], "qst_shots": 100}
    assert run_experiment(ExperimentSpec("entangle", options, tmp_path, 3)) == 0
    reference = Path(__file__).parent / "data" / "tomography_w4_small.json"
    assert (tmp_path / "tomography.json").read_bytes() == reference.read_bytes()


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
}


@pytest.mark.parametrize("argv", [list(case) for case in OPTION_ERRORS])
def test_out_of_range_qubit_labels_exit_one(tmp_path, capsys, argv):
    # every option the experiment cannot run with is rejected before any file is written
    assert main(argv + ["--out", str(tmp_path)]) == 1
    assert not (tmp_path / "manifest.json").exists()
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error:")
    assert OPTION_ERRORS[tuple(argv)] in err[0]


# options the CLI's argument parser cannot pass, called through the library entry point
LIBRARY_OPTION_ERRORS = {
    ("shor", "variant", "five_qubit"): "option 'variant' must be one of",
}


@pytest.mark.parametrize("case", list(LIBRARY_OPTION_ERRORS))
def test_library_option_errors_exit_one(tmp_path, capsys, case):
    name, key, value = case
    assert run_experiment(ExperimentSpec(name, {key: value}, tmp_path)) == 1
    assert not (tmp_path / "manifest.json").exists()
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error:")
    assert LIBRARY_OPTION_ERRORS[case] in err[0]


def test_sampled_norm_defect_exits_two(tmp_path, capsys, monkeypatch):
    eigh = np.linalg.eigh

    def scaled_eigh(a, *args, **kwargs):
        evals, vecs = eigh(a, *args, **kwargs)
        return evals, vecs * (1 + 1e-6)

    monkeypatch.setattr(np.linalg, "eigh", scaled_eigh)
    assert main(["rabi_scaling", "--dtau-max", "10", "--out", str(tmp_path)]) == 2
    assert "sampled state norm" in capsys.readouterr().err


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


@settings(derandomize=True, deadline=None, max_examples=60)
@given(data=st.data())
def test_column_writer_matches_row_writer(tmp_path_factory, data):
    n_rows = data.draw(st.integers(0, 30))
    # small pools, so values repeat; 0.0/-0.0, nan and inf included
    float_pool = data.draw(st.lists(st.floats(width=64) | st.sampled_from([0.0, -0.0]),
                                    min_size=1, max_size=6))
    pick = st.lists(st.integers(0, len(float_pool) - 1), min_size=n_rows, max_size=n_rows)
    ints = np.array(data.draw(st.lists(st.integers(-3, 3), min_size=n_rows, max_size=n_rows)),
                    dtype=np.int64)
    floats = [np.array(float_pool)[data.draw(pick)] for _ in range(2)]
    columns = [ints, *floats]
    out = tmp_path_factory.mktemp("csv")
    _write_csv(out / "columns.csv", ["n", "x", "y"], columns)
    row_write_csv(out / "rows.csv", ["n", "x", "y"], list(zip(*columns)))
    assert (out / "columns.csv").read_bytes() == (out / "rows.csv").read_bytes()


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


@pytest.mark.parametrize("body", [
    "freq_ghz,tau,p_e\n6.1,0.0,1.0\n",                            # bad header
    "freq_ghz,tau_ns,p_e\n6.1,0.0,1.0\n6.1,1.0\n",              # ragged row
    "freq_ghz,tau_ns,p_e\n6.1,0.0,1.0\n6.1,x,1.0\n",            # malformed value
    "freq_ghz,tau_ns,p_e\n6.1,0.0,1.0\n6.2,1.0,0.5\n",          # grid not covered
])
def test_spectroscopy_reader_rejects_bad_files(tmp_path, body):
    path = tmp_path / "spectroscopy.csv"
    path.write_text(body)
    with pytest.raises(ValueError):
        read_spectroscopy_csv(path)


@pytest.mark.parametrize("body", [
    "n,time_ns,p_bus\n1,0.0,1.0\n",
    "n_participants,time_ns,p_bus\n1,0.0\n",
    "n_participants,time_ns,p_bus\n1.5,0.0,1.0\n",
])
def test_rabi_reader_rejects_bad_files(tmp_path, body):
    path = tmp_path / "rabi_traces.csv"
    path.write_text(body)
    with pytest.raises(ValueError):
        read_rabi_traces_csv(path)


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


def test_cli_seed_and_qubit_parsing(tmp_path):
    code = main([
        "rabi_scaling", "--qubits", "1,2", "--dtau-max", "50", "--sample-dt", "0.5",
        "--out", str(tmp_path), "--seed", "9",
    ])
    assert code == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["options"]["qubits"] == [1, 2]
    assert manifest["seed"] == 9
