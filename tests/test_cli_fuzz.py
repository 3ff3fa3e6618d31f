"""``main(argv)`` over mutated options and config files, and ``run_experiment`` over mutated
options and seeds: every input ends in exit 0, 1 or 2, with no traceback, and a run that exits
non-zero leaves no file behind."""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qproc_sim.dynamics import DeviceConfig
from qproc_sim.harness import _OPTION_DEFAULTS, ExperimentSpec, main, run_experiment
from test_harness import narrow_device

NOISE_BLOCK = {"t1_ns": [400] * 4, "t_phi_ns": [200] * 4, "gate_time_1q_ns": 10,
               "gate_time_2q_ns": 50, "invented_default": True}

# a small valid run of each command, so that an unmutated example finishes quickly
BASE_ARGV = {
    "spectroscopy": ["--f-min", "6.05", "--f-max", "6.1", "--f-step", "0.01",
                     "--tau-max", "10", "--tau-step", "1"],
    "rabi_scaling": ["--qubits", "1,2", "--dtau-max", "100", "--sample-dt", "1"],
    "entangle": ["--participants", "1,2,3", "--qst-shots", "100"],
    "shor": ["--shots", "100", "--qst-shots", "100"],
    "validate": [],
}
FLAGS = {
    "spectroscopy": ["--qubit", "--f-min", "--f-max", "--f-step", "--tau-max", "--tau-step",
                     "--seed"],
    "rabi_scaling": ["--qubits", "--dtau-max", "--sample-dt", "--seed"],
    "entangle": ["--participants", "--qst-shots", "--seed"],
    "shor": ["--variant", "--shots", "--qst-shots", "--seed"],
    "validate": ["--bogus"],
}
TOKENS = ["", "0", "-1", "1", "2", "7", "1.5", "99", "1e308", "1e-308", "nan", "inf", "-inf",
          "x", ",", "1,", "1,1", "1,2", "1,2,3,4,5", "18446744073709551616", "0x10",
          "four_qubit", "control"]

DEVICE_KEYS = sorted(DeviceConfig.default().to_dict()) + ["noise", "bogus"]
NOISE_KEYS = sorted(NOISE_BLOCK) + ["t2_ns"]
VALUES = [None, True, False, "x", "7777", "inf", [], {}, -1, 0, 0.5, 2, 2.5, 7, 400, 1e308,
          -1e308, 2 ** 64, math.nan, math.inf, [1e308] * 4, [0] * 4, [None] * 4, [True] * 4,
          [6.8] * 3, [6.8] * 4, [20.0] * 4, ["inf"] * 4, [1e-308] * 4, "6.1", ["55"] * 4,
          10 ** 400]


def run_main(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


@st.composite
def config_documents(draw):
    """The shipped device document, maybe with a noise block, with up to three keys set,
    removed or added, in the device or the noise block; sometimes cut short or not UTF-8."""
    doc = DeviceConfig.default().to_dict()
    if draw(st.booleans()):
        doc["noise"] = dict(NOISE_BLOCK)
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2, 3]))):
        block = doc["noise"] if isinstance(doc.get("noise"), dict) and draw(st.booleans()) else doc
        key = draw(st.sampled_from(NOISE_KEYS if block is not doc else DEVICE_KEYS))
        if draw(st.integers(0, 4)) == 0:
            block.pop(key, None)
        else:
            block[key] = draw(st.sampled_from(VALUES))
    raw = json.dumps(doc).encode()
    cut = draw(st.sampled_from(["none"] * 6 + ["truncate", "not_utf8"]))
    if cut == "truncate":
        raw = raw[:draw(st.integers(0, len(raw) - 1))]
    elif cut == "not_utf8":
        raw = b"\xff\xfe" + raw
    return raw


@st.composite
def cli_inputs(draw):
    command = draw(st.sampled_from(sorted(BASE_ARGV)))
    argv = [command] + BASE_ARGV[command]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):  # a repeated flag overrides the first
        argv += [draw(st.sampled_from(FLAGS[command])), draw(st.sampled_from(TOKENS))]
    return argv, draw(config_documents())


def check_main(argv, config):
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "device.json", Path(tmp) / "out"
        path.write_bytes(config)
        argv = argv + ["--config", str(path)]
        if argv[0] != "validate":
            argv += ["--out", str(out)]
        code, err = run_main(argv)
        assert code in (0, 1, 2), (argv, code)
        assert "Traceback" not in err
        if code != 0:
            assert not out.exists() or not any(out.iterdir()), err
        elif argv[0] != "validate":
            assert (out / "manifest.json").exists()


def changed(**change):
    return json.dumps(dict(DeviceConfig.default().to_dict(), **change)).encode()


def noisy(**change):
    return changed(noise=dict(NOISE_BLOCK, **change))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(case=cli_inputs())
# the inputs that broke the exit-code contract before, each now exit 1
@example(case=(["validate"], b"\xff\xfe{"))
@example(case=(["spectroscopy"] + BASE_ARGV["spectroscopy"], b"[" * 100_000))
@example(case=(["spectroscopy"], changed(f_memory_ghz=[1e308, 7.2, 7.1, 6.9])))
@example(case=(["shor"] + BASE_ARGV["shor"], changed(f_bus_ghz=True)))
@example(case=(["shor"] + BASE_ARGV["shor"], noisy(t1_ns=[400, True, 400, 400])))
@example(case=(["validate"], changed(g_mem_mhz="2222")))
@example(case=(["validate"], noisy(t1_ns="1111")))
@example(case=(["shor"] + BASE_ARGV["shor"], noisy(t_phi_ns="2222")))
@example(case=(["validate"], changed(f_bus_ghz=-1)))
@example(case=(["validate"], changed(f_idle_ghz=[1e308, 6.6, 6.6, 6.6])))
@example(case=(["validate"], changed(g_mem_mhz=[20.0, 20.0, 20.0, 501.0])))
@example(case=(["shor", "--seed", "-1"] + BASE_ARGV["shor"], changed()))
@example(case=(["validate"], changed(f_bus_ghz="6.1", g_bus_mhz=["55"] * 4)))
@example(case=(["validate"], changed(f_bus_ghz=10 ** 400)))
@example(case=(["shor"] + BASE_ARGV["shor"], changed(f_bus_ghz=10 ** 400)))
@example(case=(["shor"] + BASE_ARGV["shor"], noisy(t1_ns=[400, 10 ** 400, 400, 400])))
@example(case=(["shor", "--variant", "four_qubit"] + BASE_ARGV["shor"],
               json.dumps(narrow_device(3, noisy=True)).encode()))
@example(case=(["shor", "--variant", "four_qubit"] + BASE_ARGV["shor"],
               json.dumps(narrow_device(3, noisy=False)).encode()))
@example(case=(["shor"] + BASE_ARGV["shor"], json.dumps(narrow_device(2, noisy=True)).encode()))
def test_main_exit_code_contract(case):
    check_main(*case)


# a small valid run of each experiment through the library entry point
BASE_OPTIONS = {
    "spectroscopy": {"f_min": 6.05, "f_max": 6.1, "f_step": 0.01, "tau_max": 10.0,
                     "tau_step": 1.0},
    "rabi_scaling": {"qubits": [1, 2], "dtau_max": 100.0, "sample_dt": 1.0},
    "entangle": {"participants": [1, 2, 3], "qst_shots": 100},
    "shor": {"shots": 100, "qst_shots": 100},
}
OPTION_VALUES = VALUES + ["1,2", 1.5, [1, "2"], np.int64(1)]


def typed_like(value, default) -> bool:
    """Whether ``value`` may stand for an option whose default is ``default``: a float option
    takes an int or a float, an int option a Python int, a list option a list or tuple of
    them, and ``variant`` a str."""
    if isinstance(default, list):
        return isinstance(value, (list, tuple)) and all(type(v) is int for v in value)
    if isinstance(default, float):
        return type(value) is int or isinstance(value, float)
    return type(value) is type(default)


@st.composite
def library_inputs(draw):
    """A small run of one experiment with one option, or the seed, replaced."""
    name = draw(st.sampled_from(sorted(BASE_OPTIONS)))
    options, seed = dict(BASE_OPTIONS[name]), 0
    key = draw(st.sampled_from(list(_OPTION_DEFAULTS[name]) + ["seed"]))
    value = draw(st.sampled_from(OPTION_VALUES))
    if key == "seed":
        seed = value
    else:
        options[key] = value
    return name, options, seed


@settings(derandomize=True, deadline=None, max_examples=150)
@given(case=library_inputs())
# each input that raised or ran with a value other than the one given, each now exit 1
@example(case=("shor", {"shots": "abc", "qst_shots": 100}, 0))
@example(case=("entangle", {"participants": [1, 2], "qst_shots": None}, 0))
@example(case=("entangle", {"participants": "1,2", "qst_shots": 100}, 0))
@example(case=("shor", {"shots": np.int64(100), "qst_shots": 100}, 0))
@example(case=("shor", BASE_OPTIONS["shor"], "3"))
@example(case=("shor", BASE_OPTIONS["shor"], 1.5))
@example(case=("shor", BASE_OPTIONS["shor"], True))
@example(case=("shor", BASE_OPTIONS["shor"], None))
@example(case=("spectroscopy", dict(BASE_OPTIONS["spectroscopy"], qubit=1.5), 0))
@example(case=("shor", {"shots": 10.7, "qst_shots": 100}, 0))
@example(case=("shor", {"shots": True, "qst_shots": 100}, 0))
@example(case=("spectroscopy", dict(BASE_OPTIONS["spectroscopy"], f_step="0.01"), 0))
# a row count whose product overflowed, which numpy reported as a warning
@example(case=("rabi_scaling", dict(BASE_OPTIONS["rabi_scaling"], dtau_max=1e308), 0))
def test_run_experiment_exit_code_contract(case):
    name, options, seed = case
    with tempfile.TemporaryDirectory() as tmp:
        out, err = Path(tmp) / "out", io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run_experiment(ExperimentSpec(name, options, out, seed))
        assert code in (0, 1, 2)
        if code != 0:
            assert not out.exists() or not any(out.iterdir()), err.getvalue()
        else:  # a run that exits 0 ran with every value as given
            assert type(seed) is int and all(typed_like(value, _OPTION_DEFAULTS[name][key])
                                             for key, value in options.items())
            assert (out / "manifest.json").exists()
        if code == 1:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("config error:"), lines
