import json
from pathlib import Path

import pytest

from output_digests import NOISY, RUNS, against, digests
from qproc_sim.dynamics import DeviceConfig
from qproc_sim.harness import (
    _LABEL_OPTIONS,
    _OPTION_DEFAULTS,
    ExperimentSpec,
    _checked_options,
    build_parser,
)
from test_harness import KERNEL_RUNS


def small_slice():
    """One noisy shor run and the four-qubit entangle run, at small shot counts."""
    small = [next(argv for argv in KERNEL_RUNS if argv[-2:] == NOISY), KERNEL_RUNS[-1]]
    assert all(argv in RUNS for argv in small)
    return small


def test_every_run_of_the_digest_set_parses():
    for argv in RUNS:
        build_parser().parse_args(argv + ["--out", "out"])


@pytest.mark.parametrize("argv", RUNS, ids=" ".join)
def test_the_option_reader_keeps_each_value_the_parser_gives(argv):
    # argparse types each flag by its default, as the reader types each library option;
    # a value and its type (seen in its repr: 1 is not 1.0) come back unchanged
    args = build_parser().parse_args(argv)
    options = {key: getattr(args, key) for key in _OPTION_DEFAULTS[args.command]}
    expected = dict(options)
    if args.command in _LABEL_OPTIONS:
        labels = options[_LABEL_OPTIONS[args.command]]
        expected["qubits"] = [q - 1 for q in (labels if isinstance(labels, list) else [labels])]
    opts = _checked_options(ExperimentSpec(args.command, options, seed=args.seed),
                            DeviceConfig.default())
    assert repr({key: opts[key] for key in expected}) == repr(expected)


def test_two_digest_runs_of_a_slice_agree():
    small = small_slice()
    first = digests(small)
    assert len(first) == 4  # each run's output file and manifest
    assert digests(small) == first


def test_against_prints_each_differing_or_missing_key(tmp_path, capsys):
    small = small_slice()
    first = digests(small)
    path = tmp_path / "digests.json"
    path.write_text(json.dumps(first))
    assert against(path, small) == 0
    assert capsys.readouterr().out == "all 4 files byte-identical\n"
    changed, dropped = sorted(first)[:2]
    expected = dict(first, **{changed: "0" * 64, "extra/file": "0" * 64})
    del expected[dropped]
    path.write_text(json.dumps(expected))
    assert against(path, small) == 1
    assert capsys.readouterr().out.splitlines() == sorted([changed, dropped, "extra/file"])


# every output of the digest set but the QST documents, whose last digits may differ between
# BLAS kernels (README); the manifests echo the numpy and Python versions, so a new version of
# either changes them. Regenerate with
#   PYTHONPATH=src python tests/output_digests.py > digests.json
# keeping every key that does not end in a QST_DOCUMENTS name.
BASELINE = Path(__file__).parent / "data" / "output_digests.json"
QST_DOCUMENTS = ("/tomography.json", "/factoring.json")


def test_outputs_outside_the_qst_documents_match_the_committed_digests():
    expected = json.loads(BASELINE.read_text())
    actual = {k: v for k, v in digests(RUNS).items() if not k.endswith(QST_DOCUMENTS)}
    assert len(expected) == 87
    assert sorted(k for k in expected.keys() | actual.keys()
                  if expected.get(k) != actual.get(k)) == []
