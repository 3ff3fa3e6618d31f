from output_digests import NOISY, RUNS, digests
from qproc_sim.harness import build_parser
from test_harness import KERNEL_RUNS


def test_every_run_of_the_digest_set_parses():
    for argv in RUNS:
        build_parser().parse_args(argv + ["--out", "out"])


def test_two_digest_runs_of_a_slice_agree():
    # one noisy shor run and the four-qubit entangle run, at small shot counts
    small = [next(argv for argv in KERNEL_RUNS if argv[-2:] == NOISY), KERNEL_RUNS[-1]]
    assert all(argv in RUNS for argv in small)
    first = digests(small)
    assert len(first) == 4  # each run's output file and manifest
    assert digests(small) == first
