"""Print the sha256 of every output file of the byte-identity comparison set.

    PYTHONPATH=src python tests/output_digests.py > digests.json
    PYTHONPATH=src python tests/output_digests.py --against digests.json

Runs each argv of ``RUNS`` through ``harness.main`` in a temporary directory and
prints one JSON object of {"<argv>/<file name>": sha256}. Two source trees write
the same bytes on the set when they print the same object. The set is every
experiment at its defaults (spectroscopy on each qubit; entangle on five
participant sets; every shor variant, ideal and noisy) at seeds 5, 11 and 901,
plus ``test_harness.KERNEL_RUNS``. Noisy runs read the README's noise block,
which this script writes next to its working directory as ``noisy.json``.

With ``--against FILE`` it compares the set with a printed object instead: it
prints each key whose digest differs from FILE's or is missing on either side,
and exits 1 if there is one.
"""

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

from qproc_sim.circuits import SHOR_VARIANTS
from qproc_sim.dynamics import DeviceConfig
from qproc_sim.harness import main
from test_harness import KERNEL_RUNS

# the noise block as README documents it
NOISE_BLOCK = {"t1_ns": [400, 400, 400, 400], "t_phi_ns": [200, 200, 200, 200],
               "gate_time_1q_ns": 10, "gate_time_2q_ns": 50, "invented_default": True}
NOISY = ["--config", "../noisy.json"]  # relative to the working directory, as in KERNEL_RUNS

EXPERIMENTS = ([["spectroscopy", "--qubit", str(q)] for q in (1, 2, 3, 4)]
               + [["rabi_scaling"]]
               + [["entangle", "--participants", p]
                  for p in ("1,2", "2,4", "1,2,3", "2,3,4", "1,2,3,4")]
               + [["shor", "--variant", v] + extra for v in SHOR_VARIANTS for extra in ([], NOISY)])
RUNS = [argv + ["--seed", str(seed)] for seed in (5, 11, 901) for argv in EXPERIMENTS] + KERNEL_RUNS


def digests(runs) -> dict[str, str]:
    """{"<argv>/<file name>": sha256 of the file} over the outputs of ``runs``."""
    out, cwd = {}, os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "noisy.json").write_text(
            json.dumps(dict(DeviceConfig.default().to_dict(), noise=NOISE_BLOCK)))
        work = Path(tmp, "work")
        work.mkdir()
        os.chdir(work)
        try:
            for k, argv in enumerate(runs):
                if main(argv + ["--out", str(k)]) != 0:
                    raise RuntimeError(f"run failed: {' '.join(argv)}")
                for path in sorted(Path(str(k)).iterdir()):
                    out[f"{' '.join(argv)}/{path.name}"] = hashlib.sha256(
                        path.read_bytes()).hexdigest()
        finally:
            os.chdir(cwd)
    return out


def against(path, runs) -> int:
    """Print each key whose digest differs between ``runs`` and the object that ``path``
    holds, or that one side lacks; return 1 if there is one, else 0."""
    expected, actual = json.loads(Path(path).read_text()), digests(runs)
    differing = sorted(k for k in expected.keys() | actual.keys()
                       if expected.get(k) != actual.get(k))
    print("\n".join(differing) or f"all {len(actual)} files byte-identical")
    return 1 if differing else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--against"] and len(sys.argv) == 3:
        sys.exit(against(sys.argv[2], RUNS))
    if sys.argv[1:]:
        sys.exit(f"usage: {sys.argv[0]} [--against DIGESTS_JSON]")
    json.dump(digests(RUNS), sys.stdout, indent=1, sort_keys=True)
    print()
