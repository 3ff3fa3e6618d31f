"""Quantum state tomography and the entanglement/fidelity metric suite.

Measurement model: each qubit of the register is pre-rotated by one of
{I, X_half, Y_half} and read out in the computational basis, so the 3^n
product settings estimate every Pauli-string expectation (I/X_half/Y_half
map the measured axis to Z/Y/-X respectively). The forward model is one
batched U ρ U† over all 3^n pre-rotation unitaries, bit-identical to the
per-setting Kronecker form. Reconstruction is linear inversion over the
full Pauli basis followed by projection onto the physical (PSD,
unit-trace) set; deterministic given the counts.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .circuits import SINGLE_QUBIT_GATES
from .hilbert import (
    DensityMatrix,
    QuantumState,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    SpaceLayout,
    nearest_psd,
    partial_trace,
    superposition_ket,
)

ROTATION_KINDS = ("I", "X_half", "Y_half")
# pre-rotation matrices, in ROTATION_KINDS order
_ROTATIONS = np.array([np.eye(2), SINGLE_QUBIT_GATES["X_half"], SINGLE_QUBIT_GATES["Y_half"]])
# trailing qubits whose rotations vary within one batched forward product (27 settings)
SETTING_BLOCK_QUBITS = 3

# Pauli operator each pre-rotation maps onto the measured Z axis, and the sign
# it picks up: measuring Z after X_half reads +Y, after Y_half reads -X
_MEASURED_PAULI = {"I": (SIGMA_Z, 1.0), "X_half": (SIGMA_Y, 1.0), "Y_half": (SIGMA_X, -1.0)}

# per-qubit linear-inversion kernel, indexed [rotation, outcome bit, row, col]:
# I/6 + sign·(-1)^b·P/2. The I/6 term is the identity's share of each of the
# three rotations; the Pauli term is read by one rotation only.
_INVERSION_KERNEL = np.array([
    [np.eye(2) / 6 + sign * (-1) ** b * pauli / 2 for b in (0, 1)]
    for pauli, sign in (_MEASURED_PAULI[r] for r in ROTATION_KINDS)
])


@dataclass(frozen=True)
class MeasurementSetting:
    """One product setting: a pre-rotation per measured qubit."""

    pre_rotations: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "pre_rotations", tuple(self.pre_rotations))
        for r in self.pre_rotations:
            if r not in ROTATION_KINDS:
                raise ValueError(f"unknown pre-rotation {r!r}")


def all_settings(n_qubits: int) -> tuple[MeasurementSetting, ...]:
    """The full 3^n product set, in fixed lexicographic order."""
    return tuple(
        MeasurementSetting(combo)
        for combo in itertools.product(ROTATION_KINDS, repeat=n_qubits)
    )


@dataclass
class TomographyRecord:
    """Measurement settings, per-setting histograms and the reconstruction."""

    qubits: tuple[int, ...]
    settings: tuple[MeasurementSetting, ...]
    shots_per_setting: int
    seed: int
    counts: tuple[dict, ...]
    rho_hat: DensityMatrix | None = None
    metrics: dict = field(default_factory=dict)

    def __post_init__(self):
        self.qubits = tuple(self.qubits)
        self.settings = tuple(self.settings)
        self.counts = tuple(dict(c) for c in self.counts)
        if len(self.counts) != len(self.settings):
            raise ValueError("need one histogram per setting")
        for c in self.counts:
            if sum(c.values()) != self.shots_per_setting:
                raise ValueError("histogram total differs from shots_per_setting")

    @property
    def n_qubits(self) -> int:
        return len(self.qubits)

    def frequencies(self) -> list[np.ndarray]:
        n = self.n_qubits
        out = []
        for c in self.counts:
            vec = np.zeros(2 ** n)
            for bits, count in c.items():
                vec[int(bits, 2)] = count
            out.append(vec / self.shots_per_setting)
        return out

    def to_dict(self) -> dict:
        def complex_pairs(mat):
            return [[[float(v.real), float(v.imag)] for v in row] for row in mat]

        return {
            "qubits": list(self.qubits),
            "settings": [list(s.pre_rotations) for s in self.settings],
            "shots_per_setting": self.shots_per_setting,
            "seed": self.seed,
            "counts": [dict(sorted(c.items())) for c in self.counts],
            "rho_hat": None if self.rho_hat is None else complex_pairs(self.rho_hat.elements),
            "metrics": dict(sorted(self.metrics.items())),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "TomographyRecord":
        rho = None
        if doc.get("rho_hat") is not None:
            mat = np.array([[complex(re, im) for re, im in row] for row in doc["rho_hat"]])
            rho = DensityMatrix(SpaceLayout.qubits(len(doc["qubits"])), mat)
        return cls(
            qubits=tuple(doc["qubits"]),
            settings=tuple(MeasurementSetting(tuple(s)) for s in doc["settings"]),
            shots_per_setting=int(doc["shots_per_setting"]),
            seed=int(doc["seed"]),
            counts=tuple({k: int(v) for k, v in c.items()} for c in doc["counts"]),
            rho_hat=rho,
            metrics=dict(doc.get("metrics", {})),
        )


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------

def register_density_matrix(state, qubits: Sequence[int]) -> DensityMatrix:
    """Reduce a state over qubit factors to the measured register (ascending)."""
    qubits = tuple(sorted(set(qubits)))
    if not qubits:
        raise ValueError("measured qubit set must be nonempty")
    rho = state.density_matrix() if isinstance(state, QuantumState) else state
    if qubits == tuple(range(rho.layout.n_factors)):
        return rho
    return partial_trace(rho, qubits)


def _setting_unitaries(n: int, mats: np.ndarray | None = None) -> np.ndarray:
    """The (3^n, 2^n, 2^n) pre-rotation unitaries in ``all_settings(n)`` order, each after one
    of ``mats`` (leading qubits' unitaries) if given: ``np.kron`` broadcast over the stack,
    so each equals its setting's Kronecker chain bit for bit."""
    mats = np.ones((1, 1, 1), dtype=complex) if mats is None else mats
    for _ in range(n):
        k, d = mats.shape[:2]
        mats = (mats[:, None, :, None, :, None] * _ROTATIONS[None, :, None, :, None, :]
                ).reshape(3 * k, 2 * d, 2 * d)
    return mats


def setting_probabilities(rho: DensityMatrix) -> np.ndarray:
    """Exact (3^n, 2^n) outcome distributions of every setting, in ``all_settings`` order."""
    n = rho.layout.n_factors
    tail, blocks = min(n, SETTING_BLOCK_QUBITS), []
    for lead in _setting_unitaries(n - tail):  # one block per leading-rotation combination
        U = _setting_unitaries(tail, lead[None])
        blocks.append(np.diagonal(U @ rho.elements @ U.conj().transpose(0, 2, 1), axis1=1, axis2=2))
    return np.clip(np.concatenate(blocks).real, 0.0, None)


def simulate_tomography(state, qubits: Sequence[int], shots_per_setting: int,
                        seed: int) -> TomographyRecord:
    """Sample every product setting with independent per-setting seed streams."""
    if shots_per_setting < 1:
        raise ValueError("shots_per_setting must be >= 1")
    qubits = tuple(sorted(set(qubits)))
    rho = register_density_matrix(state, qubits)
    n = len(qubits)
    settings = all_settings(n)
    streams = np.random.SeedSequence(seed).spawn(len(settings))
    probs = setting_probabilities(rho)
    probs = probs / probs.sum(axis=1, keepdims=True)
    labels = [format(m, f"0{n}b") for m in range(2 ** n)]

    counts = []
    for row, stream in zip(probs, streams):
        draws = np.random.default_rng(stream).multinomial(shots_per_setting, row)
        counts.append(dict(zip(labels, draws.tolist())))
    return TomographyRecord(
        qubits=qubits,
        settings=settings,
        shots_per_setting=shots_per_setting,
        seed=seed,
        counts=tuple(counts),
    )


# ---------------------------------------------------------------------------
# reconstruction
# ---------------------------------------------------------------------------

def reconstruct(record: TomographyRecord) -> DensityMatrix:
    """Linear inversion over the Pauli basis, then PSD projection."""
    return reconstruct_from_frequencies(record.settings, record.frequencies(), record.n_qubits)


def reconstruct_from_frequencies(settings: Sequence[MeasurementSetting],
                                 frequencies: Sequence[np.ndarray],
                                 n_qubits: int) -> DensityMatrix:
    """Reconstruction core; feeding exact probabilities gives the exact state."""
    raw = _linear_inversion(settings, frequencies, n_qubits)
    return nearest_psd(raw, SpaceLayout.qubits(n_qubits))


def _linear_inversion(settings, frequencies, n: int) -> np.ndarray:
    """rho = Σ_{r,b} f[r, b] ⊗_q K[r_q, b_q] with K the per-qubit kernel.

    Summing the kernel product over one qubit's Pauli letters reproduces the
    Pauli-basis estimator: every Pauli string averaged over all settings that
    read it, scaled by 1/2^n.
    """
    if len(settings) != 3 ** n or set(settings) != set(all_settings(n)):
        raise ValueError(f"need each of the 3^{n} measurement settings exactly once")
    # frequencies indexed [r_1..r_n, b_1..b_n] by each setting's rotations
    table = np.empty((3,) * n + (2,) * n)
    for setting, freq in zip(settings, frequencies, strict=True):
        index = tuple(ROTATION_KINDS.index(r) for r in setting.pre_rotations)
        table[index] = np.reshape(freq, (2,) * n)
    # contract qubit q's (r_q, b_q) axes, leaving its (row, col) pair at the end
    for q in range(n):
        table = np.tensordot(table, _INVERSION_KERNEL, axes=([0, n - q], [0, 1]))
    order = list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2))
    return table.transpose(order).reshape(2 ** n, 2 ** n)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def state_fidelity(rho, target: QuantumState) -> float:
    """Overlap <psi|rho|psi> with a pure target."""
    if isinstance(rho, QuantumState):
        if rho.layout.total_dim != target.layout.total_dim:
            raise ValueError("state and target dimensions differ")
        return float(abs(np.vdot(target.amplitudes, rho.amplitudes)) ** 2)
    if rho.layout.total_dim != target.layout.total_dim:
        raise ValueError("state and target dimensions differ")
    t = target.amplitudes
    return float(np.real(t.conj() @ rho.elements @ t))


def _clipped_sqrt_eigenvalues(evals: np.ndarray) -> np.ndarray:
    # eigenvalues at the numerical noise floor would contribute sqrt(eps) ~ 1e-8
    # to the trace; zero them relative to the spectral scale
    cut = max(evals.max(), 0.0) * evals.size * np.finfo(float).eps
    return np.sqrt(np.where(evals > cut, evals, 0.0))


def uhlmann_fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Tr sqrt(sqrt(rho) sigma sqrt(rho)); symmetric, reduces to sqrt(<psi|rho|psi>)
    when one argument is pure."""
    if rho.layout.total_dim != sigma.layout.total_dim:
        raise ValueError("density matrices have different dimensions")
    evals, vecs = np.linalg.eigh(rho.elements)
    sqrt_rho = (vecs * _clipped_sqrt_eigenvalues(evals)) @ vecs.conj().T
    inner = sqrt_rho @ sigma.elements @ sqrt_rho
    lam = np.linalg.eigvalsh(0.5 * (inner + inner.conj().T))
    return float(_clipped_sqrt_eigenvalues(lam).sum())


def concurrence_eof(rho: DensityMatrix) -> tuple[float, float]:
    """Two-qubit concurrence and entanglement of formation (spin-flip construction)."""
    if rho.layout.total_dim != 4:
        raise ValueError("concurrence is defined for two-qubit density matrices")
    yy = np.kron(SIGMA_Y, SIGMA_Y)
    flipped = yy @ rho.elements.conj() @ yy
    lam = np.linalg.eigvals(rho.elements @ flipped)
    lam = np.sqrt(np.clip(np.real(lam), 0.0, None))
    lam = np.sort(lam)[::-1]
    c = max(0.0, float(lam[0] - lam[1] - lam[2] - lam[3]))

    x = (1 + math.sqrt(max(0.0, 1 - c * c))) / 2
    eof = 0.0 if x in (0.0, 1.0) else -x * math.log2(x) - (1 - x) * math.log2(1 - x)
    return c, eof


def linear_entropy(rho: DensityMatrix) -> float:
    """Normalized linear entropy d/(d-1) · (1 - Tr rho²).

    0 for pure states, exactly 1 for the completely mixed state in any
    dimension (for a qubit: 2[1 - Tr rho²]). Clipped to [0, 1], since
    rounding in Tr rho² can push a pure state's value to about -1e-15.
    """
    d = rho.layout.total_dim
    return float(np.clip(d / (d - 1) * (1.0 - rho.purity()), 0.0, 1.0))


def max_abs_imag(rho: DensityMatrix) -> float:
    """Largest |Im| entry of the matrix (reported alongside reconstructions)."""
    return float(np.max(np.abs(rho.elements.imag)))


WITNESS_THRESHOLDS = {"W": 2.0 / 3.0, "GHZ": 0.5}


@dataclass(frozen=True)
class WitnessResult:
    witness_class: str
    fidelity: float
    threshold: float
    margin: float
    passed: bool


def witness_check(rho: DensityMatrix, witness_class: str, target: QuantumState) -> WitnessResult:
    """Fidelity-threshold entanglement witness: F_W > 2/3, F_GHZ > 1/2."""
    if witness_class not in WITNESS_THRESHOLDS:
        raise ValueError(f"unknown witness class {witness_class!r}")
    if rho.layout.total_dim != 8:
        raise ValueError("witness classes are defined for three-qubit states")
    fidelity = state_fidelity(rho, target)
    threshold = WITNESS_THRESHOLDS[witness_class]
    return WitnessResult(
        witness_class=witness_class,
        fidelity=fidelity,
        threshold=threshold,
        margin=fidelity - threshold,
        passed=fidelity > threshold,
    )


# ---------------------------------------------------------------------------
# per-qubit Z-phase gauge
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GaugeFidelity:
    raw: float
    gauged: float
    phases: tuple[float, ...]


def phase_gauged_fidelity(state, target: QuantumState, max_sweeps: int = 100) -> GaugeFidelity:
    """Fidelity to a pure target maximized over one Z phase per qubit.

    Local Z frames are calibration conventions, so the gauged number is the
    physically meaningful fidelity for states prepared by resonant exchange.
    Each single-phase update is closed-form and monotone, so the sweep
    converges; for the Bell/W-class states it settles in one pass.
    """
    rho = state.density_matrix() if isinstance(state, QuantumState) else state
    t = target.amplitudes
    n = target.layout.n_factors
    dim = t.size
    bits = np.array([[(x >> (n - 1 - q)) & 1 for q in range(n)] for x in range(dim)])

    raw = state_fidelity(rho, target)
    phases = np.zeros(n)

    def phased_target():
        total = bits @ phases
        return np.exp(-1j * total) * t

    current = raw
    for _ in range(max_sweeps):
        previous = current
        for q in range(n):
            v = phased_target()
            w = np.exp(1j * phases[q] * bits[:, q]) * v  # divide out qubit q's phase
            hot = bits[:, q] == 1
            cross = np.vdot(w[hot], rho.elements[np.ix_(hot, ~hot)] @ w[~hot])
            if abs(cross) > 1e-300:
                phases[q] = -np.angle(cross)
        v = phased_target()
        current = float(np.real(v.conj() @ rho.elements @ v))
        if abs(current - previous) < 1e-14:
            break
    return GaugeFidelity(raw=raw, gauged=max(raw, current), phases=tuple(phases))


# ---------------------------------------------------------------------------
# reference states
# ---------------------------------------------------------------------------

def bell_singlet() -> QuantumState:
    return superposition_ket([("ge", 1), ("eg", -1)])


def bell_phi_plus() -> QuantumState:
    """(|gg> + |ee>)/√2, the H-then-CNOT circuit output."""
    return superposition_ket([("gg", 1), ("ee", 1)])


def w_state(n: int = 3) -> QuantumState:
    labels = ["g" * k + "e" + "g" * (n - 1 - k) for k in range(n - 1, -1, -1)]
    return superposition_ket([(label, 1) for label in labels])


def ghz_state(n: int = 3) -> QuantumState:
    return superposition_ket([("g" * n, 1), ("e" * n, 1)])


def maximally_mixed_qubit() -> DensityMatrix:
    """The ideal output-register state (|g><g| + |e><e|)/2."""
    return DensityMatrix(SpaceLayout.qubits(1), np.eye(2, dtype=complex) / 2)
