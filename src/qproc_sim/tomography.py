"""Quantum state tomography and the entanglement/fidelity metric suite.

Measurement model: each qubit of the register is pre-rotated by one of
{I, X_half, Y_half} and read out in the computational basis, so the 3^n
product settings estimate every Pauli-string expectation (I/X_half/Y_half
map the measured axis to Z/Y/-X respectively). Setting r, outcome b projects
onto Π_{r,b} = ⊗_q (I + sign·(-1)^b_q·P_{r_q})/2, so the forward model
p[r, b] = Tr(Π_{r,b} ρ) (the per-setting U ρ U† to rounding) and the linear
inversion over the Pauli basis are one per-qubit kernel contraction, run each
way. Reconstruction is that inversion followed by the nearest density matrix
(``nearest_psd``); deterministic given the counts.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .circuits import sampling_distribution
from .hilbert import (
    DensityMatrix,
    QuantumState,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    nearest_psd,
    partial_trace,
    superposition_ket,
)

ROTATION_KINDS = ("I", "X_half", "Y_half")
# sweeps of the phase gauge at most; each sweep updates every qubit's phase once
MAX_GAUGE_SWEEPS = 100

# Pauli operator each pre-rotation maps onto the measured Z axis, and the sign
# it picks up: measuring Z after X_half reads +Y, after Y_half reads -X
_MEASURED_PAULI = {"I": (SIGMA_Z, 1.0), "X_half": (SIGMA_Y, 1.0), "Y_half": (SIGMA_X, -1.0)}

# per-qubit forward kernel [(row, col), (rotation, bit)] of the outcome projectors
# Π = (I + sign·(-1)^b·P)/2: Tr(Π ρ) sums ρ[i, j]·Π[j, i], and Π[j, i] = conj(Π[i, j])
_FORWARD_KERNEL = np.array([
    [(np.eye(2) + sign * (-1) ** b * pauli).conj() / 2 for b in (0, 1)]
    for pauli, sign in (_MEASURED_PAULI[r] for r in ROTATION_KINDS)
]).reshape(6, 4).T.copy()

# per-qubit linear-inversion kernel [(rotation, bit), (row, col)]: I/6 + sign·(-1)^b·P/2,
# which is Π − I/3. The I/6 term is the identity's share of each of the three
# rotations; the Pauli term is read by one rotation only.
_INVERSION_KERNEL = np.array([
    [np.eye(2) / 6 + sign * (-1) ** b * pauli / 2 for b in (0, 1)]
    for pauli, sign in (_MEASURED_PAULI[r] for r in ROTATION_KINDS)
]).reshape(6, 4)


@functools.cache
def all_settings(n_qubits: int) -> tuple[tuple[str, ...], ...]:
    """The full 3^n product set of per-qubit pre-rotations, in fixed lexicographic order."""
    return tuple(itertools.product(ROTATION_KINDS, repeat=n_qubits))


@functools.cache
def _outcome_labels(n_qubits: int) -> tuple[str, ...]:
    return tuple(format(m, f"0{n_qubits}b") for m in range(2 ** n_qubits))


@dataclass
class TomographyRecord:
    """Per-setting histograms and the reconstruction.

    ``counts`` is a (3^n, 2^n) int64 array: one row per setting in ``all_settings(n)``
    order, one column per outcome with the first qubit as the most significant bit.
    """

    qubits: tuple[int, ...]
    shots_per_setting: int
    seed: int
    counts: np.ndarray
    rho_hat: DensityMatrix | None = None
    metrics: dict = field(default_factory=dict)

    def __post_init__(self):
        # integers as from_dict reads them: no bool or float, and stored as int
        *qubits, shots, seed = values = (*self.qubits, self.shots_per_setting, self.seed)
        whole = all(isinstance(v, (int, np.integer)) and not isinstance(v, bool) for v in values)
        if (not whole or not qubits or len(set(qubits)) != len(qubits) or min(qubits) < 0
                or shots < 1 or seed < 0):
            raise ValueError(f"a tomography record needs distinct whole-number qubits >= 0, "
                             f"shots >= 1 and a seed >= 0, got {qubits}, {shots!r}, {seed!r}")
        *qubits, self.shots_per_setting, self.seed = map(int, values)
        self.qubits = tuple(qubits)
        n = self.n_qubits
        if self.rho_hat is not None and not (isinstance(self.rho_hat, DensityMatrix)
                                             and self.rho_hat.n_qubits == n):
            raise ValueError(f"rho_hat must be None or a {n}-qubit DensityMatrix")
        if type(self.metrics) is not dict or not all(
                type(k) is str and isinstance(v, (int, float, np.integer, np.floating))
                and not isinstance(v, bool) for k, v in self.metrics.items()):
            raise ValueError(f"metrics must map names to real numbers, got {self.metrics!r}")
        self.metrics = {k: v.item() if isinstance(v, np.generic) else v
                        for k, v in self.metrics.items()}
        counts = np.asarray(self.counts)
        if counts.shape != (3 ** n, 2 ** n):
            raise ValueError(f"counts must have shape {(3 ** n, 2 ** n)}, got {counts.shape}")
        if counts.dtype.kind not in "iu" or (counts < 0).any():
            raise ValueError("counts must be non-negative integers")
        if (counts.sum(axis=1) != self.shots_per_setting).any():
            raise ValueError("histogram total differs from shots_per_setting")
        self.counts = counts.astype(np.int64)

    @property
    def n_qubits(self) -> int:
        return len(self.qubits)

    @property
    def settings(self) -> tuple[tuple[str, ...], ...]:
        return all_settings(self.n_qubits)

    def to_dict(self) -> dict:
        labels, d = _outcome_labels(self.n_qubits), 2 ** self.n_qubits
        return {
            "qubits": list(self.qubits),
            "settings": [list(s) for s in self.settings],
            "shots_per_setting": self.shots_per_setting,
            "seed": self.seed,
            "counts": [dict(zip(labels, row)) for row in self.counts.tolist()],
            "rho_hat": (None if self.rho_hat is None  # [re, im] pairs
                        else self.rho_hat.elements.view(np.float64).reshape(d, d, 2).tolist()),
            "metrics": dict(sorted(self.metrics.items())),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "TomographyRecord":
        """Parse a ``to_dict`` document; a missing or unknown key, a value of another JSON
        type than the writer's, a number that is not a JSON integer, a record the constructor
        rejects, or any other settings order or outcome label set raises ValueError."""
        if type(doc) is not dict:
            raise ValueError(f"a tomography record must be a JSON object, got {doc!r}")
        required = ("qubits", "settings", "shots_per_setting", "seed", "counts")
        missing = [key for key in required if key not in doc]
        unknown = sorted(set(doc) - set(required) - {"rho_hat", "metrics"})
        if missing or unknown:
            raise ValueError(f"tomography record lacks key(s) {missing} "
                             f"or has unknown key(s) {unknown}")
        for key in ("qubits", "counts"):
            if type(doc[key]) is not list:
                raise ValueError(f"{key} must be a JSON list, got {doc[key]!r}")
        n = len(doc["qubits"])
        if doc["settings"] != [list(s) for s in all_settings(n)]:
            raise ValueError(f"settings must be the 3^{n} product settings in all_settings order")
        labels = _outcome_labels(n)
        if any(type(c) is not dict or tuple(sorted(c)) != labels for c in doc["counts"]):
            raise ValueError(f"each histogram must be a JSON object of the outcomes {list(labels)}")
        counts = [[c[label] for label in labels] for c in doc["counts"]]
        if set(map(type, itertools.chain.from_iterable(counts))) != {int}:  # not bool
            raise ValueError("counts must hold JSON integers")
        rho = None
        if doc.get("rho_hat") is not None:
            rho = DensityMatrix(_complex_matrix(doc["rho_hat"], 2 ** n))
        return cls(
            qubits=tuple(doc["qubits"]),
            shots_per_setting=doc["shots_per_setting"],
            seed=doc["seed"],
            counts=counts,
            rho_hat=rho,
            metrics=doc.get("metrics", {}),
        )


def _complex_matrix(rows, dim: int) -> np.ndarray:
    """A ``to_dict`` matrix, ``dim`` lists of ``dim`` [re, im] pairs of JSON floats."""
    pairs = np.array(rows)  # on any JSON value numpy raises ValueError at most
    if (pairs.dtype != np.float64 or pairs.shape != (dim, dim, 2)
            or set(map(type, itertools.chain.from_iterable(itertools.chain.from_iterable(rows))))
            != {float}):  # numpy reads true and integers as floats too
        raise ValueError(f"rho_hat must be {dim} lists of {dim} [re, im] pairs of JSON floats")
    return pairs.view(complex)[..., 0]


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------

def register_density_matrix(state, qubits: Sequence[int]) -> DensityMatrix:
    """Reduce a state over qubit factors to the measured register (ascending)."""
    qubits = tuple(sorted(set(qubits)))
    if not qubits:
        raise ValueError("measured qubit set must be nonempty")
    rho = state.density_matrix() if isinstance(state, QuantumState) else state
    if qubits == tuple(range(rho.n_qubits)):
        return rho
    return partial_trace(rho, qubits)


def setting_probabilities(rho: DensityMatrix) -> np.ndarray:
    """Exact (3^n, 2^n) outcome distributions of every setting, in ``all_settings`` order."""
    table = rho.elements.reshape((2,) * 2 * rho.n_qubits)  # indexed [rows, columns]
    probs = _contract_qubits(table, _FORWARD_KERNEL, (3, 2))
    return np.clip(probs.real, 0.0, None)


def simulate_tomography(state, qubits: Sequence[int], shots_per_setting: int,
                        seed: int) -> TomographyRecord:
    """Sample every product setting in one ``default_rng(seed)`` multinomial draw over the
    (3^n, 2^n) table of ``sampling_distribution`` rows, in ``all_settings`` order."""
    if shots_per_setting < 1:
        raise ValueError("shots_per_setting must be >= 1")
    qubits = tuple(sorted(set(qubits)))
    probs = sampling_distribution(setting_probabilities(register_density_matrix(state, qubits)))
    counts = np.random.default_rng(seed).multinomial(shots_per_setting, probs)
    return TomographyRecord(qubits=qubits, shots_per_setting=shots_per_setting, seed=seed,
                            counts=counts)


# ---------------------------------------------------------------------------
# reconstruction
# ---------------------------------------------------------------------------

def reconstruct(record: TomographyRecord) -> DensityMatrix:
    """Linear inversion over the Pauli basis, then PSD projection."""
    return reconstruct_from_frequencies(record.counts / record.shots_per_setting)


def reconstruct_from_frequencies(frequencies: np.ndarray) -> DensityMatrix:
    """Reconstruction core for a (3^n, 2^n) table in ``all_settings`` order; feeding
    exact probabilities gives the exact state."""
    n = np.shape(frequencies)[-1].bit_length() - 1
    if np.shape(frequencies) != (3 ** n, 2 ** n):
        raise ValueError(f"need a (3^n, 2^n) frequency table, got shape {np.shape(frequencies)}")
    if not np.isfinite(frequencies).all():  # before the inversion computes with inf or NaN
        raise ValueError("frequencies must be finite")
    return nearest_psd(_linear_inversion(frequencies, n))


def _linear_inversion(frequencies: np.ndarray, n: int) -> np.ndarray:
    """rho = Σ_{r,b} f[r, b] ⊗_q K[r_q, b_q] with K the per-qubit kernel.

    Summing the kernel product over one qubit's Pauli letters reproduces the
    Pauli-basis estimator: every Pauli string averaged over all settings that
    read it, scaled by 1/2^n.
    """
    # indexed [r_1..r_n, b_1..b_n]: all_settings order varies the first qubit's rotation
    # slowest, and the first qubit is the most significant outcome bit
    return _contract_qubits(np.reshape(frequencies, (3,) * n + (2,) * n), _INVERSION_KERNEL,
                            (2, 2))


def _contract_qubits(table: np.ndarray, kernel: np.ndarray, pair: tuple[int, int]) -> np.ndarray:
    """Contract each qubit's pair of axes of ``table`` with ``kernel``.

    ``table`` is indexed [a_1..a_n, b_1..b_n]; ``kernel`` is the matrix from one qubit's
    flattened (a, b) index pair to its flattened (c, d) pair, of shape ``pair``. Returns the
    (c^n, d^n) matrix indexed [c_1..c_n, d_1..d_n], the first qubit most significant.
    """
    n = table.ndim // 2
    # contract qubit q's (a_q, b_q) axes, leaving its (c, d) pair at the end: the
    # transpose, reshape and np.dot of np.tensordot(table, kernel, ([0, n - q], [0, 1]))
    for q in range(n):
        rest = [a for a in range(table.ndim) if a not in (0, n - q)]
        shape = [table.shape[a] for a in rest] + list(pair)
        table = np.dot(table.transpose(rest + [0, n - q]).reshape(-1, len(kernel)), kernel)
        table = table.reshape(shape)
    order = list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2))
    return table.transpose(order).reshape(pair[0] ** n, pair[1] ** n)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def state_fidelity(rho, target: QuantumState) -> float:
    """Overlap <psi|rho|psi> with a pure target."""
    if rho.n_qubits != target.n_qubits:
        raise ValueError("state and target dimensions differ")
    if isinstance(rho, QuantumState):
        return float(abs(np.vdot(target.amplitudes, rho.amplitudes)) ** 2)
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
    if rho.n_qubits != sigma.n_qubits:
        raise ValueError("density matrices have different dimensions")
    evals, vecs = np.linalg.eigh(rho.elements)
    sqrt_rho = (vecs * _clipped_sqrt_eigenvalues(evals)) @ vecs.conj().T
    inner = sqrt_rho @ sigma.elements @ sqrt_rho
    lam = np.linalg.eigvalsh(0.5 * (inner + inner.conj().T))
    return float(_clipped_sqrt_eigenvalues(lam).sum())


def concurrence_eof(rho: DensityMatrix) -> tuple[float, float]:
    """Two-qubit concurrence and entanglement of formation (spin-flip construction)."""
    if rho.n_qubits != 2:
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
    d = len(rho.elements)
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
    if rho.n_qubits != 3:
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


@functools.cache
def _bit_table(n: int) -> np.ndarray:
    """Read-only (2^n, n) table of each basis index's bits, the first qubit most significant."""
    bits = np.array([[(x >> (n - 1 - q)) & 1 for q in range(n)] for x in range(2 ** n)])
    bits.setflags(write=False)
    return bits


def phase_gauged_fidelity(state, target: QuantumState) -> GaugeFidelity:
    """Fidelity to a pure target maximized over one Z phase per qubit.

    Local Z frames are calibration conventions, so the gauged number is the
    physically meaningful fidelity for states prepared by resonant exchange.
    Each single-phase update is closed-form and monotone, so the sweep
    converges; for the Bell/W-class states it settles in one pass.
    """
    rho = state.density_matrix() if isinstance(state, QuantumState) else state
    raw = state_fidelity(rho, target)  # first: it rejects a state of another dimension
    t = target.amplitudes
    n = target.n_qubits
    bits = _bit_table(n)
    # each qubit's excited and ground masks and the block of rho that couples them
    halves = []
    for q in range(n):
        hot = bits[:, q] == 1
        halves.append((hot, ~hot, rho.elements[np.ix_(hot, ~hot)]))

    phases = np.zeros(n)

    def phased_target():
        total = bits @ phases
        return np.exp(-1j * total) * t

    current = raw
    for _ in range(MAX_GAUGE_SWEEPS):
        previous = current
        for q, (hot, cold, block) in enumerate(halves):
            v = phased_target()
            w = np.exp(1j * phases[q] * bits[:, q]) * v  # divide out qubit q's phase
            cross = np.vdot(w[hot], block @ w[cold])
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

# the reference states are frozen values, built and validated once

@functools.cache
def bell_singlet() -> QuantumState:
    return superposition_ket([("ge", 1), ("eg", -1)])


@functools.cache
def bell_phi_plus() -> QuantumState:
    """(|gg> + |ee>)/√2, the H-then-CNOT circuit output."""
    return superposition_ket([("gg", 1), ("ee", 1)])


@functools.cache
def w_state(n: int = 3) -> QuantumState:
    labels = ["g" * k + "e" + "g" * (n - 1 - k) for k in range(n - 1, -1, -1)]
    return superposition_ket([(label, 1) for label in labels])


@functools.cache
def ghz_state(n: int = 3) -> QuantumState:
    return superposition_ket([("g" * n, 1), ("e" * n, 1)])


@functools.cache
def maximally_mixed_qubit() -> DensityMatrix:
    """The ideal output-register state (|g><g| + |e><e|)/2."""
    return DensityMatrix(np.eye(2, dtype=complex) / 2)
