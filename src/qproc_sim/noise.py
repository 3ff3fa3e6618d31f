"""Open-system layer: amplitude damping (T1) and pure dephasing (T_phi).

Noise is charged at gate granularity in density-matrix mode: each gate's
unitary is followed by per-qubit damping and dephasing for the gate's duration,
each qubit's pair of Kraus maps composed into one cached superoperator. The
default coherence times are invented placeholders (the device's values are
not published) and are flagged as such wherever they are serialized.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import _real
from .hilbert import DM_HERM_TOL, DensityMatrix, _check_hermitian, _frozen_array, apply_local

DEFAULT_T1_NS = 400.0
DEFAULT_TPHI_NS = 200.0
DEFAULT_GATE_TIME_1Q_NS = 10.0
DEFAULT_GATE_TIME_2Q_NS = 50.0

NOISE_KEYS = ("t1_ns", "t_phi_ns", "gate_time_1q_ns", "gate_time_2q_ns", "invented_default")


@dataclass(frozen=True)
class NoiseParams:
    """Per-qubit coherence times (ns) and nominal gate durations (ns)."""

    t1: tuple[float, ...]
    t_phi: tuple[float, ...]
    gate_time_1q: float = DEFAULT_GATE_TIME_1Q_NS
    gate_time_2q: float = DEFAULT_GATE_TIME_2Q_NS
    invented_default: bool = False

    def __post_init__(self):
        # each named by the noise block's key, which from_dict passes on unconverted
        for name in ("t1", "t_phi"):
            values = getattr(self, name)
            # a list, not a string, whose characters would pass as one value per qubit
            if not isinstance(values, (list, tuple, np.ndarray)):
                raise ValueError(f"{name} must list one value per qubit, got {values!r}")
            object.__setattr__(self, name, tuple(_real(f"{name}_ns", v) for v in values))
        for name in ("gate_time_1q", "gate_time_2q"):
            object.__setattr__(self, name, _real(f"{name}_ns", getattr(self, name)))
        if len(self.t1) != len(self.t_phi):
            raise ValueError("t1 and t_phi must list the same number of qubits")
        for name in ("t1", "t_phi"):
            for i, v in enumerate(getattr(self, name)):
                if not v > 0:
                    raise ValueError(f"{name}[{i}] must be > 0 (got {v}; use inf to disable)")
        if not (0 < self.gate_time_1q < math.inf and 0 < self.gate_time_2q < math.inf):
            raise ValueError("gate times must be finite and > 0")

    @classmethod
    def default(cls, n_qubits: int = 4) -> "NoiseParams":
        return cls(
            t1=(DEFAULT_T1_NS,) * n_qubits,
            t_phi=(DEFAULT_TPHI_NS,) * n_qubits,
            invented_default=True,
        )

    @classmethod
    def from_dict(cls, doc: dict, n_qubits: int = 4) -> "NoiseParams":
        """Parse a noise block; coherence-time lists need one entry per device qubit."""
        if not isinstance(doc, dict):
            raise ValueError("the noise block must be a JSON object")
        unknown = sorted(set(doc) - set(NOISE_KEYS))
        if unknown:
            raise ValueError(f"unknown noise key(s) {unknown}; expected some of {list(NOISE_KEYS)}")
        if not isinstance(doc.get("invented_default", False), bool):
            raise ValueError("invented_default must be true or false")

        def times(key, fallback):
            raw = doc.get(key)
            if raw is None:
                return (fallback,) * n_qubits
            if type(raw) is not list:  # not one qubit per character of a string
                raise ValueError(f"{key} must be a JSON list of one value per qubit (got {raw!r})")
            if len(raw) != n_qubits:
                raise ValueError(f"{key} must list one value per qubit ({n_qubits}), got {len(raw)}")
            return tuple(math.inf if v in (None, "inf") else v for v in raw)

        return cls(
            t1=times("t1_ns", DEFAULT_T1_NS),
            t_phi=times("t_phi_ns", DEFAULT_TPHI_NS),
            gate_time_1q=doc.get("gate_time_1q_ns", DEFAULT_GATE_TIME_1Q_NS),
            gate_time_2q=doc.get("gate_time_2q_ns", DEFAULT_GATE_TIME_2Q_NS),
            invented_default=bool(doc.get("invented_default", False)),
        )

    def to_dict(self) -> dict:
        encode = lambda v: "inf" if math.isinf(v) else v
        return {
            "t1_ns": [encode(v) for v in self.t1],
            "t_phi_ns": [encode(v) for v in self.t_phi],
            "gate_time_1q_ns": self.gate_time_1q,
            "gate_time_2q_ns": self.gate_time_2q,
            "invented_default": self.invented_default,
        }


def damping_kraus(dt: float, t1: float) -> tuple[np.ndarray, np.ndarray]:
    """Amplitude-damping pair for an interval dt: decay probability 1 - e^(-dt/t1)."""
    if dt < 0:
        raise ValueError("dt must be >= 0")
    gamma = 1.0 - math.exp(-dt / t1)
    K0 = np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - gamma)]], dtype=complex)
    K1 = np.array([[0.0, math.sqrt(gamma)], [0.0, 0.0]], dtype=complex)
    return K0, K1


def dephasing_kraus(dt: float, t_phi: float) -> tuple[np.ndarray, np.ndarray]:
    """Pure-dephasing pair: coherences shrink by e^(-dt/t_phi), populations fixed."""
    if dt < 0:
        raise ValueError("dt must be >= 0")
    p = (1.0 - math.exp(-dt / t_phi)) / 2.0
    K0 = math.sqrt(1.0 - p) * np.eye(2, dtype=complex)
    K1 = math.sqrt(p) * np.diag([1.0, -1.0]).astype(complex)
    return K0, K1


@functools.lru_cache(maxsize=256)
def _step_superoperator(dt: float, t1: float, t_phi: float) -> np.ndarray:
    """One qubit's step, dephasing after damping, as a read-only 4x4 map on the row-major
    (row, column) index pair of its factor: each channel is Σ K ⊗ K̄ over its Kraus pair."""
    damping, dephasing = (sum(np.kron(K, K.conj()) for K in pair)
                          for pair in (damping_kraus(dt, t1), dephasing_kraus(dt, t_phi)))
    step = dephasing @ damping
    step.setflags(write=False)
    return step


def apply_noise_step(rho, params: NoiseParams, dt: float) -> DensityMatrix:
    """Damping then dephasing on every qubit for a duration dt.

    ``rho`` is a :class:`DensityMatrix`, or the bare matrix that a gate has just
    made of one; its entries are checked finite and its Hermiticity against
    ``DM_HERM_TOL`` before the step re-symmetrizes, and the result is checked
    as a density matrix. ``params`` must list at least the state's qubits; a
    qubit with infinite times is left as it is.
    Trace-preserving and completely positive by construction (operator-sum
    form with complete Kraus pairs). Each qubit's step is one superoperator
    product on that qubit's (row, column) index pair of the flattened matrix.
    """
    if dt < 0:
        raise ValueError("dt must be >= 0")
    mat = rho.elements if isinstance(rho, DensityMatrix) else _frozen_array(rho, 2)
    _check_hermitian(mat, DM_HERM_TOL, "density matrix is not Hermitian within tolerance")
    n = len(mat).bit_length() - 1
    if len(params.t1) < n:
        raise ValueError(f"noise parameters list {len(params.t1)} qubits; the state has {n}")
    dims = (2,) * (2 * n)
    flat = mat.reshape(-1)
    for q in range(n):
        step = _step_superoperator(dt, params.t1[q], params.t_phi[q])
        flat = apply_local(step, flat, dims, (q, n + q))
    mat = flat.reshape(mat.shape)
    mat = 0.5 * (mat + mat.conj().T)
    return DensityMatrix(mat)
