"""Complex linear algebra over qubit registers.

States, operators and density matrices carry the :class:`SpaceLayout` of their
register, so partial traces and per-qubit operations never guess the qubit
count from array shapes. The basis index is row-major with the leftmost qubit
most significant: the label ``"eg"`` means qubit 0 excited and qubit 1 ground,
and maps to index ``0b10``. Resonators appear only in the full-space test
oracle; ``apply_local`` stays generic over factor dimensions for it, and for
the noise steps' doubled (row, column) dims.

Everything is immutable after construction (arrays are frozen), so values can
be shared freely across threads.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

# Per-invariant tolerances. Scalars are IEEE-754 binary64 throughout. Each check is
# written as `not defect <= tol`, so a NaN defect fails it.
NORM_TOL = 1e-10          # state norm
DM_HERM_TOL = 1e-10       # density-matrix Hermiticity and trace
DM_EIG_FLOOR = -1e-9      # smallest admissible density-matrix eigenvalue
OP_HERM_TOL = 1e-12       # operators flagged hermitian
OP_UNITARY_TOL = 1e-10    # operators flagged unitary


class InvariantError(ValueError):
    """A numerical invariant (norm, Hermiticity, positivity, ...) is violated."""


# ---------------------------------------------------------------------------
# layouts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpaceLayout:
    """A register of ``n_qubits`` qubits; qubit 0 is the most significant in the
    basis index. Build one with :meth:`qubits`, which shares one layout per size."""

    n_qubits: int
    # derived once, since every state check reads them; equality, hash and repr read
    # the qubit count only
    dims: tuple[int, ...] = field(init=False, compare=False, repr=False)
    total_dim: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError("a layout needs at least one qubit")
        object.__setattr__(self, "dims", (2,) * self.n_qubits)
        object.__setattr__(self, "total_dim", 2 ** self.n_qubits)

    @classmethod
    @functools.cache
    def qubits(cls, n: int) -> "SpaceLayout":
        return cls(n)


def _frozen_array(values, shape_check) -> np.ndarray:
    arr = np.array(values, dtype=np.complex128, copy=True)
    if arr.shape != shape_check:
        raise ValueError(f"expected array of shape {shape_check}, got {arr.shape}")
    # first, so that no invariant check below computes with inf or NaN
    if not np.isfinite(arr).all():
        raise InvariantError("state or operator holds entries that are not finite")
    arr.setflags(write=False)
    return arr


# ---------------------------------------------------------------------------
# values
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuantumState:
    """Pure state: complex amplitude vector over a qubit register."""

    layout: SpaceLayout
    amplitudes: np.ndarray

    def __post_init__(self):
        arr = _frozen_array(self.amplitudes, (self.layout.total_dim,))
        object.__setattr__(self, "amplitudes", arr)
        norm = np.linalg.norm(arr)
        if not abs(norm - 1.0) <= NORM_TOL:
            raise InvariantError(f"state norm {norm} differs from 1 beyond {NORM_TOL}")

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def density_matrix(self) -> "DensityMatrix":
        return DensityMatrix(self.layout, np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(frozen=True)
class DensityMatrix:
    """Mixed state: Hermitian, unit-trace, positive-semidefinite matrix."""

    layout: SpaceLayout
    elements: np.ndarray

    def __post_init__(self):
        d = self.layout.total_dim
        arr = _frozen_array(self.elements, (d, d))
        object.__setattr__(self, "elements", arr)
        if not np.max(np.abs(arr - arr.conj().T)) <= DM_HERM_TOL:
            raise InvariantError("density matrix is not Hermitian within tolerance")
        tr = np.trace(arr).real
        if not abs(tr - 1.0) <= DM_HERM_TOL:
            raise InvariantError(f"density matrix trace {tr} differs from 1")
        evals = np.linalg.eigvalsh(arr)
        if not evals.min() >= DM_EIG_FLOOR:
            raise InvariantError(f"density matrix has eigenvalue {evals.min()} below {DM_EIG_FLOOR}")

    def probabilities(self) -> np.ndarray:
        return np.real(np.diag(self.elements))

    def purity(self) -> float:
        return float(np.real(np.trace(self.elements @ self.elements)))


@dataclass(frozen=True)
class QuantumOperator:
    """Linear operator on a qubit register, optionally checked against flags."""

    layout: SpaceLayout
    elements: np.ndarray
    hermitian: bool = False
    unitary: bool = False

    def __post_init__(self):
        d = self.layout.total_dim
        arr = _frozen_array(self.elements, (d, d))
        object.__setattr__(self, "elements", arr)
        if self.hermitian and not np.max(np.abs(arr - arr.conj().T)) <= OP_HERM_TOL:
            raise InvariantError("operator flagged hermitian is not Hermitian within 1e-12")
        if self.unitary:
            defect = np.max(np.abs(arr.conj().T @ arr - np.eye(d)))
            if not defect <= OP_UNITARY_TOL:
                raise InvariantError(f"operator flagged unitary has U†U-I defect {defect}")

    def apply(self, state: QuantumState) -> QuantumState:
        return QuantumState(state.layout, self.elements @ state.amplitudes)


# ---------------------------------------------------------------------------
# elementary constructors
# ---------------------------------------------------------------------------

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def qubit_ket(label: str) -> QuantumState:
    """Computational basis ket from a g/e label, leftmost qubit most significant."""
    index = 0
    for ch in label:
        if ch not in "ge":
            raise ValueError(f"qubit label may only contain 'g'/'e', got {label!r}")
        index = (index << 1) | (ch == "e")
    layout = SpaceLayout.qubits(len(label))
    amps = np.zeros(layout.total_dim, dtype=complex)
    amps[index] = 1.0
    return QuantumState(layout, amps)


def superposition_ket(terms: Sequence[tuple[str, complex]]) -> QuantumState:
    """Normalized superposition of qubit basis kets given as (label, amplitude)."""
    n = len(terms[0][0])
    amps = np.zeros(2 ** n, dtype=complex)
    for label, coeff in terms:
        amps += coeff * qubit_ket(label).amplitudes
    return QuantumState(SpaceLayout.qubits(n), amps / np.linalg.norm(amps))


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def apply_local(op, array, dims: Sequence[int], axes: Sequence[int]) -> np.ndarray:
    """Apply ``op`` to the tensor factors ``axes`` of the row index of ``array``.

    ``array`` is a vector of length prod(dims), or a matrix with that many
    rows whose columns are left alone. ``op`` acts on the listed factors in
    the order given, the first most significant, so ``axes=(2, 0)`` reads
    op's index as (factor 2, factor 0). The full-space matrix of ``op`` is
    ``apply_local(op, eye, dims, axes)``; ``op @ rho @ op†`` is two calls,
    on rho and then on the conjugate transpose of the result.
    """
    array = np.asarray(array)
    shape, order, ordered_shape, inverse, m = _local_plan(tuple(dims), tuple(axes), array.shape)
    # the operands and product of np.tensordot(op, array, (op's column axes, axes)),
    # without its argument handling: target axes first, every other axis in order
    out = np.dot(np.asarray(op).reshape(m, m), array.reshape(shape).transpose(order).reshape(m, -1))
    return out.reshape(ordered_shape).transpose(inverse).reshape(array.shape)


@functools.lru_cache(maxsize=256)
def _local_plan(dims: tuple, axes: tuple, array_shape: tuple) -> tuple:
    """``apply_local``'s index plan: the tensor shape, the order that puts ``axes`` first,
    the shape in that order, the inverse order, and the dimension ``axes`` span."""
    shape = dims + array_shape[1:]
    order = axes + tuple(a for a in range(len(shape)) if a not in axes)
    m = math.prod(dims[a] for a in axes)
    return shape, order, tuple(shape[a] for a in order), tuple(np.argsort(order).tolist()), m


def partial_trace(rho: DensityMatrix, keep: Iterable[int]) -> DensityMatrix:
    """Reduced density matrix on the ``keep`` qubits (ascending original order)."""
    keep = sorted(set(keep))
    n = rho.layout.n_qubits
    if not keep:
        raise ValueError("keep set must be nonempty")
    if keep[0] < 0 or keep[-1] >= n:
        raise ValueError(f"keep indices {keep} out of range for {n} qubits")

    tensor = rho.elements.reshape((2,) * (2 * n))
    for idx in sorted(set(range(n)) - set(keep), reverse=True):
        tensor = np.trace(tensor, axis1=idx, axis2=idx + tensor.ndim // 2)
    d_kept = 2 ** len(keep)
    return DensityMatrix(SpaceLayout.qubits(len(keep)), tensor.reshape(d_kept, d_kept))


def hermitian_exponential(H: QuantumOperator, t: float) -> QuantumOperator:
    """Propagator U = exp(-i 2π H t) by spectral decomposition.

    H carries frequency units (GHz) and t is in ns; the 2π converts to phase.
    Spectral decomposition is exact for Hermitian input and cheap at the
    matrix sizes this package uses (<= 64x64).
    """
    mat = H.elements
    if np.max(np.abs(mat - mat.conj().T)) > DM_HERM_TOL:
        raise InvariantError("hermitian_exponential needs a Hermitian operator")
    evals, vecs = np.linalg.eigh(mat)
    phases = np.exp(-2j * np.pi * evals * t)
    U = (vecs * phases) @ vecs.conj().T
    return QuantumOperator(H.layout, U, unitary=True)


def nearest_psd(matrix, layout: SpaceLayout | None = None) -> DensityMatrix:
    """Project a Hermitian, trace-~1 matrix onto the density-matrix set.

    Policy: the nearest density matrix in Frobenius norm (Smolin, Gambetta and Smith,
    PRL 108, 070502): keep the eigenvectors and project the eigenvalues onto the
    probability simplex (Wang and Carreira-Perpiñán, arXiv:1309.1541), subtracting the one
    threshold that leaves the positive part summing to 1.
    """
    if isinstance(matrix, DensityMatrix):
        layout = matrix.layout
        matrix = matrix.elements
    if layout is None:
        raise ValueError("nearest_psd needs a layout when given a bare matrix")
    mat = np.asarray(matrix, dtype=complex)
    if np.max(np.abs(mat - mat.conj().T)) > 1e-8:
        raise InvariantError("nearest_psd input is not Hermitian")
    evals, vecs = np.linalg.eigh(mat)
    # keep the k largest, for the largest k whose k-th largest stays positive after the
    # shift (s_k - 1)/k, s_k the sum of the k largest; those k form a prefix and k = 1 is one
    desc = evals[::-1]
    sums, sizes = np.cumsum(desc), np.arange(1, evals.size + 1)
    kept = np.count_nonzero(desc * sizes - sums + 1.0 > 0)
    evals = np.clip(evals - (sums[kept - 1] - 1.0) / kept, 0.0, None)
    projected = (vecs * evals) @ vecs.conj().T
    # re-symmetrize rounding noise so the DensityMatrix invariants hold exactly
    projected = 0.5 * (projected + projected.conj().T)
    return DensityMatrix(layout, projected)
