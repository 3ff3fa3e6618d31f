"""Complex linear algebra over qubit registers.

A state is its array: a register of n qubits is a vector of 2^n amplitudes or a
2^n x 2^n density matrix (n >= 1), and the array's length gives its qubit count.
The basis index is row-major with the leftmost qubit most significant: the label
``"eg"`` means qubit 0 excited and qubit 1 ground, and maps to index ``0b10``.
Resonators appear only in the full-space test oracle; ``apply_local`` stays
generic over factor dimensions for it. A map on each qubit's (row, column)
index pair, as QST and the noise step apply, is ``_contract_pairs``.

The operator API (``SpaceLayout``, ``QuantumOperator``, ``hermitian_exponential``) has
no caller in the package or its test oracles, which propagate through
``dynamics._block_amplitudes``; it is kept only for ``perfbench``, which uses it.

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
    """A register of ``n_qubits`` qubits, as a :class:`QuantumOperator` names it. Build one
    with :meth:`qubits`, which shares one layout per size."""

    n_qubits: int
    # derived once; equality, hash and repr read the qubit count only
    total_dim: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError("a layout needs at least one qubit")
        object.__setattr__(self, "total_dim", 2 ** self.n_qubits)

    @classmethod
    @functools.cache
    def qubits(cls, n: int) -> "SpaceLayout":
        return cls(n)


def _frozen_array(values, ndim: int) -> np.ndarray:
    """A read-only complex copy of ``values``: ``ndim`` axes of 2^n entries (n >= 1), all finite."""
    arr = np.array(values, dtype=np.complex128, copy=True)
    d = len(arr) if arr.ndim else 0
    if arr.shape != (d,) * ndim or d < 2 or d & (d - 1):
        raise ValueError(f"expected {ndim} axes of 2^n entries each (n >= 1), got {arr.shape}")
    # first, so that no invariant check below computes with inf or NaN
    if not np.isfinite(arr).all():
        raise InvariantError("state or operator holds entries that are not finite")
    arr.setflags(write=False)
    return arr


def _check_hermitian(matrix: np.ndarray, tol: float, message: str) -> None:
    """Raise ``InvariantError(message)`` unless max|A - A†| <= tol (NaN fails); A is finite."""
    if not np.max(np.abs(matrix - matrix.conj().T)) <= tol:
        raise InvariantError(message)


# ---------------------------------------------------------------------------
# values
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuantumState:
    """Pure state: complex amplitude vector over a qubit register, 2^n long."""

    amplitudes: np.ndarray

    def __post_init__(self):
        arr = _frozen_array(self.amplitudes, 1)
        object.__setattr__(self, "amplitudes", arr)
        norm = np.linalg.norm(arr)
        if not abs(norm - 1.0) <= NORM_TOL:
            raise InvariantError(f"state norm {norm} differs from 1 beyond {NORM_TOL}")

    @property
    def n_qubits(self) -> int:
        return len(self.amplitudes).bit_length() - 1

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def density_matrix(self) -> "DensityMatrix":
        return DensityMatrix(np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(frozen=True)
class DensityMatrix:
    """Mixed state: Hermitian, unit-trace, positive-semidefinite 2^n x 2^n matrix."""

    elements: np.ndarray

    def __post_init__(self):
        arr = _frozen_array(self.elements, 2)
        object.__setattr__(self, "elements", arr)
        _check_hermitian(arr, DM_HERM_TOL, "density matrix is not Hermitian within tolerance")
        tr = np.trace(arr).real
        if not abs(tr - 1.0) <= DM_HERM_TOL:
            raise InvariantError(f"density matrix trace {tr} differs from 1")
        evals = np.linalg.eigvalsh(arr)
        if not evals.min() >= DM_EIG_FLOOR:
            raise InvariantError(f"density matrix has eigenvalue {evals.min()} below {DM_EIG_FLOOR}")

    @property
    def n_qubits(self) -> int:
        return len(self.elements).bit_length() - 1

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
        arr = _frozen_array(self.elements, 2)
        if len(arr) != d:
            raise ValueError(f"expected a {d}x{d} matrix for {self.layout}, got {arr.shape}")
        object.__setattr__(self, "elements", arr)
        if self.hermitian:
            _check_hermitian(arr, OP_HERM_TOL,
                             "operator flagged hermitian is not Hermitian within 1e-12")
        if self.unitary:
            defect = np.max(np.abs(arr.conj().T @ arr - np.eye(d)))
            if not defect <= OP_UNITARY_TOL:
                raise InvariantError(f"operator flagged unitary has U†U-I defect {defect}")


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
    amps = np.zeros(2 ** len(label), dtype=complex)
    amps[index] = 1.0
    return QuantumState(amps)


def superposition_ket(terms: Sequence[tuple[str, complex]]) -> QuantumState:
    """Normalized superposition of qubit basis kets given as (label, amplitude)."""
    n = len(terms[0][0])
    amps = np.zeros(2 ** n, dtype=complex)
    for label, coeff in terms:
        amps += coeff * qubit_ket(label).amplitudes
    return QuantumState(amps / np.linalg.norm(amps))


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


def _contract_pairs(table: np.ndarray, kernels: Sequence[np.ndarray],
                    pair: tuple[int, int]) -> np.ndarray:
    """Contract each qubit's pair of axes of ``table`` with that qubit's kernel.

    ``table`` is indexed [a_1..a_n, b_1..b_n]; ``kernels[q]`` is the matrix from qubit q's
    flattened (a, b) index pair to its flattened (c, d) pair, of shape ``pair``. Returns the
    (c^n, d^n) matrix indexed [c_1..c_n, d_1..d_n], the first qubit most significant.
    """
    n = table.ndim // 2
    # contract qubit q's (a_q, b_q) axes, leaving its (c, d) pair at the end: the
    # transpose, reshape and np.dot of np.tensordot(table, kernels[q], ([0, n - q], [0, 1]))
    for q, kernel in enumerate(kernels):
        rest = [a for a in range(table.ndim) if a not in (0, n - q)]
        shape = [table.shape[a] for a in rest] + list(pair)
        table = np.dot(table.transpose(rest + [0, n - q]).reshape(-1, len(kernel)), kernel)
        table = table.reshape(shape)
    order = list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2))
    return table.transpose(order).reshape(pair[0] ** n, pair[1] ** n)


def partial_trace(rho: DensityMatrix, keep: Iterable[int]) -> DensityMatrix:
    """Reduced density matrix on the ``keep`` qubits (ascending original order)."""
    keep = sorted(set(keep))
    n = rho.n_qubits
    if not keep:
        raise ValueError("keep set must be nonempty")
    if keep[0] < 0 or keep[-1] >= n:
        raise ValueError(f"keep indices {keep} out of range for {n} qubits")

    tensor = rho.elements.reshape((2,) * (2 * n))
    for idx in sorted(set(range(n)) - set(keep), reverse=True):
        tensor = np.trace(tensor, axis1=idx, axis2=idx + tensor.ndim // 2)
    d_kept = 2 ** len(keep)
    return DensityMatrix(tensor.reshape(d_kept, d_kept))


def hermitian_exponential(H: QuantumOperator, t: float) -> QuantumOperator:
    """Propagator U = exp(-i 2π H t) by spectral decomposition.

    H carries frequency units (GHz) and t is in ns; the 2π converts to phase.
    Spectral decomposition is exact for Hermitian input and cheap at the
    matrix sizes this package uses (<= 64x64).
    """
    _check_hermitian(H.elements, DM_HERM_TOL, "hermitian_exponential needs a Hermitian operator")
    evals, vecs = np.linalg.eigh(H.elements)
    phases = np.exp(-2j * np.pi * evals * t)
    U = (vecs * phases) @ vecs.conj().T
    return QuantumOperator(H.layout, U, unitary=True)


def nearest_psd(matrix) -> DensityMatrix:
    """Project a Hermitian, trace-~1 matrix (a :class:`DensityMatrix`, or a bare 2^n x 2^n
    matrix of finite entries) onto the density-matrix set.

    Policy: the nearest density matrix in Frobenius norm (Smolin, Gambetta and Smith,
    PRL 108, 070502): keep the eigenvectors and project the eigenvalues onto the
    probability simplex (Wang and Carreira-Perpiñán, arXiv:1309.1541), subtracting the one
    threshold that leaves the positive part summing to 1.
    """
    mat = matrix.elements if isinstance(matrix, DensityMatrix) else _frozen_array(matrix, 2)
    _check_hermitian(mat, 1e-8, "nearest_psd input is not Hermitian")
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
    return DensityMatrix(projected)
