"""Complex linear algebra over composite qubit/resonator Hilbert spaces.

States, operators and density matrices carry an explicit :class:`SpaceLayout`,
so tensor structure (partial traces, per-factor occupations) never has to be
guessed from array shapes. The composite basis index is row-major with the
leftmost factor most significant: the qubit label ``"eg"`` means qubit 0
excited and qubit 1 ground, and maps to index ``0b10``.

Everything is immutable after construction (arrays are frozen), so values can
be shared freely across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

# Per-invariant tolerances. Scalars are IEEE-754 binary64 throughout.
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
class Subsystem:
    """One tensor factor: a qubit (dim 2) or a resonator (dim n_max + 1)."""

    kind: str
    dim: int

    def __post_init__(self):
        if self.kind not in ("qubit", "resonator"):
            raise ValueError(f"unknown subsystem kind {self.kind!r}")
        if self.kind == "qubit" and self.dim != 2:
            raise ValueError("qubit factors must have dimension 2")
        if self.kind == "resonator" and self.dim < 2:
            raise ValueError("resonator factors need dimension >= 2 (n_max >= 1)")


def qubit() -> Subsystem:
    return Subsystem("qubit", 2)


def resonator(n_max: int) -> Subsystem:
    """Resonator factor truncated at Fock level ``n_max`` (dimension n_max + 1)."""
    return Subsystem("resonator", n_max + 1)


@dataclass(frozen=True)
class SpaceLayout:
    """Ordered tensor factorization of a composite Hilbert space.

    The leftmost factor is the most significant in the composite (row-major)
    basis index.
    """

    factors: tuple[Subsystem, ...]

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))
        if not self.factors:
            raise ValueError("a layout needs at least one factor")

    @classmethod
    def qubits(cls, n: int) -> "SpaceLayout":
        return cls(tuple(qubit() for _ in range(n)))

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(f.dim for f in self.factors)

    @property
    def total_dim(self) -> int:
        return math.prod(self.dims)

    @property
    def n_factors(self) -> int:
        return len(self.factors)

    def extended(self, other: "SpaceLayout") -> "SpaceLayout":
        return SpaceLayout(self.factors + other.factors)


def _frozen_array(values, shape_check) -> np.ndarray:
    arr = np.array(values, dtype=np.complex128, copy=True)
    if arr.shape != shape_check:
        raise ValueError(f"expected array of shape {shape_check}, got {arr.shape}")
    arr.setflags(write=False)
    return arr


# ---------------------------------------------------------------------------
# values
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuantumState:
    """Pure state: complex amplitude vector over a composite layout."""

    layout: SpaceLayout
    amplitudes: np.ndarray

    def __post_init__(self):
        arr = _frozen_array(self.amplitudes, (self.layout.total_dim,))
        object.__setattr__(self, "amplitudes", arr)
        norm = np.linalg.norm(arr)
        if abs(norm - 1.0) > NORM_TOL:
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
        if np.max(np.abs(arr - arr.conj().T)) > DM_HERM_TOL:
            raise InvariantError("density matrix is not Hermitian within tolerance")
        tr = np.trace(arr).real
        if abs(tr - 1.0) > DM_HERM_TOL:
            raise InvariantError(f"density matrix trace {tr} differs from 1")
        evals = np.linalg.eigvalsh(arr)
        if evals.min() < DM_EIG_FLOOR:
            raise InvariantError(f"density matrix has eigenvalue {evals.min()} below {DM_EIG_FLOOR}")

    def probabilities(self) -> np.ndarray:
        return np.real(np.diag(self.elements))

    def purity(self) -> float:
        return float(np.real(np.trace(self.elements @ self.elements)))


@dataclass(frozen=True)
class QuantumOperator:
    """Linear operator on a composite layout, optionally checked against flags."""

    layout: SpaceLayout
    elements: np.ndarray
    hermitian: bool = False
    unitary: bool = False

    def __post_init__(self):
        d = self.layout.total_dim
        arr = _frozen_array(self.elements, (d, d))
        object.__setattr__(self, "elements", arr)
        if self.hermitian and np.max(np.abs(arr - arr.conj().T)) > OP_HERM_TOL:
            raise InvariantError("operator flagged hermitian is not Hermitian within 1e-12")
        if self.unitary:
            defect = np.max(np.abs(arr.conj().T @ arr - np.eye(d)))
            if defect > OP_UNITARY_TOL:
                raise InvariantError(f"operator flagged unitary has U†U-I defect {defect}")

    def apply(self, state: QuantumState) -> QuantumState:
        return QuantumState(state.layout, self.elements @ state.amplitudes)


# ---------------------------------------------------------------------------
# elementary constructors
# ---------------------------------------------------------------------------

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
SIGMA_MINUS = np.array([[0, 1], [0, 0]], dtype=complex)  # |g><e|


def destroy(dim: int) -> np.ndarray:
    """Annihilation operator on a dim-level Fock space: a|n> = sqrt(n)|n-1>."""
    return np.diag(np.sqrt(np.arange(1, dim, dtype=float)), k=1).astype(complex)


def basis_ket(layout: SpaceLayout, index: int) -> QuantumState:
    amps = np.zeros(layout.total_dim, dtype=complex)
    amps[index] = 1.0
    return QuantumState(layout, amps)


def qubit_ket(label: str) -> QuantumState:
    """Computational basis ket from a g/e label, leftmost qubit most significant."""
    index = 0
    for ch in label:
        if ch not in "ge":
            raise ValueError(f"qubit label may only contain 'g'/'e', got {label!r}")
        index = (index << 1) | (ch == "e")
    return basis_ket(SpaceLayout.qubits(len(label)), index)


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

def tensor_product(states: Sequence[QuantumState]) -> QuantumState:
    """Kronecker product of pure states.

    The result layout is the concatenation of the input layouts in the given
    (most-significant-left) order.
    """
    states = list(states)
    if not states:
        raise ValueError("tensor_product of an empty list")
    if any(not isinstance(it, QuantumState) for it in states):
        raise ValueError("tensor_product takes pure states only")
    layout, amps = states[0].layout, states[0].amplitudes
    for it in states[1:]:
        layout, amps = layout.extended(it.layout), np.kron(amps, it.amplitudes)
    return QuantumState(layout, amps)


def apply_local(op, array, dims: Sequence[int], axes: Sequence[int]) -> np.ndarray:
    """Apply ``op`` to the tensor factors ``axes`` of the row index of ``array``.

    ``array`` is a vector of length prod(dims), or a matrix with that many
    rows whose columns are left alone. ``op`` acts on the listed factors in
    the order given, the first most significant, so ``axes=(2, 0)`` reads
    op's index as (factor 2, factor 0). The full-space matrix of ``op`` is
    ``apply_local(op, eye, dims, axes)``; ``op @ rho @ op†`` is two calls,
    on rho and then on the conjugate transpose of the result.
    """
    dims, axes = tuple(dims), tuple(axes)
    array = np.asarray(array)
    k = len(axes)
    op = np.asarray(op).reshape(tuple(dims[a] for a in axes) * 2)
    out = np.tensordot(op, array.reshape(dims + array.shape[1:]),
                       axes=(tuple(range(k, 2 * k)), axes))
    return np.moveaxis(out, tuple(range(k)), axes).reshape(array.shape)


def partial_trace(rho: DensityMatrix, keep: Iterable[int]) -> DensityMatrix:
    """Reduced density matrix on the ``keep`` factors (ascending original order)."""
    keep = sorted(set(keep))
    n = rho.layout.n_factors
    if not keep:
        raise ValueError("keep set must be nonempty")
    if keep[0] < 0 or keep[-1] >= n:
        raise ValueError(f"keep indices {keep} out of range for {n} factors")

    dims = list(rho.layout.dims)
    tensor = rho.elements.reshape(dims + dims)
    for idx in sorted(set(range(n)) - set(keep), reverse=True):
        tensor = np.trace(tensor, axis1=idx, axis2=idx + len(dims))
        dims.pop(idx)
    d_kept = math.prod(dims)
    kept_factors = tuple(rho.layout.factors[i] for i in keep)
    return DensityMatrix(SpaceLayout(kept_factors), tensor.reshape(d_kept, d_kept))


def permute_factors(value, order: Sequence[int]):
    """Reorder tensor factors of a state, operator or density matrix.

    ``order[k]`` is the input factor that becomes output factor k.
    """
    layout = value.layout
    n = layout.n_factors
    if sorted(order) != list(range(n)):
        raise ValueError(f"order {order} is not a permutation of 0..{n - 1}")
    dims = layout.dims
    new_layout = SpaceLayout(tuple(layout.factors[i] for i in order))

    if isinstance(value, QuantumState):
        amps = value.amplitudes.reshape(dims).transpose(order).reshape(-1)
        return QuantumState(new_layout, amps)
    perm = list(order) + [n + i for i in order]
    mat = value.elements.reshape(dims + dims).transpose(perm)
    mat = mat.reshape(new_layout.total_dim, new_layout.total_dim)
    if isinstance(value, DensityMatrix):
        return DensityMatrix(new_layout, mat)
    return QuantumOperator(new_layout, mat, hermitian=value.hermitian, unitary=value.unitary)


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

    Policy: clip negative eigenvalues to zero, then rescale the eigenvalue
    vector uniformly to restore unit trace (simple-clip; a trace-preserving
    least-squares redistribution could be swapped in behind this interface).
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
    evals = np.clip(evals, 0.0, None)
    total = evals.sum()
    if total <= 0.0:
        raise InvariantError("nearest_psd input has no positive spectral weight")
    evals /= total
    projected = (vecs * evals) @ vecs.conj().T
    # re-symmetrize rounding noise so the DensityMatrix invariants hold exactly
    projected = 0.5 * (projected + projected.conj().T)
    return DensityMatrix(layout, projected)
