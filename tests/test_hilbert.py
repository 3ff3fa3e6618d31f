import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qproc_sim.hilbert import (
    DensityMatrix,
    InvariantError,
    QuantumOperator,
    QuantumState,
    SpaceLayout,
    apply_local,
    hermitian_exponential,
    nearest_psd,
    partial_trace,
    qubit_ket,
)

RNG = np.random.default_rng(1234)


def random_density_matrix(layout, rng=RNG):
    d = layout.total_dim
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return DensityMatrix(layout, rho / np.trace(rho))


def kron_density_matrix(a, b):
    """The product state a ⊗ b of two density matrices."""
    layout = SpaceLayout.qubits(a.layout.n_qubits + b.layout.n_qubits)
    return DensityMatrix(layout, np.kron(a.elements, b.elements))


def random_hermitian(dim, scale=1.0):
    a = RNG.normal(size=(dim, dim)) + 1j * RNG.normal(size=(dim, dim))
    return scale * (a + a.conj().T) / 2


def taylor_expm(H, t, terms=40):
    """Independent propagator oracle: truncated Taylor series of exp(-i 2π H t)."""
    A = -2j * np.pi * t * H
    out = np.eye(H.shape[0], dtype=complex)
    term = np.eye(H.shape[0], dtype=complex)
    for k in range(1, terms + 1):
        term = term @ A / k
        out = out + term
    return out


# ---------------------------------------------------------------------------
# layouts
# ---------------------------------------------------------------------------

def test_layout_equality_hash_and_repr_read_the_qubit_count_only():
    layout = SpaceLayout(3)
    assert layout == SpaceLayout.qubits(3) and hash(layout) == hash(SpaceLayout.qubits(3))
    assert hash(layout) == hash((3,))
    assert repr(layout) == "SpaceLayout(n_qubits=3)"
    assert layout != SpaceLayout.qubits(2)
    assert layout.dims == (2, 2, 2) and layout.total_dim == 8
    with pytest.raises(TypeError):
        SpaceLayout(3, dims=(2, 2, 2))
    with pytest.raises(AttributeError):
        layout.total_dim = 4


def test_qubit_layouts_are_shared():
    assert SpaceLayout.qubits(3) is SpaceLayout.qubits(3)
    assert SpaceLayout.qubits(3) == SpaceLayout(3)
    assert SpaceLayout.qubits(2).dims == (2, 2)
    with pytest.raises(ValueError):
        SpaceLayout.qubits(0)


# ---------------------------------------------------------------------------
# partial_trace
# ---------------------------------------------------------------------------

def test_partial_trace_product_state():
    rho_a = random_density_matrix(SpaceLayout.qubits(1))
    rho_b = random_density_matrix(SpaceLayout.qubits(2))
    joint = kron_density_matrix(rho_a, rho_b)
    np.testing.assert_allclose(partial_trace(joint, {0}).elements, rho_a.elements, atol=1e-12)
    np.testing.assert_allclose(partial_trace(joint, {1, 2}).elements, rho_b.elements, atol=1e-12)


def test_partial_trace_singlet_is_maximally_mixed():
    singlet = QuantumState(SpaceLayout.qubits(2), np.array([0, 1, -1, 0]) / np.sqrt(2))
    rho = singlet.density_matrix()
    for keep in ({0}, {1}):
        reduced = partial_trace(rho, keep)
        np.testing.assert_allclose(reduced.elements, np.eye(2) / 2, atol=1e-12)


def test_partial_trace_preserves_trace_and_hermiticity():
    rho = random_density_matrix(SpaceLayout.qubits(3))
    for keep in ({0}, {1, 2}, {0, 2}):
        reduced = partial_trace(rho, keep)
        assert np.trace(reduced.elements) == pytest.approx(1.0, abs=1e-12)


def test_partial_trace_full_keep_is_identity_and_composes():
    rho = random_density_matrix(SpaceLayout.qubits(3))
    np.testing.assert_allclose(partial_trace(rho, {0, 1, 2}).elements, rho.elements)
    one_step = partial_trace(rho, {0})
    two_step = partial_trace(partial_trace(rho, {0, 1}), {0})
    np.testing.assert_allclose(one_step.elements, two_step.elements, atol=1e-12)


@settings(derandomize=True, deadline=None, max_examples=50)
@given(n=st.integers(2, 5), data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_partial_trace_composes(n, data, seed):
    # tracing out A and then B equals tracing out A ∪ B in one call
    rho = random_density_matrix(SpaceLayout.qubits(n), np.random.default_rng(seed))
    traced = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n - 1, unique=True))
    first = data.draw(st.lists(st.sampled_from(traced), min_size=1, unique=True))
    kept_first = [k for k in range(n) if k not in first]
    step = partial_trace(rho, kept_first)
    # B's factors, renumbered into the reduced layout
    step = partial_trace(step, [kept_first.index(k) for k in kept_first if k not in traced])
    once = partial_trace(rho, [k for k in range(n) if k not in traced])
    assert step.layout == once.layout
    np.testing.assert_allclose(step.elements, once.elements, rtol=0, atol=1e-14)


def test_partial_trace_errors():
    rho = random_density_matrix(SpaceLayout.qubits(2))
    with pytest.raises(ValueError):
        partial_trace(rho, set())
    with pytest.raises(ValueError):
        partial_trace(rho, {5})


# ---------------------------------------------------------------------------
# hermitian_exponential
# ---------------------------------------------------------------------------

def test_exponential_of_zero_is_identity():
    layout = SpaceLayout.qubits(2)
    H = QuantumOperator(layout, np.zeros((4, 4)), hermitian=True)
    U = hermitian_exponential(H, 17.3)
    np.testing.assert_allclose(U.elements, np.eye(4), atol=1e-14)


def test_exponential_full_population_transfer():
    g = 0.055  # GHz
    H = QuantumOperator(SpaceLayout.qubits(1), (g / 2) * np.array([[0, 1], [1, 0]]), hermitian=True)
    t = 1 / (2 * g)  # ~9.09 ns
    U = hermitian_exponential(H, t)
    assert abs(U.elements[0, 1]) == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(U.elements, taylor_expm(H.elements, t), atol=1e-9)


def test_exponential_matches_taylor_oracle():
    H = QuantumOperator(
        SpaceLayout.qubits(3), random_hermitian(8, scale=0.05), hermitian=True
    )
    t = 3.7
    U = hermitian_exponential(H, t)
    np.testing.assert_allclose(U.elements, taylor_expm(H.elements, t), atol=1e-9)


def test_exponential_group_property():
    H = QuantumOperator(SpaceLayout.qubits(2), random_hermitian(4, scale=0.08), hermitian=True)
    lhs = hermitian_exponential(H, 2.1).elements @ hermitian_exponential(H, 3.3).elements
    rhs = hermitian_exponential(H, 5.4).elements
    np.testing.assert_allclose(lhs, rhs, atol=1e-9)


def test_exponential_rejects_non_hermitian():
    layout = SpaceLayout.qubits(1)
    H = QuantumOperator(layout, np.array([[0, 1], [0, 0]], dtype=complex))
    with pytest.raises(InvariantError):
        hermitian_exponential(H, 1.0)


# ---------------------------------------------------------------------------
# nearest_psd
# ---------------------------------------------------------------------------

def test_nearest_psd_fixed_point():
    rho = random_density_matrix(SpaceLayout.qubits(2))
    again = nearest_psd(rho)
    np.testing.assert_allclose(again.elements, rho.elements, atol=1e-12)


def test_nearest_psd_clip_and_renormalize():
    layout = SpaceLayout.qubits(1)
    out = nearest_psd(np.diag([1.1, -0.1]).astype(complex), layout)
    np.testing.assert_allclose(out.elements, np.diag([1.0, 0.0]), atol=1e-12)


def test_nearest_psd_postconditions_and_idempotence():
    layout = SpaceLayout.qubits(2)
    for _ in range(5):
        raw = random_hermitian(4)
        raw = raw / np.trace(raw).real if abs(np.trace(raw).real) > 0.2 else raw + np.eye(4) / 4
        out = nearest_psd(raw, layout)
        evals = np.linalg.eigvalsh(out.elements)
        assert evals.min() >= -1e-12
        assert np.trace(out.elements).real == pytest.approx(1.0, abs=1e-12)
        twice = nearest_psd(out)
        np.testing.assert_allclose(twice.elements, out.elements, atol=1e-12)


def clip_and_rescale(mat):
    """The simpler projection: negative eigenvalues clipped to 0, the rest rescaled to sum 1."""
    evals, vecs = np.linalg.eigh(mat)
    evals = np.clip(evals, 0.0, None)
    return (vecs * (evals / evals.sum())) @ vecs.conj().T


def brute_force_simplex_projection(values):
    """Nearest point of the probability simplex: over every support, the projection onto
    that face's affine hull, kept if non-negative; the closest of those."""
    candidates = []
    for size in range(1, values.size + 1):
        for support in map(list, itertools.combinations(range(values.size), size)):
            point = np.zeros(values.size)
            point[support] = values[support] + (1.0 - values[support].sum()) / size
            if point.min() >= 0:
                candidates.append(point)
    return min(candidates, key=lambda point: np.linalg.norm(point - values))


@settings(derandomize=True, deadline=None, max_examples=100)
@given(values=st.sampled_from([2, 4, 8]).flatmap(
    lambda d: st.lists(st.floats(-1.0, 2.0), min_size=d, max_size=d)))
def test_nearest_psd_projects_a_spectrum_onto_the_simplex(values):
    values = np.array(values)
    layout = SpaceLayout.qubits(values.size.bit_length() - 1)
    out = nearest_psd(np.diag(values).astype(complex), layout).elements
    np.testing.assert_allclose(out, np.diag(brute_force_simplex_projection(values)), atol=1e-12)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(n=st.integers(1, 4), scale=st.sampled_from([1e-3, 0.05, 0.3]),
       seed=st.integers(0, 2**32 - 1))
def test_nearest_psd_is_a_state_no_farther_than_the_clip(n, scale, seed):
    # a state plus Hermitian noise, as linear inversion of sampled counts gives
    rng = np.random.default_rng(seed)
    layout = SpaceLayout.qubits(n)
    a = rng.normal(size=(2 ** n, 2 ** n)) + 1j * rng.normal(size=(2 ** n, 2 ** n))
    raw = random_density_matrix(layout, rng).elements + scale * (a + a.conj().T) / 2
    raw = raw - np.eye(2 ** n) * (np.trace(raw).real - 1) / 2 ** n
    out = nearest_psd(raw, layout).elements
    assert np.linalg.eigvalsh(out).min() >= -1e-12
    assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(nearest_psd(out, layout).elements, out, atol=1e-12)
    assert np.linalg.norm(out - raw) <= np.linalg.norm(clip_and_rescale(raw) - raw) + 1e-12


def test_nearest_psd_rejects_non_hermitian():
    with pytest.raises(InvariantError):
        nearest_psd(np.array([[1.0, 1.0], [0.0, 0.0]]), SpaceLayout.qubits(1))


# ---------------------------------------------------------------------------
# type invariants and helpers
# ---------------------------------------------------------------------------

def test_state_norm_invariant():
    with pytest.raises(InvariantError):
        QuantumState(SpaceLayout.qubits(1), np.array([1.0, 1.0]))


def test_density_matrix_invariants():
    layout = SpaceLayout.qubits(1)
    with pytest.raises(InvariantError):
        DensityMatrix(layout, np.array([[0.5, 0.5], [0.0, 0.5]]))
    with pytest.raises(InvariantError):
        DensityMatrix(layout, np.diag([0.7, 0.7]))
    with pytest.raises(InvariantError):
        DensityMatrix(layout, np.diag([1.5, -0.5]))


def test_operator_flags_checked():
    layout = SpaceLayout.qubits(1)
    with pytest.raises(InvariantError):
        QuantumOperator(layout, np.array([[0, 1], [0, 0]], dtype=complex), hermitian=True)
    with pytest.raises(InvariantError):
        QuantumOperator(layout, 2 * np.eye(2, dtype=complex), unitary=True)


@pytest.mark.parametrize("build", [
    lambda layout: QuantumState(layout, [np.nan, 1]),
    lambda layout: QuantumState(layout, [np.nan, np.nan]),
    lambda layout: DensityMatrix(layout, [[0.5, np.nan], [0, 0.5]]),
    lambda layout: DensityMatrix(layout, [[np.nan, 0], [0, 1]]),
    lambda layout: DensityMatrix(layout, np.full((2, 2), np.nan)),
    lambda layout: QuantumOperator(layout, [[np.nan, 0], [0, 1]], hermitian=True),
    lambda layout: QuantumOperator(layout, [[0, np.nan], [1, 0]], unitary=True),
    lambda layout: QuantumState(layout, [np.inf, 0]),
    lambda layout: DensityMatrix(layout, [[np.inf, 0], [0, 1]]),
    lambda layout: DensityMatrix(layout, [[0.5, -np.inf], [np.inf, 0.5]]),
    lambda layout: QuantumOperator(layout, [[np.inf, 0], [0, 1]], hermitian=True),
], ids=["state", "nan_state", "dm_coherence", "dm_population", "nan_dm", "hermitian_op",
        "unitary_op", "inf_state", "inf_dm_population", "inf_dm_coherence", "inf_op"])
def test_nan_entries_fail_the_invariants(build):
    # a NaN makes every comparison false, so each check must fail unless its bound holds;
    # inf must fail before any check computes with it (inf - inf warns), so the suite's
    # warnings-as-errors also sees the InvariantError
    with pytest.raises(InvariantError):
        build(SpaceLayout.qubits(1))


def test_qubit_ket_label_ordering():
    assert qubit_ket("eggg").amplitudes[0b1000] == 1.0
    with pytest.raises(ValueError):
        qubit_ket("gx")


def test_immutability():
    state = qubit_ket("g")
    with pytest.raises(ValueError):
        state.amplitudes[0] = 0.0


# ---------------------------------------------------------------------------
# apply_local
# ---------------------------------------------------------------------------

def kron_oracle(op, dims, axes):
    """Full-space matrix of op on factors ``axes``: kron(op, I) in the order
    [axes..., other factors...], then the factors permuted back."""
    n = len(dims)
    order = list(axes) + [k for k in range(n) if k not in axes]
    rest = int(np.prod([dims[k] for k in order[len(axes):]]))
    big = np.kron(op, np.eye(rest))
    inverse = [order.index(k) for k in range(n)]
    permuted = [dims[k] for k in order]
    big = big.reshape(permuted + permuted).transpose(inverse + [n + k for k in inverse])
    d = int(np.prod(dims))
    return big.reshape(d, d)


@pytest.mark.parametrize("dims, axes", [
    ((2, 3, 2), (1,)),
    ((2, 3, 2), (2, 0)),          # reversed and non-adjacent
    ((4, 2, 2, 3), (3, 1)),       # resonator axis first, then a qubit
    ((2, 2, 4), (0, 2)),
    ((3, 2, 2, 2), (3, 0, 2)),
])
def test_apply_local_matches_kron_oracle(dims, axes):
    # the same dims with a vector, a matrix and a wide matrix, then other dims and axes, then
    # the first again: each call reuses or adds a cached index plan, never another call's
    n = len(dims)
    calls = [(dims, axes), (dims, tuple(reversed(axes))), (dims[::-1], axes),
             (dims + (2,), (n,) + axes), (dims, axes)]
    for call_dims, call_axes in calls:
        d_op = int(np.prod([call_dims[a] for a in call_axes]))
        op = RNG.normal(size=(d_op, d_op)) + 1j * RNG.normal(size=(d_op, d_op))
        full = kron_oracle(op, call_dims, call_axes)
        d = int(np.prod(call_dims))
        vec = RNG.normal(size=d) + 1j * RNG.normal(size=d)
        mat = RNG.normal(size=(d, d)) + 1j * RNG.normal(size=(d, d))
        wide = RNG.normal(size=(d, 3))
        np.testing.assert_allclose(apply_local(op, vec, call_dims, call_axes), full @ vec,
                                   atol=1e-12)
        np.testing.assert_allclose(apply_local(op, mat, call_dims, call_axes), full @ mat,
                                   atol=1e-12)
        np.testing.assert_allclose(apply_local(op, wide, call_dims, call_axes), full @ wide,
                                   atol=1e-12)
        np.testing.assert_array_equal(apply_local(op, np.eye(d), call_dims, call_axes), full)


def test_apply_local_rejects_repeated_axes():
    with pytest.raises(ValueError):
        apply_local(np.eye(4), np.ones(8), (2, 2, 2), (1, 1))
