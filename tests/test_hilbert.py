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
    basis_ket,
    destroy,
    hermitian_exponential,
    nearest_psd,
    partial_trace,
    permute_factors,
    qubit,
    qubit_ket,
    resonator,
    tensor_product,
)

RNG = np.random.default_rng(1234)


def random_density_matrix(layout, rng=RNG):
    d = layout.total_dim
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return DensityMatrix(layout, rho / np.trace(rho))


def random_state(layout):
    amps = RNG.normal(size=layout.total_dim) + 1j * RNG.normal(size=layout.total_dim)
    return QuantumState(layout, amps / np.linalg.norm(amps))


def kron_density_matrix(a, b):
    """The product state a ⊗ b of two density matrices."""
    return DensityMatrix(a.layout.extended(b.layout), np.kron(a.elements, b.elements))


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
# tensor_product
# ---------------------------------------------------------------------------

def test_tensor_identity_case():
    # a one-item product is the item itself
    psi = random_state(SpaceLayout((resonator(2),)))
    alone = tensor_product([psi])
    assert alone.layout == psi.layout
    np.testing.assert_array_equal(alone.amplitudes, psi.amplitudes)


def test_tensor_basis_bookkeeping():
    g = qubit_ket("g")
    e = qubit_ket("e")
    ge = tensor_product([g, e])
    np.testing.assert_allclose(ge.amplitudes, [0, 1, 0, 0])
    assert ge.amplitudes[0b01] == 1.0


def test_tensor_kronecker_definition():
    a = random_state(SpaceLayout.qubits(1))
    b = random_state(SpaceLayout((resonator(2),)))
    ab = tensor_product([a, b])
    assert ab.layout.dims == (2, 3)
    for i in range(2):
        for j in range(3):
            assert ab.amplitudes[i * 3 + j] == pytest.approx(a.amplitudes[i] * b.amplitudes[j])


def test_tensor_associativity_up_to_flattening():
    states = [random_state(SpaceLayout.qubits(1)) for _ in range(3)]
    left = tensor_product([tensor_product(states[:2]), states[2]])
    right = tensor_product([states[0], tensor_product(states[1:])])
    np.testing.assert_allclose(left.amplitudes, right.amplitudes, atol=1e-14)


def test_tensor_errors():
    with pytest.raises(ValueError):
        tensor_product([])
    with pytest.raises(ValueError):
        tensor_product([qubit_ket("g"), qubit_ket("g").density_matrix()])


# ---------------------------------------------------------------------------
# partial_trace
# ---------------------------------------------------------------------------

def test_partial_trace_product_state():
    rho_a = random_density_matrix(SpaceLayout.qubits(1))
    rho_b = random_density_matrix(SpaceLayout((resonator(2),)))
    joint = kron_density_matrix(rho_a, rho_b)
    np.testing.assert_allclose(partial_trace(joint, {0}).elements, rho_a.elements, atol=1e-12)
    np.testing.assert_allclose(partial_trace(joint, {1}).elements, rho_b.elements, atol=1e-12)


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
@given(dims=st.lists(st.integers(2, 3), min_size=2, max_size=4), data=st.data(),
       seed=st.integers(0, 2**32 - 1))
def test_partial_trace_composes(dims, data, seed):
    # tracing out A and then B equals tracing out A ∪ B in one call
    n = len(dims)
    layout = SpaceLayout(tuple(qubit() if d == 2 else resonator(d - 1) for d in dims))
    rho = random_density_matrix(layout, np.random.default_rng(seed))
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


def test_destroy_and_fock():
    a = destroy(3)
    fock = SpaceLayout((resonator(2),))
    lowered = a @ basis_ket(fock, 2).amplitudes
    np.testing.assert_allclose(lowered, np.sqrt(2) * basis_ket(fock, 1).amplitudes)


def test_qubit_ket_label_ordering():
    assert qubit_ket("eggg").amplitudes[0b1000] == 1.0
    with pytest.raises(ValueError):
        qubit_ket("gx")


def test_permute_factors_roundtrip():
    layout = SpaceLayout((qubit(), resonator(2), qubit()))
    amps = RNG.normal(size=layout.total_dim) + 1j * RNG.normal(size=layout.total_dim)
    state = QuantumState(layout, amps / np.linalg.norm(amps))
    moved = permute_factors(state, [2, 0, 1])
    back = permute_factors(moved, [1, 2, 0])
    np.testing.assert_allclose(back.amplitudes, state.amplitudes)
    assert moved.layout.dims == (2, 2, 3)


def test_permute_factors_matches_tensor_reorder():
    a = random_density_matrix(SpaceLayout.qubits(1))
    b = random_density_matrix(SpaceLayout((resonator(1),)))
    ab = kron_density_matrix(a, b)
    ba = kron_density_matrix(b, a)
    np.testing.assert_allclose(permute_factors(ab, [1, 0]).elements, ba.elements, atol=1e-14)


def test_immutability():
    state = qubit_ket("g")
    with pytest.raises(ValueError):
        state.amplitudes[0] = 0.0


def test_basis_ket_index():
    layout = SpaceLayout((qubit(), resonator(3)))
    ket = basis_ket(layout, 5)
    assert ket.amplitudes[5] == 1.0
    assert ket.layout.total_dim == 8


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
    d_op = int(np.prod([dims[a] for a in axes]))
    op = RNG.normal(size=(d_op, d_op)) + 1j * RNG.normal(size=(d_op, d_op))
    full = kron_oracle(op, dims, axes)
    d = int(np.prod(dims))
    vec = RNG.normal(size=d) + 1j * RNG.normal(size=d)
    mat = RNG.normal(size=(d, d)) + 1j * RNG.normal(size=(d, d))
    np.testing.assert_allclose(apply_local(op, vec, dims, axes), full @ vec, atol=1e-12)
    np.testing.assert_allclose(apply_local(op, mat, dims, axes), full @ mat, atol=1e-12)
    np.testing.assert_array_equal(apply_local(op, np.eye(d), dims, axes), full)


def test_apply_local_rejects_repeated_axes():
    with pytest.raises(ValueError):
        apply_local(np.eye(4), np.ones(8), (2, 2, 2), (1, 1))
