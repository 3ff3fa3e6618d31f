"""The full-space oracle's qubit⊗resonator toolkit: Fock operators, basis vectors,
Kronecker products, factor permutations, the matrix exponential and the per-sample norm
check."""

import numpy as np
import pytest

from fullspace import (
    SIGMA_MINUS,
    Segment,
    basis_vector,
    checked_state,
    destroy,
    device_dims,
    expm,
    kron_states,
    permute_factors,
    propagate,
)
from qproc_sim.dynamics import DeviceConfig
from qproc_sim.hilbert import InvariantError, qubit_ket

RNG = np.random.default_rng(1234)


def random_vector(dim):
    amps = RNG.normal(size=dim) + 1j * RNG.normal(size=dim)
    return amps / np.linalg.norm(amps)


def random_density_matrix(dim):
    a = RNG.normal(size=(dim, dim)) + 1j * RNG.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


# ---------------------------------------------------------------------------
# kron_states
# ---------------------------------------------------------------------------

def test_tensor_identity_case():
    # a one-item product is the item itself
    psi = random_vector(3)
    np.testing.assert_array_equal(kron_states(psi), psi)


def test_tensor_basis_bookkeeping():
    ge = kron_states(qubit_ket("g").amplitudes, qubit_ket("e").amplitudes)
    np.testing.assert_allclose(ge, [0, 1, 0, 0])
    assert ge[0b01] == 1.0


def test_tensor_kronecker_definition():
    a, b = random_vector(2), random_vector(3)
    ab = kron_states(a, b)
    assert ab.shape == (6,)
    for i in range(2):
        for j in range(3):
            assert ab[i * 3 + j] == pytest.approx(a[i] * b[j])


def test_tensor_associativity_up_to_flattening():
    states = [random_vector(2) for _ in range(3)]
    left = kron_states(kron_states(*states[:2]), states[2])
    right = kron_states(states[0], kron_states(*states[1:]))
    np.testing.assert_allclose(left, right, atol=1e-14)


def test_tensor_errors():
    with pytest.raises(ValueError):
        kron_states()
    with pytest.raises(ValueError):
        kron_states(qubit_ket("g").amplitudes, qubit_ket("g").density_matrix().elements)


# ---------------------------------------------------------------------------
# Fock operators and basis vectors
# ---------------------------------------------------------------------------

def test_destroy_and_fock():
    a = destroy(3)
    lowered = a @ basis_vector((3,), 2)
    np.testing.assert_allclose(lowered, np.sqrt(2) * basis_vector((3,), 1))


def test_sigma_minus_lowers_the_qubit():
    np.testing.assert_array_equal(SIGMA_MINUS @ qubit_ket("e").amplitudes,
                                  qubit_ket("g").amplitudes)
    np.testing.assert_array_equal(SIGMA_MINUS @ qubit_ket("g").amplitudes, [0, 0])


def test_basis_ket_index():
    dims = (2, 4)
    ket = basis_vector(dims, 5)
    assert ket[5] == 1.0 and np.count_nonzero(ket) == 1
    assert ket.shape == (8,)


def test_device_dims_list_qubits_then_resonators():
    cfg = DeviceConfig(n_max=2)
    assert device_dims(cfg, 2) == (2, 2, 3)
    assert device_dims(cfg, 1, n_resonators=2) == (2, 3, 3)


# ---------------------------------------------------------------------------
# permute_factors
# ---------------------------------------------------------------------------

def test_permute_factors_roundtrip():
    dims = (2, 3, 2)
    state = random_vector(12)
    moved = permute_factors(state, dims, [2, 0, 1])
    back = permute_factors(moved, (2, 2, 3), [1, 2, 0])
    np.testing.assert_allclose(back, state)
    # the moved state is the same amplitudes indexed (factor 2, factor 0, factor 1)
    np.testing.assert_array_equal(moved.reshape(2, 2, 3), state.reshape(dims).transpose(2, 0, 1))


def test_permute_factors_matches_tensor_reorder():
    a, b = random_density_matrix(2), random_density_matrix(2)
    ab, ba = np.kron(a, b), np.kron(b, a)
    np.testing.assert_allclose(permute_factors(ab, (2, 2), [1, 0]), ba, atol=1e-14)
    # a qubit and a two-level resonator: the dims say which factor is which
    c = random_density_matrix(3)
    np.testing.assert_allclose(permute_factors(np.kron(a, c), (2, 3), [1, 0]), np.kron(c, a),
                               atol=1e-14)


def test_permute_factors_rejects_a_non_permutation():
    with pytest.raises(ValueError):
        permute_factors(random_vector(4), (2, 2), [0, 0])


# ---------------------------------------------------------------------------
# expm
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dim", [1, 2, 5, 16, 32])
@pytest.mark.parametrize("norm", [0.0, 0.3, 7.0, 400.0])
def test_expm_matches_the_spectral_exponential(dim, norm):
    # A = -iH with ||A||_1 = norm; 400 is the size of 2πHτ on detuned chevron rows
    a = RNG.normal(size=(dim, dim)) + 1j * RNG.normal(size=(dim, dim))
    H = (a + a.conj().T) / 2
    H *= norm / np.abs(H).sum(axis=0).max()
    evals, vecs = np.linalg.eigh(H)
    spectral = (vecs * np.exp(-1j * evals)) @ vecs.conj().T
    np.testing.assert_allclose(expm(-1j * H), spectral, rtol=0, atol=1e-12)


def test_expm_of_a_nilpotent_matrix_is_its_finite_series():
    # not Hermitian: exp([[0, x], [0, 0]]) = [[1, x], [0, 1]]
    np.testing.assert_array_equal(expm([[0.0, 3.0], [0.0, 0.0]]), [[1, 3], [0, 1]])


# ---------------------------------------------------------------------------
# norm checks
# ---------------------------------------------------------------------------

def test_checked_state_holds_the_library_norm_bound():
    psi = random_vector(6)
    assert checked_state(psi) is psi
    for bad in (psi * (1 + 1e-9), np.full(6, np.nan)):
        with pytest.raises(InvariantError):
            checked_state(bad)


def test_propagate_checks_the_norm_of_its_start_state():
    cfg = DeviceConfig.default()
    start = 2 * basis_vector(device_dims(cfg, 1), 0)
    with pytest.raises(InvariantError):
        propagate(start, (Segment(1.0, (cfg.f_bus,)),), cfg, sample_dt=1.0, qubits=(0,))
