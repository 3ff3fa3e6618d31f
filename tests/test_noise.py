import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fullspace import permute_factors
from qproc_sim.circuits import build_shor, output_distribution, run_circuit
from qproc_sim.hilbert import DensityMatrix, InvariantError, partial_trace, qubit_ket
from qproc_sim.noise import (
    NoiseParams,
    _step_superoperator,
    apply_noise_step,
    damping_kraus,
    dephasing_kraus,
)

RNG = np.random.default_rng(99)


def damping_only(t1, n=3):
    return NoiseParams(t1=(t1,) * n, t_phi=(math.inf,) * n)


def random_two_qubit_dm():
    a = RNG.normal(size=(4, 4)) + 1j * RNG.normal(size=(4, 4))
    rho = a @ a.conj().T
    return DensityMatrix(rho / np.trace(rho))


def trace_distance(rho, sigma):
    return 0.5 * np.abs(np.linalg.eigvalsh(rho.elements - sigma.elements)).sum()


# ---------------------------------------------------------------------------
# Kraus pairs
# ---------------------------------------------------------------------------

def test_damping_zero_interval():
    K0, K1 = damping_kraus(0.0, 400.0)
    np.testing.assert_allclose(K0, np.eye(2))
    np.testing.assert_allclose(K1, np.zeros((2, 2)))


def test_damping_excited_population_decay():
    K0, K1 = damping_kraus(400.0, 400.0)
    rho_e = np.diag([0.0, 1.0]).astype(complex)
    after = K0 @ rho_e @ K0.conj().T + K1 @ rho_e @ K1.conj().T
    assert after[1, 1].real == pytest.approx(math.exp(-1), abs=1e-12)
    assert after[0, 0].real == pytest.approx(1 - math.exp(-1), abs=1e-12)


def test_kraus_completeness():
    for _ in range(10):
        dt = float(RNG.uniform(0, 500))
        t = float(RNG.uniform(50, 1000))
        for pair in (damping_kraus(dt, t), dephasing_kraus(dt, t)):
            total = sum(K.conj().T @ K for K in pair)
            np.testing.assert_allclose(total, np.eye(2), atol=1e-12)


def test_damping_rejects_negative_dt():
    with pytest.raises(ValueError):
        damping_kraus(-1.0, 100.0)
    with pytest.raises(ValueError):
        dephasing_kraus(-1.0, 100.0)


def test_dephasing_zero_interval_is_identity():
    K0, K1 = dephasing_kraus(0.0, 200.0)
    np.testing.assert_allclose(K0, np.eye(2))
    np.testing.assert_allclose(K1, np.zeros((2, 2)))


def test_dephasing_equator_coherence_decay():
    K0, K1 = dephasing_kraus(200.0, 200.0)
    plus = np.full((2, 2), 0.5, dtype=complex)
    after = K0 @ plus @ K0.conj().T + K1 @ plus @ K1.conj().T
    # Bloch x-component = 2 Re rho_ge
    assert 2 * after[0, 1].real == pytest.approx(math.exp(-1), abs=1e-12)
    np.testing.assert_allclose(np.diag(after).real, [0.5, 0.5], atol=1e-12)


def test_dephasing_preserves_diagonal_states():
    rho = DensityMatrix(np.diag([0.3, 0.7]).astype(complex))
    params = NoiseParams(t1=(math.inf,), t_phi=(123.0,))
    after = apply_noise_step(rho, params, dt=57.0)
    np.testing.assert_allclose(after.elements, rho.elements, atol=1e-12)


# ---------------------------------------------------------------------------
# composite channel
# ---------------------------------------------------------------------------

def test_infinite_times_are_identity_channel():
    rho = random_two_qubit_dm()
    params = NoiseParams(t1=(math.inf, math.inf), t_phi=(math.inf, math.inf))
    after = apply_noise_step(rho, params, dt=1000.0)
    np.testing.assert_allclose(after.elements, rho.elements, atol=1e-12)


def test_damping_fixed_point_is_ground():
    ghz = (qubit_ket("ggg").amplitudes + qubit_ket("eee").amplitudes) / math.sqrt(2)
    rho = DensityMatrix(np.outer(ghz, ghz.conj()))
    after = apply_noise_step(rho, damping_only(1.0), dt=1e5)
    target = np.zeros((8, 8), dtype=complex)
    target[0, 0] = 1.0
    np.testing.assert_allclose(after.elements, target, atol=1e-12)


def test_noise_preserves_trace():
    rho = random_two_qubit_dm()
    params = NoiseParams.default(2)
    after = apply_noise_step(rho, params, dt=37.0)
    assert np.trace(after.elements).real == pytest.approx(1.0, abs=1e-12)


coherence_times = st.one_of(st.floats(1.0, 1e4), st.just(math.inf))


@settings(derandomize=True, deadline=None, max_examples=50)
@given(dt=st.floats(0.0, 1000.0), t1=coherence_times, t_phi=coherence_times)
def test_noise_step_is_trace_preserving_and_completely_positive(dt, t1, t_phi):
    # Choi matrix J = Σ_K (I ⊗ K)|Φ⟩⟨Φ|(I ⊗ K)†, |Φ⟩ = |gg⟩ + |ee⟩, K = dephasing ∘ damping
    phi = np.array([1, 0, 0, 1], dtype=complex)
    kraus = [D @ A for A in damping_kraus(dt, t1) for D in dephasing_kraus(dt, t_phi)]
    choi = sum(np.outer(v, v.conj()) for v in (np.kron(np.eye(2), K) @ phi for K in kraus))
    assert np.linalg.eigvalsh(choi).min() >= -1e-12
    # tracing out the output factor leaves the identity on the input: trace preserved
    np.testing.assert_allclose(np.einsum("iaja->ij", choi.reshape(2, 2, 2, 2)), np.eye(2),
                               rtol=0, atol=1e-12)
    # J is the step apply_noise_step takes, run on the system half of |Φ⟩⟨Φ|/2
    params = NoiseParams(t1=(math.inf, t1), t_phi=(math.inf, t_phi))
    rho = DensityMatrix(np.outer(phi, phi.conj()) / 2)
    step = apply_noise_step(rho, params, dt)  # qubit 0's infinite times: an identity
    np.testing.assert_allclose(2 * step.elements, choi, rtol=0, atol=1e-12)


def dense_noise_step(rho, params, dt, qubits):
    """Reference form: every Kraus operator as a dense full-space matrix."""
    dims = (2,) * rho.n_qubits
    mat = rho.elements
    for q in qubits:
        for kraus in (damping_kraus(dt, params.t1[q]), dephasing_kraus(dt, params.t_phi[q])):
            out = np.zeros_like(mat)
            for K in kraus:
                big = np.eye(1)
                for k, dim in enumerate(dims):
                    big = np.kron(big, K if k == q else np.eye(dim))
                out += big @ mat @ big.conj().T
            mat = out
    return 0.5 * (mat + mat.conj().T)


def test_noise_step_matches_dense_kraus_form():
    d = 16
    a = RNG.normal(size=(d, d)) + 1j * RNG.normal(size=(d, d))
    rho = DensityMatrix(a @ a.conj().T / np.trace(a @ a.conj().T))
    params = NoiseParams(t1=(300.0, 1.0, 450.0, 380.0), t_phi=(150.0, 1.0, 260.0, 210.0))
    for qubits in ((0, 1, 2, 3), (3, 0), (2,)):
        # the step on a subset is the step with infinite times on every other qubit
        masked = NoiseParams(*([v if q in qubits else math.inf for q, v in enumerate(times)]
                               for times in (params.t1, params.t_phi)))
        after = apply_noise_step(rho, masked, dt=42.0)
        expected = dense_noise_step(rho, params, 42.0, qubits)
        assert np.max(np.abs(after.elements - expected)) <= 1e-14


def test_noise_commutes_with_relabeling_for_symmetric_params():
    rho = random_two_qubit_dm()
    params = NoiseParams.default(2)
    swap = lambda mat: permute_factors(mat, (2, 2), [1, 0])
    swapped_first = apply_noise_step(DensityMatrix(swap(rho.elements)), params, dt=25.0)
    noise_first = swap(apply_noise_step(rho, params, dt=25.0).elements)
    np.testing.assert_allclose(swapped_first.elements, noise_first, atol=1e-12)


# ---------------------------------------------------------------------------
# circuit-level behavior
# ---------------------------------------------------------------------------

def test_control_circuit_fidelity_window_and_monotonicity():
    # two H gates separated by two entangling-gate idle slots; damping only
    circuit = build_shor("control")
    fidelities = []
    for t1 in (200.0, 400.0, 800.0, 1600.0):
        run = run_circuit(circuit, noise=damping_only(t1))
        register = partial_trace(run.final, {0})
        fidelities.append(register.elements[0, 0].real)
    assert all(0.8 < f < 1.0 for f in fidelities)
    assert all(a < b for a, b in zip(fidelities, fidelities[1:]))


def test_noisy_run_converges_to_ideal():
    circuit = build_shor("three_qubit")
    big = 1e9
    noisy = run_circuit(circuit, noise=NoiseParams(t1=(big,) * 3, t_phi=(big,) * 3))
    ideal = run_circuit(circuit).final.density_matrix()
    assert trace_distance(noisy.final, ideal) <= 1e-6


def test_noisy_shor_success_probability_bounded_and_monotone():
    circuit = build_shor("three_qubit")
    successes = []
    for t1 in (200.0, 400.0, 800.0, 1600.0):
        run = run_circuit(circuit, noise=NoiseParams(t1=(t1,) * 3, t_phi=(200.0,) * 3))
        dist = output_distribution(run.final, circuit.output_bits)
        successes.append(dist[0b10])
    assert all(s <= 0.5 + 1e-12 for s in successes)
    assert all(a < b for a, b in zip(successes, successes[1:]))


def test_apply_noise_step_rejects_bad_input():
    rho = random_two_qubit_dm()
    params = NoiseParams.default(2)
    with pytest.raises(ValueError):
        apply_noise_step(rho, params, dt=-1.0)


@pytest.mark.parametrize("bare, message", [
    ([[0.5, 2e-10], [0, 0.5]], "not Hermitian"),
    ([[np.inf, 0], [0, 1]], "not finite"),
    ([[0.5, np.nan], [np.nan, 0.5]], "not finite"),
])
def test_noise_step_checks_a_bare_matrix_before_it_re_symmetrizes(bare, message):
    # a gate's bare result is checked here once; the re-symmetrized output would hide the
    # Hermiticity defect, and inf must fail before the check computes with it
    with pytest.raises(InvariantError, match=message):
        apply_noise_step(np.array(bare, dtype=complex), NoiseParams.default(1), dt=10.0)
    rho = np.diag([0.25, 0.75]).astype(complex)
    np.testing.assert_array_equal(
        apply_noise_step(rho, NoiseParams.default(1), dt=10.0).elements,
        apply_noise_step(DensityMatrix(rho), NoiseParams.default(1),
                         dt=10.0).elements)


@pytest.mark.parametrize("n, listed", [(2, 1), (3, 2), (4, 3)])
def test_apply_noise_step_rejects_params_for_fewer_qubits_than_the_state(n, listed):
    # a qubit beyond the params' lists used to end in an IndexError
    rho = DensityMatrix(np.eye(2**n, dtype=complex) / 2**n)
    params = NoiseParams.default(listed)
    with pytest.raises(ValueError, match=f"parameters list {listed} qubits; the state has {n}"):
        apply_noise_step(rho, params, dt=10.0)
    # more listed qubits than the state has: the state's own are stepped
    assert apply_noise_step(DensityMatrix(np.eye(2, dtype=complex) / 2), params,
                            dt=10.0).n_qubits == 1


def test_noise_params_validation_and_roundtrip():
    with pytest.raises(ValueError):
        NoiseParams(t1=(0.0,), t_phi=(100.0,))
    params = NoiseParams.default(4)
    assert params.invented_default
    again = NoiseParams.from_dict(params.to_dict(), n_qubits=4)
    assert again == params
    no_dephasing = NoiseParams.from_dict({"t1_ns": [300, 300], "t_phi_ns": ["inf", "inf"]},
                                         n_qubits=2)
    assert math.isinf(no_dephasing.t_phi[0])


@pytest.mark.parametrize("dt, t1, t_phi", [(10.0, 400.0, 200.0), (50.0, 400.0, 200.0),
                                           (42.0, 300.0, math.inf), (0.0, 1.0, 1.0),
                                           (7.5, math.inf, math.inf)])
def test_step_superoperator_is_cached_read_only_and_composes_the_two_channels(dt, t1, t_phi):
    step = _step_superoperator(dt, t1, t_phi)
    assert _step_superoperator(dt, t1, t_phi) is step
    with pytest.raises(ValueError):
        step[0, 0] = 0.0
    # Σ K ⊗ K̄ maps the row-major (row, column) pair of ρ as ρ ↦ Σ K ρ K†
    damping, dephasing = (sum(np.kron(K, K.conj()) for K in builder(dt, t))
                          for builder, t in ((damping_kraus, t1), (dephasing_kraus, t_phi)))
    assert np.max(np.abs(step - dephasing @ damping)) <= 1e-15
    rho = random_two_qubit_dm()
    reduced = partial_trace(rho, {1}).elements
    kraus = [D @ A for A in damping_kraus(dt, t1) for D in dephasing_kraus(dt, t_phi)]
    expected = sum(K @ reduced @ K.conj().T for K in kraus)
    assert np.max(np.abs((step @ reduced.reshape(-1)).reshape(2, 2) - expected)) <= 1e-15


@pytest.mark.parametrize("t1, t_phi", [("1111", (200.0,) * 4), ((400.0,) * 4, "2222"),
                                       (400.0, (200.0,)), ((400.0,), {"q": 200.0})])
def test_noise_params_reject_a_non_list_per_qubit_value(t1, t_phi):
    # a string used to be read one qubit per character
    with pytest.raises(ValueError, match="must list one value per qubit"):
        NoiseParams(t1=t1, t_phi=t_phi)


@pytest.mark.parametrize("change", [
    {"t1": (True,) * 4}, {"t_phi": (200.0, 200.0, "200", 200.0)}, {"t1": np.array([True] * 4)},
    {"t_phi": (200.0, None, 200.0, 200.0)}, {"gate_time_1q": True}, {"gate_time_1q": "10"},
    {"gate_time_2q": None}, {"gate_time_2q": np.False_},
])
def test_noise_params_reject_a_bool_or_non_number(change):
    # float() read True as 1 ns; a bool gate time was stored as is, and a str one raised TypeError
    with pytest.raises(ValueError, match="must hold numbers"):
        NoiseParams(**dict(t1=(400.0,) * 4, t_phi=(200.0,) * 4) | change)


def test_noise_params_store_every_time_as_a_float():
    params = NoiseParams(t1=(400,) * 4, t_phi=(np.float32(200.0),) * 4, gate_time_1q=10,
                         gate_time_2q=np.int64(50))
    times = (*params.t1, *params.t_phi, params.gate_time_1q, params.gate_time_2q)
    assert all(type(t) is float for t in times)
    assert NoiseParams.from_dict(params.to_dict()) == params
