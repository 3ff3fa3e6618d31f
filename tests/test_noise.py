import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qproc_sim.circuits import build_shor, output_distribution, run_circuit
from qproc_sim.hilbert import (
    DensityMatrix,
    SpaceLayout,
    partial_trace,
    permute_factors,
    qubit,
    qubit_ket,
    resonator,
)
from qproc_sim.noise import (
    NoiseParams,
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
    return DensityMatrix(SpaceLayout.qubits(2), rho / np.trace(rho))


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
    rho = DensityMatrix(SpaceLayout.qubits(1), np.diag([0.3, 0.7]).astype(complex))
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
    rho = DensityMatrix(SpaceLayout.qubits(3), np.outer(ghz, ghz.conj()))
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
    rho = DensityMatrix(SpaceLayout.qubits(2), np.outer(phi, phi.conj()) / 2)
    step = apply_noise_step(rho, params, dt, qubits=(1,))
    np.testing.assert_allclose(2 * step.elements, choi, rtol=0, atol=1e-12)


def dense_noise_step(rho, params, dt, qubits):
    """Reference form: every Kraus operator as a dense full-space matrix."""
    dims = rho.layout.dims
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
    layout = SpaceLayout((qubit(), resonator(2), qubit(), qubit()))
    d = layout.total_dim
    a = RNG.normal(size=(d, d)) + 1j * RNG.normal(size=(d, d))
    rho = DensityMatrix(layout, a @ a.conj().T / np.trace(a @ a.conj().T))
    params = NoiseParams(t1=(300.0, 1.0, 450.0, 380.0), t_phi=(150.0, 1.0, 260.0, 210.0))
    for qubits in (None, (3, 0)):
        after = apply_noise_step(rho, params, dt=42.0, qubits=qubits)
        expected = dense_noise_step(rho, params, 42.0, (0, 2, 3) if qubits is None else qubits)
        assert np.max(np.abs(after.elements - expected)) <= 1e-14


def test_noise_commutes_with_relabeling_for_symmetric_params():
    rho = random_two_qubit_dm()
    params = NoiseParams.default(2)
    swapped_first = apply_noise_step(permute_factors(rho, [1, 0]), params, dt=25.0)
    noise_first = permute_factors(apply_noise_step(rho, params, dt=25.0), [1, 0])
    np.testing.assert_allclose(swapped_first.elements, noise_first.elements, atol=1e-12)


# ---------------------------------------------------------------------------
# circuit-level behavior
# ---------------------------------------------------------------------------

def test_control_circuit_fidelity_window_and_monotonicity():
    # two H gates separated by two entangling-gate idle slots; damping only
    circuit = build_shor("control")
    fidelities = []
    for t1 in (200.0, 400.0, 800.0, 1600.0):
        run = run_circuit(circuit, mode="noisy_density", noise=damping_only(t1))
        register = partial_trace(run.final, {0})
        fidelities.append(register.elements[0, 0].real)
    assert all(0.8 < f < 1.0 for f in fidelities)
    assert all(a < b for a, b in zip(fidelities, fidelities[1:]))


def test_noisy_run_converges_to_ideal():
    circuit = build_shor("three_qubit")
    big = 1e9
    noisy = run_circuit(circuit, mode="noisy_density",
                        noise=NoiseParams(t1=(big,) * 3, t_phi=(big,) * 3))
    ideal = run_circuit(circuit).final.density_matrix()
    assert trace_distance(noisy.final, ideal) <= 1e-6


def test_noisy_shor_success_probability_bounded_and_monotone():
    circuit = build_shor("three_qubit")
    successes = []
    for t1 in (200.0, 400.0, 800.0, 1600.0):
        run = run_circuit(circuit, mode="noisy_density",
                          noise=NoiseParams(t1=(t1,) * 3, t_phi=(200.0,) * 3))
        dist = output_distribution(run.final, circuit.output_bits)
        successes.append(dist[0b10])
    assert all(s <= 0.5 + 1e-12 for s in successes)
    assert all(a < b for a, b in zip(successes, successes[1:]))


def test_apply_noise_step_rejects_bad_input():
    rho = random_two_qubit_dm()
    params = NoiseParams.default(2)
    with pytest.raises(ValueError):
        apply_noise_step(rho, params, dt=-1.0)


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
