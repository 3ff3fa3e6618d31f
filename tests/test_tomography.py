import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import settings as hypothesis_settings
from hypothesis import strategies as st

from qproc_sim.circuits import SINGLE_QUBIT_GATES, build_shor, factor_fifteen, run_circuit
from qproc_sim.hilbert import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    DensityMatrix,
    QuantumState,
    SpaceLayout,
    permute_factors,
    qubit_ket,
    superposition_ket,
)
from qproc_sim.noise import NoiseParams
from qproc_sim.tomography import (
    GaugeFidelity,
    _linear_inversion,
    _setting_unitaries,
    MeasurementSetting,
    TomographyRecord,
    all_settings,
    bell_phi_plus,
    bell_singlet,
    concurrence_eof,
    ghz_state,
    linear_entropy,
    max_abs_imag,
    phase_gauged_fidelity,
    reconstruct,
    reconstruct_from_frequencies,
    register_density_matrix,
    setting_probabilities,
    simulate_tomography,
    state_fidelity,
    uhlmann_fidelity,
    w_state,
    witness_check,
)

RNG = np.random.default_rng(2718)


def bell_triplet():
    """Symmetric single-excitation Bell state (the resonant-exchange product)."""
    return superposition_ket([("ge", 1), ("eg", 1)])


def random_pure(n):
    amps = RNG.normal(size=2 ** n) + 1j * RNG.normal(size=2 ** n)
    return QuantumState(SpaceLayout.qubits(n), amps / np.linalg.norm(amps))


def random_dm(n):
    d = 2 ** n
    a = RNG.normal(size=(d, d)) + 1j * RNG.normal(size=(d, d))
    rho = a @ a.conj().T
    return DensityMatrix(SpaceLayout.qubits(n), rho / np.trace(rho))


def haar_unitary_2():
    z = RNG.normal(size=(2, 2)) + 1j * RNG.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def trace_distance(a, b):
    return 0.5 * np.abs(np.linalg.eigvalsh(a - b)).sum()


def psi3_state():
    return superposition_ket([("ggg", 1), ("egg", 1), ("gee", 1), ("eee", -1)])


# ---------------------------------------------------------------------------
# settings and sampling
# ---------------------------------------------------------------------------

def test_settings_enumeration():
    settings = all_settings(2)
    assert len(settings) == 9
    assert settings[0] == MeasurementSetting(("I", "I"))
    assert len(set(settings)) == 9
    with pytest.raises(ValueError):
        MeasurementSetting(("Z_half",))


def test_ground_state_identity_setting_is_deterministic():
    record = simulate_tomography(qubit_ket("g"), (0,), shots_per_setting=500, seed=1)
    assert record.counts[0] == {"0": 500, "1": 0}


def test_ground_state_equator_setting_is_balanced():
    probs = setting_probabilities(qubit_ket("g").density_matrix())[
        all_settings(1).index(MeasurementSetting(("X_half",)))]
    np.testing.assert_allclose(probs, [0.5, 0.5], atol=1e-12)


def test_singlet_joint_equator_setting_anticorrelates():
    probs = setting_probabilities(bell_singlet().density_matrix())[
        all_settings(2).index(MeasurementSetting(("X_half", "X_half")))]
    np.testing.assert_allclose(probs, [0.0, 0.5, 0.5, 0.0], atol=1e-12)


def test_simulate_tomography_rejects_empty_register():
    with pytest.raises(ValueError):
        simulate_tomography(qubit_ket("g"), (), 100, seed=0)


def test_tomography_determinism():
    state = w_state()
    a = simulate_tomography(state, (0, 1, 2), 200, seed=42)
    b = simulate_tomography(state, (0, 1, 2), 200, seed=42)
    assert a.counts == b.counts
    assert a.to_dict() == b.to_dict()


def test_register_reduction_traces_spectators():
    run = run_circuit(build_shor("three_qubit"))
    reduced = register_density_matrix(run.final, (0,))
    np.testing.assert_allclose(reduced.elements, np.eye(2) / 2, atol=1e-12)


# ---------------------------------------------------------------------------
# batched forward model against the per-setting Kronecker form it replaced
# ---------------------------------------------------------------------------

ORACLE_ROTATIONS = {
    "I": np.eye(2, dtype=complex),
    "X_half": SINGLE_QUBIT_GATES["X_half"],
    "Y_half": SINGLE_QUBIT_GATES["Y_half"],
}


def kron_chain_unitary(setting):
    mat = np.eye(1, dtype=complex)
    for r in setting.pre_rotations:
        mat = np.kron(mat, ORACLE_ROTATIONS[r])
    return mat


def per_setting_probabilities(rho, setting):
    U = kron_chain_unitary(setting)
    rotated = U @ rho.elements @ U.conj().T
    return np.clip(np.real(np.diag(rotated)), 0.0, None)


def per_setting_counts(state, qubits, shots, seed):
    """The sampling loop of simulate_tomography before the batched forward model."""
    qubits = tuple(sorted(set(qubits)))
    rho = register_density_matrix(state, qubits)
    n = len(qubits)
    settings = all_settings(n)
    streams = np.random.SeedSequence(seed).spawn(len(settings))
    counts = []
    for setting, stream in zip(settings, streams):
        probs = per_setting_probabilities(rho, setting)
        probs = probs / probs.sum()
        draws = np.random.default_rng(stream).multinomial(shots, probs)
        counts.append({format(m, f"0{n}b"): int(c) for m, c in enumerate(draws)})
    return tuple(counts)


def assert_matches_per_setting_oracle(rho):
    probs = setting_probabilities(rho)
    settings = all_settings(rho.layout.n_factors)
    assert probs.shape == (len(settings), rho.layout.total_dim)
    for row, setting in zip(probs, settings, strict=True):
        assert np.array_equal(row, per_setting_probabilities(rho, setting))


def fortran_ordered(rho):
    """The same state with column-major elements, as a transposed product leaves them."""
    return DensityMatrix(rho.layout, np.asfortranarray(rho.elements))


def named_register_states():
    w4 = w_state(4).density_matrix()
    return {
        "singlet": bell_singlet(), "triplet": bell_triplet(), "phi_plus": bell_phi_plus(),
        "W3": w_state(), "W4": w_state(4), "GHZ3": ghz_state(), "GHZ4": ghz_state(4),
        "psi3": psi3_state(), "W4_permuted": permute_factors(w4, (3, 1, 0, 2)),
        "W4_fortran": fortran_ordered(w4),
    }


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_setting_unitaries_match_kron_chain(n):
    stack = _setting_unitaries(n)
    settings = all_settings(n)
    assert stack.shape == (3 ** n, 2 ** n, 2 ** n)
    for U, setting in zip(stack, settings, strict=True):
        assert np.array_equal(U, kron_chain_unitary(setting))


@st.composite
def register_density_matrices(draw):
    """Random states of rank 1..d on 1..4 qubits, some basis amplitudes exactly 0."""
    n = draw(st.integers(1, 4))
    d = 2 ** n
    rank = draw(st.integers(1, d))
    zeros = draw(st.lists(st.booleans(), min_size=d, max_size=d).filter(lambda z: not all(z)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    vecs = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    vecs[np.array(zeros)] = 0.0
    mat = (vecs * rng.uniform(0.1, 1.0, size=rank)) @ vecs.conj().T
    rho = DensityMatrix(SpaceLayout.qubits(n), mat / np.trace(mat).real)
    return fortran_ordered(rho) if draw(st.booleans()) else rho


@hypothesis_settings(derandomize=True, deadline=None, max_examples=40)
@given(rho=register_density_matrices())
def test_batched_probabilities_match_per_setting_oracle(rho):
    assert_matches_per_setting_oracle(rho)


@pytest.mark.parametrize("name", list(named_register_states()))
def test_batched_forward_model_matches_oracle_on_named_states(name):
    state = named_register_states()[name]
    rho = register_density_matrix(state, range(state.layout.n_factors))
    assert_matches_per_setting_oracle(rho)
    for seed in (3, 11):
        record = simulate_tomography(state, range(state.layout.n_factors), 100, seed)
        assert record.counts == per_setting_counts(state, range(state.layout.n_factors), 100, seed)


@pytest.mark.parametrize("variant", ["three_qubit", "four_qubit", "control"])
def test_batched_counts_match_oracle_on_noisy_shor_registers(variant):
    circuit = build_shor(variant)
    _, run = factor_fifteen(variant, 100, 5, "noisy_density", NoiseParams.default(circuit.n_qubits))
    registers = [(state, circuit.analysis_qubits) for state in run.breakpoint_states.values()]
    registers.append((run.final, (circuit.analysis_qubits[0],)))
    for k, (state, qubits) in enumerate(registers):
        assert_matches_per_setting_oracle(register_density_matrix(state, qubits))
        record = simulate_tomography(state, qubits, 1000, 7 + k)
        assert record.counts == per_setting_counts(state, qubits, 1000, 7 + k)


# ---------------------------------------------------------------------------
# reconstruction
# ---------------------------------------------------------------------------

def test_exact_probability_roundtrip_random_states():
    for n in (1, 2, 3):
        state = random_pure(n)
        rho = state.density_matrix()
        settings = all_settings(n)
        freqs = [setting_probabilities(rho)[all_settings(n).index(s)] for s in settings]
        rho_hat = reconstruct_from_frequencies(settings, freqs, n)
        assert state_fidelity(rho_hat, state) >= 0.999


def test_sampled_roundtrip_named_states():
    for state in (bell_singlet(), w_state(), ghz_state(), psi3_state()):
        n = state.layout.n_factors
        record = simulate_tomography(state, tuple(range(n)), 10_000, seed=5)
        rho_hat = reconstruct(record)
        assert state_fidelity(rho_hat, state) >= 0.98
        assert np.trace(rho_hat.elements).real == pytest.approx(1.0, abs=1e-9)
        assert np.linalg.eigvalsh(rho_hat.elements).min() >= -1e-12


def test_maximally_mixed_reconstruction_converges():
    mixed = DensityMatrix(SpaceLayout.qubits(1), np.eye(2) / 2)
    record = simulate_tomography(mixed, (0,), 100_000, seed=9)
    rho_hat = reconstruct(record)
    assert trace_distance(rho_hat.elements, np.eye(2) / 2) <= 0.02


def test_reconstruct_rejects_missing_settings():
    state = qubit_ket("g")
    record = simulate_tomography(state, (0,), 100, seed=0)
    crippled = TomographyRecord(
        qubits=record.qubits,
        settings=record.settings[:2],
        shots_per_setting=record.shots_per_setting,
        seed=record.seed,
        counts=record.counts[:2],
    )
    with pytest.raises(ValueError):
        reconstruct(crippled)


def test_reconstruct_rejects_duplicate_settings():
    record = simulate_tomography(qubit_ket("g"), (0,), 100, seed=0)
    doubled = TomographyRecord(
        qubits=record.qubits,
        settings=record.settings + record.settings[:1],
        shots_per_setting=record.shots_per_setting,
        seed=record.seed,
        counts=record.counts + record.counts[:1],
    )
    with pytest.raises(ValueError):
        reconstruct(doubled)


def pauli_string_inversion(settings, frequencies, n):
    """Reference estimator: one Kronecker product per Pauli string, each
    expectation averaged over every setting whose rotations read it."""
    letter_to_rotation = {"Z": ("I", 1.0), "Y": ("X_half", 1.0), "X": ("Y_half", -1.0)}
    paulis = {"I": np.eye(2), "X": SIGMA_X, "Y": SIGMA_Y, "Z": SIGMA_Z}
    dim = 2 ** n
    bits = (np.arange(dim)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    rho = np.zeros((dim, dim), dtype=complex)
    for letters in itertools.product("IXYZ", repeat=n):
        support = [q for q, letter in enumerate(letters) if letter != "I"]
        sign = math.prod(letter_to_rotation[letters[q]][1] for q in support)
        parity = (-1.0) ** bits[:, support].sum(axis=1)
        estimates = [
            float(parity @ freq)
            for setting, freq in zip(settings, frequencies)
            if all(setting.pre_rotations[q] == letter_to_rotation[letters[q]][0] for q in support)
        ]
        pauli = np.eye(1)
        for letter in letters:
            pauli = np.kron(pauli, paulis[letter])
        rho += sign * (sum(estimates) / len(estimates)) * pauli
    return rho / dim


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_linear_inversion_matches_pauli_string_oracle(n):
    # random, unphysical frequency tables, settings in shuffled list order
    settings = list(all_settings(n))
    RNG.shuffle(settings)
    freqs = [f / f.sum() for f in RNG.uniform(size=(len(settings), 2 ** n))]
    expected = pauli_string_inversion(settings, freqs, n)
    assert np.max(np.abs(_linear_inversion(settings, freqs, n) - expected)) <= 1e-12


def test_record_json_roundtrip():
    record = simulate_tomography(bell_singlet(), (0, 1), 300, seed=17)
    record.rho_hat = reconstruct(record)
    record.metrics = {"fidelity": state_fidelity(record.rho_hat, bell_singlet())}
    doc = json.loads(json.dumps(record.to_dict()))
    again = TomographyRecord.from_dict(doc)
    assert again.counts == record.counts
    assert again.metrics == pytest.approx(record.metrics)
    np.testing.assert_allclose(again.rho_hat.elements, record.rho_hat.elements, atol=1e-12)


# ---------------------------------------------------------------------------
# fidelities
# ---------------------------------------------------------------------------

def test_state_fidelity_trivials():
    psi = random_pure(2)
    assert state_fidelity(psi.density_matrix(), psi) == pytest.approx(1.0)
    mixed = DensityMatrix(SpaceLayout.qubits(2), np.eye(4) / 4)
    assert state_fidelity(mixed, psi) == pytest.approx(0.25)


def test_state_fidelity_linearity():
    psi = random_pure(2)
    rho = DensityMatrix(
        SpaceLayout.qubits(2),
        0.75 * psi.density_matrix().elements + 0.25 * np.eye(4) / 4,
    )
    assert state_fidelity(rho, psi) == pytest.approx(0.8125)


def test_state_fidelity_dimension_mismatch():
    with pytest.raises(ValueError):
        state_fidelity(random_dm(2), random_pure(3))


def test_uhlmann_identity_and_pure_mixed_value():
    rho = random_dm(2)
    assert uhlmann_fidelity(rho, rho) == pytest.approx(1.0, abs=1e-9)
    ground = qubit_ket("g").density_matrix()
    mixed = DensityMatrix(SpaceLayout.qubits(1), np.eye(2) / 2)
    assert uhlmann_fidelity(ground, mixed) == pytest.approx(1 / math.sqrt(2), abs=1e-12)


def test_uhlmann_reduces_to_overlap_for_pure_argument():
    for _ in range(5):
        rho = random_dm(2)
        psi = random_pure(2)
        expected = math.sqrt(state_fidelity(rho, psi))
        assert uhlmann_fidelity(rho, psi.density_matrix()) == pytest.approx(expected, abs=1e-9)
        # symmetry
        assert uhlmann_fidelity(psi.density_matrix(), rho) == pytest.approx(expected, abs=1e-9)


# ---------------------------------------------------------------------------
# entanglement metrics
# ---------------------------------------------------------------------------

def test_concurrence_extremes():
    c, eof = concurrence_eof(bell_singlet().density_matrix())
    assert c == pytest.approx(1.0, abs=1e-9)
    assert eof == pytest.approx(1.0, abs=1e-9)
    c, eof = concurrence_eof(qubit_ket("ge").density_matrix())
    assert c == pytest.approx(0.0, abs=1e-9)
    assert eof == pytest.approx(0.0, abs=1e-9)


def test_werner_state_concurrence():
    p = 0.5
    rho = DensityMatrix(
        SpaceLayout.qubits(2),
        p * bell_singlet().density_matrix().elements + (1 - p) * np.eye(4) / 4,
    )
    c, _ = concurrence_eof(rho)
    assert c == pytest.approx((3 * p - 1) / 2, abs=1e-9)


def test_concurrence_local_unitary_invariance():
    rho = random_dm(2)
    c0, _ = concurrence_eof(rho)
    u = np.kron(haar_unitary_2(), haar_unitary_2())
    rotated = DensityMatrix(rho.layout, u @ rho.elements @ u.conj().T)
    c1, _ = concurrence_eof(rotated)
    assert c1 == pytest.approx(c0, abs=1e-9)


def test_concurrence_rejects_wrong_dimension():
    with pytest.raises(ValueError):
        concurrence_eof(random_dm(3))


def test_linear_entropy_values():
    assert linear_entropy(random_pure(1).density_matrix()) == pytest.approx(0.0, abs=1e-9)
    mixed = DensityMatrix(SpaceLayout.qubits(1), np.eye(2) / 2)
    assert linear_entropy(mixed) == pytest.approx(1.0, abs=1e-12)
    # purity 0.625 -> 2·(1 - 0.625) under the unit-normalized qubit convention
    rho = DensityMatrix(SpaceLayout.qubits(1), np.diag([0.75, 0.25]).astype(complex))
    assert linear_entropy(rho) == pytest.approx(0.75, abs=1e-12)
    two_qubit_mixed = DensityMatrix(SpaceLayout.qubits(2), np.eye(4) / 4)
    assert linear_entropy(two_qubit_mixed) == pytest.approx(1.0, abs=1e-12)


def test_linear_entropy_stays_in_unit_interval():
    for _ in range(5):
        rho = random_dm(1)
        assert 0.0 <= linear_entropy(rho) <= 1.0


def test_linear_entropy_of_projected_hermitian_input():
    # any Hermitian trace-1 matrix, once projected to the physical set,
    # must land inside [0, 1]
    from qproc_sim.hilbert import nearest_psd

    for _ in range(10):
        raw = RNG.normal(size=(2, 2)) + 1j * RNG.normal(size=(2, 2))
        raw = (raw + raw.conj().T) / 2
        raw = raw + (1 - np.trace(raw).real) * np.eye(2) / 2  # force trace 1
        projected = nearest_psd(raw, SpaceLayout.qubits(1))
        assert 0.0 <= linear_entropy(projected) <= 1.0


# ---------------------------------------------------------------------------
# witnesses
# ---------------------------------------------------------------------------

def test_witness_perfect_w_state():
    result = witness_check(w_state().density_matrix(), "W", w_state())
    assert result.passed
    assert result.margin == pytest.approx(1 / 3, abs=1e-9)


def test_witness_maximally_mixed_fails_ghz():
    mixed = DensityMatrix(SpaceLayout.qubits(3), np.eye(8) / 8)
    result = witness_check(mixed, "GHZ", ghz_state())
    assert not result.passed
    assert result.fidelity == pytest.approx(0.125)


def test_witness_marginal_w_state():
    # fidelity exactly 0.69: mix the target with the orthogonal uniform rest
    w = w_state().density_matrix().elements
    rho = DensityMatrix(SpaceLayout.qubits(3), 0.69 * w + 0.31 * (np.eye(8) - w) / 7)
    result = witness_check(rho, "W", w_state())
    assert result.passed
    assert result.margin == pytest.approx(0.69 - 2 / 3, abs=1e-9)


def test_witness_unknown_class():
    with pytest.raises(ValueError):
        witness_check(random_dm(3), "cluster", ghz_state())


# ---------------------------------------------------------------------------
# phase gauge
# ---------------------------------------------------------------------------

def test_gauge_aligns_triplet_with_singlet():
    result = phase_gauged_fidelity(bell_triplet(), bell_singlet())
    assert result.raw == pytest.approx(0.0, abs=1e-12)
    assert result.gauged == pytest.approx(1.0, abs=1e-9)


def test_gauge_aligns_ghz_sign():
    flipped = superposition_ket([("ggg", 1), ("eee", -1)])
    result = phase_gauged_fidelity(flipped, ghz_state())
    assert result.gauged == pytest.approx(1.0, abs=1e-9)


def test_gauge_never_below_raw():
    for _ in range(5):
        rho = random_dm(2)
        target = random_pure(2)
        result = phase_gauged_fidelity(rho, target)
        assert result.gauged >= result.raw - 1e-12
        assert isinstance(result, GaugeFidelity)


def test_gauge_fixed_point_for_exact_match():
    result = phase_gauged_fidelity(w_state(), w_state())
    assert result.raw == pytest.approx(1.0, abs=1e-12)
    assert result.gauged == pytest.approx(1.0, abs=1e-12)


def test_max_abs_imag_metric():
    assert max_abs_imag(bell_singlet().density_matrix()) == pytest.approx(0.0, abs=1e-12)
    y_state = QuantumState(SpaceLayout.qubits(1), np.array([1, 1j]) / math.sqrt(2))
    assert max_abs_imag(y_state.density_matrix()) == pytest.approx(0.5, abs=1e-12)


def test_reference_state_amplitudes():
    np.testing.assert_allclose(
        bell_singlet().amplitudes, np.array([0, 1, -1, 0]) / math.sqrt(2))
    w = w_state().amplitudes
    np.testing.assert_allclose(w[[1, 2, 4]], np.full(3, 1 / math.sqrt(3)))
    ghz = ghz_state().amplitudes
    np.testing.assert_allclose(ghz[[0, 7]], np.full(2, 1 / math.sqrt(2)))
    phi = bell_phi_plus().amplitudes
    np.testing.assert_allclose(phi[[0, 3]], np.full(2, 1 / math.sqrt(2)))
