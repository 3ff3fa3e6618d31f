import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import settings as hypothesis_settings
from hypothesis import strategies as st

from fullspace import permute_factors
from qproc_sim.circuits import (
    SINGLE_QUBIT_GATES,
    build_shor,
    factor_fifteen,
    run_circuit,
    sampling_distribution,
)
from qproc_sim.hilbert import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    DensityMatrix,
    QuantumState,
    qubit_ket,
    superposition_ket,
)
from qproc_sim.noise import NoiseParams
from qproc_sim.tomography import (
    _INVERSION_KERNEL,
    GaugeFidelity,
    _bit_table,
    _linear_inversion,
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
    return QuantumState(amps / np.linalg.norm(amps))


def random_dm(n):
    d = 2 ** n
    a = RNG.normal(size=(d, d)) + 1j * RNG.normal(size=(d, d))
    rho = a @ a.conj().T
    return DensityMatrix(rho / np.trace(rho))


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
    assert settings[0] == ("I", "I")
    assert settings[1] == ("I", "X_half")  # the last qubit's rotation varies fastest
    assert len(set(settings)) == 9
    assert all_settings(1) == (("I",), ("X_half",), ("Y_half",))


def test_ground_state_identity_setting_is_deterministic():
    record = simulate_tomography(qubit_ket("g"), (0,), shots_per_setting=500, seed=1)
    assert record.counts[0].tolist() == [500, 0]


def test_ground_state_equator_setting_is_balanced():
    probs = setting_probabilities(qubit_ket("g").density_matrix())[
        all_settings(1).index(("X_half",))]
    np.testing.assert_allclose(probs, [0.5, 0.5], atol=1e-12)


def test_singlet_joint_equator_setting_anticorrelates():
    probs = setting_probabilities(bell_singlet().density_matrix())[
        all_settings(2).index(("X_half", "X_half"))]
    np.testing.assert_allclose(probs, [0.0, 0.5, 0.5, 0.0], atol=1e-12)


def test_simulate_tomography_rejects_empty_register():
    with pytest.raises(ValueError):
        simulate_tomography(qubit_ket("g"), (), 100, seed=0)


def test_tomography_determinism():
    state = w_state()
    a = simulate_tomography(state, (0, 1, 2), 200, seed=42)
    b = simulate_tomography(state, (0, 1, 2), 200, seed=42)
    assert np.array_equal(a.counts, b.counts)
    assert a.to_dict() == b.to_dict()


def test_register_reduction_traces_spectators():
    run = run_circuit(build_shor("three_qubit"))
    reduced = register_density_matrix(run.final, (0,))
    np.testing.assert_allclose(reduced.elements, np.eye(2) / 2, atol=1e-12)


# ---------------------------------------------------------------------------
# forward model against the per-setting Kronecker form of the pre-rotation gates
# ---------------------------------------------------------------------------

ORACLE_ROTATIONS = {
    "I": np.eye(2, dtype=complex),
    "X_half": SINGLE_QUBIT_GATES["X_half"],
    "Y_half": SINGLE_QUBIT_GATES["Y_half"],
}


def kron_chain_unitary(setting):
    mat = np.eye(1, dtype=complex)
    for r in setting:
        mat = np.kron(mat, ORACLE_ROTATIONS[r])
    return mat


def per_setting_probabilities(rho, setting):
    U = kron_chain_unitary(setting)
    rotated = U @ rho.elements @ U.conj().T
    return np.clip(np.real(np.diag(rotated)), 0.0, None)


def per_setting_counts(state, qubits, shots, seed):
    """simulate_tomography's draw as a loop: one default_rng(seed) drawing each setting's
    rounded distribution in turn, in all_settings order."""
    qubits = tuple(sorted(set(qubits)))
    rho = register_density_matrix(state, qubits)
    rng = np.random.default_rng(seed)
    return np.array([
        rng.multinomial(shots, sampling_distribution(per_setting_probabilities(rho, setting)))
        for setting in all_settings(len(qubits))
    ])


def assert_matches_per_setting_oracle(rho):
    # the projector contraction and U ρ U† round differently; sampling rounds both to 9
    # decimals, so the counts below are still compared exactly
    probs = setting_probabilities(rho)
    settings = all_settings(rho.n_qubits)
    assert probs.shape == (len(settings), len(rho.elements))
    for row, setting in zip(probs, settings, strict=True):
        assert np.max(np.abs(row - per_setting_probabilities(rho, setting))) <= 1e-15


def fortran_ordered(rho):
    """The same state with column-major elements, as a transposed product leaves them."""
    return DensityMatrix(np.asfortranarray(rho.elements))


def named_register_states():
    w4 = w_state(4).density_matrix()
    return {
        "singlet": bell_singlet(), "triplet": bell_triplet(), "phi_plus": bell_phi_plus(),
        "W3": w_state(), "W4": w_state(4), "GHZ3": ghz_state(), "GHZ4": ghz_state(4),
        "psi3": psi3_state(),
        "W4_permuted": DensityMatrix(permute_factors(w4.elements, (2,) * 4, (3, 1, 0, 2))),
        "W4_fortran": fortran_ordered(w4),
    }


@st.composite
def register_density_matrices(draw):
    """Random states of rank 1..d on 1..5 qubits, some basis amplitudes exactly 0."""
    n = draw(st.integers(1, 5))
    d = 2 ** n
    rank = draw(st.integers(1, d))
    zeros = draw(st.lists(st.booleans(), min_size=d, max_size=d).filter(lambda z: not all(z)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    vecs = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    vecs[np.array(zeros)] = 0.0
    mat = (vecs * rng.uniform(0.1, 1.0, size=rank)) @ vecs.conj().T
    rho = DensityMatrix(mat / np.trace(mat).real)
    return fortran_ordered(rho) if draw(st.booleans()) else rho


def random_full_rank_states(n, count=10):
    rng = np.random.default_rng(n)
    for _ in range(count):
        a = rng.normal(size=(2 ** n, 2 ** n)) + 1j * rng.normal(size=(2 ** n, 2 ** n))
        yield DensityMatrix(a @ a.conj().T / np.trace(a @ a.conj().T).real)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_forward_model_matches_per_setting_oracle(n):
    for rho in random_full_rank_states(n):
        assert_matches_per_setting_oracle(rho)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_linear_inversion_inverts_the_forward_model(n):
    for rho in random_full_rank_states(n):
        rho_back = _linear_inversion(setting_probabilities(rho), n)
        assert np.max(np.abs(rho_back - rho.elements)) <= 1e-14


@hypothesis_settings(derandomize=True, deadline=None, max_examples=40)
@given(rho=register_density_matrices())
def test_batched_probabilities_match_per_setting_oracle(rho):
    assert_matches_per_setting_oracle(rho)


@pytest.mark.parametrize("name", list(named_register_states()))
def test_batched_forward_model_matches_oracle_on_named_states(name):
    state = named_register_states()[name]
    rho = register_density_matrix(state, range(state.n_qubits))
    assert_matches_per_setting_oracle(rho)
    for seed in (3, 11):
        record = simulate_tomography(state, range(state.n_qubits), 100, seed)
        assert np.array_equal(record.counts,
                              per_setting_counts(state, range(state.n_qubits), 100, seed))


@hypothesis_settings(derandomize=True, deadline=None, max_examples=40)
@given(rho=register_density_matrices(), shots=st.integers(1, 10 ** 6),
       seed=st.integers(0, 2 ** 140))
def test_simulate_tomography_matches_per_setting_oracle(rho, shots, seed):
    qubits = range(rho.n_qubits)
    record = simulate_tomography(rho, qubits, shots, seed)
    assert np.array_equal(record.counts, per_setting_counts(rho, qubits, shots, seed))


@pytest.mark.parametrize("variant", ["three_qubit", "four_qubit", "control"])
def test_batched_counts_match_oracle_on_noisy_shor_registers(variant):
    circuit = build_shor(variant)
    _, run = factor_fifteen(circuit, 100, 5, NoiseParams.default(circuit.n_qubits))
    registers = [(state, circuit.analysis_qubits) for state in run.breakpoint_states.values()]
    registers.append((run.final, (circuit.analysis_qubits[0],)))
    for k, (state, qubits) in enumerate(registers):
        assert_matches_per_setting_oracle(register_density_matrix(state, qubits))
        record = simulate_tomography(state, qubits, 1000, 7 + k)
        assert np.array_equal(record.counts, per_setting_counts(state, qubits, 1000, 7 + k))


# ---------------------------------------------------------------------------
# reconstruction
# ---------------------------------------------------------------------------

def test_exact_probability_roundtrip_random_states():
    for n in (1, 2, 3):
        state = random_pure(n)
        rho_hat = reconstruct_from_frequencies(setting_probabilities(state.density_matrix()))
        assert state_fidelity(rho_hat, state) >= 0.999


def test_sampled_roundtrip_named_states():
    for state in (bell_singlet(), w_state(), ghz_state(), psi3_state()):
        n = state.n_qubits
        record = simulate_tomography(state, tuple(range(n)), 10_000, seed=5)
        rho_hat = reconstruct(record)
        assert state_fidelity(rho_hat, state) >= 0.98
        assert np.trace(rho_hat.elements).real == pytest.approx(1.0, abs=1e-9)
        assert np.linalg.eigvalsh(rho_hat.elements).min() >= -1e-12


@pytest.mark.parametrize("name", ["Bell", "W", "GHZ", "psi3"])
def test_sampled_roundtrip_fidelity_holds_at_every_seed(name):
    # criterion 7's bound at 10k shots on a seed sweep, so it does not hold by one seed's luck
    state = {"Bell": bell_singlet(), "W": w_state(), "GHZ": ghz_state(), "psi3": psi3_state()}[name]
    qubits = tuple(range(state.n_qubits))
    fidelities = [state_fidelity(reconstruct(simulate_tomography(state, qubits, 10_000, seed)),
                                 state) for seed in range(20)]
    assert min(fidelities) >= 0.98, fidelities


def test_maximally_mixed_reconstruction_converges():
    mixed = DensityMatrix(np.eye(2) / 2)
    record = simulate_tomography(mixed, (0,), 100_000, seed=9)
    rho_hat = reconstruct(record)
    assert trace_distance(rho_hat.elements, np.eye(2) / 2) <= 0.02


def test_reconstruct_from_frequencies_rejects_wrong_shape():
    freqs = setting_probabilities(bell_singlet().density_matrix())
    for bad in (freqs[:8], freqs.reshape(6, 6), freqs.ravel()):
        with pytest.raises(ValueError):
            reconstruct_from_frequencies(bad)


def ground_record(counts):
    return TomographyRecord(qubits=(0,), shots_per_setting=100, seed=0, counts=counts)


@pytest.mark.parametrize("counts", [
    [[100, 0], [50, 50]],
    [[100, 0], [50, 50], [50, 50], [100, 0]],
    [[100, 0, 0], [50, 50, 0], [50, 50, 0]],
    [100, 0, 50, 50, 50, 50],
], ids=["missing_setting", "extra_setting", "extra_outcome", "flat"])
def test_record_rejects_counts_of_wrong_shape(counts):
    with pytest.raises(ValueError, match="shape"):
        ground_record(counts)


@pytest.mark.parametrize("counts", [
    [[100, 0], [50, 49], [50, 50]],
    [[100, 1], [50, 50], [50, 50]],
    [[101, -1], [50, 50], [50, 50]],
    [[100.0, 0.0], [50.0, 50.0], [50.0, 50.0]],
], ids=["short_row", "long_row", "negative", "float"])
def test_record_rejects_rows_that_are_not_shot_histograms(counts):
    assert ground_record([[100, 0], [50, 50], [50, 50]]).counts.dtype == np.int64
    with pytest.raises(ValueError):
        ground_record(counts)


@pytest.mark.parametrize("qubits, shots, seed", [
    ((), 100, 0), ((0, 0), 100, 0), ((-1,), 100, 0), ((0,), 0, 0), ((0,), 100, -1),
], ids=["empty_register", "repeated_qubit", "negative_qubit", "zero_shots", "negative_seed"])
def test_record_rejects_what_its_reader_rejects(qubits, shots, seed):
    # each would write a document that from_dict refuses
    counts = [[shots] + [0] * (2 ** len(qubits) - 1)] * 3 ** len(qubits)
    with pytest.raises(ValueError, match="a tomography record needs"):
        TomographyRecord(qubits=qubits, shots_per_setting=shots, seed=seed, counts=counts)


# constructor fields of a one-qubit record in its ground state: True if the record
# constructs and survives from_dict(record.to_dict()), False if construction raises
GROUND = np.array([[1, 0], [0, 0]], dtype=complex)
RECORD_CASES = {
    "plain": ({}, True),
    "numpy_integers": ({"qubits": (np.int64(2),), "shots_per_setting": np.int32(100),
                        "seed": np.uint64(7)}, True),
    "reconstruction": ({"rho_hat": DensityMatrix(GROUND),
                        "metrics": {"a": 1, "b": 0.5, "c": np.float64(0.25), "d": np.int64(3)}},
                       True),
    "bool_shots": ({"shots_per_setting": True}, False),
    "float_seed": ({"seed": 2.5}, False),
    "integral_float_seed": ({"seed": 2.0}, False),
    "bool_qubit": ({"qubits": (True,)}, False),
    "numpy_bool_qubit": ({"qubits": (np.True_,)}, False),
    "rho_hat_of_two_qubits": ({"rho_hat": DensityMatrix(np.eye(4) / 4)}, False),
    "rho_hat_as_array": ({"rho_hat": GROUND}, False),
    "bool_metric": ({"metrics": {"x": True}}, False),
    "string_metric": ({"metrics": {"x": "a"}}, False),
    "complex_metric": ({"metrics": {"x": 1j}}, False),
    "number_as_metric_name": ({"metrics": {1: 0.5}}, False),
}


@pytest.mark.parametrize("case", list(RECORD_CASES))
def test_record_accepts_exactly_what_from_dict_reads(case):
    fields, accepted = RECORD_CASES[case]
    fields = {"qubits": (0,), "shots_per_setting": 100, "seed": 0, **fields}
    shots = fields["shots_per_setting"]
    fields["counts"] = [[shots, 0]] * 3 if type(shots) is not bool else [[1, 0]] * 3
    if not accepted:
        with pytest.raises(ValueError):
            TomographyRecord(**fields)
        return
    record = TomographyRecord(**fields)
    doc = record.to_dict()
    assert TomographyRecord.from_dict(doc).to_dict() == doc
    assert json.loads(json.dumps(doc)) == doc


def ground_doc():
    return simulate_tomography(qubit_ket("g"), (0,), 100, seed=0).to_dict()


def _permuted(doc):
    doc["settings"].reverse()


def _duplicated(doc):
    doc["settings"][2] = doc["settings"][0]


def _missing_setting(doc):
    del doc["settings"][-1], doc["counts"][-1]


def _extra_label(doc):
    doc["counts"][0]["11"] = 0


def _missing_label(doc):
    del doc["counts"][0]["1"]


def _fractional_count(doc):
    doc["counts"][1]["0"] += 0.5
    doc["counts"][1]["1"] -= 0.5


def _missing_seed(doc):
    del doc["seed"]


def _string_shots(doc):
    doc["shots_per_setting"] = str(doc["shots_per_setting"])


def _boolean_seed(doc):
    doc["seed"] = True


def _string_qubit(doc):
    doc["qubits"] = ["0"]


def _negative_seed(doc):
    doc["seed"] = -1


def _boolean_count(doc):
    # sums to the shots: JSON true would otherwise be read as 1
    doc["counts"][0] = {"0": doc["shots_per_setting"] - 1, "1": True}


def _unknown_key(doc):
    doc["shots"] = doc["shots_per_setting"]


def _empty_register(doc):
    doc.update(qubits=[], settings=[[]], counts=[{"0": doc["shots_per_setting"]}])


def _zero_shots(doc):
    doc.update(shots_per_setting=0, counts=[{"0": 0, "1": 0}] * 3)


def bell_doc():
    record = simulate_tomography(bell_singlet(), (0, 1), 100, seed=0)
    record.rho_hat = reconstruct(record)
    record.metrics = {"max_abs_imag": max_abs_imag(record.rho_hat), "witness_passed": 1.0}
    return record.to_dict()


def _bell_with(name, key, value):
    """A corruption that swaps one field of a 2-qubit document, reconstruction included."""
    def corrupt(doc):
        doc.update(bell_doc(), **{key: value})
    corrupt.__name__ = name
    return corrupt


def _nan_rho_hat(doc):
    # JSON NaN parses to a float, so the density-matrix invariants must refuse it
    doc.update(bell_doc())
    doc["rho_hat"][0][1] = [json.loads("NaN"), 0.0]


def _infinite_rho_hat(doc):
    doc.update(bell_doc())
    doc["rho_hat"][1][1] = [json.loads("Infinity"), 0.0]


@pytest.mark.parametrize("corrupt", [_permuted, _duplicated, _missing_setting, _extra_label,
                                     _missing_label, _fractional_count, _missing_seed,
                                     _string_shots, _boolean_seed, _string_qubit,
                                     _negative_seed, _boolean_count, _unknown_key,
                                     _empty_register, _zero_shots,
                                     _nan_rho_hat, _infinite_rho_hat,
                                     # its settings and histograms intact, one qubit twice
                                     _bell_with("duplicate_qubits", "qubits", [0, 0]),
                                     _bell_with("number_settings", "settings", 5),
                                     _bell_with("number_qubits", "qubits", 5),
                                     _bell_with("number_counts", "counts", 5),
                                     _bell_with("number_histograms", "counts", [5] * 9),
                                     _bell_with("number_rho_hat", "rho_hat", 1),
                                     _bell_with("short_rho_hat", "rho_hat", [[1]]),
                                     _bell_with("number_metrics", "metrics", 5),
                                     _bell_with("list_metrics", "metrics", [[1, 2]]),
                                     _bell_with("string_metric", "metrics", {"f": "x"}),
                                     _bell_with("boolean_metric", "metrics", {"f": True})],
                         ids=lambda fn: fn.__name__.strip("_"))
def test_from_dict_rejects_non_canonical_documents(corrupt):
    doc = ground_doc()
    TomographyRecord.from_dict(doc)  # the canonical documents parse
    TomographyRecord.from_dict(bell_doc())
    corrupt(doc)
    with pytest.raises(ValueError):
        TomographyRecord.from_dict(doc)


def pauli_string_inversion(frequencies, n):
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
            for setting, freq in zip(all_settings(n), frequencies, strict=True)
            if all(setting[q] == letter_to_rotation[letters[q]][0] for q in support)
        ]
        pauli = np.eye(1)
        for letter in letters:
            pauli = np.kron(pauli, paulis[letter])
        rho += sign * (sum(estimates) / len(estimates)) * pauli
    return rho / dim


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_linear_inversion_matches_pauli_string_oracle(n):
    # random, unphysical frequency tables
    freqs = RNG.uniform(size=(3 ** n, 2 ** n))
    freqs /= freqs.sum(axis=1, keepdims=True)
    expected = pauli_string_inversion(freqs, n)
    assert np.max(np.abs(_linear_inversion(freqs, n) - expected)) <= 1e-12


def tensordot_inversion(frequencies, n):
    """_linear_inversion as written with np.tensordot on the (3, 2, 2, 2) kernel."""
    table = np.reshape(frequencies, (3,) * n + (2,) * n)
    for q in range(n):
        table = np.tensordot(table, _INVERSION_KERNEL.reshape(3, 2, 2, 2),
                             axes=([0, n - q], [0, 1]))
    order = list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2))
    return table.transpose(order).reshape(2 ** n, 2 ** n)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_linear_inversion_is_bit_identical_to_tensordot(n):
    freqs = RNG.uniform(size=(3 ** n, 2 ** n))
    freqs /= freqs.sum(axis=1, keepdims=True)
    assert np.array_equal(_linear_inversion(freqs, n), tensordot_inversion(freqs, n))


def test_record_json_roundtrip():
    record = simulate_tomography(bell_singlet(), (0, 1), 300, seed=17)
    record.rho_hat = reconstruct(record)
    record.metrics = {"fidelity": state_fidelity(record.rho_hat, bell_singlet())}
    doc = json.loads(json.dumps(record.to_dict()))
    again = TomographyRecord.from_dict(doc)
    assert np.array_equal(again.counts, record.counts)
    assert again.metrics == pytest.approx(record.metrics)
    np.testing.assert_allclose(again.rho_hat.elements, record.rho_hat.elements, atol=1e-12)


@st.composite
def tomography_records(draw):
    """Records on 1..4 qubits with random histograms, some with a reconstruction."""
    n = draw(st.integers(1, 4))
    shots = draw(st.integers(1, 1000))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    record = TomographyRecord(
        qubits=sorted(draw(st.sets(st.integers(0, 5), min_size=n, max_size=n))),
        shots_per_setting=shots,
        seed=draw(st.integers(0, 2 ** 63 - 1)),
        counts=rng.multinomial(shots, rng.dirichlet(np.ones(2 ** n)), size=3 ** n),
    )
    if draw(st.booleans()):
        record.rho_hat = reconstruct(record)
        record.metrics = {"max_abs_imag": max_abs_imag(record.rho_hat)}
    return record


@hypothesis_settings(derandomize=True, deadline=None, max_examples=40)
@given(record=tomography_records())
def test_record_json_roundtrip_is_exact(record):
    again = TomographyRecord.from_dict(json.loads(json.dumps(record.to_dict())))
    assert again.counts.dtype == np.int64
    assert np.array_equal(again.counts, record.counts)
    assert again.to_dict() == record.to_dict()


# ---------------------------------------------------------------------------
# fidelities
# ---------------------------------------------------------------------------

def test_state_fidelity_trivials():
    psi = random_pure(2)
    assert state_fidelity(psi.density_matrix(), psi) == pytest.approx(1.0)
    mixed = DensityMatrix(np.eye(4) / 4)
    assert state_fidelity(mixed, psi) == pytest.approx(0.25)


def test_state_fidelity_linearity():
    psi = random_pure(2)
    rho = DensityMatrix(0.75 * psi.density_matrix().elements + 0.25 * np.eye(4) / 4)
    assert state_fidelity(rho, psi) == pytest.approx(0.8125)


def test_state_fidelity_dimension_mismatch():
    with pytest.raises(ValueError):
        state_fidelity(random_dm(2), random_pure(3))


def test_uhlmann_identity_and_pure_mixed_value():
    rho = random_dm(2)
    assert uhlmann_fidelity(rho, rho) == pytest.approx(1.0, abs=1e-9)
    ground = qubit_ket("g").density_matrix()
    mixed = DensityMatrix(np.eye(2) / 2)
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
    rho = DensityMatrix(p * bell_singlet().density_matrix().elements + (1 - p) * np.eye(4) / 4)
    c, _ = concurrence_eof(rho)
    assert c == pytest.approx((3 * p - 1) / 2, abs=1e-9)


def test_concurrence_local_unitary_invariance():
    rho = random_dm(2)
    c0, _ = concurrence_eof(rho)
    u = np.kron(haar_unitary_2(), haar_unitary_2())
    rotated = DensityMatrix(u @ rho.elements @ u.conj().T)
    c1, _ = concurrence_eof(rotated)
    assert c1 == pytest.approx(c0, abs=1e-9)


def test_concurrence_rejects_wrong_dimension():
    with pytest.raises(ValueError):
        concurrence_eof(random_dm(3))


def test_linear_entropy_values():
    assert linear_entropy(random_pure(1).density_matrix()) == pytest.approx(0.0, abs=1e-9)
    mixed = DensityMatrix(np.eye(2) / 2)
    assert linear_entropy(mixed) == pytest.approx(1.0, abs=1e-12)
    # purity 0.625 -> 2·(1 - 0.625) under the unit-normalized qubit convention
    rho = DensityMatrix(np.diag([0.75, 0.25]).astype(complex))
    assert linear_entropy(rho) == pytest.approx(0.75, abs=1e-12)
    two_qubit_mixed = DensityMatrix(np.eye(4) / 4)
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
        projected = nearest_psd(raw)
        assert 0.0 <= linear_entropy(projected) <= 1.0


# ---------------------------------------------------------------------------
# witnesses
# ---------------------------------------------------------------------------

def test_witness_perfect_w_state():
    result = witness_check(w_state().density_matrix(), "W", w_state())
    assert result.passed
    assert result.margin == pytest.approx(1 / 3, abs=1e-9)


def test_witness_maximally_mixed_fails_ghz():
    mixed = DensityMatrix(np.eye(8) / 8)
    result = witness_check(mixed, "GHZ", ghz_state())
    assert not result.passed
    assert result.fidelity == pytest.approx(0.125)


def test_witness_marginal_w_state():
    # fidelity exactly 0.69: mix the target with the orthogonal uniform rest
    w = w_state().density_matrix().elements
    rho = DensityMatrix(0.69 * w + 0.31 * (np.eye(8) - w) / 7)
    result = witness_check(rho, "W", w_state())
    assert result.passed
    assert result.margin == pytest.approx(0.69 - 2 / 3, abs=1e-9)


def test_witness_unknown_class():
    with pytest.raises(ValueError):
        witness_check(random_dm(3), "cluster", ghz_state())


# ---------------------------------------------------------------------------
# phase gauge
# ---------------------------------------------------------------------------

def test_gauge_bit_table_is_read_only():
    bits = _bit_table(3)
    assert bits.tolist() == [[(x >> (2 - q)) & 1 for q in range(3)] for x in range(8)]
    with pytest.raises(ValueError):
        bits[0, 0] = 1
    assert _bit_table(3) is bits


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


@pytest.mark.parametrize("state, target", [(qubit_ket("gg"), w_state(3)),
                                           (w_state(3), qubit_ket("gg"))])
def test_gauge_rejects_a_target_of_another_dimension_either_way(state, target):
    # the state larger than the target used to fail inside the per-qubit blocks
    with pytest.raises(ValueError, match="state and target dimensions differ"):
        phase_gauged_fidelity(state, target)


def test_gauge_fixed_point_for_exact_match():
    result = phase_gauged_fidelity(w_state(), w_state())
    assert result.raw == pytest.approx(1.0, abs=1e-12)
    assert result.gauged == pytest.approx(1.0, abs=1e-12)


def test_max_abs_imag_metric():
    assert max_abs_imag(bell_singlet().density_matrix()) == pytest.approx(0.0, abs=1e-12)
    y_state = QuantumState(np.array([1, 1j]) / math.sqrt(2))
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
