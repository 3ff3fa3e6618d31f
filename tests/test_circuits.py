import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qproc_sim.circuits import (
    GATE_MATRICES,
    SHOR_VARIANTS,
    SINGLE_QUBIT_GATES,
    TWO_QUBIT_GATES,
    Circuit,
    FactoringResult,
    Gate,
    Idle,
    analyze_output_counts,
    build_shor,
    classical_factors,
    extract_period,
    factor_fifteen,
    gate_unitary,
    output_distribution,
    run_circuit,
    sample_output,
)
from qproc_sim.hilbert import DensityMatrix, QuantumOperator, QuantumState, SpaceLayout, qubit_ket
from qproc_sim.noise import NoiseParams, apply_noise_step

RNG = np.random.default_rng(7)


def ket(label):
    return qubit_ket(label).amplitudes


def circuit_unitary(circuit: Circuit) -> QuantumOperator:
    """Ordered product of the circuit's gate unitaries (idles are identity)."""
    mat = np.eye(2 ** circuit.n_qubits, dtype=complex)
    for gate in circuit.gates:
        mat = gate_unitary(gate, circuit.n_qubits).elements @ mat
    return QuantumOperator(SpaceLayout.qubits(circuit.n_qubits), mat, unitary=True)


def full_register_run(circuit, mode="ideal_pure", noise=None, initial_state=None):
    """run_circuit's oracle: every gate as its full-register unitary, U ψ or U ρ U†.

    Returns (final state, {breakpoint name: state})."""
    state = initial_state if initial_state is not None else qubit_ket("g" * circuit.n_qubits)
    if mode == "noisy_density" and isinstance(state, QuantumState):
        state = state.density_matrix()
    captures = {name: state for name, pos in circuit.breakpoints.items() if pos == 0}
    for k, op in enumerate(circuit.ops, start=1):
        if isinstance(op, Gate):
            U = gate_unitary(op, circuit.n_qubits).elements
            if isinstance(state, QuantumState):
                state = QuantumState(state.layout, U @ state.amplitudes)
            else:
                state = DensityMatrix(state.layout, U @ state.elements @ U.conj().T)
            duration_class = "2q" if op.kind in TWO_QUBIT_GATES else "1q"
        else:
            duration_class = op.duration_class
        if mode == "noisy_density":
            dt = noise.gate_time_2q if duration_class == "2q" else noise.gate_time_1q
            state = apply_noise_step(state, noise, dt)
        captures.update({name: state for name, pos in circuit.breakpoints.items() if pos == k})
    return state, captures


def values(state):
    return state.amplitudes if isinstance(state, QuantumState) else state.elements


# ---------------------------------------------------------------------------
# gate unitaries
# ---------------------------------------------------------------------------

def test_hadamard_squares_to_identity():
    H = gate_unitary(Gate("H", (1,)), 3).elements
    np.testing.assert_allclose(H @ H, np.eye(8), atol=1e-14)


def test_cnot_expansion_is_canonical_permutation():
    cnot = gate_unitary(Gate("CNOT", (0, 1)), 2).elements
    expected = np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    )
    np.testing.assert_allclose(cnot, expected, atol=1e-12)


def test_cnot_reversed_control_target():
    cnot = gate_unitary(Gate("CNOT", (1, 0)), 2).elements
    # control is qubit 1 (least significant), target qubit 0
    expected = np.array(
        [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex
    )
    np.testing.assert_allclose(cnot, expected, atol=1e-12)


def test_cnot_targets_are_control_first_across_the_register():
    # CNOT (2, 0): control is qubit 2, the target qubit 0 sits two factors away
    cnot = gate_unitary(Gate("CNOT", (2, 0)), 3)
    for label, flipped in (("gge", "ege"), ("ege", "gge"), ("egg", "egg"), ("gee", "eee")):
        np.testing.assert_allclose(cnot.apply(qubit_ket(label)).amplitudes, ket(flipped),
                                   atol=1e-12)


def test_x_flips_ground_state():
    X = gate_unitary(Gate("X", (0,)), 1)
    np.testing.assert_allclose(X.apply(qubit_ket("g")).amplitudes, ket("e"))


def test_cz_matrix():
    cz = gate_unitary(Gate("CZ", (0, 1)), 2).elements
    np.testing.assert_allclose(cz, np.diag([1, 1, 1, -1]))


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("kind", list(GATE_MATRICES))
def test_every_gate_is_unitary_on_every_target_tuple(kind, n):
    arity = 2 if kind in TWO_QUBIT_GATES else 1
    for targets in itertools.permutations(range(n), arity):
        U = gate_unitary(Gate(kind, targets), n).elements
        assert np.max(np.abs(U.conj().T @ U - np.eye(2 ** n))) <= 1e-12, targets


def test_gate_validation():
    with pytest.raises(ValueError):
        Gate("CNOT", (1, 1))
    with pytest.raises(ValueError):
        Gate("H", (0, 1))
    with pytest.raises(ValueError):
        Gate("SWAPX", (0,))


@pytest.mark.parametrize("gate", [Gate("X", (-1,)), Gate("X", (3,)), Gate("CNOT", (0, -1)),
                                  Gate("CZ", (3, 0))])
def test_circuit_rejects_targets_outside_the_register(gate):
    # a negative target must not wrap around to the last qubit
    with pytest.raises(ValueError, match="outside 0..2"):
        Circuit(n_qubits=3, ops=(gate,))


# ---------------------------------------------------------------------------
# compiled circuits
# ---------------------------------------------------------------------------

def test_three_qubit_structure():
    circuit = build_shor("three_qubit")
    assert len(circuit.gates) == 4
    assert circuit.breakpoints == {"step1": 2, "step2": 3, "step3": 4}
    assert circuit.output_bits == (0, None)
    assert circuit.analysis_qubits == (0, 1, 2)


def test_control_variant_has_no_entangling_gates():
    circuit = build_shor("control")
    assert all(len(g.targets) == 1 for g in circuit.gates)
    idles = [op for op in circuit.ops if isinstance(op, Idle)]
    assert len(idles) == 2 and all(idle.duration_class == "2q" for idle in idles)


def test_four_and_three_qubit_outputs_agree():
    three = build_shor("three_qubit")
    four = build_shor("four_qubit")
    dist3 = output_distribution(run_circuit(three).final, three.output_bits)
    dist4 = output_distribution(run_circuit(four).final, four.output_bits)
    np.testing.assert_allclose(dist3, dist4, atol=1e-12)
    # the redundant register bit never fires
    assert dist4[0b01] == pytest.approx(0.0, abs=1e-12)
    assert dist4[0b11] == pytest.approx(0.0, abs=1e-12)


def test_unknown_variant():
    with pytest.raises(ValueError):
        build_shor("five_qubit")


# ---------------------------------------------------------------------------
# execution and breakpoints
# ---------------------------------------------------------------------------

def test_breakpoint_states_match_targets():
    run = run_circuit(build_shor("three_qubit"))
    bell_pair = (ket("ggg") + ket("eeg")) / math.sqrt(2)
    ghz = (ket("ggg") + ket("eee")) / math.sqrt(2)
    psi3 = (ket("ggg") + ket("egg") + ket("gee") - ket("eee")) / 2

    for name, target in (("step1", bell_pair), ("step2", ghz), ("step3", psi3)):
        state = run.breakpoint_states[name]
        fidelity = abs(np.vdot(target, state.amplitudes)) ** 2
        assert fidelity == pytest.approx(1.0, abs=1e-9), name


def test_control_circuit_returns_ground():
    run = run_circuit(build_shor("control"))
    np.testing.assert_allclose(run.final.amplitudes, ket("ggg"), atol=1e-12)


def test_four_qubit_breakpoints_reduce_to_three_qubit_states():
    from qproc_sim.hilbert import partial_trace

    circuit = build_shor("four_qubit")
    run = run_circuit(circuit)
    ghz = (ket("ggg") + ket("eee")) / math.sqrt(2)
    reduced = partial_trace(run.breakpoint_states["step2"].density_matrix(),
                            set(circuit.analysis_qubits))
    fidelity = np.real(ghz.conj() @ reduced.elements @ ghz)
    assert fidelity == pytest.approx(1.0, abs=1e-9)


def test_circuit_equals_ordered_gate_product():
    for _ in range(5):
        n = int(RNG.integers(2, 5))
        ops = []
        for _ in range(6):
            if RNG.random() < 0.5:
                kind = str(RNG.choice(["X", "Y", "Z", "H", "X_half", "Y_half"]))
                ops.append(Gate(kind, (int(RNG.integers(n)),)))
            else:
                kind = str(RNG.choice(["CZ", "CNOT"]))
                pair = RNG.choice(n, size=2, replace=False)
                ops.append(Gate(kind, (int(pair[0]), int(pair[1]))))
        circuit = Circuit(n_qubits=n, ops=tuple(ops))
        run = run_circuit(circuit)
        via_product = circuit_unitary(circuit).apply(qubit_ket("g" * n))
        np.testing.assert_allclose(run.final.amplitudes, via_product.amplitudes, atol=1e-12)


@pytest.mark.parametrize("noisy", [False, True])
@pytest.mark.parametrize("variant", SHOR_VARIANTS)
def test_shipped_circuits_match_full_register_unitaries(variant, noisy):
    # bit for bit, at every breakpoint and at the end
    circuit = build_shor(variant)
    mode, noise = ("noisy_density", NoiseParams.default(4)) if noisy else ("ideal_pure", None)
    run = run_circuit(circuit, mode=mode, noise=noise)
    final, captures = full_register_run(circuit, mode, noise)
    assert run.breakpoint_states.keys() == captures.keys() == circuit.breakpoints.keys()
    for name, state in captures.items():
        np.testing.assert_array_equal(values(run.breakpoint_states[name]), values(state), name)
    np.testing.assert_array_equal(values(run.final), values(final))


@st.composite
def random_circuits(draw):
    """2-4 qubit circuits of 1-qubit gates, idles and CZ/CNOT on any ordered target pair
    (adjacent or not, control above or below the target), a breakpoint after every op."""
    n = draw(st.integers(2, 4))
    one_qubit = st.builds(Gate, st.sampled_from(list(SINGLE_QUBIT_GATES)),
                          st.tuples(st.integers(0, n - 1)))
    pairs = st.sampled_from(list(itertools.permutations(range(n), 2)))
    two_qubit = st.builds(Gate, st.sampled_from(TWO_QUBIT_GATES), pairs)
    idle = st.builds(Idle, st.sampled_from(["1q", "2q"]))
    ops = draw(st.lists(st.one_of(one_qubit, two_qubit, idle), min_size=1, max_size=10))
    return Circuit(n_qubits=n, ops=ops, breakpoints={f"op{k}": k for k in range(len(ops) + 1)})


@settings(derandomize=True, deadline=None, max_examples=60)
@given(circuit=random_circuits(), noisy=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_random_circuits_match_full_register_unitaries(circuit, noisy, seed):
    rng = np.random.default_rng(seed)
    d = 2 ** circuit.n_qubits
    layout = SpaceLayout.qubits(circuit.n_qubits)
    if noisy:
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        start = DensityMatrix(layout, a @ a.conj().T / np.trace(a @ a.conj().T))
        noise = NoiseParams(t1=rng.uniform(50, 1000, 4), t_phi=rng.uniform(50, 1000, 4))
        mode = "noisy_density"
    else:
        v = rng.normal(size=d) + 1j * rng.normal(size=d)
        start, noise, mode = QuantumState(layout, v / np.linalg.norm(v)), None, "ideal_pure"
    run = run_circuit(circuit, mode=mode, noise=noise, initial_state=start)
    final, captures = full_register_run(circuit, mode, noise, initial_state=start)
    for name, state in captures.items():
        np.testing.assert_allclose(values(run.breakpoint_states[name]), values(state),
                                   rtol=0, atol=1e-14, err_msg=name)
    np.testing.assert_allclose(values(run.final), values(final), rtol=0, atol=1e-14)


def test_noisy_mode_requires_params():
    with pytest.raises(ValueError):
        run_circuit(build_shor("three_qubit"), mode="noisy_density")


# ---------------------------------------------------------------------------
# output sampling
# ---------------------------------------------------------------------------

def test_ideal_output_distribution():
    circuit = build_shor("three_qubit")
    dist = output_distribution(run_circuit(circuit).final, circuit.output_bits)
    np.testing.assert_allclose(dist, [0.5, 0.0, 0.5, 0.0], atol=1e-12)


def test_sampled_success_frequency_within_binomial_band():
    result, _ = factor_fifteen(shots=150_000, seed=7)
    freq = result.output_counts["10"] / result.shots
    # binomial 3σ band around 0.5: σ = sqrt(0.25/150000) ≈ 0.0013
    assert abs(freq - 0.5) <= 3 * math.sqrt(0.25 / 150_000)
    assert result.period_r == 2
    assert result.factors == (3, 5)
    assert result.success_probability == pytest.approx(freq)


def test_control_circuit_always_fails():
    result, _ = factor_fifteen(variant="control", shots=2000, seed=3)
    assert result.output_counts["00"] == 2000
    assert result.period_r == 0
    assert result.factors is None
    assert result.success_probability == 0.0


def test_sampling_is_deterministic_and_sums_to_shots():
    circuit = build_shor("three_qubit")
    state = run_circuit(circuit).final
    a = sample_output(state, circuit.output_bits, 5000, seed=11)
    b = sample_output(state, circuit.output_bits, 5000, seed=11)
    assert a == b
    assert sum(a.values()) == 5000


def test_sampling_total_variation_convergence():
    circuit = build_shor("three_qubit")
    state = run_circuit(circuit).final
    exact = output_distribution(state, circuit.output_bits)
    for shots in (10**3, 10**4, 10**5):
        counts = sample_output(state, circuit.output_bits, shots, seed=13)
        freqs = np.array([counts[format(m, "02b")] for m in range(4)]) / shots
        tv = 0.5 * np.abs(freqs - exact).sum()
        assert tv <= 5 / math.sqrt(shots)


def test_sample_output_rejects_empty_register():
    state = run_circuit(build_shor("three_qubit")).final
    with pytest.raises(ValueError):
        sample_output(state, (), 10, seed=0)


# ---------------------------------------------------------------------------
# classical postprocessing
# ---------------------------------------------------------------------------

def test_extract_period_examples():
    assert extract_period("10", 2) == 2
    assert extract_period("00", 2) == 0
    assert extract_period("01", 2) == 4
    with pytest.raises(ValueError):
        extract_period("102", 3)


def test_classical_factors_examples():
    assert classical_factors(4, 2, 15) == (3, 5)
    assert classical_factors(4, 0, 15) is None
    assert classical_factors(7, 4, 15) == (3, 5)
    with pytest.raises(ValueError):
        classical_factors(5, 2, 15)  # gcd(5, 15) != 1


def test_classical_factors_against_order_oracle():
    # brute-force multiplicative order; factors must be valid whenever returned
    for N in range(4, 33):
        for a in range(2, N - 1):
            if math.gcd(a, N) != 1:
                continue
            r, x = 1, a % N
            while x != 1:
                x = (x * a) % N
                r += 1
            out = classical_factors(a, r, N)
            if out is not None:
                p, q = out
                assert p * q == N and 1 < p < N and 1 < q < N


def test_period_success_probability_is_half():
    circuit = build_shor("three_qubit")
    dist = output_distribution(run_circuit(circuit).final, circuit.output_bits)
    success = sum(
        p for m, p in enumerate(dist)
        if extract_period(format(m, "02b"), 2) == 2
    )
    assert success == pytest.approx(0.5, abs=1e-12)


def test_factoring_result_invariants():
    with pytest.raises(ValueError):
        FactoringResult(15, 4, 10, {"00": 4, "10": 4}, 2, (3, 5), 0.4)
    with pytest.raises(ValueError):
        FactoringResult(15, 4, 8, {"00": 4, "10": 4}, 2, (2, 5), 0.5)


def test_analyze_output_counts_prefers_frequent_valid_outcome():
    r, factors, success = analyze_output_counts({"00": 50, "10": 40, "01": 10}, a=4, N=15)
    assert (r, factors) == (2, (3, 5))
    assert success == pytest.approx(0.4)
