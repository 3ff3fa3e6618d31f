import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fullspace import expm
from qproc_sim.dynamics import (
    DeviceConfig,
    OccupationTrace,
    fit_oscillation_frequency,
    swap_spectroscopy,
)
from qproc_sim.harness import read_rabi_traces_csv, read_spectroscopy_csv
from qproc_sim.hilbert import (
    DensityMatrix,
    InvariantError,
    QuantumOperator,
    QuantumState,
    SpaceLayout,
    _contract_pairs,
    apply_local,
    hermitian_exponential,
    nearest_psd,
    partial_trace,
    qubit_ket,
)
from qproc_sim.noise import NoiseParams, apply_noise_step
from qproc_sim.tomography import reconstruct_from_frequencies

RNG = np.random.default_rng(1234)


def random_density_matrix(n_qubits, rng=RNG):
    d = 2 ** n_qubits
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return DensityMatrix(rho / np.trace(rho))


def kron_density_matrix(a, b):
    """The product state a ⊗ b of two density matrices."""
    return DensityMatrix(np.kron(a.elements, b.elements))


def random_hermitian(dim, scale=1.0):
    a = RNG.normal(size=(dim, dim)) + 1j * RNG.normal(size=(dim, dim))
    return scale * (a + a.conj().T) / 2


# ---------------------------------------------------------------------------
# layouts
# ---------------------------------------------------------------------------

def test_layout_equality_hash_and_repr_read_the_qubit_count_only():
    layout = SpaceLayout(3)
    assert layout == SpaceLayout.qubits(3) and hash(layout) == hash(SpaceLayout.qubits(3))
    assert hash(layout) == hash((3,))
    assert repr(layout) == "SpaceLayout(n_qubits=3)"
    assert layout != SpaceLayout.qubits(2)
    assert layout.total_dim == 8
    with pytest.raises(TypeError):
        SpaceLayout(3, total_dim=8)
    with pytest.raises(AttributeError):
        layout.total_dim = 4


def test_qubit_layouts_are_shared():
    assert SpaceLayout.qubits(3) is SpaceLayout.qubits(3)
    assert SpaceLayout.qubits(3) == SpaceLayout(3)
    assert SpaceLayout.qubits(2).total_dim == 4
    with pytest.raises(ValueError):
        SpaceLayout.qubits(0)


# ---------------------------------------------------------------------------
# partial_trace
# ---------------------------------------------------------------------------

def test_partial_trace_product_state():
    rho_a = random_density_matrix(1)
    rho_b = random_density_matrix(2)
    joint = kron_density_matrix(rho_a, rho_b)
    np.testing.assert_allclose(partial_trace(joint, {0}).elements, rho_a.elements, atol=1e-12)
    np.testing.assert_allclose(partial_trace(joint, {1, 2}).elements, rho_b.elements, atol=1e-12)


def test_partial_trace_singlet_is_maximally_mixed():
    singlet = QuantumState(np.array([0, 1, -1, 0]) / np.sqrt(2))
    rho = singlet.density_matrix()
    for keep in ({0}, {1}):
        reduced = partial_trace(rho, keep)
        np.testing.assert_allclose(reduced.elements, np.eye(2) / 2, atol=1e-12)


def test_partial_trace_preserves_trace_and_hermiticity():
    rho = random_density_matrix(3)
    for keep in ({0}, {1, 2}, {0, 2}):
        reduced = partial_trace(rho, keep)
        assert np.trace(reduced.elements) == pytest.approx(1.0, abs=1e-12)


def test_partial_trace_full_keep_is_identity_and_composes():
    rho = random_density_matrix(3)
    np.testing.assert_allclose(partial_trace(rho, {0, 1, 2}).elements, rho.elements)
    one_step = partial_trace(rho, {0})
    two_step = partial_trace(partial_trace(rho, {0, 1}), {0})
    np.testing.assert_allclose(one_step.elements, two_step.elements, atol=1e-12)


@settings(derandomize=True, deadline=None, max_examples=50)
@given(n=st.integers(2, 5), data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_partial_trace_composes(n, data, seed):
    # tracing out A and then B equals tracing out A ∪ B in one call
    rho = random_density_matrix(n, np.random.default_rng(seed))
    traced = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n - 1, unique=True))
    first = data.draw(st.lists(st.sampled_from(traced), min_size=1, unique=True))
    kept_first = [k for k in range(n) if k not in first]
    step = partial_trace(rho, kept_first)
    # B's factors, renumbered into the reduced register
    step = partial_trace(step, [kept_first.index(k) for k in kept_first if k not in traced])
    once = partial_trace(rho, [k for k in range(n) if k not in traced])
    assert step.n_qubits == once.n_qubits
    np.testing.assert_allclose(step.elements, once.elements, rtol=0, atol=1e-14)


def test_partial_trace_errors():
    rho = random_density_matrix(2)
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
    np.testing.assert_allclose(U.elements, expm(-2j * np.pi * t * H.elements), atol=1e-9)


def test_exponential_matches_taylor_oracle():
    H = QuantumOperator(
        SpaceLayout.qubits(3), random_hermitian(8, scale=0.05), hermitian=True
    )
    t = 3.7
    U = hermitian_exponential(H, t)
    np.testing.assert_allclose(U.elements, expm(-2j * np.pi * t * H.elements), atol=1e-9)


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
    rho = random_density_matrix(2)
    again = nearest_psd(rho)
    np.testing.assert_allclose(again.elements, rho.elements, atol=1e-12)


def test_nearest_psd_clip_and_renormalize():
    out = nearest_psd(np.diag([1.1, -0.1]).astype(complex))
    np.testing.assert_allclose(out.elements, np.diag([1.0, 0.0]), atol=1e-12)


def test_nearest_psd_postconditions_and_idempotence():
    for _ in range(5):
        raw = random_hermitian(4)
        raw = raw / np.trace(raw).real if abs(np.trace(raw).real) > 0.2 else raw + np.eye(4) / 4
        out = nearest_psd(raw)
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
    out = nearest_psd(np.diag(values).astype(complex)).elements
    np.testing.assert_allclose(out, np.diag(brute_force_simplex_projection(values)), atol=1e-12)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(n=st.integers(1, 4), scale=st.sampled_from([1e-3, 0.05, 0.3]),
       seed=st.integers(0, 2**32 - 1))
def test_nearest_psd_is_a_state_no_farther_than_the_clip(n, scale, seed):
    # a state plus Hermitian noise, as linear inversion of sampled counts gives
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(2 ** n, 2 ** n)) + 1j * rng.normal(size=(2 ** n, 2 ** n))
    raw = random_density_matrix(n, rng).elements + scale * (a + a.conj().T) / 2
    raw = raw - np.eye(2 ** n) * (np.trace(raw).real - 1) / 2 ** n
    out = nearest_psd(raw).elements
    assert np.linalg.eigvalsh(out).min() >= -1e-12
    assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(nearest_psd(out).elements, out, atol=1e-12)
    assert np.linalg.norm(out - raw) <= np.linalg.norm(clip_and_rescale(raw) - raw) + 1e-12


def test_nearest_psd_rejects_non_hermitian():
    with pytest.raises(InvariantError):
        nearest_psd(np.array([[1.0, 1.0], [0.0, 0.0]]))


# ---------------------------------------------------------------------------
# type invariants and helpers
# ---------------------------------------------------------------------------

def test_state_norm_invariant():
    with pytest.raises(InvariantError):
        QuantumState(np.array([1.0, 1.0]))


def test_states_take_their_qubit_count_from_their_arrays():
    for n in (1, 2, 3):
        state = qubit_ket("e" * n)
        assert state.n_qubits == state.density_matrix().n_qubits == n
    assert partial_trace(random_density_matrix(3), {0, 2}).n_qubits == 2
    assert nearest_psd(np.eye(4) / 4).n_qubits == 2


@pytest.mark.parametrize("build", [
    lambda: QuantumState([1.0]),
    lambda: QuantumState([1.0, 0.0, 0.0]),
    lambda: QuantumState(np.eye(2) / np.sqrt(2)),
    lambda: QuantumState(1.0),
    lambda: DensityMatrix([[1.0]]),
    lambda: DensityMatrix(np.eye(3) / 3),
    lambda: DensityMatrix(np.eye(4)[:, :2] / 2),
    lambda: DensityMatrix([1.0, 0.0]),
    lambda: nearest_psd(np.eye(3) / 3),
    lambda: QuantumOperator(SpaceLayout.qubits(2), np.eye(2)),
], ids=["state_of_one", "state_of_three", "state_matrix", "state_scalar", "dm_one_by_one",
        "dm_three_by_three", "dm_not_square", "dm_vector", "nearest_psd_three",
        "op_of_another_size"])
def test_arrays_that_are_not_qubit_registers_are_rejected(build):
    # a state's qubit count is its array's: 2^n entries per axis, n >= 1, and nothing else;
    # an operator's array must match its layout
    with pytest.raises(ValueError, match=r"2\^n entries each|4x4 matrix for SpaceLayout") as raised:
        build()
    assert raised.type is ValueError


def test_density_matrix_invariants():
    with pytest.raises(InvariantError):
        DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))
    with pytest.raises(InvariantError):
        DensityMatrix(np.diag([0.7, 0.7]))
    with pytest.raises(InvariantError):
        DensityMatrix(np.diag([1.5, -0.5]))


def test_operator_flags_checked():
    layout = SpaceLayout.qubits(1)
    with pytest.raises(InvariantError):
        QuantumOperator(layout, np.array([[0, 1], [0, 0]], dtype=complex), hermitian=True)
    with pytest.raises(InvariantError):
        QuantumOperator(layout, 2 * np.eye(2, dtype=complex), unitary=True)


NAN, INF = np.nan, np.inf
ONE_QUBIT = SpaceLayout.qubits(1)
TIMES = np.arange(16.0)


def occupation_trace(times=(0.0,), p_qubit=((0.5,),), p_bus=(0.5,)):
    return OccupationTrace(times=list(times), qubit_ids=(0,), p_qubit=list(p_qubit),
                           p_bus=list(p_bus))


def frequency_table(first):
    """The exact one-qubit QST table of |g>, with ``first`` in its first cell."""
    table = np.array([[1.0, 0.0], [0.5, 0.5], [0.5, 0.5]])
    table[0, 0] = first
    return table


def spectroscopy(freqs, taus):
    return swap_spectroscopy(DeviceConfig.default(), 0, freqs, taus)


def read_csv(reader, text):
    def read(path):
        path.write_text(text)
        return reader(path)
    return read


# each row: the error its check boundary raises, and a call given a scratch file path
NON_FINITE_INPUTS = {
    "state": (InvariantError, lambda _: QuantumState([NAN, 1])),
    "nan_state": (InvariantError, lambda _: QuantumState([NAN, NAN])),
    "dm_coherence": (InvariantError, lambda _: DensityMatrix([[0.5, NAN], [0, 0.5]])),
    "dm_population": (InvariantError, lambda _: DensityMatrix([[NAN, 0], [0, 1]])),
    "nan_dm": (InvariantError, lambda _: DensityMatrix(np.full((2, 2), NAN))),
    "hermitian_op": (InvariantError, lambda _: QuantumOperator(
        ONE_QUBIT, [[NAN, 0], [0, 1]], hermitian=True)),
    "unitary_op": (InvariantError, lambda _: QuantumOperator(
        ONE_QUBIT, [[0, NAN], [1, 0]], unitary=True)),
    "inf_state": (InvariantError, lambda _: QuantumState([INF, 0])),
    "inf_dm_population": (InvariantError, lambda _: DensityMatrix([[INF, 0], [0, 1]])),
    "inf_dm_coherence": (InvariantError, lambda _: DensityMatrix([[0.5, -INF], [INF, 0.5]])),
    "inf_op": (InvariantError, lambda _: QuantumOperator(
        ONE_QUBIT, [[INF, 0], [0, 1]], hermitian=True)),
    # the operator is the boundary: hermitian_exponential only ever sees a finite one
    "exponential_of_nan": (InvariantError, lambda _: hermitian_exponential(
        QuantumOperator(ONE_QUBIT, [[0, NAN], [0, 0]]), 1.0)),
    # eigh reads the lower triangle only, where this NaN is not
    "nearest_psd_nan": (InvariantError, lambda _: nearest_psd(
        np.array([[0.5, NAN], [0, 0.5]]))),
    "nearest_psd_inf": (InvariantError, lambda _: nearest_psd(np.array([[INF, 0], [0, 1]]))),
    "noise_step_nan": (InvariantError, lambda _: apply_noise_step(
        np.array([[0.5, NAN], [NAN, 0.5]]), NoiseParams.default(1), 10.0)),
    "noise_step_inf": (InvariantError, lambda _: apply_noise_step(
        np.array([[INF, 0], [0, 1]]), NoiseParams.default(1), 10.0)),
    "trace_times_nan": (InvariantError, lambda _: occupation_trace(times=[NAN])),
    "trace_times_inf": (InvariantError, lambda _: occupation_trace(times=[INF])),
    "trace_qubit_nan": (InvariantError, lambda _: occupation_trace(p_qubit=[[NAN]])),
    "trace_qubit_inf": (InvariantError, lambda _: occupation_trace(p_qubit=[[INF]])),
    "trace_bus_nan": (InvariantError, lambda _: occupation_trace(p_bus=[NAN])),
    "trace_bus_minus_inf": (InvariantError, lambda _: occupation_trace(p_bus=[-INF])),
    "fit_values_nan": (ValueError, lambda _: fit_oscillation_frequency(TIMES, [NAN] * 16)),
    "fit_values_inf": (ValueError, lambda _: fit_oscillation_frequency(
        TIMES, np.where(TIMES == 3, INF, 0.5))),
    "fit_times_nan": (ValueError, lambda _: fit_oscillation_frequency(
        np.where(TIMES == 3, NAN, TIMES), np.cos(TIMES))),
    "fit_times_inf": (ValueError, lambda _: fit_oscillation_frequency(
        np.where(TIMES == 15, INF, TIMES), np.cos(TIMES))),
    "reconstruction_nan": (ValueError, lambda _: reconstruct_from_frequencies(
        frequency_table(NAN))),
    "reconstruction_inf": (ValueError, lambda _: reconstruct_from_frequencies(
        frequency_table(INF))),
    "spectroscopy_freq_nan": (ValueError, lambda _: spectroscopy([6.0, NAN], [10.0])),
    "spectroscopy_freq_inf": (ValueError, lambda _: spectroscopy([INF], [10.0])),
    "spectroscopy_tau_nan": (ValueError, lambda _: spectroscopy([6.0], [NAN])),
    "spectroscopy_tau_inf": (ValueError, lambda _: spectroscopy([6.0], [0.0, INF])),
    "spectroscopy_csv_p_e_nan": (ValueError, read_csv(
        read_spectroscopy_csv, "freq_ghz,tau_ns,p_e\n6.0,0.0,nan\n")),
    "spectroscopy_csv_p_e_inf": (ValueError, read_csv(
        read_spectroscopy_csv, "freq_ghz,tau_ns,p_e\n6.0,0.0,inf\n")),
    "spectroscopy_csv_freq_inf": (ValueError, read_csv(
        read_spectroscopy_csv, "freq_ghz,tau_ns,p_e\n6.0,0.0,0.5\ninf,0.0,0.5\n")),
    "spectroscopy_csv_tau_inf": (ValueError, read_csv(
        read_spectroscopy_csv, "freq_ghz,tau_ns,p_e\n6.0,-inf,0.5\n6.0,0.0,0.5\n")),
    "rabi_csv_time_inf": (ValueError, read_csv(
        read_rabi_traces_csv, "n_participants,time_ns,p_bus\n1,0.0,1.0\n1,inf,0.5\n")),
    "rabi_csv_p_bus_nan": (ValueError, read_csv(
        read_rabi_traces_csv, "n_participants,time_ns,p_bus\n1,0.0,nan\n")),
}


@pytest.mark.parametrize("case", NON_FINITE_INPUTS)
def test_nan_entries_fail_the_invariants(case, tmp_path):
    # a NaN makes every comparison false, so each check must fail unless its bound holds;
    # inf must fail before any check computes with it (inf - inf warns, and the suite counts
    # warnings as errors). Each boundary raises its own error: InvariantError for a state,
    # operator or trace, plain ValueError for an input a computation refuses, never numpy's
    # LinAlgError (a ValueError too) from an eigensolver fed NaN, nor a silent result
    expected, call = NON_FINITE_INPUTS[case]
    with pytest.raises(ValueError) as raised:
        call(tmp_path / "input.csv")
    assert raised.type is expected, f"{case} raised {raised.type.__name__}: {raised.value}"


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


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("pair_in, pair_out", [((2, 2), (2, 2)), ((2, 2), (3, 2)),
                                               ((3, 2), (2, 2))],
                         ids=["noise", "forward", "inversion"])
def test_contract_pairs_matches_the_kron_of_its_kernels(n, pair_in, pair_out):
    # one different kernel per qubit, so that a kernel on the wrong qubit shows
    kernels = [RNG.normal(size=(np.prod(pair_in), np.prod(pair_out)))
               + 1j * RNG.normal(size=(np.prod(pair_in), np.prod(pair_out))) for _ in range(n)]
    table = RNG.normal(size=(pair_in[0],) * n + (pair_in[1],) * n)
    # [a_1, b_1, a_2, b_2, ...] flattened, the first qubit most significant, as kron orders it
    interleaved = table.transpose([a for q in range(n) for a in (q, n + q)]).reshape(-1)
    out = (interleaved @ functools.reduce(np.kron, kernels)).reshape(pair_out * n)
    expected = out.transpose(list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2)))
    np.testing.assert_allclose(_contract_pairs(table, kernels, pair_out),
                               expected.reshape(pair_out[0] ** n, pair_out[1] ** n), atol=1e-12)
