import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qproc_sim.dynamics import (
    ConfigError,
    DeviceConfig,
    SAMPLE_BLOCK,
    FrequencySchedule,
    OccupationTrace,
    Segment,
    build_jc_hamiltonian,
    device_layout,
    effective_coupling,
    excitation_number,
    fit_oscillation_frequency,
    mean_coupling,
    prepare_shared_excitation,
    propagate,
    pump_fock,
    simultaneous_resonance,
    swap_spectroscopy,
)
from qproc_sim.harness import read_spectroscopy_csv
from qproc_sim.hilbert import (
    SIGMA_MINUS,
    SIGMA_X,
    DensityMatrix,
    QuantumOperator,
    QuantumState,
    apply_local,
    basis_ket,
    destroy,
    qubit_ket,
    tensor_product,
)

RNG = np.random.default_rng(42)

# property tests draw from a fixed derandomized stream, so tier-1 stays deterministic
PROPERTY = settings(derandomize=True, deadline=None, max_examples=25)


def fitted_config(g_mhz=56.5):
    return DeviceConfig(g_bus=(g_mhz,) * 4)


# ---------------------------------------------------------------------------
# DeviceConfig
# ---------------------------------------------------------------------------

def test_default_config_matches_shipped_device():
    cfg = DeviceConfig.default()
    assert cfg.f_bus == 6.1
    assert cfg.f_memory == (6.8, 7.2, 7.1, 6.9)
    assert cfg.g_bus == (55.0,) * 4
    assert cfg.g_mem == (20.0,) * 4
    assert cfg.f_idle == (6.6,) * 4
    assert cfg.validate() == []


def test_config_rejects_nonpositive_coupling():
    with pytest.raises(ConfigError) as exc:
        DeviceConfig(g_bus=(55.0, -1.0, 55.0, 55.0))
    assert any("g_bus[1]" in v for v in exc.value.violations)


def test_config_rejects_idle_too_close_to_bus():
    with pytest.raises(ConfigError) as exc:
        DeviceConfig(f_idle=(6.2, 6.6, 6.6, 6.6))
    assert any("coupling-off regime violated" in v for v in exc.value.violations)


def test_config_roundtrip_dict():
    cfg = DeviceConfig.default()
    again = DeviceConfig.from_dict(cfg.to_dict())
    assert again == cfg


# ---------------------------------------------------------------------------
# Hamiltonian construction
# ---------------------------------------------------------------------------

def test_single_qubit_resonant_block():
    cfg = DeviceConfig.default()
    H = build_jc_hamiltonian(cfg, qubit_freqs=(cfg.f_bus,), qubits=(0,))
    d = cfg.n_max + 1
    idx_e0 = d      # qubit excited, vacuum
    idx_g1 = 1      # qubit ground, one photon
    assert H.elements[idx_g1, idx_e0] == pytest.approx(0.0275)
    assert H.elements[idx_e0, idx_g1] == pytest.approx(0.0275)
    assert H.elements[idx_e0, idx_e0] == pytest.approx(0.0)


def test_decoupled_hamiltonian_is_diagonal_detunings():
    # qubits 1 and 2 have zero coupling to memory resonator 1
    cfg = DeviceConfig.default()
    freqs = (6.9, 7.0)
    H = build_jc_hamiltonian(cfg, qubit_freqs=freqs, resonator_id="memory-1", qubits=(1, 2))
    off_diag = H.elements - np.diag(np.diag(H.elements))
    assert np.max(np.abs(off_diag)) == 0.0
    d = cfg.n_max + 1
    f_res = cfg.f_memory[0]
    # qubit 1 excited, qubit 2 ground, vacuum
    assert H.elements[2 * d, 2 * d] == pytest.approx(freqs[0] - f_res)


def test_hamiltonian_conserves_excitation_number():
    cfg = DeviceConfig.default()
    for _ in range(5):
        freqs = tuple(6.1 + RNG.uniform(-0.5, 0.5, size=4))
        H = build_jc_hamiltonian(cfg, qubit_freqs=freqs)
        N = excitation_number(H.layout)
        comm = H.elements @ N.elements - N.elements @ H.elements
        assert np.max(np.abs(comm)) < 1e-14


def test_unknown_resonator_id():
    cfg = DeviceConfig.default()
    with pytest.raises(ValueError):
        build_jc_hamiltonian(cfg, qubit_freqs=(6.1,), resonator_id="memory-9", qubits=(0,))


# ---------------------------------------------------------------------------
# propagate
# ---------------------------------------------------------------------------

def test_zero_duration_schedule_identity():
    cfg = DeviceConfig.default()
    layout = device_layout(cfg, (0,))
    start = basis_ket(layout, 1)
    schedule = FrequencySchedule((Segment(0.0, (cfg.f_bus,)),))
    trace, final = propagate(start, schedule, cfg, sample_dt=1.0, qubits=(0,))
    np.testing.assert_allclose(final.amplitudes, start.amplitudes)
    assert trace.times.tolist() == [0.0]


def test_resonant_bus_population_is_sinusoidal():
    # qubit starts excited, bus in vacuum: P_B(t) = sin²(π g t)
    cfg = fitted_config(56.5)
    layout = device_layout(cfg, (0,))
    start = tensor_product([qubit_ket("e"), basis_ket_res(cfg, 0)])
    schedule = FrequencySchedule((Segment(30.0, (cfg.f_bus,)),))
    trace, _ = propagate(start, schedule, cfg, sample_dt=0.1, qubits=(0,))
    expected = np.sin(np.pi * 0.0565 * trace.times) ** 2
    np.testing.assert_allclose(trace.p_bus, expected, atol=1e-9)
    assert start.layout.dims == layout.dims


def basis_ket_res(cfg, n):
    from qproc_sim.hilbert import fock_ket

    return fock_ket(n, cfg.n_max)


def test_detuned_rabi_matches_analytic_formula():
    # two-level Rabi oracle: P_transfer = g²/(g²+Δ²) · sin²(π √(g²+Δ²) t)
    cfg = DeviceConfig.default()
    g = 0.055
    delta = 0.100
    start = tensor_product([qubit_ket("e"), basis_ket_res(cfg, 0)])
    schedule = FrequencySchedule((Segment(50.0, (cfg.f_bus + delta,)),))
    trace, _ = propagate(start, schedule, cfg, sample_dt=0.1, qubits=(0,))
    amp = g**2 / (g**2 + delta**2)
    rabi = math.sqrt(g**2 + delta**2)
    expected = amp * np.sin(np.pi * rabi * trace.times) ** 2
    np.testing.assert_allclose(trace.p_bus, expected, atol=1e-9)
    assert amp == pytest.approx(0.232, abs=5e-4)
    assert rabi * 1e3 == pytest.approx(114.2, abs=0.1)


def test_density_matrix_propagation_matches_pure():
    cfg = DeviceConfig.default()
    # excited start, and ground start with a π-pulse at the segment start
    for label, pulses in (("e", ()), ("g", (0,))):
        start = tensor_product([qubit_ket(label), basis_ket_res(cfg, 0)])
        schedule = FrequencySchedule((Segment(12.0, (cfg.f_bus,), pulses=pulses),))
        pure_trace, pure_final = propagate(start, schedule, cfg, sample_dt=1.0, qubits=(0,))
        mixed_trace, mixed_final = propagate(start.density_matrix(), schedule, cfg,
                                             sample_dt=1.0, qubits=(0,))
        np.testing.assert_allclose(mixed_trace.p_bus, pure_trace.p_bus, atol=1e-12)
        np.testing.assert_allclose(mixed_final.elements,
                                   pure_final.density_matrix().elements, atol=1e-12)


def test_excitation_conserved_along_schedule():
    cfg = DeviceConfig.default()
    trace = simultaneous_resonance(cfg, (0, 1, 2), dtau_max=40.0, sample_dt=0.5)
    totals = trace.p_qubit.sum(axis=0) + trace.p_bus + trace.p_vacuum
    np.testing.assert_allclose(totals, 1.0, atol=1e-9)


def test_propagate_rejects_out_of_range_frequency():
    cfg = DeviceConfig.default()
    start = tensor_product([qubit_ket("g"), basis_ket_res(cfg, 0)])
    schedule = FrequencySchedule((Segment(5.0, (8.0,)),))
    with pytest.raises(ValueError):
        propagate(start, schedule, cfg, sample_dt=1.0, qubits=(0,))
    with pytest.raises(ValueError):
        propagate(start, FrequencySchedule(()), cfg, sample_dt=0.0, qubits=(0,))


def test_segment_rejects_negative_duration():
    with pytest.raises(ValueError):
        Segment(-1.0, (6.1,))


def test_segment_shorter_than_sample_dt_contributes_one_sample():
    cfg = DeviceConfig.default()
    start = tensor_product([qubit_ket("e"), basis_ket_res(cfg, 0)])
    schedule = FrequencySchedule((Segment(1.2, (cfg.f_bus,)),))
    trace, final = propagate(start, schedule, cfg, sample_dt=5.0, qubits=(0,))
    assert trace.times.tolist() == [0.0, 1.2]
    # final state is exact regardless of the sampling grid
    assert trace.p_bus[-1] == pytest.approx(math.sin(math.pi * 0.055 * 1.2) ** 2, abs=1e-12)
    assert final.layout.dims == start.layout.dims


# ---------------------------------------------------------------------------
# Fock pumping
# ---------------------------------------------------------------------------

def test_pump_fock_full_transfer():
    cfg = DeviceConfig.default()
    state = pump_fock(cfg)
    dims = state.layout.dims
    table = state.probabilities().reshape(-1, dims[-1])
    p_bus = table[:, 1].sum()
    p_q1 = table[(np.arange(table.shape[0]) >> 3) & 1 == 1, :].sum()
    assert p_bus >= 1 - 1e-6
    assert p_q1 <= 1e-6


def test_pump_fock_halved_coupling_partial_transfer():
    cfg = DeviceConfig.default()
    halved = DeviceConfig(g_bus=(27.5, 55.0, 55.0, 55.0))
    duration = 1.0 / (2 * cfg.g_bus_ghz(0))
    state = pump_fock(halved, swap_duration=duration)
    table = state.probabilities().reshape(-1, cfg.n_max + 1)
    assert table[:, 1].sum() == pytest.approx(0.5, abs=1e-9)


def test_pump_fock_truncation_independent():
    lo = DeviceConfig(n_max=1)
    hi = DeviceConfig(n_max=3)
    state_lo = pump_fock(lo)
    state_hi = pump_fock(hi)
    table_lo = state_lo.probabilities().reshape(-1, 2)
    table_hi = state_hi.probabilities().reshape(-1, 4)
    np.testing.assert_allclose(table_lo[:, 1], table_hi[:, 1], atol=1e-10)
    np.testing.assert_allclose(table_lo[:, 0], table_hi[:, 0] + table_hi[:, 2:].sum(axis=1), atol=1e-10)


# ---------------------------------------------------------------------------
# simultaneous resonance and √N scaling
# ---------------------------------------------------------------------------

def test_single_qubit_oscillation_frequency():
    cfg = fitted_config(56.5)
    trace = simultaneous_resonance(cfg, (0,), dtau_max=200.0, sample_dt=0.25)
    freq, err = fit_oscillation_frequency(trace.times, trace.p_bus)
    assert freq * 1e3 == pytest.approx(56.5, rel=5e-3)
    assert err > 0


def test_four_qubit_oscillation_frequency():
    cfg = fitted_config(56.5)
    trace = simultaneous_resonance(cfg, (0, 1, 2, 3), dtau_max=200.0, sample_dt=0.25)
    freq, _ = fit_oscillation_frequency(trace.times, trace.p_bus)
    assert freq * 1e3 == pytest.approx(113.0, rel=5e-3)


def test_unequal_couplings_effective_frequency():
    cfg = DeviceConfig(g_bus=(50.0, 60.0, 55.0, 55.0))
    expected = math.sqrt(2) * math.sqrt((0.050**2 + 0.060**2) / 2)
    assert effective_coupling(cfg, (0, 1)) == pytest.approx(expected)
    assert expected * 1e3 == pytest.approx(78.1, abs=0.05)
    trace = simultaneous_resonance(cfg, (0, 1), dtau_max=200.0, sample_dt=0.25)
    freq, _ = fit_oscillation_frequency(trace.times, trace.p_bus)
    assert freq == pytest.approx(expected, rel=5e-3)


def test_sqrt_n_frequency_ratios():
    cfg = fitted_config(56.5)
    fits = []
    for n in range(1, 5):
        trace = simultaneous_resonance(cfg, tuple(range(n)), dtau_max=200.0, sample_dt=0.25)
        freq, _ = fit_oscillation_frequency(trace.times, trace.p_bus)
        fits.append(freq)
    ratios = np.array(fits) / fits[0]
    np.testing.assert_allclose(ratios, np.sqrt([1, 2, 3, 4]), rtol=1e-2)


def test_bus_revival():
    cfg = fitted_config(56.5)
    for n in (2, 3):
        participants = tuple(range(n))
        revival = 1.0 / effective_coupling(cfg, participants)
        trace = simultaneous_resonance(cfg, participants, dtau_max=revival, sample_dt=revival)
        assert trace.p_bus[0] == pytest.approx(1.0, abs=1e-9)
        assert trace.p_bus[-1] > 0.99


def test_simultaneous_resonance_requires_participants():
    with pytest.raises(ValueError):
        simultaneous_resonance(DeviceConfig.default(), (), 10.0, 0.5)


# ---------------------------------------------------------------------------
# Bell / W preparation
# ---------------------------------------------------------------------------

def test_bell_preparation_even_distribution_and_symmetric_state():
    cfg = fitted_config(56.5)
    state = prepare_shared_excitation(cfg, (0, 1))
    probs = state.probabilities()
    assert probs[0b01] == pytest.approx(0.5, abs=1e-4)
    assert probs[0b10] == pytest.approx(0.5, abs=1e-4)
    symmetric = np.zeros(4, dtype=complex)
    symmetric[0b01] = symmetric[0b10] = 1 / math.sqrt(2)
    assert abs(np.vdot(symmetric, state.amplitudes)) ** 2 == pytest.approx(1.0, abs=1e-9)
    # first P_B minimum for equal couplings at 56.5 MHz
    assert 1.0 / (2 * effective_coupling(cfg, (0, 1))) == pytest.approx(6.26, abs=0.01)


def test_w_preparation_even_distribution():
    cfg = fitted_config(56.5)
    state = prepare_shared_excitation(cfg, (0, 1, 2))
    probs = state.probabilities()
    for idx in (0b001, 0b010, 0b100):
        assert probs[idx] == pytest.approx(1 / 3, abs=1e-4)
    w = np.zeros(8, dtype=complex)
    w[0b001] = w[0b010] = w[0b100] = 1 / math.sqrt(3)
    assert abs(np.vdot(w, state.amplitudes)) ** 2 == pytest.approx(1.0, abs=1e-9)
    assert 1.0 / (2 * effective_coupling(cfg, (0, 1, 2))) == pytest.approx(5.11, abs=0.01)


def test_prepare_shared_excitation_rejects_single_qubit():
    with pytest.raises(ValueError):
        prepare_shared_excitation(DeviceConfig.default(), (0,))


# ---------------------------------------------------------------------------
# swap spectroscopy
# ---------------------------------------------------------------------------

def test_chevron_centers_at_resonator_frequencies():
    cfg = DeviceConfig.default()
    freqs = np.round(np.arange(6.0, 7.3001, 0.005), 10)
    taus = np.arange(0.0, 80.01, 0.5)
    p_e = swap_spectroscopy(cfg, 0, freqs, taus)
    depth = p_e.min(axis=1)
    bus_window = (freqs > 6.0) & (freqs < 6.4)
    mem_window = (freqs > 6.6) & (freqs < 7.0)
    f_bus_found = freqs[bus_window][np.argmin(depth[bus_window])]
    f_mem_found = freqs[mem_window][np.argmin(depth[mem_window])]
    assert abs(f_bus_found - 6.1) <= 0.005 + 1e-12
    assert abs(f_mem_found - 6.8) <= 0.005 + 1e-12


def test_on_resonance_first_minimum_at_iswap_time():
    cfg = DeviceConfig.default()
    taus = np.arange(0.0, 20.001, 0.05)
    p_e = swap_spectroscopy(cfg, 0, [cfg.f_bus], taus)[0]
    t_min = taus[np.argmin(p_e)]
    assert t_min == pytest.approx(1 / (2 * 0.055), abs=0.1)
    assert p_e.min() < 1e-3


def test_far_detuned_transfer_is_suppressed():
    # residual bus transfer at the idle point: amplitude g²/(g²+Δ²) ≈ 0.012
    cfg = DeviceConfig.default()
    start = tensor_product([qubit_ket("e"), basis_ket_res(cfg, 0)])
    schedule = FrequencySchedule((Segment(80.0, (cfg.f_bus + 0.5,)),))
    trace, _ = propagate(start, schedule, cfg, sample_dt=0.25, qubits=(0,))
    assert trace.p_bus.max() <= 0.055**2 / (0.055**2 + 0.5**2) + 1e-3


def test_detuned_oscillation_frequency_matches_formula():
    cfg = DeviceConfig.default()
    taus = np.arange(0.0, 100.001, 0.25)
    for delta_mhz in (50.0, 100.0, 200.0):
        delta = delta_mhz * 1e-3
        p_e = swap_spectroscopy(cfg, 0, [cfg.f_bus + delta], taus)[0]
        freq, _ = fit_oscillation_frequency(taus, p_e)
        assert freq == pytest.approx(math.sqrt(0.055**2 + delta**2), rel=2e-2)


def test_spectroscopy_invariant_under_spectator_relabeling():
    cfg = DeviceConfig.default()
    relabeled = DeviceConfig(
        f_memory=(6.8, 7.1, 7.2, 6.9),
        g_bus=(55.0, 54.0, 56.0, 55.0),
        g_mem=(20.0, 21.0, 19.0, 20.0),
    )
    freqs = np.arange(6.05, 6.152, 0.01)
    taus = np.arange(0.0, 30.01, 0.5)
    np.testing.assert_allclose(
        swap_spectroscopy(cfg, 0, freqs, taus),
        swap_spectroscopy(relabeled, 0, freqs, taus),
        atol=1e-12,
    )


def test_spectroscopy_rejects_empty_grids():
    cfg = DeviceConfig.default()
    with pytest.raises(ValueError):
        swap_spectroscopy(cfg, 0, [], [1.0])


def test_memory_resonance_swap_period():
    # at memory resonance the excited qubit swaps into M1 in ~1/(2·20 MHz) = 25 ns
    cfg = DeviceConfig.default()
    taus = np.arange(0.0, 40.001, 0.05)
    p_e = swap_spectroscopy(cfg, 0, [cfg.f_memory[0]], taus)[0]
    t_min = taus[np.argmin(p_e)]
    assert t_min == pytest.approx(25.0, abs=1.0)
    assert p_e.min() < 0.02


# ---------------------------------------------------------------------------
# frequency fitting
# ---------------------------------------------------------------------------

def test_fit_oscillation_on_synthetic_cosine():
    t = np.arange(0.0, 200.0, 0.25)
    y = 0.5 + 0.5 * np.cos(2 * np.pi * 0.0565 * t + 0.3)
    freq, err = fit_oscillation_frequency(t, y)
    assert freq == pytest.approx(0.0565, rel=2e-3)
    assert 0 < err < 0.05


def test_fit_requires_uniform_grid():
    with pytest.raises(ValueError):
        fit_oscillation_frequency(np.array([0.0, 1.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]),
                                  np.zeros(8))


def test_mean_coupling_values():
    cfg = DeviceConfig(g_bus=(50.0, 60.0, 55.0, 55.0))
    assert mean_coupling(cfg, (0, 1)) * 1e3 == pytest.approx(55.23, abs=0.01)


# ---------------------------------------------------------------------------
# full-space oracles for the fast paths
# ---------------------------------------------------------------------------

def build_spectroscopy_hamiltonian(config, qubit_index, qubit_freq):
    """One qubit coupled to both the bus and its own memory resonator.

    Frame rotates at the bus frequency, so the memory mode carries the
    detuning f_M - f_B. Layout: [qubit, bus, memory].
    """
    layout = device_layout(config, (qubit_index,), n_resonators=2)
    dims = layout.dims
    eye = np.eye(layout.total_dim, dtype=complex)
    a = destroy(config.n_max + 1)
    exchange_op = np.kron(SIGMA_MINUS, a.conj().T)  # σ⁻ a†
    n_e = np.diag([0.0, 1.0]).astype(complex)
    n_phot = a.conj().T @ a

    delta_q = qubit_freq - config.f_bus
    delta_m = config.f_memory[qubit_index] - config.f_bus
    H = (delta_q * apply_local(n_e, eye, dims, (0,))
         + delta_m * apply_local(n_phot, eye, dims, (2,)))
    for res_pos, g in ((1, config.g_bus_ghz(qubit_index)), (2, config.g_mem_ghz(qubit_index))):
        exchange = apply_local(exchange_op, eye, dims, (0, res_pos))
        H += (g / 2) * (exchange + exchange.conj().T)
    return QuantumOperator(layout, H, hermitian=True)


def full_space_spectroscopy(config, qubit_index, freq_grid, tau_grid):
    """P_e(f, τ) from one full-space eigensolve per frequency."""
    tau_grid = np.asarray(tau_grid, dtype=float)
    res_dim = config.n_max + 1
    dim = 2 * res_dim * res_dim
    psi0 = np.zeros(dim, dtype=complex)
    psi0[res_dim * res_dim] = 1.0  # qubit excited, both resonators in vacuum
    excited = np.arange(dim) >= res_dim * res_dim
    p_e = np.empty((len(freq_grid), tau_grid.size))
    for row, f in enumerate(freq_grid):
        H = build_spectroscopy_hamiltonian(config, qubit_index, float(f))
        evals, vecs = np.linalg.eigh(H.elements)
        coeffs = vecs.conj().T @ psi0
        phases = np.exp(-2j * np.pi * np.outer(evals, tau_grid))
        amps = vecs @ (phases * coeffs[:, None])
        p_e[row] = np.sum(np.abs(amps[excited, :]) ** 2, axis=0)
    return np.clip(p_e, 0.0, 1.0)


def per_sample_propagate(state, schedule, config, sample_dt, qubits):
    """propagate() with one validated state and one occupation loop per sample."""
    n_q, res_dim = len(qubits), config.n_max + 1
    pure = isinstance(state, QuantumState)
    times, samples = [], []

    def record(t, current):
        table = np.clip(current.probabilities().real, 0.0, None).reshape(2 ** n_q, res_dim)
        rows = np.arange(2 ** n_q)
        p_q = [table[(rows >> (n_q - 1 - j)) & 1 == 1, :].sum() for j in range(n_q)]
        times.append(t)
        samples.append((p_q, table[:, 1].sum(), table[0, 0]))

    def pulse(value, pos):
        X = apply_local(SIGMA_X, np.eye(value.layout.total_dim), value.layout.dims, (pos,))
        if pure:
            return QuantumState(value.layout, X @ value.amplitudes)
        return DensityMatrix(value.layout, X @ value.elements @ X)

    current, t0, first = state, 0.0, True
    for seg in schedule.segments:
        for pos in seg.pulses:
            current = pulse(current, pos)
        if first:
            record(0.0, current)
            first = False
        H = build_jc_hamiltonian(config, seg.qubit_freqs, "bus", qubits)
        evals, vecs = np.linalg.eigh(H.elements)

        def advance(value, dt):
            phases = np.exp(-2j * np.pi * evals * dt)
            if pure:
                return QuantumState(value.layout, vecs @ (phases * (vecs.conj().T @ value.amplitudes)))
            U = (vecs * phases) @ vecs.conj().T
            return DensityMatrix(value.layout, U @ value.elements @ U.conj().T)

        n_steps = int(math.floor(seg.duration / sample_dt + 1e-12))
        for k in range(1, n_steps + 1):
            record(t0 + k * sample_dt, advance(current, k * sample_dt))
        if seg.duration > 0 and (n_steps == 0 or n_steps * sample_dt < seg.duration - 1e-12):
            record(t0 + seg.duration, advance(current, seg.duration))
        current = advance(current, seg.duration)
        t0 += seg.duration
    if first:
        record(0.0, current)
    trace = OccupationTrace(
        times=np.array(times),
        qubit_ids=tuple(qubits),
        p_qubit=np.clip(np.array([s[0] for s in samples]).T.reshape(n_q, -1), 0.0, 1.0),
        p_bus=np.clip(np.array([s[1] for s in samples]), 0.0, 1.0),
        p_vacuum=np.clip(np.array([s[2] for s in samples]), 0.0, 1.0),
    )
    return trace, current


@st.composite
def device_configs(draw):
    """Valid devices: random couplings (idle stays 5 max-couplings off the bus),
    memory frequencies and Fock cutoff."""
    mhz = st.floats(5.0, 95.0)
    return DeviceConfig(
        f_memory=tuple(draw(st.floats(6.2, 7.5)) for _ in range(4)),
        g_bus=tuple(draw(mhz) for _ in range(4)),
        g_mem=tuple(draw(mhz) for _ in range(4)),
        n_max=draw(st.integers(1, 3)),
    )


@PROPERTY
@given(config=device_configs(), qubit_index=st.integers(0, 3))
def test_block_chevron_matches_full_space_oracle(config, qubit_index):
    # grid points on both resonances plus detuned points across the operating range
    freqs = np.array([5.7, config.f_bus, 6.35, config.f_memory[qubit_index], 7.55])
    taus = np.arange(0.0, 40.001, 2.5)
    np.testing.assert_allclose(
        swap_spectroscopy(config, qubit_index, freqs, taus),
        full_space_spectroscopy(config, qubit_index, freqs, taus),
        rtol=0, atol=1e-12,
    )


def test_small_spectroscopy_fixture_matches_full_space_oracle():
    freqs, taus, grid = read_spectroscopy_csv(Path(__file__).parent / "data" / "spectroscopy_small.csv")
    oracle = full_space_spectroscopy(DeviceConfig.default(), 0, freqs, taus)
    np.testing.assert_allclose(grid, oracle, rtol=0, atol=1e-12)


def random_start(config, qubits, seed, mixed):
    layout = device_layout(config, qubits)
    rng = np.random.default_rng(seed)

    def ket():
        v = rng.normal(size=layout.total_dim) + 1j * rng.normal(size=layout.total_dim)
        return v / np.linalg.norm(v)

    if not mixed:
        return QuantumState(layout, ket())
    a, b, w = ket(), ket(), rng.uniform()
    return DensityMatrix(layout, w * np.outer(a, a.conj()) + (1 - w) * np.outer(b, b.conj()))


@st.composite
def schedules(draw, config, qubits, sample_dt):
    segments = []
    for _ in range(draw(st.integers(1, 3))):
        duration = draw(st.one_of(
            st.just(0.0),                              # zero-duration segment
            st.floats(0.01, sample_dt * 0.99),         # shorter than sample_dt
            st.floats(0.0, 8.0),
            st.integers(1, 8).map(lambda k: k * sample_dt),  # ends on the sample grid
        ))
        freqs = tuple(draw(st.floats(config.f_bus - 0.3, config.f_bus + 0.3)) for _ in qubits)
        pulses = tuple(draw(st.lists(st.integers(0, len(qubits) - 1), max_size=2)))
        segments.append(Segment(duration, freqs, pulses))
    return FrequencySchedule(tuple(segments))


def assert_matches_per_sample_loop(start, schedule, config, sample_dt, qubits):
    trace, final = propagate(start, schedule, config, sample_dt, qubits=qubits)
    expected, expected_final = per_sample_propagate(start, schedule, config, sample_dt, qubits)
    np.testing.assert_array_equal(trace.times, expected.times)
    for name in ("p_qubit", "p_bus", "p_vacuum"):
        np.testing.assert_allclose(getattr(trace, name), getattr(expected, name), rtol=0, atol=1e-13)
    values = (final.amplitudes, expected_final.amplitudes) if isinstance(final, QuantumState) else (
        final.elements, expected_final.elements)
    np.testing.assert_allclose(*values, rtol=0, atol=1e-13)


@PROPERTY
@given(data=st.data(), config=device_configs(), mixed=st.booleans(),
       qubits=st.sampled_from([(0,), (1, 3), (0, 1, 2)]),
       sample_dt=st.floats(0.5, 3.0), seed=st.integers(0, 2**32 - 1))
def test_vectorised_propagate_matches_per_sample_loop(data, config, mixed, qubits, sample_dt, seed):
    start = random_start(config, qubits, seed, mixed)
    schedule = data.draw(schedules(config, qubits, sample_dt))
    assert_matches_per_sample_loop(start, schedule, config, sample_dt, qubits)


def test_vectorised_propagate_matches_per_sample_loop_across_sample_blocks():
    cfg = DeviceConfig.default()
    qubits, sample_dt = (0, 1), 0.25
    schedule = FrequencySchedule((
        # ends on the sample grid after two full blocks, then off the grid
        Segment(2 * SAMPLE_BLOCK * sample_dt, (cfg.f_bus, cfg.f_bus + 0.05), pulses=(1,)),
        Segment((SAMPLE_BLOCK + 3.5) * sample_dt, (cfg.f_bus + 0.02, cfg.f_bus)),
    ))
    start = random_start(cfg, qubits, seed=7, mixed=False)
    assert_matches_per_sample_loop(start, schedule, cfg, sample_dt, qubits)
