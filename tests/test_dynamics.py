import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fullspace import (
    Segment,
    basis_vector,
    build_jc_hamiltonian,
    device_dims,
    full_space_resonance,
    full_space_shared_excitation,
    full_space_spectroscopy,
    kron_states,
    propagate,
    pump_fock,
)
from qproc_sim.dynamics import (
    SPECTROSCOPY_BLOCK_CELLS,
    ConfigError,
    DeviceConfig,
    OccupationTrace,
    effective_coupling,
    fit_oscillation_frequencies,
    fit_oscillation_frequency,
    mean_coupling,
    prepare_shared_excitation,
    simultaneous_resonance,
    swap_spectroscopy,
)
from qproc_sim.harness import read_spectroscopy_csv
from qproc_sim.hilbert import NORM_TOL, InvariantError, apply_local, qubit_ket

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


@pytest.mark.parametrize("field", ["f_memory", "f_idle", "g_bus", "g_mem"])
def test_config_rejects_a_string_for_a_per_qubit_list(field):
    # iterated, "2222" would be one value per character
    with pytest.raises(ConfigError, match=f"{field} must list one value per qubit"):
        DeviceConfig(**{field: "2222"})


@pytest.mark.parametrize("change, fragment", [
    ({"f_bus": 0.999}, "f_bus must lie in 1.0..20.0 GHz"),
    ({"f_memory": (6.8, 7.2, 7.1, 20.001)}, "f_memory[3] must lie in 1.0..20.0 GHz"),
    ({"g_mem": (20.0, 500.001, 20.0, 20.0)}, "g_mem[1] must be > 0 and at most 500.0 MHz"),
])
def test_config_rejects_values_outside_the_physical_band(change, fragment):
    with pytest.raises(ConfigError) as exc:
        DeviceConfig(**change)
    assert len(exc.value.violations) == 1 and fragment in exc.value.violations[0]
    band_edges = {"f_bus": 1.0, "f_memory": (6.8, 7.2, 7.1, 20.0), "g_mem": (20.0, 500.0, 20.0, 20.0)}
    DeviceConfig(**{key: band_edges[key] for key in change})  # the edges themselves are in


def test_config_rejects_idle_too_close_to_bus():
    with pytest.raises(ConfigError) as exc:
        DeviceConfig(f_idle=(6.2, 6.6, 6.6, 6.6))
    assert any("coupling-off regime violated" in v for v in exc.value.violations)


def test_config_roundtrip_dict():
    cfg = DeviceConfig.default()
    again = DeviceConfig.from_dict(cfg.to_dict())
    assert again == cfg


# ---------------------------------------------------------------------------
# full-space oracle: Hamiltonian construction
# ---------------------------------------------------------------------------

def test_single_qubit_resonant_block():
    cfg = DeviceConfig.default()
    H = build_jc_hamiltonian(cfg, qubit_freqs=(cfg.f_bus,), qubits=(0,))
    d = cfg.n_max + 1
    idx_e0 = d      # qubit excited, vacuum
    idx_g1 = 1      # qubit ground, one photon
    assert H[idx_g1, idx_e0] == pytest.approx(0.0275)
    assert H[idx_e0, idx_g1] == pytest.approx(0.0275)
    assert H[idx_e0, idx_e0] == pytest.approx(0.0)


def excitation_number(dims) -> np.ndarray:
    """N_exc = Σ σ⁺σ⁻ over qubit factors + Σ a†a over resonator factors."""
    eye = np.eye(math.prod(dims), dtype=complex)
    total = np.zeros_like(eye)
    for k, dim in enumerate(dims):
        # σ⁺σ⁻ on a qubit and a†a on a resonator are both diag(0, 1, ..., dim - 1)
        op = np.diag(np.arange(dim, dtype=float)).astype(complex)
        total += apply_local(op, eye, dims, (k,))
    return total


def test_hamiltonian_conserves_excitation_number():
    cfg = DeviceConfig.default()
    for _ in range(5):
        freqs = tuple(6.1 + RNG.uniform(-0.5, 0.5, size=4))
        H = build_jc_hamiltonian(cfg, qubit_freqs=freqs)
        N = excitation_number(device_dims(cfg, cfg.n_qubits))
        comm = H @ N - N @ H
        assert np.max(np.abs(comm)) < 1e-14


# ---------------------------------------------------------------------------
# full-space oracle: propagate
# ---------------------------------------------------------------------------

def test_zero_duration_schedule_identity():
    cfg = DeviceConfig.default()
    start = basis_vector(device_dims(cfg, 1), 1)
    trace, _, final = propagate(start, (Segment(0.0, (cfg.f_bus,)),), cfg, sample_dt=1.0,
                                qubits=(0,))
    np.testing.assert_allclose(final, start)
    assert trace.times.tolist() == [0.0]


def test_resonant_bus_population_is_sinusoidal():
    # qubit starts excited, bus in vacuum: P_B(t) = sin²(π g t)
    cfg = fitted_config(56.5)
    start = excited_qubit_and_empty_bus(cfg)
    trace, _, _ = propagate(start, (Segment(30.0, (cfg.f_bus,)),), cfg, sample_dt=0.1, qubits=(0,))
    expected = np.sin(np.pi * 0.0565 * trace.times) ** 2
    np.testing.assert_allclose(trace.p_bus, expected, atol=1e-9)
    assert start.size == math.prod(device_dims(cfg, 1))


def excited_qubit_and_empty_bus(cfg):
    return kron_states(qubit_ket("e").amplitudes, basis_vector((cfg.n_max + 1,), 0))


def test_detuned_rabi_matches_analytic_formula():
    # two-level Rabi oracle: P_transfer = g²/(g²+Δ²) · sin²(π √(g²+Δ²) t)
    cfg = DeviceConfig.default()
    g = 0.055
    delta = 0.100
    start = excited_qubit_and_empty_bus(cfg)
    schedule = (Segment(50.0, (cfg.f_bus + delta,)),)
    trace, _, _ = propagate(start, schedule, cfg, sample_dt=0.1, qubits=(0,))
    amp = g**2 / (g**2 + delta**2)
    rabi = math.sqrt(g**2 + delta**2)
    expected = amp * np.sin(np.pi * rabi * trace.times) ** 2
    np.testing.assert_allclose(trace.p_bus, expected, atol=1e-9)
    assert amp == pytest.approx(0.232, abs=5e-4)
    assert rabi * 1e3 == pytest.approx(114.2, abs=0.1)


def test_excitation_conserved_along_schedule():
    cfg = DeviceConfig.default()
    trace = simultaneous_resonance(cfg, (0, 1, 2), dtau_max=40.0, sample_dt=0.5)
    totals = trace.p_qubit.sum(axis=0) + trace.p_bus
    np.testing.assert_allclose(totals, 1.0, atol=1e-9)


@pytest.mark.parametrize("qubit", [-1, 4])
def test_propagate_rejects_qubits_outside_the_device(qubit):
    # a negative index must not wrap around to the last qubit's coupling, or the oracle
    # would check a block solve against the wrong qubit
    cfg = DeviceConfig.default()
    start = excited_qubit_and_empty_bus(cfg)
    with pytest.raises(ValueError, match="outside"):
        propagate(start, (Segment(5.0, (cfg.f_bus,)),), cfg, sample_dt=1.0, qubits=(qubit,))


def test_segment_shorter_than_sample_dt_contributes_one_sample():
    cfg = DeviceConfig.default()
    start = excited_qubit_and_empty_bus(cfg)
    trace, _, final = propagate(start, (Segment(1.2, (cfg.f_bus,)),), cfg, sample_dt=5.0,
                                qubits=(0,))
    assert trace.times.tolist() == [0.0, 1.2]
    # final state is exact regardless of the sampling grid
    assert trace.p_bus[-1] == pytest.approx(math.sin(math.pi * 0.055 * 1.2) ** 2, abs=1e-12)
    assert final.shape == start.shape


# ---------------------------------------------------------------------------
# full-space oracle: Fock pumping
# ---------------------------------------------------------------------------

def test_pump_fock_full_transfer():
    cfg = DeviceConfig.default()
    state = pump_fock(cfg)
    dims = device_dims(cfg, cfg.n_qubits)
    table = (np.abs(state) ** 2).reshape(-1, dims[-1])
    p_bus = table[:, 1].sum()
    p_q1 = table[(np.arange(table.shape[0]) >> 3) & 1 == 1, :].sum()
    assert p_bus >= 1 - 1e-6
    assert p_q1 <= 1e-6


def test_pump_fock_halved_coupling_partial_transfer():
    cfg = DeviceConfig.default()
    halved = DeviceConfig(g_bus=(27.5, 55.0, 55.0, 55.0))
    duration = 1.0 / (2 * cfg.g_bus_ghz(0))
    state = pump_fock(halved, swap_duration=duration)
    table = (np.abs(state) ** 2).reshape(-1, cfg.n_max + 1)
    assert table[:, 1].sum() == pytest.approx(0.5, abs=1e-9)


def test_pump_fock_truncation_independent():
    lo = DeviceConfig(n_max=1)
    hi = DeviceConfig(n_max=3)
    state_lo = pump_fock(lo)
    state_hi = pump_fock(hi)
    table_lo = (np.abs(state_lo) ** 2).reshape(-1, 2)
    table_hi = (np.abs(state_hi) ** 2).reshape(-1, 4)
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


@pytest.mark.parametrize("times, qubit_ids, p_qubit, p_bus", [
    ([0.0, 1.0, 2.0], (0, 3), [[0.5]], [0.5]),  # every array of another length
    ([0.0, 1.0], (0, 3), [[0.5, 0.5]], [0.5, 0.5]),  # one row for two qubit ids
    ([0.0, 1.0], (0,), [[0.5, 0.5]], [0.5]),  # one bus sample for two times
    ([0.0, 1.0], (0,), [[0.5], [0.5]], [0.5, 0.5]),  # p_qubit transposed
    ([[0.0, 1.0]], (0,), [[0.5, 0.5]], [0.5, 0.5]),  # 2-D times
    ([0.0, 1.0], (0,), [0.5, 0.5], [0.5, 0.5]),  # 1-D p_qubit
], ids=["all", "rows", "bus", "transposed", "times_2d", "p_qubit_1d"])
def test_occupation_trace_rejects_arrays_that_disagree_in_shape(times, qubit_ids, p_qubit,
                                                                  p_bus):
    OccupationTrace(times=[0.0, 1.0], qubit_ids=(0, 3), p_qubit=[[0.5, 0.5], [0.0, 0.5]],
                    p_bus=[0.5, 0.5])
    with pytest.raises(ValueError, match="occupation trace needs 1-D times"):
        OccupationTrace(times=times, qubit_ids=qubit_ids, p_qubit=p_qubit, p_bus=p_bus)


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
    start = excited_qubit_and_empty_bus(cfg)
    schedule = (Segment(80.0, (cfg.f_bus + 0.5,)),)
    trace, _, _ = propagate(start, schedule, cfg, sample_dt=0.25, qubits=(0,))
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


def test_batched_fits_are_the_fits_of_each_trace():
    cfg = fitted_config(56.5)
    traces = [simultaneous_resonance(cfg, tuple(range(n)), dtau_max=200.0, sample_dt=0.25)
              for n in range(1, 5)]
    t = traces[0].times
    rows = [trace.p_bus for trace in traces]
    rows += [0.5 + 0.5 * np.cos(2 * np.pi * 0.0565 * t + 0.3),
             np.random.default_rng(7).random(t.size)]
    fits = fit_oscillation_frequencies(t, rows)
    assert fits == [fit_oscillation_frequency(t, row) for row in rows]  # bit for bit
    assert all(type(v) is float for fit in fits for v in fit)


def test_fit_requires_uniform_grid():
    with pytest.raises(ValueError):
        fit_oscillation_frequency(np.array([0.0, 1.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]),
                                  np.zeros(8))


def test_mean_coupling_values():
    cfg = DeviceConfig(g_bus=(50.0, 60.0, 55.0, 55.0))
    assert mean_coupling(cfg, (0, 1)) * 1e3 == pytest.approx(55.23, abs=0.01)


# every library entry point that takes a qubit index, called with index q
INDEXED_ENTRY_POINTS = {
    "swap_spectroscopy": lambda cfg, q: swap_spectroscopy(cfg, q, [6.1], [0.0, 1.0]),
    "mean_coupling": lambda cfg, q: mean_coupling(cfg, (0, q)),
    "effective_coupling": lambda cfg, q: effective_coupling(cfg, (q, 0)),
    "g_bus_ghz": lambda cfg, q: cfg.g_bus_ghz(q),
    "g_mem_ghz": lambda cfg, q: cfg.g_mem_ghz(q),
}


@pytest.mark.parametrize("qubit", [-1, 4])
@pytest.mark.parametrize("entry", list(INDEXED_ENTRY_POINTS))
def test_qubit_indices_outside_the_device_do_not_wrap(entry, qubit):
    # unequal couplings and memories: a wrapped -1 would silently read Q4's values
    cfg = DeviceConfig(g_bus=(50.0, 52.0, 54.0, 56.0), g_mem=(20.0, 21.0, 22.0, 23.0),
                       f_memory=(6.8, 7.2, 7.1, 6.9))
    with pytest.raises(ValueError, match=f"qubit index {qubit} outside 0..3"):
        INDEXED_ENTRY_POINTS[entry](cfg, qubit)
    INDEXED_ENTRY_POINTS[entry](cfg, 3)


# ---------------------------------------------------------------------------
# block solves against the full-space oracles
# ---------------------------------------------------------------------------

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


def one_shot_swap_spectroscopy(config, qubit_index, freq_grid, tau_grid):
    """The chevron solved as one batch over the whole grid, as before the block solve."""
    freq_grid = np.asarray(freq_grid, dtype=float)
    tau_grid = np.asarray(tau_grid, dtype=float)
    H = np.zeros((freq_grid.size, 3, 3))
    H[:, 0, 0] = freq_grid - config.f_bus
    H[:, 2, 2] = config.f_memory[qubit_index] - config.f_bus
    H[:, 0, 1] = H[:, 1, 0] = config.g_bus_ghz(qubit_index) / 2
    H[:, 0, 2] = H[:, 2, 0] = config.g_mem_ghz(qubit_index) / 2
    evals, vecs = np.linalg.eigh(H)
    amps = np.einsum("fk,fkt->ft", vecs[:, 0, :] ** 2,
                     np.exp(-2j * np.pi * evals[:, :, None] * tau_grid))
    probs = np.abs(amps) ** 2
    assert np.max(probs) - 1.0 <= NORM_TOL
    return np.clip(probs, 0.0, 1.0, out=probs)


BLOCK = SPECTROSCOPY_BLOCK_CELLS
# (frequencies, delays): one frequency; one delay; rows longer than a block, so one row per
# block; and grids whose last block is partial
chevron_shapes = (st.tuples(st.just(1), st.integers(1, 3 * BLOCK))
                  | st.tuples(st.integers(1, 3 * BLOCK), st.just(1))
                  | st.tuples(st.integers(1, 3), st.integers(BLOCK + 1, BLOCK + 500))
                  | st.tuples(st.integers(2, 80), st.integers(2, 400)))


@PROPERTY
@example(config=DeviceConfig.default(), qubit_index=0, shape=(261, 201), tau_max=100.0)
@example(config=DeviceConfig.default(), qubit_index=2, shape=(1001, 37), tau_max=18.0)
@example(config=DeviceConfig.default(), qubit_index=3, shape=(3, BLOCK), tau_max=80.0)
@given(config=device_configs(), qubit_index=st.integers(0, 3), shape=chevron_shapes,
       tau_max=st.floats(0.0, 300.0))
def test_blockwise_chevron_equals_one_shot_solve_bit_for_bit(config, qubit_index, shape,
                                                             tau_max):
    n_f, n_tau = shape
    idle = config.f_idle[qubit_index]
    freqs = np.linspace(idle - 0.95, idle + 0.95, n_f)
    taus = np.linspace(0.0, tau_max, n_tau)
    blocks = swap_spectroscopy(config, qubit_index, freqs, taus)
    one_shot = one_shot_swap_spectroscopy(config, qubit_index, freqs, taus)
    # compared as bit patterns, so +0.0 and -0.0 differ
    np.testing.assert_array_equal(blocks.view(np.int64), one_shot.view(np.int64))


participant_sets = st.lists(st.integers(0, 3), min_size=1, max_size=4, unique=True)


@PROPERTY
@given(data=st.data(), config=device_configs(), participants=participant_sets,
       sample_dt=st.floats(0.1, 2.0))
def test_block_resonance_matches_full_space_oracle(data, config, participants, sample_dt):
    dtau_max = data.draw(st.one_of(
        st.floats(0.0, 60.0),
        st.integers(0, 300).map(lambda k: k * sample_dt),  # ends on the sample grid
    ))
    trace = simultaneous_resonance(config, participants, dtau_max, sample_dt)
    expected, p_ground, _ = full_space_resonance(config, participants, dtau_max, sample_dt)
    assert trace.qubit_ids == expected.qubit_ids
    np.testing.assert_array_equal(trace.times, expected.times)
    for name in ("p_qubit", "p_bus"):
        np.testing.assert_allclose(getattr(trace, name), getattr(expected, name), rtol=0, atol=1e-13)
    assert p_ground.max() <= 1e-13


@PROPERTY
@given(config=device_configs(), participants=participant_sets.filter(lambda p: len(p) >= 2))
def test_block_shared_excitation_matches_full_space_oracle(config, participants):
    state = prepare_shared_excitation(config, participants)
    expected = full_space_shared_excitation(config, participants)
    assert state.n_qubits == expected.n_qubits
    np.testing.assert_allclose(state.amplitudes, expected.amplitudes, rtol=0, atol=1e-13)


def test_block_resonance_matches_oracle_at_default_rabi_options():
    cfg = DeviceConfig.default()
    for n in range(1, 5):
        trace = simultaneous_resonance(cfg, tuple(range(n)), dtau_max=200.0, sample_dt=0.25)
        expected, p_ground, _ = full_space_resonance(cfg, tuple(range(n)), 200.0, 0.25)
        np.testing.assert_array_equal(trace.times, expected.times)
        np.testing.assert_allclose(trace.p_bus, expected.p_bus, rtol=0, atol=1e-15)
        assert p_ground.max() <= 1e-13


COLLECTIVE_PROTOCOLS = {
    "resonance": lambda cfg, participants: simultaneous_resonance(cfg, participants, 20.0, 0.5),
    "shared_excitation": prepare_shared_excitation,
}


@pytest.mark.parametrize("participants", [(-1, 0), (0, 4), (-1, 1, 2, 3), (0, 1, 2, 4)])
@pytest.mark.parametrize("protocol", list(COLLECTIVE_PROTOCOLS))
def test_collective_protocols_reject_qubits_outside_the_device(protocol, participants):
    # a negative index must not wrap around to the last qubit
    with pytest.raises(ValueError, match="outside"):
        COLLECTIVE_PROTOCOLS[protocol](DeviceConfig.default(), participants)


@pytest.mark.parametrize("protocol", list(COLLECTIVE_PROTOCOLS))
def test_collective_protocols_reject_bus_outside_operating_range(protocol):
    far_idle = DeviceConfig(f_idle=(6.6, 7.2, 6.6, 6.6))  # Q2 idles 1.1 GHz above the bus
    with pytest.raises(ValueError, match="operating range"):
        COLLECTIVE_PROTOCOLS[protocol](far_idle, (0, 1))
    COLLECTIVE_PROTOCOLS[protocol](far_idle, (0, 2))


@pytest.mark.parametrize("protocol", list(COLLECTIVE_PROTOCOLS))
def test_collective_protocols_check_sampled_norms(protocol, monkeypatch):
    eigh = np.linalg.eigh

    def scaled_eigh(a, *args, **kwargs):
        evals, vecs = eigh(a, *args, **kwargs)
        return evals, vecs * (1 + 1e-6)

    monkeypatch.setattr(np.linalg, "eigh", scaled_eigh)
    with pytest.raises(InvariantError, match="sampled state norm"):
        COLLECTIVE_PROTOCOLS[protocol](DeviceConfig.default(), (0, 1, 2))


def test_swap_spectroscopy_checks_probabilities_before_the_clip(monkeypatch):
    eigh = np.linalg.eigh

    def scaled_eigh(a, *args, **kwargs):
        evals, vecs = eigh(a, *args, **kwargs)
        return evals, vecs * (1 + 1e-6)

    monkeypatch.setattr(np.linalg, "eigh", scaled_eigh)
    with pytest.raises(InvariantError, match="chevron probabilities must be finite"):
        swap_spectroscopy(DeviceConfig.default(), 0, [6.5, 6.8], [0.0, 10.0])


@pytest.mark.parametrize("protocol", list(COLLECTIVE_PROTOCOLS))
def test_collective_protocols_reject_nan_samples(protocol, monkeypatch):
    eigh = np.linalg.eigh

    def nan_eigh(a, *args, **kwargs):
        evals, vecs = eigh(a, *args, **kwargs)
        return evals, np.where(np.eye(len(vecs), dtype=bool), np.nan, vecs)

    monkeypatch.setattr(np.linalg, "eigh", nan_eigh)
    with pytest.raises(InvariantError, match="sampled state norm"):
        COLLECTIVE_PROTOCOLS[protocol](DeviceConfig.default(), (0, 1, 2))


def test_shared_excitation_checks_resonator_vacuum_at_stop_time(monkeypatch):
    # stopping 10% early leaves the photon partly in the bus
    coupling = effective_coupling
    monkeypatch.setattr("qproc_sim.dynamics.effective_coupling",
                        lambda cfg, participants: coupling(cfg, participants) / 0.9)
    with pytest.raises(InvariantError, match="resonator not in vacuum"):
        prepare_shared_excitation(DeviceConfig.default(), (0, 1))


def test_simultaneous_resonance_rejects_bad_sampling():
    cfg = DeviceConfig.default()
    for dtau_max, sample_dt in ((10.0, 0.0), (10.0, -0.5), (-1.0, 0.5)):
        with pytest.raises(ValueError):
            simultaneous_resonance(cfg, (0,), dtau_max, sample_dt)
