"""End-to-end acceptance suite.

Each test runs one numbered criterion at its stated tolerance and prints a
single PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).
Criteria with a runtime budget assert it too.
"""

import math
import time

import numpy as np

from fullspace import build_jc_hamiltonian, build_spectroscopy_hamiltonian, expm, pump_fock
from qproc_sim.circuits import (
    build_shor,
    classical_factors,
    extract_period,
    factor_fifteen,
    output_distribution,
    run_circuit,
)
from qproc_sim.dynamics import (
    DeviceConfig,
    _block_amplitudes,
    _collective_amplitudes,
    effective_coupling,
    fit_oscillation_frequency,
    prepare_shared_excitation,
    simultaneous_resonance,
    swap_spectroscopy,
)
from qproc_sim.harness import main
from qproc_sim.hilbert import (
    DensityMatrix,
    partial_trace,
    superposition_ket,
)
from qproc_sim.noise import NoiseParams
from qproc_sim.tomography import (
    bell_singlet,
    concurrence_eof,
    ghz_state,
    linear_entropy,
    max_abs_imag,
    phase_gauged_fidelity,
    reconstruct,
    simulate_tomography,
    state_fidelity,
    uhlmann_fidelity,
    w_state,
    witness_check,
)

def _finish(num, limit_s, t0, checks):
    elapsed = time.perf_counter() - t0
    ok = all(passed for passed, _ in checks)
    timing = ""
    if limit_s is not None:
        timing = f" [{elapsed:.2f}s/{limit_s:g}s]"
        ok = ok and elapsed < limit_s
    detail = "; ".join(msg for _, msg in checks)
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}{timing}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def psi3():
    return superposition_ket([("ggg", 1), ("egg", 1), ("gee", 1), ("eee", -1)])


def test_criterion_01_sqrt_n_scaling():
    t0 = time.perf_counter()
    config = DeviceConfig(g_bus=(56.5,) * 4)
    targets_mhz = (56.5, 79.9, 97.9, 113.0)
    checks = []
    for n, target in zip(range(1, 5), targets_mhz):
        trace = simultaneous_resonance(config, tuple(range(n)), dtau_max=200.0, sample_dt=0.25)
        fitted, _ = fit_oscillation_frequency(trace.times, trace.p_bus)
        fitted_mhz = fitted * 1e3
        checks.append((
            abs(fitted_mhz - target) <= 0.01 * target,
            f"N={n}: {fitted_mhz:.2f} MHz vs {target}",
        ))
    _finish(1, 10.0, t0, checks)


def test_criterion_02_iswap_timing():
    t0 = time.perf_counter()
    config = DeviceConfig.default()  # g1 = 55 MHz
    tau = 1.0 / (2 * config.g_bus_ghz(0))
    # full-space oracle: Q1 -> bus
    state = pump_fock(config)
    table = (np.abs(state) ** 2).reshape(-1, config.n_max + 1)
    p_bus = float(table[:, 1].sum())
    # shipped block solve: bus -> Q1
    trace = simultaneous_resonance(config, (0,), tau, tau)
    p_q1 = float(trace.p_qubit[0, -1])
    checks = [
        (abs(tau - 9.0909) < 0.01, f"tau={tau:.4f} ns"),
        (p_bus >= 0.999, f"pump transfer={p_bus:.6f}"),
        (trace.times[-1] == tau and p_q1 >= 0.999,
         f"resonance transfer={p_q1:.6f} (bus left {trace.p_bus[-1]:.1e})"),
    ]
    _finish(2, 1.0, t0, checks)


def test_criterion_03_swap_spectroscopy():
    t0 = time.perf_counter()
    config = DeviceConfig.default()
    step = 0.005
    freqs = np.round(np.arange(6.0, 7.3 + step / 2, step), 9)
    taus = np.arange(0.0, 100.001, 0.5)
    grid = swap_spectroscopy(config, 0, freqs, taus)
    depth = grid.min(axis=1)

    checks = []
    for f_res, window in ((6.1, (6.0, 6.4)), (6.8, (6.55, 7.05))):
        sel = (freqs >= window[0]) & (freqs <= window[1])
        found = float(freqs[sel][np.argmin(depth[sel])])
        checks.append((
            abs(found - f_res) <= step + 1e-12,
            f"chevron at {found:.3f} GHz vs {f_res}",
        ))

    g = config.g_bus_ghz(0)
    for delta_mhz in (50.0, 100.0, 200.0):
        delta = delta_mhz * 1e-3
        row = int(np.argmin(np.abs(freqs - (config.f_bus + delta))))
        fitted, _ = fit_oscillation_frequency(taus, grid[row])
        expected = math.sqrt(g * g + delta * delta)
        checks.append((
            abs(fitted - expected) <= 0.02 * expected,
            f"Δ={delta_mhz:.0f} MHz: {fitted * 1e3:.1f} vs {expected * 1e3:.1f} MHz",
        ))
    _finish(3, 60.0, t0, checks)


def test_criterion_04_entanglement_preparation():
    t0 = time.perf_counter()
    config = DeviceConfig.default()
    bell = prepare_shared_excitation(config, (0, 1))
    bell_fid = phase_gauged_fidelity(bell, bell_singlet()).gauged
    w = prepare_shared_excitation(config, (0, 1, 2))
    w_fid = phase_gauged_fidelity(w, w_state()).gauged

    w_witness = witness_check(w.density_matrix(), "W", w_state())
    ghz = run_circuit(build_shor("three_qubit")).breakpoint_states["step2"]
    ghz_witness = witness_check(ghz.density_matrix(), "GHZ", ghz_state())

    checks = [
        (bell_fid >= 0.99, f"Bell gauged fidelity {bell_fid:.6f}"),
        (w_fid >= 0.99, f"W gauged fidelity {w_fid:.6f}"),
        (w_witness.passed and w_witness.margin > 0.3,
         f"F_W margin {w_witness.margin:.4f}"),
        (ghz_witness.passed and ghz_witness.margin > 0.3,
         f"F_GHZ margin {ghz_witness.margin:.4f}"),
    ]
    _finish(4, 5.0, t0, checks)


def test_criterion_05_shor_ideal():
    t0 = time.perf_counter()
    circuit = build_shor("three_qubit")
    run = run_circuit(circuit)
    dist = output_distribution(run.final, circuit.output_bits)
    result, _ = factor_fifteen(circuit, shots=150_000, seed=7)
    freq = result.output_counts["10"] / result.shots
    ghz_fid = state_fidelity(run.breakpoint_states["step2"].density_matrix(), ghz_state())
    psi3_fid = state_fidelity(run.breakpoint_states["step3"].density_matrix(), psi3())

    checks = [
        (np.allclose(dist, [0.5, 0, 0.5, 0], atol=1e-12),
         f"exact dist {{'00': {dist[0]:.3f}, '10': {dist[2]:.3f}}}"),
        (0.496 <= freq <= 0.504, f"sampled success {freq:.4f}"),
        (extract_period("10", 2) == 2, "extract_period('10')=2"),
        (classical_factors(4, 2, 15) == (3, 5), "factors (3, 5)"),
        (abs(ghz_fid - 1) <= 1e-9, f"GHZ breakpoint fidelity {ghz_fid:.12f}"),
        (abs(psi3_fid - 1) <= 1e-9, f"psi3 breakpoint fidelity {psi3_fid:.12f}"),
    ]
    _finish(5, 5.0, t0, checks)


def test_criterion_06_control_experiment():
    t0 = time.perf_counter()
    circuit = build_shor("control")
    result, _ = factor_fifteen(circuit, shots=10_000, seed=7)
    all_zero = result.output_counts["00"] == result.shots

    fidelities = []
    for t1 in (200.0, 400.0, 800.0, 1600.0):
        noise = NoiseParams(t1=(t1,) * 3, t_phi=(math.inf,) * 3)
        run = run_circuit(circuit, noise)
        register = partial_trace(run.final, {0})
        fidelities.append(float(register.elements[0, 0].real))
    monotone = all(a < b for a, b in zip(fidelities, fidelities[1:]))
    below_unity = all(f < 1.0 for f in fidelities)

    checks = [
        (all_zero, f"ideal control: {result.output_counts['00']}/{result.shots} '00'"),
        (below_unity and monotone,
         "damped fidelities " + ", ".join(f"{f:.4f}" for f in fidelities)),
    ]
    _finish(6, 5.0, t0, checks)


def test_criterion_07_tomography_roundtrip():
    t0 = time.perf_counter()
    states = {
        "Bell": bell_singlet(),
        "W": w_state(),
        "GHZ": ghz_state(),
        "psi3": psi3(),
    }
    checks = []
    for name, state in states.items():
        n = state.n_qubits
        record = simulate_tomography(state, tuple(range(n)), 10_000, seed=21)
        rho_hat = reconstruct(record)
        fid = state_fidelity(rho_hat, state)
        trace_err = abs(np.trace(rho_hat.elements).real - 1)
        min_eig = float(np.linalg.eigvalsh(rho_hat.elements).min())
        imag = max_abs_imag(rho_hat)
        checks.append((
            fid >= 0.98 and trace_err <= 1e-9 and min_eig >= -1e-9 and imag < 0.06,
            f"{name}: F={fid:.4f}, maxIm={imag:.4f}",
        ))
    _finish(7, 30.0, t0, checks)


def test_criterion_08_propagator_oracle():
    # the one propagator of the chevron and the collective protocols, against a 40-term
    # Taylor series with scaling and squaring of each protocol's full Fock-space Hamiltonian
    t0 = time.perf_counter()
    rng = np.random.default_rng(20120815)
    config = DeviceConfig.default()
    res_dim = config.n_max + 1

    blocks = 0.0
    for _ in range(50):
        dim = int(rng.integers(2, 33))
        raw = rng.normal(size=(dim, dim))
        H = (raw + raw.T) / 2
        H *= float(rng.uniform(0.02, 0.2)) / np.linalg.norm(H, 2)  # GHz
        times = rng.uniform(0.5, 6.0, size=3)
        oracle = np.array([expm(-2j * np.pi * t * H)[:, 0] for t in times]).T
        blocks = max(blocks, np.max(np.abs(_block_amplitudes(H, times) - oracle)))

    # chevron: P_e of |e00> over the qubit's excited half of [qubit, bus, memory]
    freqs, taus = np.linspace(5.9, 7.3, 11), np.linspace(0.0, 60.0, 7)
    excited = slice(res_dim * res_dim, None)
    oracle = np.array([[np.sum(np.abs(expm(-2j * np.pi * tau * H)[excited, res_dim * res_dim])
                               ** 2) for tau in taus]
                       for H in (build_spectroscopy_hamiltonian(config, 0, f) for f in freqs)])
    chevron = np.max(np.abs(swap_spectroscopy(config, 0, freqs, taus) - oracle))

    # collective: amplitudes of |g…g,1> and each |e_k,0> over [participants, bus]
    collective = 0.0
    for participants in ((0,), (0, 1), (1, 3), (0, 1, 2), (0, 1, 2, 3)):
        n = len(participants)
        times = np.linspace(0.0, 1.0 / effective_coupling(config, participants), 9)
        H = build_jc_hamiltonian(config, (config.f_bus,) * n, participants)
        rows = [1] + [res_dim << (n - 1 - k) for k in range(n)]
        oracle = np.array([expm(-2j * np.pi * t * H)[rows, 1] for t in times]).T
        amps = _collective_amplitudes(config, participants, times)
        collective = max(collective, np.max(np.abs(amps - oracle)))

    checks = [(worst <= 1e-9, f"{name}: max |U - Taylor40| = {worst:.2e}")
              for name, worst in (("blocks", blocks), ("chevron", chevron),
                                  ("collective", collective))]
    _finish(8, 10.0, t0, checks)


def test_criterion_09_metric_identities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20120909)
    _, eof = concurrence_eof(bell_singlet().density_matrix())

    werner = DensityMatrix(0.5 * bell_singlet().density_matrix().elements
                           + 0.5 * np.eye(4) / 4)
    c_werner, _ = concurrence_eof(werner)

    s_l = linear_entropy(DensityMatrix(np.eye(2) / 2))

    uhlmann_worst = 0.0
    for _ in range(5):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = DensityMatrix((a @ a.conj().T) / np.trace(a @ a.conj().T))
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi = superposition_ket([("gg", amps[0]), ("ge", amps[1]), ("eg", amps[2]), ("ee", amps[3])])
        gap = abs(uhlmann_fidelity(rho, psi.density_matrix()) ** 2 - state_fidelity(rho, psi))
        uhlmann_worst = max(uhlmann_worst, gap)

    checks = [
        (abs(eof - 1) <= 1e-9, f"EOF(singlet)={eof:.12f}"),
        (abs(c_werner - 0.25) <= 1e-9, f"C(Werner 0.5)={c_werner:.12f}"),
        (abs(s_l - 1) <= 1e-9, f"S_L(I/2)={s_l:.12f}"),
        (uhlmann_worst <= 1e-9, f"max |uhlmann² - <psi|rho|psi>| = {uhlmann_worst:.2e}"),
    ]
    _finish(9, None, t0, checks)


def test_criterion_10_determinism(tmp_path):
    t0 = time.perf_counter()
    outputs = []
    for sub in ("run_a", "run_b"):
        out = tmp_path / sub
        code = main(["shor", "--seed", "7", "--out", str(out)])
        assert code == 0
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    identical = outputs[0] == outputs[1]
    checks = [(identical, f"{sorted(outputs[0])} byte-identical across runs")]
    _finish(10, None, t0, checks)
