"""Full-space oracles for the library's block solves.

The library solves every shipped protocol exactly in its one-excitation block.
The tests check those solves against the solves here, which build the whole
Fock-truncated space of the listed qubits and resonators (cutoff
``DeviceConfig.n_max``) and propagate one validated state per sample.
"""

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from qproc_sim.dynamics import DeviceConfig, OccupationTrace, effective_coupling
from qproc_sim.hilbert import (
    SIGMA_MINUS,
    SIGMA_X,
    QuantumOperator,
    QuantumState,
    SpaceLayout,
    apply_local,
    basis_ket,
    destroy,
    permute_factors,
    qubit,
    qubit_ket,
    resonator,
    tensor_product,
)


def device_layout(config: DeviceConfig, qubits: Sequence[int], n_resonators: int = 1) -> SpaceLayout:
    """Layout for the given qubits (ascending significance order) plus resonators."""
    factors = tuple(qubit() for _ in qubits) + tuple(
        resonator(config.n_max) for _ in range(n_resonators))
    return SpaceLayout(factors)


@dataclass(frozen=True)
class Segment:
    """Piecewise-constant control segment; a schedule is a tuple of them.

    ``pulses`` lists active-qubit positions that receive an ideal X gate at
    the segment start (instantaneous π-pulse).
    """

    duration: float
    qubit_freqs: tuple[float, ...]
    pulses: tuple[int, ...] = ()


# ---------------------------------------------------------------------------
# qubits and the bus
# ---------------------------------------------------------------------------

def build_jc_hamiltonian(
    config: DeviceConfig,
    qubit_freqs: Sequence[float],
    qubits: Sequence[int] | None = None,
) -> QuantumOperator:
    """Rotating-frame Hamiltonian for ``qubits`` coupled to the bus.

    H = Σ_i Δ_i σ⁺_i σ⁻_i + Σ_i (g_i/2)(a† σ⁻_i + a σ⁺_i),  Δ_i = f_i - f_bus,

    in GHz, over the layout [qubits..., bus], with g_i the bus coupling.
    Commutes with the total excitation number.
    """
    if qubits is None:
        qubits = tuple(range(config.n_qubits))
    qubits = tuple(qubits)
    if len(qubit_freqs) != len(qubits):
        raise ValueError(f"need one frequency per active qubit ({len(qubits)})")
    layout = device_layout(config, qubits)
    dims = layout.dims
    eye = np.eye(layout.total_dim, dtype=complex)
    res_pos = len(qubits)
    exchange_op = np.kron(SIGMA_MINUS, destroy(config.n_max + 1).conj().T)  # σ⁻ a†
    n_e = np.diag([0.0, 1.0]).astype(complex)

    H = np.zeros((layout.total_dim, layout.total_dim), dtype=complex)
    for pos, q in enumerate(qubits):
        delta = float(qubit_freqs[pos]) - config.f_bus
        if delta != 0.0:
            H += delta * apply_local(n_e, eye, dims, (pos,))
        half_g = config.g_bus_ghz(q) / 2
        exchange = apply_local(exchange_op, eye, dims, (pos, res_pos))
        H += half_g * (exchange + exchange.conj().T)
    return QuantumOperator(layout, H, hermitian=True)


def propagate(state, schedule, config, sample_dt, qubits):
    """Evolve a pure state of ``qubits`` and the bus through a tuple of segments.

    Each segment is applied exactly, with one validated state per occupation
    sample every ``sample_dt`` plus the exact segment end; π-pulses fire at the
    segment start. Returns ``(trace, p_ground, final_state)``, where
    ``p_ground`` is the global-ground probability at each sample.
    """
    n_q, res_dim = len(qubits), config.n_max + 1
    times, samples = [], []

    def record(t, current):
        table = np.clip(current.probabilities().real, 0.0, None).reshape(2 ** n_q, res_dim)
        rows = np.arange(2 ** n_q)
        p_q = [table[(rows >> (n_q - 1 - j)) & 1 == 1, :].sum() for j in range(n_q)]
        times.append(t)
        samples.append((p_q, table[:, 1].sum(), table[0, 0]))

    def pulse(value, pos):
        X = apply_local(SIGMA_X, np.eye(value.layout.total_dim), value.layout.dims, (pos,))
        return QuantumState(value.layout, X @ value.amplitudes)

    current, t0, first = state, 0.0, True
    for seg in schedule:
        for pos in seg.pulses:
            current = pulse(current, pos)
        if first:
            record(0.0, current)
            first = False
        H = build_jc_hamiltonian(config, seg.qubit_freqs, qubits)
        evals, vecs = np.linalg.eigh(H.elements)

        def advance(value, dt):
            phases = np.exp(-2j * np.pi * evals * dt)
            return QuantumState(value.layout, vecs @ (phases * (vecs.conj().T @ value.amplitudes)))

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
    )
    return trace, np.clip(np.array([s[2] for s in samples]), 0.0, 1.0), current


def pump_fock(config: DeviceConfig, swap_duration: float | None = None) -> QuantumState:
    """Pump the bus into the n=1 Fock state through qubit 0.

    π-pulse on Q1 at idle, then a resonant segment of duration 1/(2 g_1)
    (overridable for partial-swap studies). All other qubits stay decoupled at
    idle. Returns the full-device state on [Q1..Qn, bus].
    """
    g1 = config.g_bus_ghz(0)
    duration = 1.0 / (2 * g1) if swap_duration is None else swap_duration
    start = basis_ket(device_layout(config, (0,)), 0)
    schedule = (Segment(duration=duration, qubit_freqs=(config.f_bus,), pulses=(0,)),)
    _, _, pumped = propagate(start, schedule, config, sample_dt=max(duration, 1.0), qubits=(0,))

    spectators = [qubit_ket("g") for _ in range(config.n_qubits - 1)]
    full = tensor_product([pumped] + spectators) if spectators else pumped
    # [Q1, bus, Q2..Qn] -> [Q1..Qn, bus]
    order = [0] + list(range(2, config.n_qubits + 1)) + [1]
    return permute_factors(full, order)


# ---------------------------------------------------------------------------
# swap spectroscopy: one qubit, the bus and its memory resonator
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


# ---------------------------------------------------------------------------
# collective protocols: pump the bus through Q1, drop the spectators and
# propagate the participants' Jaynes-Cummings space
# ---------------------------------------------------------------------------

def restrict_to_participants(state, config, participants):
    """Drop spectator qubits that are (numerically) in their ground state."""
    tensor = state.amplitudes.reshape(state.layout.dims)
    index = tuple(slice(None) if q in participants else 0 for q in range(config.n_qubits))
    reduced = np.asarray(tensor[index + (slice(None),)]).reshape(-1)
    weight = np.linalg.norm(reduced)
    assert weight >= 1 - 1e-9, "spectator qubits carry population; cannot restrict"
    return QuantumState(device_layout(config, participants), reduced / weight)


def full_space_resonance(config, participants, duration, sample_dt):
    """(trace, p_ground, final state) of the participants tuned onto the pumped bus
    for ``duration``."""
    participants = tuple(sorted(set(participants)))
    pumped = restrict_to_participants(pump_fock(config), config, participants)
    schedule = (Segment(duration, (config.f_bus,) * len(participants)),)
    return propagate(pumped, schedule, config, sample_dt, qubits=participants)


def full_space_shared_excitation(config, participants):
    tau = 1.0 / (2 * effective_coupling(config, participants))
    _, _, final = full_space_resonance(config, participants, tau, sample_dt=tau)
    tensor = final.amplitudes.reshape(final.layout.dims)
    assert np.linalg.norm(tensor[..., 1:]) <= 1e-9, "resonator not in vacuum at stop time"
    register = tensor[..., 0].reshape(-1)
    return QuantumState(SpaceLayout.qubits(len(set(participants))), register / np.linalg.norm(register))
