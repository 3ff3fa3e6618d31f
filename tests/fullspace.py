"""Full-space oracles for the library's block solves, and the qubit⊗resonator toolkit
they need.

The library's states are qubit registers, and it solves every shipped protocol exactly
in its one-excitation block. The tests check those solves against the solves here, which
build the whole Fock-truncated space of the listed qubits and resonators (cutoff
``DeviceConfig.n_max``) as plain arrays over a dims tuple, and check the norm of the
state at every sample as the library checks its own states.
"""

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from qproc_sim.dynamics import DeviceConfig, OccupationTrace, effective_coupling
from qproc_sim.hilbert import (
    NORM_TOL,
    OP_HERM_TOL,
    SIGMA_X,
    InvariantError,
    QuantumState,
    apply_local,
)

SIGMA_MINUS = np.array([[0, 1], [0, 0]], dtype=complex)  # |g><e|


def destroy(dim: int) -> np.ndarray:
    """Annihilation operator on a dim-level Fock space: a|n> = sqrt(n)|n-1>."""
    return np.diag(np.sqrt(np.arange(1, dim, dtype=float)), k=1).astype(complex)


def device_dims(config: DeviceConfig, n_qubits: int, n_resonators: int = 1) -> tuple[int, ...]:
    """Factor dimensions of ``n_qubits`` qubits (most significant first), then resonators."""
    return (2,) * n_qubits + (config.n_max + 1,) * n_resonators


def basis_vector(dims: Sequence[int], index: int) -> np.ndarray:
    amps = np.zeros(math.prod(dims), dtype=complex)
    amps[index] = 1.0
    return amps


def kron_states(*states: np.ndarray) -> np.ndarray:
    """Kronecker product of state vectors, the first the most significant factor."""
    if not states or any(np.ndim(s) != 1 for s in states):
        raise ValueError("kron_states takes one or more state vectors")
    return functools.reduce(np.kron, states)


def permute_factors(array: np.ndarray, dims: Sequence[int], order: Sequence[int]) -> np.ndarray:
    """Reorder the tensor factors of a state vector or a square matrix over ``dims``.

    ``order[k]`` is the input factor that becomes output factor k.
    """
    n = len(dims)
    if sorted(order) != list(range(n)):
        raise ValueError(f"order {order} is not a permutation of 0..{n - 1}")
    array = np.asarray(array)
    if array.ndim == 1:
        return array.reshape(dims).transpose(order).reshape(-1)
    perm = list(order) + [n + i for i in order]
    return array.reshape(tuple(dims) * 2).transpose(perm).reshape(array.shape)


def checked_state(amps: np.ndarray) -> np.ndarray:
    """``amps``, after the library's state check: a norm within ``NORM_TOL`` of 1."""
    norm = np.linalg.norm(amps)
    if not abs(norm - 1.0) <= NORM_TOL:
        raise InvariantError(f"state norm {norm} differs from 1 beyond {NORM_TOL}")
    return amps


def checked_hamiltonian(H: np.ndarray) -> np.ndarray:
    """``H``, after the library's check of an operator flagged hermitian."""
    if not np.max(np.abs(H - H.conj().T)) <= OP_HERM_TOL:
        raise InvariantError("operator flagged hermitian is not Hermitian within 1e-12")
    return H


def expm(A: np.ndarray) -> np.ndarray:
    """exp(A) of a square matrix from numpy products alone: a 40-term Taylor series of
    A / 2^s, whose 1-norm is below 1, squared s times. It diagonalizes nothing, so it checks
    the eigensolver-based propagators independently, and it takes non-Hermitian A."""
    A = np.asarray(A, dtype=complex)
    s = max(0, math.frexp(np.abs(A).sum(axis=0).max())[1])
    X = A / 2.0 ** s
    out = term = np.eye(len(A), dtype=complex)
    for k in range(1, 41):
        term = term @ X / k
        out = out + term
    for _ in range(s):
        out = out @ out
    return out


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
) -> np.ndarray:
    """Rotating-frame Hamiltonian for ``qubits`` coupled to the bus.

    H = Σ_i Δ_i σ⁺_i σ⁻_i + Σ_i (g_i/2)(a† σ⁻_i + a σ⁺_i),  Δ_i = f_i - f_bus,

    in GHz, over the factors [qubits..., bus], with g_i the bus coupling.
    Commutes with the total excitation number.
    """
    if qubits is None:
        qubits = tuple(range(config.n_qubits))
    qubits = tuple(qubits)
    if len(qubit_freqs) != len(qubits):
        raise ValueError(f"need one frequency per active qubit ({len(qubits)})")
    dims = device_dims(config, len(qubits))
    eye = np.eye(math.prod(dims), dtype=complex)
    res_pos = len(qubits)
    exchange_op = np.kron(SIGMA_MINUS, destroy(config.n_max + 1).conj().T)  # σ⁻ a†
    n_e = np.diag([0.0, 1.0]).astype(complex)

    H = np.zeros_like(eye)
    for pos, q in enumerate(qubits):
        delta = float(qubit_freqs[pos]) - config.f_bus
        if delta != 0.0:
            H += delta * apply_local(n_e, eye, dims, (pos,))
        half_g = config.g_bus_ghz(q) / 2
        exchange = apply_local(exchange_op, eye, dims, (pos, res_pos))
        H += half_g * (exchange + exchange.conj().T)
    return checked_hamiltonian(H)


def propagate(state, schedule, config, sample_dt, qubits):
    """Evolve a pure state of ``qubits`` and the bus through a tuple of segments.

    ``state`` is an amplitude vector over ``device_dims(config, len(qubits))``.
    Each segment is applied exactly, with one norm-checked state per occupation
    sample every ``sample_dt`` plus the exact segment end; π-pulses fire at the
    segment start. Returns ``(trace, p_ground, final amplitudes)``, where
    ``p_ground`` is the global-ground probability at each sample.
    """
    n_q, res_dim = len(qubits), config.n_max + 1
    dims = device_dims(config, n_q)
    times, samples = [], []

    def record(t, current):
        table = (np.abs(current) ** 2).reshape(2 ** n_q, res_dim)
        rows = np.arange(2 ** n_q)
        p_q = [table[(rows >> (n_q - 1 - j)) & 1 == 1, :].sum() for j in range(n_q)]
        times.append(t)
        samples.append((p_q, table[:, 1].sum(), table[0, 0]))

    current, t0, first = checked_state(np.asarray(state)), 0.0, True
    for seg in schedule:
        for pos in seg.pulses:
            current = checked_state(apply_local(SIGMA_X, current, dims, (pos,)))
        if first:
            record(0.0, current)
            first = False
        H = build_jc_hamiltonian(config, seg.qubit_freqs, qubits)
        evals, vecs = np.linalg.eigh(H)

        def advance(value, dt):
            phases = np.exp(-2j * np.pi * evals * dt)
            return checked_state(vecs @ (phases * (vecs.conj().T @ value)))

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


def pump_fock(config: DeviceConfig, swap_duration: float | None = None) -> np.ndarray:
    """Pump the bus into the n=1 Fock state through qubit 0.

    π-pulse on Q1 at idle, then a resonant segment of duration 1/(2 g_1)
    (overridable for partial-swap studies). All other qubits stay decoupled at
    idle. Returns the full-device amplitudes over ``device_dims(config, config.n_qubits)``,
    the factors [Q1..Qn, bus].
    """
    g1 = config.g_bus_ghz(0)
    duration = 1.0 / (2 * g1) if swap_duration is None else swap_duration
    start = basis_vector(device_dims(config, 1), 0)
    schedule = (Segment(duration=duration, qubit_freqs=(config.f_bus,), pulses=(0,)),)
    _, _, pumped = propagate(start, schedule, config, sample_dt=max(duration, 1.0), qubits=(0,))

    n_spectators = config.n_qubits - 1
    full = kron_states(pumped, basis_vector((2,) * n_spectators, 0))
    # [Q1, bus, Q2..Qn] -> [Q1..Qn, bus]
    order = [0] + list(range(2, config.n_qubits + 1)) + [1]
    return permute_factors(full, device_dims(config, 1) + (2,) * n_spectators, order)


# ---------------------------------------------------------------------------
# swap spectroscopy: one qubit, the bus and its memory resonator
# ---------------------------------------------------------------------------

def build_spectroscopy_hamiltonian(config, qubit_index, qubit_freq):
    """One qubit coupled to both the bus and its own memory resonator.

    Frame rotates at the bus frequency, so the memory mode carries the
    detuning f_M - f_B. Factors: [qubit, bus, memory].
    """
    dims = device_dims(config, 1, n_resonators=2)
    eye = np.eye(math.prod(dims), dtype=complex)
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
    return checked_hamiltonian(H)


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
        evals, vecs = np.linalg.eigh(H)
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
    tensor = state.reshape(device_dims(config, config.n_qubits))
    index = tuple(slice(None) if q in participants else 0 for q in range(config.n_qubits))
    reduced = np.asarray(tensor[index + (slice(None),)]).reshape(-1)
    weight = np.linalg.norm(reduced)
    assert weight >= 1 - 1e-9, "spectator qubits carry population; cannot restrict"
    return checked_state(reduced / weight)


def full_space_resonance(config, participants, duration, sample_dt):
    """(trace, p_ground, final amplitudes) of the participants tuned onto the pumped bus
    for ``duration``."""
    participants = tuple(sorted(set(participants)))
    pumped = restrict_to_participants(pump_fock(config), config, participants)
    schedule = (Segment(duration, (config.f_bus,) * len(participants)),)
    return propagate(pumped, schedule, config, sample_dt, qubits=participants)


def full_space_shared_excitation(config, participants):
    tau = 1.0 / (2 * effective_coupling(config, participants))
    _, _, final = full_space_resonance(config, participants, tau, sample_dt=tau)
    tensor = final.reshape(device_dims(config, len(set(participants))))
    assert np.linalg.norm(tensor[..., 1:]) <= 1e-9, "resonator not in vacuum at stop time"
    register = tensor[..., 0].reshape(-1)
    return QuantumState(register / np.linalg.norm(register))
