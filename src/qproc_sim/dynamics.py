"""Rotating-frame Jaynes-Cummings dynamics for qubits coupled to resonators.

Conventions (fixed across the package):

* All operators carry frequency units (GHz); time is in ns. The propagator is
  ``exp(-i 2π H t)``, so Planck's constant never appears.
* ``g`` is the full vacuum-Rabi splitting in frequency units. On resonance a
  single excitation obeys ``P_B(t) = cos²(π g t)`` and a complete iSWAP takes
  ``t = 1/(2g)``: 55 MHz coupling swaps in ~9.09 ns.
* The frame rotates at the resonator frequency, so only detunings
  ``Δ_i = f_i - f_res`` enter the Hamiltonian.
* Qubits not listed as active in a protocol are treated as exactly decoupled
  (the far-detuned "coupling off" regime, idealized). :func:`propagate` keeps
  full detuned dynamics of every listed qubit; :func:`swap_spectroscopy` is
  exact in the one-excitation block, with the full space as its test oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .hilbert import (
    DensityMatrix,
    InvariantError,
    NORM_TOL,
    QuantumOperator,
    QuantumState,
    SIGMA_MINUS,
    SIGMA_X,
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

MHZ = 1e-3  # MHz -> GHz

# qubit frequencies may be pulled at most this far from their idle point
OPERATING_HALF_RANGE_GHZ = 1.0

# idle points must sit at least this many max-couplings away from the bus
COUPLING_OFF_FACTOR = 5.0

# trace samples evaluated per matrix product; bounds every per-sample array
# to dim x SAMPLE_BLOCK, so a long trace does not raise peak memory
SAMPLE_BLOCK = 128


class ConfigError(ValueError):
    """Invalid device or noise configuration; carries the violation list."""

    def __init__(self, violations):
        if isinstance(violations, str):
            violations = [violations]
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


# ---------------------------------------------------------------------------
# device configuration
# ---------------------------------------------------------------------------

# device document key -> DeviceConfig field
_DOC_KEYS = {"n_qubits": "n_qubits", "f_bus_ghz": "f_bus", "f_memory_ghz": "f_memory",
             "f_idle_ghz": "f_idle", "g_bus_mhz": "g_bus", "g_mem_mhz": "g_mem", "n_max": "n_max"}


@dataclass(frozen=True)
class DeviceConfig:
    """Static device parameters: frequencies in GHz, couplings in MHz."""

    n_qubits: int = 4
    f_bus: float = 6.1
    f_memory: tuple[float, ...] = (6.8, 7.2, 7.1, 6.9)
    f_idle: tuple[float, ...] = (6.6, 6.6, 6.6, 6.6)
    g_bus: tuple[float, ...] = (55.0, 55.0, 55.0, 55.0)
    g_mem: tuple[float, ...] = (20.0, 20.0, 20.0, 20.0)
    n_max: int = 3

    def __post_init__(self):
        for name in ("f_memory", "f_idle", "g_bus", "g_mem"):
            object.__setattr__(self, name, tuple(float(v) for v in getattr(self, name)))
            if len(getattr(self, name)) != self.n_qubits:
                raise ConfigError(f"{name} must list one value per qubit ({self.n_qubits})")
        violations = self.validate()
        if violations:
            raise ConfigError(violations)

    def validate(self) -> list[str]:
        out = []
        for name in ("n_qubits", "n_max"):
            value = getattr(self, name)
            if type(value) is not int or value < 1:  # bool is not a count
                out.append(f"{name} must be a whole number >= 1 (got {value})")
        for name in ("f_bus", "f_memory", "f_idle", "g_bus", "g_mem"):
            values = np.atleast_1d(getattr(self, name))
            if not np.isfinite(values).all():
                out.append(f"{name} must be finite (got {values.tolist()})")
        for name in ("g_bus", "g_mem"):
            for i, g in enumerate(getattr(self, name)):
                if g <= 0:
                    out.append(f"{name}[{i}] must be > 0 (got {g})")
        g_max = max(self.g_bus, default=0.0) * MHZ
        for i, f in enumerate(self.f_idle):
            if abs(f - self.f_bus) < COUPLING_OFF_FACTOR * g_max:
                out.append(
                    f"coupling-off regime violated: f_idle[{i}]={f} GHz is within "
                    f"{COUPLING_OFF_FACTOR}x max coupling ({g_max} GHz) of f_bus={self.f_bus} GHz"
                )
        return out

    @classmethod
    def default(cls) -> "DeviceConfig":
        return cls()

    @classmethod
    def from_dict(cls, doc: dict) -> "DeviceConfig":
        """Build from a device document; its optional ``noise`` block is read elsewhere."""
        if not isinstance(doc, dict):
            raise ConfigError("device config must be a JSON object")
        unknown = sorted(set(doc) - set(_DOC_KEYS) - {"noise"})
        if unknown:
            raise ConfigError(f"unknown device config key(s) {unknown}; "
                              f"expected {sorted(_DOC_KEYS)} and optionally 'noise'")
        try:
            return cls(**{attr: doc[key] for key, attr in _DOC_KEYS.items() if key in doc})
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"malformed device config: {exc}") from exc

    def to_dict(self) -> dict:
        return {
            "n_qubits": self.n_qubits,
            "f_bus_ghz": self.f_bus,
            "f_memory_ghz": list(self.f_memory),
            "f_idle_ghz": list(self.f_idle),
            "g_bus_mhz": list(self.g_bus),
            "g_mem_mhz": list(self.g_mem),
            "n_max": self.n_max,
        }

    def g_bus_ghz(self, i: int) -> float:
        return self.g_bus[i] * MHZ

    def g_mem_ghz(self, i: int) -> float:
        return self.g_mem[i] * MHZ


def device_layout(config: DeviceConfig, qubits: Sequence[int], n_resonators: int = 1) -> SpaceLayout:
    """Layout for the given qubits (ascending significance order) plus resonators."""
    factors = tuple(qubit() for _ in qubits) + tuple(
        resonator(config.n_max) for _ in range(n_resonators))
    return SpaceLayout(factors)


# ---------------------------------------------------------------------------
# schedules and traces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Segment:
    """Piecewise-constant control segment.

    ``pulses`` lists active-qubit positions that receive an ideal X gate at
    the segment start (instantaneous π-pulse).
    """

    duration: float
    qubit_freqs: tuple[float, ...]
    pulses: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "qubit_freqs", tuple(float(f) for f in self.qubit_freqs))
        object.__setattr__(self, "pulses", tuple(self.pulses))
        if self.duration < 0:
            raise ValueError(f"segment duration must be >= 0, got {self.duration}")


@dataclass(frozen=True)
class FrequencySchedule:
    segments: tuple[Segment, ...]

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))


@dataclass(frozen=True)
class OccupationTrace:
    """Sampled occupation probabilities along a schedule.

    ``p_qubit[k]`` is the excited-state probability of ``qubit_ids[k]``;
    ``p_bus`` is the probability of exactly one photon in the resonator;
    ``p_vacuum`` the probability of the global ground state.
    """

    times: np.ndarray
    qubit_ids: tuple[int, ...]
    p_qubit: np.ndarray
    p_bus: np.ndarray
    p_vacuum: np.ndarray

    def __post_init__(self):
        for name in ("times", "p_qubit", "p_bus", "p_vacuum"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        probs = np.concatenate([self.p_qubit.ravel(), self.p_bus, self.p_vacuum])
        if probs.size and (probs.min() < -1e-9 or probs.max() > 1 + 1e-9):
            raise InvariantError("occupation probabilities leave [0, 1] beyond 1e-9")


# ---------------------------------------------------------------------------
# Hamiltonians
# ---------------------------------------------------------------------------

def _resolve_resonator(config: DeviceConfig, resonator_id: str):
    """Return (frequency GHz, per-qubit coupling GHz) for a resonator id."""
    if resonator_id == "bus":
        return config.f_bus, [config.g_bus_ghz(i) for i in range(config.n_qubits)]
    if resonator_id.startswith("memory-"):
        try:
            k = int(resonator_id.split("-", 1)[1])
        except ValueError:
            k = -1
        if 1 <= k <= config.n_qubits:
            couplings = [0.0] * config.n_qubits
            couplings[k - 1] = config.g_mem_ghz(k - 1)
            return config.f_memory[k - 1], couplings
    raise ValueError(f"unknown resonator id {resonator_id!r}")


def build_jc_hamiltonian(
    config: DeviceConfig,
    qubit_freqs: Sequence[float],
    resonator_id: str = "bus",
    qubits: Sequence[int] | None = None,
) -> QuantumOperator:
    """Rotating-frame Hamiltonian for ``qubits`` coupled to one resonator.

    H = Σ_i Δ_i σ⁺_i σ⁻_i + Σ_i (g_i/2)(a† σ⁻_i + a σ⁺_i),  Δ_i = f_i - f_res,

    in GHz, over the layout [qubits..., resonator]. Commutes with the total
    excitation number.
    """
    if qubits is None:
        qubits = tuple(range(config.n_qubits))
    qubits = tuple(qubits)
    if len(qubit_freqs) != len(qubits):
        raise ValueError(f"need one frequency per active qubit ({len(qubits)})")
    f_res, couplings = _resolve_resonator(config, resonator_id)

    layout = device_layout(config, qubits)
    dims = layout.dims
    eye = np.eye(layout.total_dim, dtype=complex)
    res_pos = len(qubits)
    exchange_op = np.kron(SIGMA_MINUS, destroy(config.n_max + 1).conj().T)  # σ⁻ a†
    n_e = np.diag([0.0, 1.0]).astype(complex)

    H = np.zeros((layout.total_dim, layout.total_dim), dtype=complex)
    for pos, q in enumerate(qubits):
        delta = float(qubit_freqs[pos]) - f_res
        if delta != 0.0:
            H += delta * apply_local(n_e, eye, dims, (pos,))
        half_g = couplings[q] / 2
        exchange = apply_local(exchange_op, eye, dims, (pos, res_pos))
        H += half_g * (exchange + exchange.conj().T)
    return QuantumOperator(layout, H, hermitian=True)


def excitation_number(layout: SpaceLayout) -> QuantumOperator:
    """N_exc = Σ σ⁺σ⁻ over qubit factors + Σ a†a over resonator factors."""
    eye = np.eye(layout.total_dim, dtype=complex)
    total = np.zeros_like(eye)
    for k, factor in enumerate(layout.factors):
        # σ⁺σ⁻ on a qubit and a†a on a resonator are both diag(0, 1, ..., dim - 1)
        op = np.diag(np.arange(factor.dim, dtype=float)).astype(complex)
        total += apply_local(op, eye, layout.dims, (k,))
    return QuantumOperator(layout, total, hermitian=True)


# ---------------------------------------------------------------------------
# propagation
# ---------------------------------------------------------------------------

def _occupations(probs: np.ndarray, n_qubits: int, res_dim: int):
    """(p_qubit, p_bus, p_vacuum) from basis-state probabilities, one column per sample."""
    table = np.clip(probs, 0.0, None).reshape((2,) * n_qubits + (res_dim, -1))
    qubit_axes = tuple(range(n_qubits))
    p_q = np.array([table.sum(axis=tuple(a for a in range(n_qubits + 1) if a != j))[1]
                    for j in qubit_axes]).reshape(n_qubits, -1)
    return p_q, table[..., 1, :].sum(axis=qubit_axes), table[(0,) * (n_qubits + 1)]


def _apply_x(state, position: int):
    dims, axes = state.layout.dims, (position,)
    if isinstance(state, QuantumState):
        return QuantumState(state.layout, apply_local(SIGMA_X, state.amplitudes, dims, axes))
    half = apply_local(SIGMA_X, state.elements, dims, axes)
    return DensityMatrix(state.layout, apply_local(SIGMA_X, half.conj().T, dims, axes).conj().T)


def _evolve(state, vecs: np.ndarray, phases: np.ndarray):
    """Apply the propagator vecs · diag(phases) · vecs† to a pure or mixed state."""
    if isinstance(state, QuantumState):
        return QuantumState(state.layout, vecs @ (phases * (vecs.conj().T @ state.amplitudes)))
    U = (vecs * phases) @ vecs.conj().T
    return DensityMatrix(state.layout, U @ state.elements @ U.conj().T)


def _sample_probabilities(state, vecs: np.ndarray, rotated: np.ndarray, dts: np.ndarray):
    """Basis-state probabilities after each step in ``dts``, one column per step.

    ``rotated`` is -2πi·eigenvalues. A pure state is sampled with one matrix
    product and every sample's norm is checked; a mixed state is evolved and
    validated sample by sample.
    """
    if not isinstance(state, QuantumState):
        return np.stack([_evolve(state, vecs, np.exp(rotated * dt)).probabilities()
                         for dt in dts], axis=1)
    amps = vecs @ (np.exp(np.multiply.outer(rotated, dts))
                   * (vecs.conj().T @ state.amplitudes)[:, None])
    probs = np.abs(amps) ** 2
    defect = np.max(np.abs(np.sqrt(probs.sum(axis=0)) - 1.0))
    if defect > NORM_TOL:
        raise InvariantError(f"sampled state norm differs from 1 by {defect} beyond {NORM_TOL}")
    return probs


def propagate(
    state,
    schedule: FrequencySchedule,
    config: DeviceConfig,
    sample_dt: float,
    qubits: Sequence[int] | None = None,
    resonator_id: str = "bus",
):
    """Evolve a state through a piecewise-constant frequency schedule.

    Each segment is applied exactly (one spectral decomposition per segment),
    with occupation samples every ``sample_dt`` plus the exact segment end; a
    segment shorter than ``sample_dt`` contributes a single sample. π-pulse
    events fire at the segment start. Returns ``(trace, final_state)``.
    """
    if sample_dt <= 0:
        raise ValueError("sample_dt must be > 0")
    if qubits is None:
        qubits = tuple(range(config.n_qubits))
    qubits = tuple(qubits)
    expected = device_layout(config, qubits)
    if state.layout.dims != expected.dims:
        raise ValueError(f"state layout {state.layout.dims} does not match {expected.dims}")

    for seg in schedule.segments:
        if len(seg.qubit_freqs) != len(qubits):
            raise ValueError("segment must carry one frequency per active qubit")
        for pos, f in zip(range(len(qubits)), seg.qubit_freqs):
            idle = config.f_idle[qubits[pos]]
            if abs(f - idle) > OPERATING_HALF_RANGE_GHZ + 1e-12:
                raise ValueError(
                    f"frequency {f} GHz outside the 2 GHz operating range around "
                    f"idle {idle} GHz for qubit {qubits[pos]}"
                )

    samples = []  # (times, p_qubit, p_bus, p_vacuum), one entry per block of samples

    def record(times, probs):
        samples.append((times, *_occupations(probs, len(qubits), config.n_max + 1)))

    current = state
    t0 = 0.0
    for k, seg in enumerate(schedule.segments):
        for pos in seg.pulses:
            current = _apply_x(current, pos)
        if k == 0:
            record(np.zeros(1), current.probabilities()[:, None])
        H = build_jc_hamiltonian(config, seg.qubit_freqs, resonator_id, qubits)
        evals, vecs = np.linalg.eigh(H.elements)
        rotated = -2j * np.pi * evals

        n_steps = int(math.floor(seg.duration / sample_dt + 1e-12))
        dts = np.arange(1, n_steps + 1) * sample_dt
        if seg.duration > 0 and (n_steps == 0 or n_steps * sample_dt < seg.duration - 1e-12):
            dts = np.append(dts, seg.duration)
        for start in range(0, dts.size, SAMPLE_BLOCK):
            block = dts[start:start + SAMPLE_BLOCK]
            record(t0 + block, _sample_probabilities(current, vecs, rotated, block))
        current = _evolve(current, vecs, np.exp(rotated * seg.duration))
        t0 += seg.duration
    if not schedule.segments:
        record(np.zeros(1), current.probabilities()[:, None])

    times, p_q, p_bus, p_vac = (np.concatenate(parts, axis=-1) for parts in zip(*samples))
    trace = OccupationTrace(times=times, qubit_ids=qubits, p_qubit=np.clip(p_q, 0.0, 1.0),
                            p_bus=np.clip(p_bus, 0.0, 1.0), p_vacuum=np.clip(p_vac, 0.0, 1.0))
    return trace, current


# ---------------------------------------------------------------------------
# protocols
# ---------------------------------------------------------------------------

def pump_fock(config: DeviceConfig, swap_duration: float | None = None) -> QuantumState:
    """Pump the bus into the n=1 Fock state through qubit 0.

    π-pulse on Q1 at idle, then a resonant segment of duration 1/(2 g_1)
    (overridable for partial-swap studies). All other qubits stay decoupled at
    idle. Returns the full-device state on [Q1..Qn, bus].
    """
    g1 = config.g_bus_ghz(0)
    duration = 1.0 / (2 * g1) if swap_duration is None else swap_duration
    layout = device_layout(config, (0,))
    start = basis_ket(layout, 0)
    schedule = FrequencySchedule((
        Segment(duration=duration, qubit_freqs=(config.f_bus,), pulses=(0,)),
    ))
    _, pumped = propagate(start, schedule, config, sample_dt=max(duration, 1.0), qubits=(0,))

    spectators = [qubit_ket("g") for _ in range(config.n_qubits - 1)]
    full = tensor_product([pumped] + spectators) if spectators else pumped
    # [Q1, bus, Q2..Qn] -> [Q1..Qn, bus]
    order = [0] + list(range(2, config.n_qubits + 1)) + [1]
    return permute_factors(full, order)


def _restrict_to_participants(state: QuantumState, config: DeviceConfig,
                              participants: tuple[int, ...]) -> QuantumState:
    """Drop spectator qubits that are (numerically) in their ground state."""
    dims = state.layout.dims
    tensor = state.amplitudes.reshape(dims)
    index = []
    for q in range(config.n_qubits):
        index.append(slice(None) if q in participants else 0)
    index.append(slice(None))
    reduced = np.asarray(tensor[tuple(index)]).reshape(-1)
    weight = np.linalg.norm(reduced)
    if weight < 1 - 1e-9:
        raise InvariantError("spectator qubits carry population; cannot restrict")
    return QuantumState(device_layout(config, participants), reduced / weight)


def mean_coupling(config: DeviceConfig, participants: Sequence[int]) -> float:
    """Root-mean-square bus coupling over the participants, in GHz."""
    gs = [config.g_bus_ghz(q) for q in participants]
    return math.sqrt(sum(g * g for g in gs) / len(gs))


def effective_coupling(config: DeviceConfig, participants: Sequence[int]) -> float:
    """√N-enhanced collective coupling of N simultaneously resonant qubits."""
    return math.sqrt(len(participants)) * mean_coupling(config, participants)


def simultaneous_resonance(
    config: DeviceConfig,
    participants: Sequence[int],
    dtau_max: float,
    sample_dt: float,
) -> OccupationTrace:
    """Tune the participants onto the bus (prepared in n=1) for a time sweep.

    The single excitation starts in the bus, spreads over the participants and
    revives; P_B oscillates at the collective coupling √N·ḡ.
    """
    participants = tuple(sorted(set(participants)))
    if not participants:
        raise ValueError("participant set must be nonempty")
    pumped = _restrict_to_participants(pump_fock(config), config, participants)
    schedule = FrequencySchedule((
        Segment(duration=dtau_max, qubit_freqs=(config.f_bus,) * len(participants)),
    ))
    trace, _ = propagate(pumped, schedule, config, sample_dt, qubits=participants)
    return trace


def prepare_shared_excitation(config: DeviceConfig, participants: Sequence[int]) -> QuantumState:
    """Distribute one excitation evenly over N qubits (Bell for N=2, W for N>=3).

    Runs the simultaneous resonance up to the first P_B minimum,
    τ = 1/(2 √N ḡ), where the resonator factors out exactly in the ideal
    model, and returns the qubit-register state. The prepared state matches
    the symmetric target up to per-qubit Z phases (local frame convention).
    """
    participants = tuple(sorted(set(participants)))
    if len(participants) < 2:
        raise ValueError("shared-excitation preparation needs at least 2 participants")
    tau = 1.0 / (2 * effective_coupling(config, participants))
    pumped = _restrict_to_participants(pump_fock(config), config, participants)
    schedule = FrequencySchedule((
        Segment(duration=tau, qubit_freqs=(config.f_bus,) * len(participants)),
    ))
    _, final = propagate(pumped, schedule, config, sample_dt=tau, qubits=participants)

    dims = final.layout.dims
    tensor = final.amplitudes.reshape(dims)
    residual = np.linalg.norm(tensor[..., 1:])
    if residual > 1e-9:
        raise InvariantError(f"resonator not in vacuum at stop time (weight {residual**2})")
    register = tensor[..., 0].reshape(-1)
    register = register / np.linalg.norm(register)
    return QuantumState(SpaceLayout.qubits(len(participants)), register)


def swap_spectroscopy(
    config: DeviceConfig,
    qubit_index: int,
    freq_grid: Sequence[float],
    tau_grid: Sequence[float],
) -> np.ndarray:
    """Excited-state probability map P_e(frequency, interaction time).

    The scanned qubit is excited by a π-pulse, tuned to each grid frequency
    and left to interact with the bus and its memory resonator. Chevron
    centers sit at the resonator frequencies; the on-resonance oscillation
    period gives 1/g. Solved exactly in the one-excitation block {|e00>, |g10>, |g01>}.
    """
    freq_grid = np.asarray(freq_grid, dtype=float)
    tau_grid = np.asarray(tau_grid, dtype=float)
    if freq_grid.size == 0 or tau_grid.size == 0:
        raise ValueError("frequency and time grids must be nonempty")
    idle = config.f_idle[qubit_index]
    if np.max(np.abs(freq_grid - idle)) > OPERATING_HALF_RANGE_GHZ + 1e-12:
        raise ValueError("frequency grid leaves the 2 GHz operating range")

    # one-excitation block over {|e00>, |g10>, |g01>} (qubit, bus, memory), bus frame
    H = np.zeros((freq_grid.size, 3, 3))
    H[:, 0, 0] = freq_grid - config.f_bus
    H[:, 2, 2] = config.f_memory[qubit_index] - config.f_bus
    H[:, 0, 1] = H[:, 1, 0] = config.g_bus_ghz(qubit_index) / 2
    H[:, 0, 2] = H[:, 2, 0] = config.g_mem_ghz(qubit_index) / 2
    evals, vecs = np.linalg.eigh(H)
    # <e00|U(τ)|e00> = Σ_k V_0k² exp(-2πi λ_k τ)
    amps = np.einsum("fk,fkt->ft", vecs[:, 0, :] ** 2,
                     np.exp(-2j * np.pi * evals[:, :, None] * tau_grid))
    return np.clip(np.abs(amps) ** 2, 0.0, 1.0)


# ---------------------------------------------------------------------------
# oscillation fitting
# ---------------------------------------------------------------------------

def fit_oscillation_frequency(times: np.ndarray, values: np.ndarray) -> tuple[float, float]:
    """Dominant oscillation frequency of a uniformly sampled trace.

    FFT of the demeaned, Hann-windowed signal with quadratic interpolation of
    the log-magnitude peak; the reported uncertainty is the half-width of the
    -3 dB interval around the peak.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.size < 8:
        raise ValueError("need at least 8 samples to fit a frequency")
    steps = np.diff(times)
    dt = steps[0]
    if not np.allclose(steps, dt, rtol=1e-9, atol=1e-12):
        raise ValueError("fit_oscillation_frequency needs a uniform time grid")

    y = (values - values.mean()) * np.hanning(values.size)
    n_pad = 1 << (int(np.ceil(np.log2(values.size))) + 5)
    spectrum = np.abs(np.fft.rfft(y, n=n_pad))
    freqs = np.fft.rfftfreq(n_pad, d=dt)

    k = int(np.argmax(spectrum[1:]) + 1)
    if 0 < k < spectrum.size - 1:
        lm, lc, lp = np.log(spectrum[k - 1:k + 2] + 1e-300)
        denom = lm - 2 * lc + lp
        delta = 0.5 * (lm - lp) / denom if denom != 0 else 0.0
    else:
        delta = 0.0
    freq = (k + delta) / (n_pad * dt)

    half_power = spectrum[k] / math.sqrt(2.0)

    def crossing(direction):
        j = k
        while 0 < j < spectrum.size - 1 and spectrum[j] > half_power:
            j += direction
        lo, hi = sorted((j, j - direction))
        span = spectrum[hi] - spectrum[lo]
        frac = (half_power - spectrum[lo]) / span if span != 0 else 0.0
        return freqs[lo] + frac * (freqs[hi] - freqs[lo])

    err = abs(crossing(+1) - crossing(-1)) / 2
    return float(freq), float(err)
