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
  (the far-detuned "coupling off" regime, idealized). The exchange Hamiltonian
  H = Σ_i Δ_i σ⁺_i σ⁻_i + Σ_i (g_i/2)(a† σ⁻_i + a σ⁺_i) conserves excitation
  number, so :func:`swap_spectroscopy`, :func:`simultaneous_resonance` and
  :func:`prepare_shared_excitation` are exact in their one-excitation block;
  the tests check them against the full Fock-truncated space.
* Qubit indices are 0-based and never wrap: -1 or ``n_qubits`` is a
  ``ValueError``, not the last qubit.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .hilbert import InvariantError, NORM_TOL, QuantumState

MHZ = 1e-3  # MHz -> GHz

# qubit frequencies may be pulled at most this far from their idle point
OPERATING_HALF_RANGE_GHZ = 1.0

# idle points must sit at least this many max-couplings away from the bus
COUPLING_OFF_FACTOR = 5.0

# the physical band of every device frequency (GHz), and the largest coupling (MHz)
FREQUENCY_BAND_GHZ = (1.0, 20.0)
MAX_COUPLING_MHZ = 500.0

# grid cells of one swap-spectroscopy block, with 64 B of complex work arrays each
SPECTROSCOPY_BLOCK_CELLS = 4096


class ConfigError(ValueError):
    """Invalid device or noise configuration; carries the violation list."""

    def __init__(self, violations):
        if isinstance(violations, str):
            violations = [violations]
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


def _real(name: str, value) -> float:
    """``value`` as a float, if it is a real number: float() would read a bool as 1 or 0 and
    a string as the number it spells. An int beyond the float range is ±inf, as
    ``json.loads`` reads ``1e400``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must hold numbers (got {value!r})")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


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
        for name in ("f_bus", "f_memory", "f_idle", "g_bus", "g_mem"):
            values = getattr(self, name)
            # a list, not a string, whose characters would pass as one value per qubit
            if name != "f_bus" and (not isinstance(values, (list, tuple, np.ndarray))
                                    or len(values) != self.n_qubits):
                raise ConfigError(f"{name} must list one value per qubit ({self.n_qubits}), "
                                  f"got {values!r}")
            values = _real(name, values) if name == "f_bus" else tuple(
                _real(name, v) for v in values)
            object.__setattr__(self, name, values)
        out = []
        for name in ("n_qubits", "n_max"):
            value = getattr(self, name)
            if type(value) is not int or value < 1:  # bool is not a count
                out.append(f"{name} must be a whole number >= 1 (got {value})")
        low, high = FREQUENCY_BAND_GHZ
        for name in ("f_bus", "f_memory", "f_idle", "g_bus", "g_mem"):
            values = np.atleast_1d(getattr(self, name))
            if not np.isfinite(values).all():
                out.append(f"{name} must be finite (got {values.tolist()})")
                continue
            labels = [name] if name == "f_bus" else [f"{name}[{i}]" for i in range(len(values))]
            for label, v in zip(labels, values):
                if name.startswith("f") and not low <= v <= high:
                    out.append(f"{label} must lie in {low}..{high} GHz (got {v})")
                elif name.startswith("g") and not 0 < v <= MAX_COUPLING_MHZ:
                    out.append(f"{label} must be > 0 and at most {MAX_COUPLING_MHZ} MHz (got {v})")
        g_max = max(self.g_bus, default=0.0) * MHZ
        for i, f in enumerate(self.f_idle):
            if abs(f - self.f_bus) < COUPLING_OFF_FACTOR * g_max:
                out.append(
                    f"coupling-off regime violated: f_idle[{i}]={f} GHz is within "
                    f"{COUPLING_OFF_FACTOR}x max coupling ({g_max} GHz) of f_bus={self.f_bus} GHz"
                )
        if out:
            raise ConfigError(out)

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

    def check_qubit(self, i: int) -> int:
        """``i`` itself if it names one of the device's qubits."""
        if not 0 <= i < self.n_qubits:
            raise ValueError(f"qubit index {i} outside 0..{self.n_qubits - 1}")
        return i

    def g_bus_ghz(self, i: int) -> float:
        return self.g_bus[self.check_qubit(i)] * MHZ

    def g_mem_ghz(self, i: int) -> float:
        return self.g_mem[self.check_qubit(i)] * MHZ


# ---------------------------------------------------------------------------
# occupation traces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OccupationTrace:
    """Sampled occupation probabilities along a time sweep.

    ``p_qubit[k]`` is the excited-state probability of ``qubit_ids[k]``;
    ``p_bus`` is the probability of exactly one photon in the resonator.
    """

    times: np.ndarray
    qubit_ids: tuple[int, ...]
    p_qubit: np.ndarray
    p_bus: np.ndarray

    def __post_init__(self):
        for name in ("times", "p_qubit", "p_bus"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if (self.times.ndim != 1 or self.p_bus.shape != self.times.shape
                or self.p_qubit.shape != (len(self.qubit_ids),) + self.times.shape):
            raise ValueError(f"occupation trace needs 1-D times and one sample per time in p_bus "
                             f"and in each qubit id's p_qubit row, got times {self.times.shape}, "
                             f"qubit ids {self.qubit_ids}, p_qubit {self.p_qubit.shape}, "
                             f"p_bus {self.p_bus.shape}")
        if not np.isfinite(self.times).all():
            raise InvariantError("occupation trace times must be finite")
        probs = np.concatenate([self.p_qubit.ravel(), self.p_bus])
        if probs.size and not (-1e-9 <= probs.min() and probs.max() <= 1 + 1e-9):  # NaN fails
            raise InvariantError("occupation probabilities leave [0, 1] beyond 1e-9")


# ---------------------------------------------------------------------------
# propagation
# ---------------------------------------------------------------------------

def _sample_times(duration: float, sample_dt: float) -> np.ndarray:
    """Sample offsets within a sweep of ``duration``: whole ``sample_dt`` steps plus the exact end."""
    if sample_dt <= 0 or duration < 0:
        raise ValueError(f"need sample_dt > 0 and duration >= 0 (got {sample_dt}, {duration})")
    n_steps = int(math.floor(duration / sample_dt + 1e-12))
    dts = np.arange(1, n_steps + 1) * sample_dt
    if duration > 0 and (n_steps == 0 or n_steps * sample_dt < duration - 1e-12):
        dts = np.append(dts, duration)
    return dts


def _check_tuning(config: DeviceConfig, qubit: int, freqs) -> None:
    """``qubit`` is one of the device's, and it can be tuned to every one of ``freqs`` (GHz):
    each lies within its operating range around its idle point."""
    idle, freqs = config.f_idle[config.check_qubit(qubit)], np.atleast_1d(freqs)
    if np.max(np.abs(freqs - idle)) > OPERATING_HALF_RANGE_GHZ + 1e-12:
        lo, hi = float(freqs.min()), float(freqs.max())
        span = f"{lo}" if lo == hi else f"{lo}..{hi}"
        raise ConfigError(f"Q{qubit + 1} cannot reach {span} GHz: outside the operating range "
                          f"{idle} ± {OPERATING_HALF_RANGE_GHZ} GHz around its idle point")


def _block_amplitudes(H: np.ndarray, times: np.ndarray, rows=slice(None)) -> np.ndarray:
    """<row|exp(-2πi H t)|0> for each of ``rows`` and each t in ``times``, shape
    ``(..., rows, times)``: the one propagator of every protocol. ``H`` is one real
    symmetric block or a stack of them, diagonalized in one call."""
    evals, vecs = np.linalg.eigh(H)
    # Σ_k V_rk V_0k exp(-2πi λ_k t)
    phases = -2j * np.pi * evals[..., :, None] * times
    return np.einsum("...rk,...k,...kt->...rt", vecs[..., rows, :], vecs[..., 0, :],
                     np.exp(phases, out=phases))


# ---------------------------------------------------------------------------
# protocols
# ---------------------------------------------------------------------------

def mean_coupling(config: DeviceConfig, participants: Sequence[int]) -> float:
    """Root-mean-square bus coupling over the participants, in GHz."""
    gs = [config.g_bus_ghz(q) for q in participants]
    return math.sqrt(sum(g * g for g in gs) / len(gs))


def effective_coupling(config: DeviceConfig, participants: Sequence[int]) -> float:
    """√N-enhanced collective coupling of N simultaneously resonant qubits; a ``ConfigError``
    if it is not > 0, as when the squared couplings underflow."""
    g = math.sqrt(len(participants)) * mean_coupling(config, participants)
    if not g > 0:
        labels = ", ".join(f"Q{q + 1}" for q in participants)
        raise ConfigError(f"the bus couplings of {labels} give a collective coupling of {g} GHz; "
                          f"it must be > 0")
    return g


def _collective_amplitudes(config: DeviceConfig, participants: tuple[int, ...],
                           times: np.ndarray) -> np.ndarray:
    """Amplitudes over {|g…g,1>, |e_k,0>} at each time (one column per time) after tuning the
    checked participants onto a bus holding one photon. Exact: this is the one-excitation block
    of the exchange Hamiltonian, H[0, k] = g_k/2, diagonal (detuning from the bus) zero.
    Each column's norm is checked."""
    H = np.zeros((len(participants) + 1,) * 2)
    H[0, 1:] = H[1:, 0] = [config.g_bus_ghz(q) / 2 for q in participants]
    amps = _block_amplitudes(H, times)
    defect = np.max(np.abs(np.sqrt((np.abs(amps) ** 2).sum(axis=0)) - 1.0))
    if not defect <= NORM_TOL:  # written so that NaN fails it
        raise InvariantError(f"sampled state norm differs from 1 by {defect} beyond {NORM_TOL}")
    return amps


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
    for q in participants:
        _check_tuning(config, q, config.f_bus)
    times = np.concatenate(([0.0], _sample_times(dtau_max, sample_dt)))
    probs = np.clip(np.abs(_collective_amplitudes(config, participants, times)) ** 2, 0.0, 1.0)
    return OccupationTrace(times=times, qubit_ids=participants, p_qubit=probs[1:],
                           p_bus=probs[0])


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
    for q in participants:
        _check_tuning(config, q, config.f_bus)
    tau = 1.0 / (2 * effective_coupling(config, participants))
    amps = _collective_amplitudes(config, participants, np.array([tau]))[:, 0]
    if not abs(amps[0]) <= 1e-9:  # written so that NaN fails it
        raise InvariantError(f"resonator not in vacuum at stop time (weight {abs(amps[0]) ** 2})")
    n = len(participants)
    register = np.zeros(2 ** n, dtype=complex)
    # qubit k is bit n-1-k; the photon is taken as pumped from Q1 by a resonant iSWAP,
    # which leaves it as -i|g…g,1>
    register[1 << (n - 1 - np.arange(n))] = -1j * amps[1:]
    return QuantumState(register / np.linalg.norm(register))


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

    The grid is solved in blocks of whole frequency rows, ``SPECTROSCOPY_BLOCK_CELLS``
    cells each (one row if a row is longer), into one preallocated map. Each matrix is
    diagonalized and each cell computed exactly as in one solve of the whole grid, so
    the map has the same bits, and only one block's complex work arrays are held.
    """
    freq_grid = np.asarray(freq_grid, dtype=float)
    tau_grid = np.asarray(tau_grid, dtype=float)
    if freq_grid.size == 0 or tau_grid.size == 0:
        raise ValueError("frequency and time grids must be nonempty")
    if not (np.isfinite(freq_grid).all() and np.isfinite(tau_grid).all()):
        raise ValueError("frequency and time grids must be finite")
    _check_tuning(config, qubit_index, freq_grid)

    # one-excitation block over {|e00>, |g10>, |g01>} (qubit, bus, memory), bus frame
    H = np.zeros((freq_grid.size, 3, 3))
    H[:, 0, 0] = freq_grid - config.f_bus
    H[:, 2, 2] = config.f_memory[qubit_index] - config.f_bus
    H[:, 0, 1] = H[:, 1, 0] = config.g_bus_ghz(qubit_index) / 2
    H[:, 0, 2] = H[:, 2, 0] = config.g_mem_ghz(qubit_index) / 2
    probs = np.empty((freq_grid.size, tau_grid.size))
    rows = max(1, SPECTROSCOPY_BLOCK_CELLS // tau_grid.size)
    for block in (slice(start, start + rows) for start in range(0, freq_grid.size, rows)):
        np.abs(_block_amplitudes(H[block], tau_grid, slice(0, 1))[:, 0], out=probs[block])
    np.square(probs, out=probs)
    # the clip below would pass NaN and hide a probability above 1
    defect = np.max(probs) - 1.0
    if not defect <= NORM_TOL:  # written so that NaN fails it
        raise InvariantError(f"chevron probabilities must be finite and at most 1 + {NORM_TOL} "
                             f"(largest minus 1: {defect})")
    return np.clip(probs, 0.0, 1.0, out=probs)


# ---------------------------------------------------------------------------
# oscillation fitting
# ---------------------------------------------------------------------------

def fit_oscillation_frequency(times: np.ndarray, values: np.ndarray) -> tuple[float, float]:
    """Dominant oscillation frequency of a uniformly sampled trace.

    FFT of the demeaned, Hann-windowed signal with quadratic interpolation of
    the log-magnitude peak; the reported uncertainty is the half-width of the
    -3 dB interval around the peak.
    """
    return fit_oscillation_frequencies(times, [values])[0]


def fit_oscillation_frequencies(times: np.ndarray, traces) -> list[tuple[float, float]]:
    """``fit_oscillation_frequency`` of each of several equally long traces sampled on one
    time grid, from one FFT of all of them: the same bits as one FFT per trace, with one
    set of padded work arrays in place of one per trace."""
    times = np.asarray(times, dtype=float)
    ys = [np.asarray(values, dtype=float) for values in traces]
    if not all(np.isfinite(a).all() for a in [times, *ys]):
        raise ValueError("fit_oscillation_frequency needs finite times and values")
    if times.size < 8:
        raise ValueError("need at least 8 samples to fit a frequency")
    steps = np.diff(times)
    dt = steps[0]
    if not np.allclose(steps, dt, rtol=1e-9, atol=1e-12):
        raise ValueError("fit_oscillation_frequency needs a uniform time grid")

    ys = np.array([(y - y.mean()) * np.hanning(y.size) for y in ys])
    n_pad = 1 << (int(np.ceil(np.log2(ys.shape[1]))) + 5)
    spectra = np.abs(np.fft.rfft(ys, n=n_pad))
    return [_spectral_peak(spectrum, n_pad * dt) for spectrum in spectra]


def _spectral_peak(spectrum: np.ndarray, duration: float) -> tuple[float, float]:
    """Peak frequency and -3 dB half-width of one magnitude spectrum of a trace zero-padded
    to ``duration``; bin j lies at ``j * (1 / duration)``, as ``np.fft.rfftfreq`` puts it."""
    spacing = 1.0 / duration
    k = int(np.argmax(spectrum[1:]) + 1)
    if 0 < k < spectrum.size - 1:
        lm, lc, lp = np.log(spectrum[k - 1:k + 2] + 1e-300)
        denom = lm - 2 * lc + lp
        delta = 0.5 * (lm - lp) / denom if denom != 0 else 0.0
    else:
        delta = 0.0
    freq = (k + delta) / duration

    half_power = spectrum[k] / math.sqrt(2.0)

    def crossing(direction):
        j = k
        while 0 < j < spectrum.size - 1 and spectrum[j] > half_power:
            j += direction
        lo, hi = sorted((j, j - direction))
        span = spectrum[hi] - spectrum[lo]
        frac = (half_power - spectrum[lo]) / span if span != 0 else 0.0
        return lo * spacing + frac * (hi * spacing - lo * spacing)

    err = abs(crossing(+1) - crossing(-1)) / 2
    return float(freq), float(err)
