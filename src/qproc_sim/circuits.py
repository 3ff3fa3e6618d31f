"""Ideal-gate circuit layer and the compiled factoring circuits for N=15, a=4.

Gates act on computational qubits only (no resonators); CNOT is realized by
its controlled-Z equivalent, H on the target before and after CZ. Circuits
carry named breakpoints so mid-circuit states can be captured for runtime
state analysis, plus gate-duration classes so the open-system layer can
charge decay consistently (including pure idle padding in the no-entanglement
control circuit).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .hilbert import DensityMatrix, QuantumOperator, QuantumState, SpaceLayout, apply_local, qubit_ket
from .noise import NoiseParams, apply_noise_step

_SQ = 1 / math.sqrt(2)

SINGLE_QUBIT_GATES = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "H": _SQ * np.array([[1, 1], [1, -1]], dtype=complex),
    # half rotations about x and y: exp(-i π σ/4)
    "X_half": _SQ * np.array([[1, -1j], [-1j, 1]], dtype=complex),
    "Y_half": _SQ * np.array([[1, -1], [1, 1]], dtype=complex),
}

CZ_MATRIX = np.diag([1, 1, 1, -1]).astype(complex)
# CNOT from its controlled-Z equivalent: H on the target, CZ, H on the target
_H_TARGET = np.kron(np.eye(2, dtype=complex), SINGLE_QUBIT_GATES["H"])
CNOT_MATRIX = _H_TARGET @ CZ_MATRIX @ _H_TARGET

# two-qubit matrices index their targets control-first (first target most significant)
GATE_MATRICES = {**SINGLE_QUBIT_GATES, "CZ": CZ_MATRIX, "CNOT": CNOT_MATRIX}

TWO_QUBIT_GATES = ("CZ", "CNOT")
GATE_KINDS = tuple(SINGLE_QUBIT_GATES) + TWO_QUBIT_GATES


@dataclass(frozen=True)
class Gate:
    kind: str
    targets: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "targets", tuple(self.targets))
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        arity = 2 if self.kind in TWO_QUBIT_GATES else 1
        if len(self.targets) != arity:
            raise ValueError(f"{self.kind} takes {arity} target(s), got {self.targets}")
        if len(set(self.targets)) != len(self.targets):
            raise ValueError(f"duplicate targets in {self.kind} {self.targets}")


@dataclass(frozen=True)
class Idle:
    """Pure wait slot; duration class '1q' or '2q' resolves via NoiseParams."""

    duration_class: str = "2q"

    def __post_init__(self):
        if self.duration_class not in ("1q", "2q"):
            raise ValueError("duration_class must be '1q' or '2q'")


@dataclass(frozen=True)
class Circuit:
    """Ordered gate list with breakpoints for mid-circuit state capture.

    ``breakpoints`` maps a name to the number of ops completed at that point.
    ``output_bits`` defines the classical output string (most significant bit
    first); ``None`` entries are constant-0 bits carried by a redundant qubit
    that is not physically present.
    """

    n_qubits: int
    ops: tuple
    breakpoints: dict = field(default_factory=dict)
    output_bits: tuple = ()
    analysis_qubits: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "ops", tuple(self.ops))
        object.__setattr__(self, "breakpoints", dict(self.breakpoints))
        object.__setattr__(self, "output_bits", tuple(self.output_bits))
        object.__setattr__(self, "analysis_qubits", tuple(self.analysis_qubits))
        for op in self.ops:
            if isinstance(op, Gate) and not all(0 <= t < self.n_qubits for t in op.targets):
                raise ValueError(f"gate {op} targets a qubit outside 0..{self.n_qubits - 1}")
        for name, pos in self.breakpoints.items():
            if not 0 <= pos <= len(self.ops):
                raise ValueError(f"breakpoint {name!r} position {pos} outside the circuit")

    @property
    def gates(self) -> tuple[Gate, ...]:
        return tuple(op for op in self.ops if isinstance(op, Gate))


def gate_unitary(gate: Gate, n_qubits: int) -> QuantumOperator:
    """Full-register unitary for one gate, identity-padded onto n qubits."""
    layout = SpaceLayout.qubits(n_qubits)
    mat = apply_local(GATE_MATRICES[gate.kind], np.eye(layout.total_dim, dtype=complex),
                      layout.dims, gate.targets)
    return QuantumOperator(layout, mat, unitary=True)


# ---------------------------------------------------------------------------
# compiled factoring circuits (N=15, a=4)
# ---------------------------------------------------------------------------

SHOR_VARIANTS = ("four_qubit", "three_qubit", "control")


def build_shor(variant: str) -> Circuit:
    """Compiled order-finding circuit for N=15 with co-prime a=4.

    Variants: ``four_qubit`` (redundant register qubit kept, its two
    Hadamards cancel), ``three_qubit`` (recompiled without it), ``control``
    (entangling gates removed, idle padding of equal duration kept).
    """
    if variant == "three_qubit":
        return Circuit(
            n_qubits=3,
            ops=(Gate("H", (0,)), Gate("CNOT", (0, 1)), Gate("CNOT", (0, 2)), Gate("H", (0,))),
            breakpoints={"step1": 2, "step2": 3, "step3": 4},
            output_bits=(0, None),
            analysis_qubits=(0, 1, 2),
        )
    if variant == "four_qubit":
        return Circuit(
            n_qubits=4,
            ops=(Gate("H", (0,)), Gate("H", (1,)), Gate("CNOT", (1, 2)),
                 Gate("CNOT", (1, 3)), Gate("H", (1,)), Gate("H", (0,))),
            breakpoints={"step1": 3, "step2": 4, "step3": 6},
            output_bits=(1, 0),
            analysis_qubits=(1, 2, 3),
        )
    if variant == "control":
        return Circuit(
            n_qubits=3,
            ops=(Gate("H", (0,)), Idle("2q"), Idle("2q"), Gate("H", (0,))),
            breakpoints={"step1": 2, "step2": 3, "step3": 4},
            output_bits=(0, None),
            analysis_qubits=(0, 1, 2),
        )
    raise ValueError(f"unknown factoring-circuit variant {variant!r}")


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CircuitRun:
    final: object
    breakpoint_states: dict


def run_circuit(
    circuit: Circuit,
    mode: str = "ideal_pure",
    noise: NoiseParams | None = None,
    initial_state=None,
) -> CircuitRun:
    """Execute a circuit from |g...g> and capture every breakpoint state.

    ``ideal_pure`` evolves a state vector; ``noisy_density`` evolves a
    density matrix, following every op (gates and idles) with per-qubit
    damping and dephasing for the op's duration. Each gate's 2x2 or 4x4
    matrix acts on its target factors only (``apply_local``): G ρ, then
    G (G ρ)†, conjugate-transposed back.
    """
    if mode not in ("ideal_pure", "noisy_density"):
        raise ValueError(f"unknown run mode {mode!r}")
    if mode == "noisy_density" and noise is None:
        raise ValueError("noisy_density mode needs noise parameters")

    state = initial_state if initial_state is not None else qubit_ket("g" * circuit.n_qubits)
    if mode == "noisy_density" and isinstance(state, QuantumState):
        state = state.density_matrix()

    captures = {}

    def capture(position):
        for name, pos in circuit.breakpoints.items():
            if pos == position:
                captures[name] = state

    dims = state.layout.dims
    capture(0)
    for k, op in enumerate(circuit.ops, start=1):
        if isinstance(op, Gate):
            G = GATE_MATRICES[op.kind]
            if isinstance(state, QuantumState):
                state = QuantumState(state.layout, apply_local(G, state.amplitudes, dims, op.targets))
            else:
                half = apply_local(G, state.elements, dims, op.targets)
                state = DensityMatrix(state.layout,
                                      apply_local(G, half.conj().T, dims, op.targets).conj().T)
            duration_class = "2q" if op.kind in TWO_QUBIT_GATES else "1q"
        else:
            duration_class = op.duration_class
        if mode == "noisy_density":
            dt = noise.gate_time_2q if duration_class == "2q" else noise.gate_time_1q
            state = apply_noise_step(state, noise, dt)
        capture(k)
    return CircuitRun(final=state, breakpoint_states=captures)


def sample_output(state, register: Sequence, shots: int, seed: int) -> dict[str, int]:
    """Multinomial draw of computational-basis outcomes of the given register.

    ``register`` lists bit sources most-significant-first: a qubit index, or
    ``None`` for a constant-0 bit (the compiled circuits carry a redundant
    always-0 register qubit that the recompiled variants do not realize
    physically). Returns counts for every possible output string.
    """
    register = tuple(register)
    if not register:
        raise ValueError("output register must be nonempty")
    if shots < 1:
        raise ValueError("shots must be >= 1")
    probs = output_distribution(state, register)
    rng = np.random.default_rng(seed)
    draws = rng.multinomial(shots, probs)
    width = len(register)
    return {format(m, f"0{width}b"): int(c) for m, c in enumerate(draws)}


def output_distribution(state, register: Sequence) -> np.ndarray:
    """Exact probability of each output string of the register (see sample_output)."""
    register = tuple(register)
    if not register:
        raise ValueError("output register must be nonempty")
    n = state.layout.n_factors
    probs = state.probabilities().real.reshape((2,) * n)
    real_bits = [b for b in register if b is not None]
    keep_axes = tuple(sorted(set(real_bits)))
    drop = tuple(ax for ax in range(n) if ax not in keep_axes)
    marginal = probs.sum(axis=drop) if drop else probs

    out = np.zeros(2 ** len(register))
    for m in range(2 ** len(register)):
        bits = [(m >> (len(register) - 1 - k)) & 1 for k in range(len(register))]
        if any(b == 1 for b, src in zip(bits, register) if src is None):
            continue
        idx = tuple(bits[k] for k, src in enumerate(register) if src is not None)
        # reorder to the marginal's ascending-axis order
        ordered = tuple(idx[real_bits.index(ax)] for ax in keep_axes)
        out[m] = marginal[ordered]
    return out / out.sum()


# ---------------------------------------------------------------------------
# classical postprocessing
# ---------------------------------------------------------------------------

def extract_period(output_bits: str, n_register_bits: int) -> int:
    """Period candidate from one output string; 0 marks the failure outcome.

    The measured integer m satisfies m/2^n = k/r, and the compiled device
    only produces power-of-two denominators, so r = 2^n / gcd(m, 2^n).
    """
    if len(output_bits) != n_register_bits or set(output_bits) - {"0", "1"}:
        raise ValueError(f"expected {n_register_bits} output bits, got {output_bits!r}")
    m = int(output_bits, 2)
    if m == 0:
        return 0
    power = 2 ** n_register_bits
    return power // math.gcd(m, power)


def classical_factors(a: int, r: int, N: int) -> tuple[int, int] | None:
    """Factors of N from the period r of a mod N, or None when r is unusable."""
    if not 1 < a < N or math.gcd(a, N) != 1:
        raise ValueError(f"need 1 < a < N with gcd(a, N) = 1, got a={a}, N={N}")
    if r <= 0 or r % 2 != 0:
        return None
    half = pow(a, r // 2, N)
    if half == N - 1:
        return None
    p, q = math.gcd(half - 1, N), math.gcd(half + 1, N)
    if p * q != N or min(p, q) <= 1:
        return None
    return (min(p, q), max(p, q))


@dataclass(frozen=True)
class FactoringResult:
    composite_n: int
    coprime_a: int
    shots: int
    output_counts: dict
    period_r: int
    factors: tuple[int, int] | None
    success_probability: float

    def __post_init__(self):
        if sum(self.output_counts.values()) != self.shots:
            raise ValueError("output counts must sum to the shot count")
        if self.factors is not None and self.factors[0] * self.factors[1] != self.composite_n:
            raise ValueError("reported factors do not multiply to N")

    def to_dict(self) -> dict:
        return {
            "composite_N": self.composite_n,
            "coprime_a": self.coprime_a,
            "shots": self.shots,
            "output_counts": dict(sorted(self.output_counts.items())),
            "period_r": self.period_r,
            "factors": list(self.factors) if self.factors else None,
            "success_probability": self.success_probability,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "FactoringResult":
        factors = doc["factors"]
        return cls(
            composite_n=int(doc["composite_N"]),
            coprime_a=int(doc["coprime_a"]),
            shots=int(doc["shots"]),
            output_counts={k: int(v) for k, v in doc["output_counts"].items()},
            period_r=int(doc["period_r"]),
            factors=None if factors is None else (int(factors[0]), int(factors[1])),
            success_probability=float(doc["success_probability"]),
        )


def analyze_output_counts(counts: dict[str, int], a: int, N: int) -> tuple[int, tuple | None, float]:
    """Winning (period, factors, success frequency) from sampled output counts.

    Outcomes are tried in descending frequency; the first whose period yields
    a valid factorization wins. All-zero outcomes are algorithm failures.
    """
    shots = sum(counts.values())
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    for bits, count in ranked:
        if count == 0:
            continue
        r = extract_period(bits, len(bits))
        if r == 0:
            continue
        factors = classical_factors(a, r, N)
        if factors is not None:
            return r, factors, count / shots
    return 0, None, 0.0


def factor_fifteen(
    variant: str = "three_qubit",
    shots: int = 150_000,
    seed: int = 0,
    mode: str = "ideal_pure",
    noise: NoiseParams | None = None,
) -> tuple[FactoringResult, CircuitRun]:
    """Run a compiled factoring circuit end to end: execute, sample, postprocess."""
    circuit = build_shor(variant)
    run = run_circuit(circuit, mode=mode, noise=noise)
    counts = sample_output(run.final, circuit.output_bits, shots, seed)
    period, factors, success = analyze_output_counts(counts, a=4, N=15)
    result = FactoringResult(
        composite_n=15,
        coprime_a=4,
        shots=shots,
        output_counts=counts,
        period_r=period,
        factors=factors,
        success_probability=success,
    )
    return result, run
