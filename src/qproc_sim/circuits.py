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

from .hilbert import DensityMatrix, QuantumState, apply_local, qubit_ket
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

# decimals each probability keeps before a multinomial draw. States differ between BLAS
# kernels by ~1e-16 and numpy's sampler is discontinuous in its probabilities; the rounding
# biases each probability by at most 5e-10, against ~1e-2 of shot noise at 10k shots
SAMPLING_DECIMALS = 9


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
        _check_register([b for b in self.output_bits if b is not None], self.n_qubits,
                        "output_bits")
        _check_register(self.analysis_qubits, self.n_qubits, "analysis_qubits")
        for name, pos in self.breakpoints.items():
            if not 0 <= pos <= len(self.ops):
                raise ValueError(f"breakpoint {name!r} position {pos} outside the circuit")

    @property
    def gates(self) -> tuple[Gate, ...]:
        return tuple(op for op in self.ops if isinstance(op, Gate))


def _check_register(qubits: Sequence[int], n_qubits: int, name: str) -> None:
    """Reject qubit indices that lie outside 0..n_qubits-1 or repeat, as gate targets are."""
    if not all(0 <= q < n_qubits for q in qubits) or len(set(qubits)) != len(qubits):
        raise ValueError(f"{name} {tuple(qubits)} must name distinct qubits in 0..{n_qubits - 1}")


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


def run_circuit(circuit: Circuit, noise: NoiseParams | None = None,
                initial_state=None) -> CircuitRun:
    """Execute a circuit from |g...g> and capture every breakpoint state.

    Without ``noise`` a state vector evolves; with it a density matrix does,
    every op (gates and idles) followed by per-qubit damping and dephasing
    for the op's duration. Each gate's 2x2 or 4x4 matrix acts on its target
    qubits only (``apply_local``): G ρ, then G (G ρ)†, conjugate-transposed
    back. With noise, that matrix goes to the noise step bare, which checks it
    once as the step's density matrix.
    """
    state = initial_state if initial_state is not None else qubit_ket("g" * circuit.n_qubits)
    if noise is not None and isinstance(state, QuantumState):
        state = state.density_matrix()

    dims = (2,) * state.n_qubits
    states = [state]  # the state after each op, the initial state first
    for op in circuit.ops:
        if isinstance(op, Gate):
            G = GATE_MATRICES[op.kind]
            if isinstance(state, QuantumState):
                state = QuantumState(apply_local(G, state.amplitudes, dims, op.targets))
            else:
                half = apply_local(G, state.elements, dims, op.targets)
                rho = apply_local(G, half.conj().T, dims, op.targets).conj().T
                state = rho if noise is not None else DensityMatrix(rho)
            duration_class = "2q" if op.kind in TWO_QUBIT_GATES else "1q"
        else:
            duration_class = op.duration_class
        if noise is not None:
            dt = noise.gate_time_2q if duration_class == "2q" else noise.gate_time_1q
            state = apply_noise_step(state, noise, dt)
        states.append(state)
    return CircuitRun(final=state, breakpoint_states={
        name: states[pos] for name, pos in circuit.breakpoints.items()})


def sample_output(state, register: Sequence, shots: int, seed: int) -> dict[str, int]:
    """Multinomial draw of computational-basis outcomes of the given register.

    ``register`` lists bit sources most-significant-first: a qubit index, or
    ``None`` for a constant-0 bit (the compiled circuits carry a redundant
    always-0 register qubit that the recompiled variants do not realize
    physically). Returns counts for every possible output string.
    """
    register = tuple(register)  # output_distribution checks it
    if shots < 1:
        raise ValueError("shots must be >= 1")
    draws = np.random.default_rng(seed).multinomial(
        shots, sampling_distribution(output_distribution(state, register)))
    width = len(register)
    return {format(m, f"0{width}b"): int(c) for m, c in enumerate(draws)}


def sampling_distribution(probs: np.ndarray) -> np.ndarray:
    """Each probability row rounded to ``SAMPLING_DECIMALS``, then renormalized: the input to
    every multinomial draw, so that counts do not depend on which BLAS kernel built ``probs``."""
    probs = np.round(probs, SAMPLING_DECIMALS)
    return probs / probs.sum(axis=-1, keepdims=True)


def output_distribution(state, register: Sequence) -> np.ndarray:
    """Exact probability of each output string of the register (see sample_output)."""
    register = tuple(register)
    if not register:
        raise ValueError("output register must be nonempty")
    n = state.n_qubits
    real_bits = [b for b in register if b is not None]
    _check_register(real_bits, n, "output register")
    probs = state.probabilities().real.reshape((2,) * n)
    marginal = probs.sum(axis=tuple(ax for ax in range(n) if ax not in real_bits))
    # the marginal's axes ascend; a None bit always reads 0
    out = np.zeros((2,) * len(register))
    out[tuple(0 if src is None else slice(None) for src in register)] = marginal.transpose(
        np.argsort(np.argsort(real_bits)))
    return out.ravel() / out.sum()


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
    """The output counts of a factoring run of N with co-prime a, and what they give, derived
    once: ``shots`` is their sum, and ``period_r``, ``factors`` and ``success_probability``
    are ``analyze_output_counts`` of them (the winning period, its factors, its frequency)."""

    composite_n: int
    coprime_a: int
    output_counts: dict
    shots: int = field(init=False)
    period_r: int = field(init=False)
    factors: tuple[int, int] | None = field(init=False)
    success_probability: float = field(init=False)

    def __post_init__(self):
        shots = sum(self.output_counts.values())
        if shots < 1:
            raise ValueError("output counts must hold at least one shot")
        derived = analyze_output_counts(self.output_counts, self.coprime_a, self.composite_n)
        for name, value in zip(("shots", "period_r", "factors", "success_probability"),
                               (shots, *derived)):
            object.__setattr__(self, name, value)

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
        """Parse a ``to_dict`` document. A missing or unknown key, an N, a or count that is not
        a non-negative JSON integer, no shots, an (N, a) pair ``classical_factors`` refuses,
        outcome labels other than the 2^w strings of one width, or a shot count, period, factors
        or success probability that the counts do not give raises ValueError naming the key."""
        if type(doc) is not dict:
            raise ValueError(f"a factoring result must be a JSON object, got {doc!r}")
        keys = {"composite_N", "coprime_a", "shots", "output_counts", "period_r", "factors",
                "success_probability"}
        if set(doc) != keys:
            raise ValueError(f"factoring result lacks key(s) {sorted(keys - set(doc))} "
                             f"or has unknown key(s) {sorted(set(doc) - keys)}")
        counts = doc["output_counts"]
        width = len(next(iter(counts), "")) if isinstance(counts, dict) else 0
        if (width == 0 or len(counts) != 2 ** width
                or sorted(counts) != [format(m, f"0{width}b") for m in range(2 ** width)]):
            raise ValueError(f"output_counts must hold exactly the 2^w outcome strings of one "
                             f"width w, got {counts!r}")
        numbers = {key: [doc[key]] for key in ("composite_N", "coprime_a")}
        numbers["output_counts"] = counts.values()
        for key, values in numbers.items():
            if any(type(v) is not int or v < 0 for v in values):  # JSON true is an int too
                raise ValueError(f"{key} must hold non-negative integers, got {doc[key]!r}")
        try:
            classical_factors(doc["coprime_a"], 0, doc["composite_N"])  # checks the pair only
        except ValueError as exc:
            raise ValueError(f"composite_N, coprime_a: {exc}") from None
        result = cls(doc["composite_N"], doc["coprime_a"], dict(counts))
        derived = result.to_dict()
        for key in ("shots", "period_r", "factors", "success_probability"):
            if repr(doc[key]) != repr(derived[key]):  # repr tells 2 from 2.0 and from true
                raise ValueError(f"{key} is {doc[key]!r}, but the output counts give "
                                 f"{derived[key]!r}")
        return result


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


def factor_fifteen(circuit: Circuit, shots: int, seed: int,
                   noise: NoiseParams | None = None) -> tuple[FactoringResult, CircuitRun]:
    """Run a compiled factoring circuit (``build_shor``) end to end: execute, sample,
    postprocess."""
    run = run_circuit(circuit, noise=noise)
    counts = sample_output(run.final, circuit.output_bits, shots, seed)
    return FactoringResult(composite_n=15, coprime_a=4, output_counts=counts), run
