"""Layer spans recorded from outside the package.

:class:`Tracer` keeps a stack of open spans and, when a span closes, adds its
self time (duration minus the time its child spans cover) to the span's
bucket. Buckets are named ``<layer>`` or ``<layer>.<part>``, and the self
times of all buckets add up to the duration of the outermost span.

:class:`Instrumentation` wraps the public functions of the six package
modules, wherever a module namespace holds them, plus the validating
``__post_init__`` of the three value classes and numpy's eigensolvers. It
patches nothing on disk and restores every original on exit.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("harness", "dynamics", "hilbert", "circuits", "noise", "tomography")

# functions that get a bucket of their own inside their layer
PARTS = {
    "dynamics": {
        "build_jc_hamiltonian": "hamiltonian",
        "build_spectroscopy_hamiltonian": "hamiltonian",
    },
    "tomography": {
        "simulate_tomography": "simulate",
        "register_density_matrix": "simulate",
        "setting_probabilities": "simulate",
        "all_settings": "simulate",
        "reconstruct": "reconstruct",
        "reconstruct_from_frequencies": "reconstruct",
    },
    "circuits": {"sample_output": "sample", "output_distribution": "sample"},
}
# every other public tomography function computes a metric or a target state
DEFAULT_PART = {"tomography": "metrics"}

# layers whose eigensolver calls are timed in a bucket of their own; elsewhere
# they count toward the calling layer's self time
EIG_LAYERS = ("dynamics", "hilbert", "tomography")
EIG_FUNCTIONS = ("eigh", "eigvalsh", "eigvals")
VALIDATED_CLASSES = ("QuantumState", "DensityMatrix", "QuantumOperator")

# every bucket a traced session can fill; "session" is the benchmark's own
# code between calls into the package
TIME_BUCKETS = (
    "session",
    "harness",
    "dynamics", "dynamics.hamiltonian", "dynamics.eig",
    "hilbert", "hilbert.validate", "hilbert.eig",
    "tomography.simulate", "tomography.reconstruct", "tomography.metrics", "tomography.eig",
    "circuits", "circuits.sample",
    "noise",
)

COUNTS = (
    "harness.calls", "harness.bytes_written",
    "dynamics.calls", "dynamics.hamiltonians", "dynamics.samples",
    "dynamics.eig_calls", "dynamics.eig_n3",
    "hilbert.calls", "hilbert.validations", "hilbert.eig_calls", "hilbert.eig_n3",
    "tomography.calls", "tomography.records", "tomography.settings",
    "tomography.eig_calls", "tomography.eig_n3",
    "circuits.calls", "circuits.gate_unitaries",
    "noise.calls", "noise.steps",
)


def time_metric(bucket: str) -> str:
    """Metric name of a bucket's self time: ``dynamics.self_s``, ``dynamics.eig_s``."""
    return f"{bucket}_s" if "." in bucket else f"{bucket}.self_s"


class Tracer:
    """Span stack with per-bucket self time and counters, kept in memory."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self._stack = []  # [bucket, start, time covered by children]

    def push(self, bucket: str) -> None:
        self._stack.append([bucket, self.clock(), 0.0])

    def pop(self) -> float:
        """Close the innermost span; returns its duration."""
        bucket, start, children = self._stack.pop()
        duration = self.clock() - start
        self.self_s[bucket] += duration - children
        if self._stack:
            self._stack[-1][2] += duration
        return duration

    @property
    def layer(self) -> str:
        """Layer of the innermost open span."""
        return self._stack[-1][0].split(".", 1)[0] if self._stack else "session"


# counters read from a wrapped call's result
def _count_hamiltonian(counts, result):
    counts["dynamics.hamiltonians"] += 1


def _count_trace_samples(counts, result):
    counts["dynamics.samples"] += result[0].times.size


def _count_grid_points(counts, result):
    counts["dynamics.samples"] += result.size


def _count_record(counts, result):
    counts["tomography.records"] += 1
    counts["tomography.settings"] += len(result.settings)


def _count_gate(counts, result):
    counts["circuits.gate_unitaries"] += 1


def _count_noise_step(counts, result):
    counts["noise.steps"] += 1


HOOKS = {
    ("dynamics", "build_jc_hamiltonian"): _count_hamiltonian,
    ("dynamics", "build_spectroscopy_hamiltonian"): _count_hamiltonian,
    ("dynamics", "propagate"): _count_trace_samples,
    ("dynamics", "swap_spectroscopy"): _count_grid_points,
    ("tomography", "simulate_tomography"): _count_record,
    ("circuits", "gate_unitary"): _count_gate,
    ("noise", "apply_noise_step"): _count_noise_step,
}


def _function_span(tracer: Tracer, layer: str, bucket: str, fn, hook):
    calls = f"{layer}.calls"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.counts[calls] += 1
        tracer.push(bucket)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.pop()
        if hook is not None:
            hook(tracer.counts, result)
        return result

    return wrapper


def _validation_span(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(self):
        tracer.counts["hilbert.validations"] += 1
        tracer.push("hilbert.validate")
        try:
            fn(self)
        finally:
            tracer.pop()

    return wrapper


def _eig_span(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(a, *args, **kwargs):
        bucket = layer = tracer.layer
        if layer in EIG_LAYERS:
            shape = np.shape(a)
            tracer.counts[f"{layer}.eig_calls"] += 1
            tracer.counts[f"{layer}.eig_n3"] += math.prod(shape[:-2]) * shape[-1] ** 3
            bucket = f"{layer}.eig"
        tracer.push(bucket)
        try:
            return fn(a, *args, **kwargs)
        finally:
            tracer.pop()

    return wrapper


class Instrumentation:
    """Context manager that routes package calls through a tracer's spans."""

    def __init__(self, tracer: Tracer):
        modules = {layer: importlib.import_module(f"qproc_sim.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for name, fn in vars(module).items():
                if name.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                part = PARTS.get(layer, {}).get(name, DEFAULT_PART.get(layer))
                bucket = f"{layer}.{part}" if part else layer
                wrappers[fn] = _function_span(tracer, layer, bucket, fn, HOOKS.get((layer, name)))

        # every package namespace that holds an original, including re-exports
        self._patches = []
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "qproc_sim" and not mod_name.startswith("qproc_sim."):
                continue
            for name, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patches.append((module, name, value, wrappers[value]))

        hilbert = modules["hilbert"]
        for cls_name in VALIDATED_CLASSES:
            cls = getattr(hilbert, cls_name)
            original = cls.__dict__["__post_init__"]
            self._patches.append((cls, "__post_init__", original, _validation_span(tracer, original)))

        for name in EIG_FUNCTIONS:
            original = getattr(np.linalg, name)
            self._patches.append((np.linalg, name, original, _eig_span(tracer, original)))

    def __enter__(self):
        for owner, name, _, wrapper in self._patches:
            setattr(owner, name, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, name, original, _ in self._patches:
            setattr(owner, name, original)
        return False
