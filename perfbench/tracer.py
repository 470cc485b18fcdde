"""Outside-in tracer for the sqkd package.

The tracer records one span per call into the public functions of the
package modules, without editing the package. The modules bind names at
import (``from .linalg import embed_operator``), so a wrapper has to
replace the name in every ``sqkd`` module namespace that holds the
function, not only in the defining module; otherwise calls through the
other bindings go unseen. ``DensityOperator`` construction (including its
validation) is wrapped on the class, which every module shares.

Spans are kept in memory as parallel arrays (operation id, parent span,
name, start, end) and written out once, at the end of a run.
"""
from __future__ import annotations

import functools
import statistics
import sys
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

# (module, attribute) of every wrapped callable, grouped by layer.
TARGETS = (
    ("cli", "main"),
    ("verification", "check_thm1_equivalence"),
    ("verification", "check_thm2_equivalence"),
    ("verification", "check_lemma_trd"),
    ("verification", "symmetric_diagnostics_sample"),
    ("verification", "collective_reduction_residual"),
    ("verification", "restricted_reduction_residual"),
    ("verification", "symmetric_attack_diagnostics"),
    ("attacks", "simulate_sqkd"),
    ("attacks", "simulate_entangled_sqkd"),
    ("attacks", "simulate_reduced"),
    ("attacks", "bob_operation"),
    ("attacks", "reduced_round_states"),
    ("attacks", "estimate_noise_stats"),
    ("attacks", "derive_restricted_from_collective"),
    ("attacks", "derive_reduced_attack"),
    ("attacks", "build_rewind"),
    ("keyrate", "key_rate"),
    ("keyrate", "noise_threshold"),
    ("keyrate", "keyrate_curve"),
    ("keyrate", "continuity_penalty"),
    ("linalg", "DensityOperator"),
    ("linalg", "embed_operator"),
    ("linalg", "complete_isometry"),
    ("linalg", "partial_trace"),
    ("linalg", "measure_register"),
    ("linalg", "trace_distance"),
    ("linalg", "von_neumann_entropy"),
    ("linalg", "binary_entropy"),
)
NAMES = tuple(f"{module}.{attr}" for module, attr in TARGETS)

# Names reported with ``.calls`` and ``.self_s``.
CALLS_AND_SELF = tuple(
    name
    for name in NAMES
    if name.split(".")[0] in ("linalg", "attacks")
    or name in ("keyrate.key_rate", "keyrate.noise_threshold", "keyrate.keyrate_curve")
)
SUITES = (
    "verification.check_thm1_equivalence",
    "verification.check_thm2_equivalence",
    "verification.check_lemma_trd",
    "verification.symmetric_diagnostics_sample",
)
TRIALS = (
    "verification.collective_reduction_residual",
    "verification.restricted_reduction_residual",
    "verification.symmetric_attack_diagnostics",
)


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (1..99) of a nonempty list, interpolated."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in reporting order."""
    units = {}
    for name in CALLS_AND_SELF:
        units[f"{name}.calls"] = "count/op"
        units[f"{name}.self_s"] = "s/op"
    units["linalg.embed_operator.bytes"] = "B/op"
    units["attacks.derive_reduced_attack.per_attack"] = "calls/attack"
    for name in SUITES:
        units[f"{name}.s"] = "s/op"
    for name in TRIALS:
        units[f"{name}_ms_p50"] = "ms"
        units[f"{name}_ms_p90"] = "ms"
    units["keyrate.key_rate.per_threshold"] = "calls/threshold"
    units["keyrate.continuity_penalty.per_key_rate"] = "calls/key_rate"
    units["cli.main.self_s"] = "s/op"
    units["trace.overhead_pct"] = "%"
    return units


class Tracer:
    """Wraps the package's public callables and records their spans.

    Construct after importing ``sqkd``; :meth:`install` and
    :meth:`uninstall` swap the wrappers in and out, so one process can
    alternate traced and untraced operations on the same inputs.
    """

    def __init__(self) -> None:
        self.op_id = -1
        self._op = array("q")
        self._parent = array("q")
        self._name = array("q")
        self._t0 = array("d")
        self._t1 = array("d")
        self._stack = [-1]
        self.embed_bytes = 0
        self._patches = []  # (owner, attribute, original, wrapper)
        modules = [m for key, m in sys.modules.items() if key == "sqkd" or key.startswith("sqkd.")]
        for name_id, (module, attr) in enumerate(TARGETS):
            original = getattr(sys.modules[f"sqkd.{module}"], attr)
            if isinstance(original, type):
                init = original.__init__
                self._patches.append((original, "__init__", init, self._wrap(name_id, init)))
                continue
            wrapper = self._wrap(name_id, original, sized=attr == "embed_operator")
            for holder in modules:
                for key, value in vars(holder).items():
                    if value is original:
                        self._patches.append((holder, key, original, wrapper))

    def _wrap(self, name_id: int, fn, sized: bool = False):
        op, parent, name, t0, t1, stack = (
            self._op, self._parent, self._name, self._t0, self._t1, self._stack
        )
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(t0)
            op.append(tracer.op_id)
            parent.append(stack[-1])
            name.append(name_id)
            t1.append(0.0)
            stack.append(sid)
            t0.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                t1[sid] = perf_counter()
                stack.pop()
            if sized:
                # computed, not measured: the dim x dim complex128 result, 16 dim^2 bytes
                tracer.embed_bytes += result.nbytes
            return result

        return traced

    def install(self, op_id: int) -> None:
        self.op_id = op_id
        for owner, key, _, wrapper in self._patches:
            setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original, _ in self._patches:
            setattr(owner, key, original)

    @property
    def span_count(self) -> int:
        return len(self._t0)

    def counts(self) -> dict[str, int]:
        """Total calls per wrapped name over the whole run."""
        per_name = np.bincount(np.frombuffer(self._name, dtype=np.int64), minlength=len(NAMES))
        return dict(zip(NAMES, (int(c) for c in per_name)))

    def write(self, path: Path) -> None:
        """Save every span, with the name table, as one ``.npz`` file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(NAMES),
            op=np.frombuffer(self._op, dtype=np.int64),
            parent=np.frombuffer(self._parent, dtype=np.int64),
            name=np.frombuffer(self._name, dtype=np.int64),
            start=np.frombuffer(self._t0, dtype=np.float64),
            end=np.frombuffer(self._t1, dtype=np.float64),
        )

    def metrics(self, ops: int) -> dict[str, float]:
        """Per-layer metrics, normalized per traced operation.

        Self time is a span's duration minus the durations of its child
        spans; calls run on one thread, so children never overlap.
        """
        name = np.frombuffer(self._name, dtype=np.int64)
        parent = np.frombuffer(self._parent, dtype=np.int64)
        dur = np.frombuffer(self._t1, dtype=np.float64) - np.frombuffer(self._t0, dtype=np.float64)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        self_time = dur - child
        index = {n: i for i, n in enumerate(NAMES)}
        calls = np.bincount(name, minlength=len(NAMES))
        self_total = np.bincount(name, weights=self_time, minlength=len(NAMES))
        inclusive = np.bincount(name, weights=dur, minlength=len(NAMES))

        def count(n: str) -> int:
            return int(calls[index[n]])

        def under(n: str, p: str) -> int:
            # calls of n made directly from a span of p
            mine = name == index[n]
            return int(np.count_nonzero(name[parent[mine & nested]] == index[p]))

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        def pct_ms(n: str, q: int) -> float:
            values = (dur[name == index[n]] * 1e3).tolist()
            return percentile(values, q) if values else 0.0

        out = {}
        for n in CALLS_AND_SELF:
            out[f"{n}.calls"] = count(n) / ops
            out[f"{n}.self_s"] = float(self_total[index[n]]) / ops
        out["linalg.embed_operator.bytes"] = self.embed_bytes / ops
        # base: the attacks that reach the reduction, one per thm2 trial
        # and one per symmetric-sample trial
        reduced_attacks = count("verification.restricted_reduction_residual") + count(
            "verification.symmetric_attack_diagnostics"
        )
        out["attacks.derive_reduced_attack.per_attack"] = ratio(
            count("attacks.derive_reduced_attack"), reduced_attacks
        )
        for n in SUITES:
            out[f"{n}.s"] = float(inclusive[index[n]]) / ops
        for n in TRIALS:
            out[f"{n}_ms_p50"] = pct_ms(n, 50)
            out[f"{n}_ms_p90"] = pct_ms(n, 90)
        out["keyrate.key_rate.per_threshold"] = ratio(
            under("keyrate.key_rate", "keyrate.noise_threshold"), count("keyrate.noise_threshold")
        )
        out["keyrate.continuity_penalty.per_key_rate"] = ratio(
            under("keyrate.continuity_penalty", "keyrate.key_rate"), count("keyrate.key_rate")
        )
        out["cli.main.self_s"] = float(self_total[index["cli.main"]]) / ops
        return out
