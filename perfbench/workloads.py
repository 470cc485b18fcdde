"""The benchmark's workloads: inputs drawn from a seed, the output checks,
and the closed loop that drives ``sqkd.cli.main`` with one client.

Every workload is a stream of in-process CLI calls. The seed only picks
the inputs (verification seeds, channel models, grids); the program sees
nothing but the generated command lines.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
import signal
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterator

from tracer import NAMES

DIGESTS = Path(__file__).resolve().parent / "digests.json"

# The verify contract: check names in order, trial counts as multiples of
# --trials, and the unchanged equivalence tolerance.
VERIFY_CHECKS = (
    "thm1-equivalence",
    "thm2-equivalence",
    "lemma-trd",
    "uncertainty",
    "continuity",
    "main-ent",
    "epsilon-bound",
)
VERIFY_TRIALS = (1, 1, 1, 4, 4, 4, 4)
VERIFY_TOLERANCE = 1e-9
# thm1 N + thm2 N + symmetric sample 4N; the lemma-trd vector pairs are not attacks
ATTACKS_PER_TRIAL = 6

# Published thresholds with the acceptance suite's tolerances.
THRESHOLDS = {"equal": (0.0614, 0.0002), "depolarizing": (0.0482, 0.0002), "half": (0.075, 0.0005)}

# The keyrate input space is finite so that every output has a digest
# recorded from the reference commit. Every explicit Q_X up to 0.11 has a
# threshold.
MODELS = ("equal", "depolarizing", "half") + tuple(f"explicit:{k * 0.005:.3f}" for k in range(23))
CURVE_RANGES = (("0", "0.5"), ("0", "0.12"), ("0.02", "0.11"))
CURVE_STEPS = 501
RATE_QS = ("0", "0.02", "0.05", "0.1")
FORMATS = ("csv", "json")

OP_LIMIT_S = 10.0
# A traced run stops early at this many spans (40 bytes each), which keeps
# the keyrate workload's millions of binary_entropy spans within memory.
SPAN_BUDGET = 1_000_000


@dataclass(frozen=True)
class Op:
    kind: str
    argv: tuple[str, ...]
    work: int = 0  # attacks for verify, grid points for curve


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    params: dict
    ops: Callable[[random.Random], Iterator[Op]]
    latency_kind: str  # op kind whose latency is reported
    work_kind: str  # op kind whose work per second is reported
    aliases: tuple[str, str]  # what the latency and work metrics are on this workload
    exercised: frozenset[str]  # traced names that must be called
    bypassed: frozenset[str]  # traced names that must not be called


def threshold_argv(model: str, fmt: str) -> tuple[str, ...]:
    return ("threshold", "--qx-model", model, "--format", fmt)


def curve_argv(model: str, q_range: tuple[str, str], fmt: str) -> tuple[str, ...]:
    lo, hi = q_range
    return ("curve", "--q-min", lo, "--q-max", hi, "--steps", str(CURVE_STEPS), "--qx-model", model, "--format", fmt)


def rate_argv(model: str, q: str, fmt: str) -> tuple[str, ...]:
    return ("rate", "--q", q, "--qx-model", model, "--format", fmt)


def keyrate_inputs() -> Iterator[tuple[str, ...]]:
    """Every command line the keyrate workload can issue."""
    for model in MODELS:
        for fmt in FORMATS:
            yield threshold_argv(model, fmt)
            for q_range in CURVE_RANGES:
                yield curve_argv(model, q_range, fmt)
            for q in RATE_QS:
                yield rate_argv(model, q, fmt)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _verify_ops(trials: int, d_e: str) -> Callable[[random.Random], Iterator[Op]]:
    def ops(rng: random.Random) -> Iterator[Op]:
        while True:
            seed = str(rng.randrange(2**63))
            argv = ("verify", "--trials", str(trials), "--seed", seed, "--d-e", d_e, "--format", "json")
            yield Op("verify", argv, ATTACKS_PER_TRIAL * trials)

    return ops


def _keyrate_ops(rng: random.Random) -> Iterator[Op]:
    # formats alternate so every run renders the same csv/json mix
    for i in itertools.count():
        fmt = FORMATS[i % 2]
        yield Op("threshold", threshold_argv(rng.choice(MODELS), fmt))
        yield Op("curve", curve_argv(rng.choice(MODELS), rng.choice(CURVE_RANGES), fmt), CURVE_STEPS)
        yield Op("rate", rate_argv(rng.choice(MODELS), rng.choice(RATE_QS), fmt))


_KEYRATE_NAMES = frozenset(
    {
        "cli.main",
        "keyrate.key_rate",
        "keyrate.noise_threshold",
        "keyrate.keyrate_curve",
        "keyrate.continuity_penalty",
        "linalg.binary_entropy",
    }
)
_VERIFY_NAMES = frozenset(NAMES) - {"keyrate.noise_threshold", "keyrate.keyrate_curve"}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "verify",
            "The headline command at 8-32 dimensions: time goes to Python-level calls "
            "(embed_operator, DensityOperator validation, Gram-Schmidt), not LAPACK.",
            {"command": "verify", "trials": 3, "d_e": "2,3,4", "format": "json"},
            _verify_ops(3, "2,3,4"),
            "verify",
            "verify",
            ("verify_ms", "attacks_per_s"),
            _VERIFY_NAMES,
            frozenset(),
        ),
        Workload(
            "verify-d8",
            "The same path at 64 dimensions, where per-call flops dominate "
            "(complete_isometry, 64x64 eigvalsh); moves differently from verify.",
            {"command": "verify", "trials": 1, "d_e": "8", "format": "json"},
            _verify_ops(1, "8"),
            "verify",
            "verify",
            ("verify_ms", "attacks_per_s"),
            _VERIFY_NAMES,
            frozenset(),
        ),
        Workload(
            "keyrate",
            "Bypass workload: threshold, curve and rate run only keyrate and binary_entropy, "
            "no simulation; guards the byte-identical output contract.",
            {
                "commands": ["threshold", "curve", "rate"],
                "models": list(MODELS),
                "curve_ranges": [list(r) for r in CURVE_RANGES],
                "curve_steps": CURVE_STEPS,
                "rate_q": list(RATE_QS),
                "formats": list(FORMATS),
            },
            _keyrate_ops,
            "threshold",
            "curve",
            ("threshold_ms", "curve_points_per_s"),
            _KEYRATE_NAMES,
            frozenset(NAMES) - _KEYRATE_NAMES,
        ),
    )
}


# ---------------------------------------------------------------- checks


def check_verify(text: str, trials: int) -> str | None:
    rows = json.loads(text)
    names = tuple(row["check"] for row in rows)
    if names != VERIFY_CHECKS:
        return f"verify reported checks {names}"
    for row, factor in zip(rows, VERIFY_TRIALS):
        if row["trials"] != factor * trials:
            return f"{row['check']}: {row['trials']} trials, expected {factor * trials}"
        if row["tolerance"] != VERIFY_TOLERANCE:
            return f"{row['check']}: tolerance {row['tolerance']}, expected {VERIFY_TOLERANCE}"
        if row["passed"] is not True or not row["max_residual"] <= VERIFY_TOLERANCE:
            return f"{row['check']}: residual {row['max_residual']} (passed={row['passed']})"
    return None


def _threshold_value(text: str, fmt: str) -> float:
    if fmt == "json":
        return float(json.loads(text)["threshold"])
    return float(text.splitlines()[1].split(",")[1])


def check(op: Op, code: int, text: str, digests: dict[str, str]) -> str | None:
    """A description of what is wrong with one call's result, or None."""
    if code != 0:
        return f"exit code {code}"
    if op.kind == "verify":
        return check_verify(text, int(op.argv[op.argv.index("--trials") + 1]))
    key = " ".join(op.argv)
    if digests.get(key) != digest(text):
        return "output differs from the recorded digest"
    model, fmt = op.argv[op.argv.index("--qx-model") + 1], op.argv[-1]
    if op.kind == "threshold" and model in THRESHOLDS:
        expected, tol = THRESHOLDS[model]
        value = _threshold_value(text, fmt)
        if abs(value - expected) > tol:
            return f"threshold {value} for {model}, expected {expected} +- {tol}"
    return None


# ---------------------------------------------------------------- the loop


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout(f"no result within {OP_LIMIT_S} s")


def execute(cli, argv: tuple[str, ...]) -> tuple[int, str, float]:
    """One in-process CLI call: exit code, stdout and seconds in ``main``."""
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, OP_LIMIT_S)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = perf_counter()
            code = cli.main(list(argv))
            elapsed = perf_counter() - start
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue(), elapsed


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    calls: list[tuple[Op, float]] = field(default_factory=list)  # (op, seconds in main)
    traced_busy: float = 0.0
    untraced_busy: float = 0.0
    traced_ops: int = 0

    def fail(self, op: Op, problem: str) -> None:
        self.fail_run(f"{' '.join(op.argv)}: {problem}")

    def fail_run(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(problem)


def _attempt(cli, op: Op, outcome: Outcome, digests: dict[str, str]):
    """Run and check one call; returns (stdout, seconds), or None if it failed."""
    outcome.attempted += 1
    try:
        code, text, elapsed = execute(cli, op.argv)
        problem = check(op, code, text, digests)
    except Exception as exc:  # the loop keeps running; the failure is counted
        outcome.fail(op, f"{type(exc).__name__}: {exc}")
        return None
    if problem is not None:
        outcome.fail(op, problem)
        return None
    return text, elapsed


def run(workload: Workload, seed: int, seconds: float, cli, tracer=None, pause=None, pause_every=0.0) -> Outcome:
    """Closed loop with one client for ``seconds``.

    ``pause``, if given, is called between calls: first at the start, then
    every ``pause_every`` seconds. Untraced, every call is timed. Traced,
    every input runs twice, once with the tracer installed and once
    without, in alternating order; the two outputs must be identical, and
    the time difference is the tracing overhead. A traced run also ends
    when the tracer holds SPAN_BUDGET spans.
    """
    digests = json.loads(DIGESTS.read_text())
    outcome = Outcome()
    ops = workload.ops(random.Random(seed))
    start = next_pause = perf_counter()
    index = 0
    while perf_counter() - start < seconds and (tracer is None or tracer.span_count < SPAN_BUDGET):
        if pause is not None and perf_counter() >= next_pause:
            pause()
            next_pause = perf_counter() + pause_every
        op = next(ops)
        if tracer is None:
            result = _attempt(cli, op, outcome, digests)
            if result is not None:
                outcome.calls.append((op, result[1]))
        else:
            results = {}
            for traced in (False, True) if index % 2 == 0 else (True, False):
                if traced:
                    tracer.install(index)
                try:
                    results[traced] = _attempt(cli, op, outcome, digests)
                finally:
                    if traced:
                        tracer.uninstall()
            if results[False] and results[True]:
                outcome.traced_ops += 1
                outcome.untraced_busy += results[False][1]
                outcome.traced_busy += results[True][1]
                if results[False][0] != results[True][0]:
                    outcome.fail(op, "traced and untraced outputs differ")
        index += 1
    return outcome
