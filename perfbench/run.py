"""Benchmark of the sqkd toolkit.

Usage, from the repository root::

    python3 perfbench/run.py --workload verify --seed 1 --seconds 40 --trace 0

Runs one workload (``verify``, ``verify-d8`` or ``keyrate``; see
``perfbench/README.md``) in this process as a closed loop with one client,
calling ``sqkd.cli.main`` in-process and checking every output. With
``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
alternates traced and untraced calls on the same inputs and prints the
per-layer metrics and the tracing overhead. The last line of stdout is
the result as one JSON object; the lines before it are a readable summary
and the run record.

BLAS is pinned to one thread before numpy loads. Byte-code caches are
written to ``.bench_build/`` whatever the environment says, so that set-up
is always timed with a warm cache and the run writes nothing outside the
checkout.
"""
from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

os.environ.update(BLAS_THREADS)
sys.pycache_prefix = str(BUILD / "pycache")
sys.dont_write_bytecode = False

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

SETUP_SAMPLES = 9
PAUSE_EVERY_S = 1.0
SETUP_CODE = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import sqkd.cli\n"
    "sqkd.cli.build_parser()\n"
    "print(repr(time.perf_counter() - start))\n"
)


def setup_once() -> float:
    """Seconds for a fresh interpreter to import sqkd and build the parser."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONPYCACHEPREFIX=sys.pycache_prefix)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE],
        env=env,
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return float(proc.stdout)


class Host:
    """What the run does between calls: CPU choice and set-up samples.

    The host's contention moves between this VM's CPUs within seconds, so
    once a second the run times a fixed pure-Python loop on each allowed
    CPU and moves itself to the fastest. This touches only this process's
    own affinity. Untraced runs also start a fresh interpreter every few
    pauses to time set-up, so that the samples are spread over the run.
    """

    def __init__(self, seconds: float, sample_setup: bool) -> None:
        self.cpus = sorted(os.sched_getaffinity(0))
        self.chosen = dict.fromkeys(self.cpus, 0)
        self.setup_every = max(1, round(seconds / PAUSE_EVERY_S / SETUP_SAMPLES)) if sample_setup else 0
        self.setup_times: list[float] = []
        self.pauses = 0

    @staticmethod
    def _probe_s() -> float:
        start = time.perf_counter()
        sum(i * i for i in range(20000))
        return time.perf_counter() - start

    def _cpu_speed(self, cpu: int) -> float:
        os.sched_setaffinity(0, {cpu})
        return min(self._probe_s() for _ in range(3))

    def pause(self) -> None:
        fastest = min(self.cpus, key=self._cpu_speed)
        os.sched_setaffinity(0, {fastest})
        self.chosen[fastest] += 1
        if self.setup_every and self.pauses % self.setup_every == 0:
            self.setup_times.append(setup_once())
        self.pauses += 1


def git_revision() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "sqkd").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def blas_threads_in_use():
    """Thread count reported by the loaded OpenBLAS, or None if not found."""
    try:
        with open("/proc/self/maps") as maps:
            libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def run_record(workload, args, host: Host) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload.name,
        "why": workload.why,
        "params": workload.params,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_allowed": host.cpus,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": BLAS_THREADS,
        "blas_threads_in_use": blas_threads_in_use(),
        "git_revision": git_revision(),
        "src_sha256": source_digest(),
        "machine": platform.machine(),
    }


def end_to_end(workload, outcome, setup_times: list[float]) -> tuple[dict, list[str]]:
    """The end-to-end metrics of an untraced run, and readable lines for them.

    The host's speed changes by up to 1.8x for seconds to minutes at a
    time, whatever this process does, so the median and p90 of one run
    mostly say how long the host was slow. The gated figures are therefore
    the p5 of per-call times, the speed reached while the host leaves the
    CPU alone; the median and p90 are printed for reference.
    """
    from tracer import percentile

    latency = [s for op, s in outcome.calls if op.kind == workload.latency_kind]
    work = [(op.work, s) for op, s in outcome.calls if op.kind == workload.work_kind]
    if not latency or not work:
        return {}, []
    per_unit = [s / units for units, s in work]
    latency_alias, work_alias = workload.aliases
    ms = [1e3 * s for s in latency]
    values = {
        "setup_s": (
            statistics.median(setup_times),
            "s",
            f"import sqkd and build the parser in a fresh interpreter, median of {len(setup_times)}",
        ),
        "latency_ms_p5": (percentile(ms, 5), "ms", f"{latency_alias}_p5 over {len(ms)} calls"),
        "work_per_s": (1.0 / percentile(per_unit, 5), "1/s", f"{work_alias} at the p5 call time, {len(work)} calls"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", "maximum resident set"),
    }
    lines = [f"{name:<16} {value:>12.6g} {unit:<4} {note}" for name, (value, unit, note) in values.items()]
    lines += [
        f"{latency_alias + '_p' + str(q):<16} {percentile(ms, q):>12.6g} ms   not gated: host-dependent"
        for q in (50, 90)
    ]
    return {name: {"value": value, "unit": unit} for name, (value, unit, _) in values.items()}, lines


def per_layer(workload, outcome, tracer) -> tuple[dict, list[str]]:
    """The per-layer metrics of a traced run, and readable lines for them.

    Runs the tracer self-test first: a wrapped function that the workload
    should call but never did, or one it should bypass but called, counts
    as a failure.
    """
    from tracer import per_layer_units

    counts = tracer.counts()
    for n in sorted(workload.exercised):
        if not counts[n]:
            outcome.fail_run(f"tracer self-test: {n} was never called")
    for n in sorted(workload.bypassed):
        if counts[n]:
            outcome.fail_run(f"tracer self-test: {n} was called {counts[n]} times")
    if not outcome.traced_ops:
        return {}, []
    values = tracer.metrics(outcome.traced_ops)
    values["trace.overhead_pct"] = 100.0 * (outcome.traced_busy / outcome.untraced_busy - 1.0)
    units = per_layer_units()
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    lines = [f"{name:<58} {values[name]:>12.6g} {unit}" for name, unit in units.items()]
    lines.append(f"{outcome.traced_ops} inputs run traced and untraced, {tracer.span_count} spans")
    return metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "sqkd" / "__init__.py").is_file():
        print(f"error: no sqkd sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be nonnegative and --seconds positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import sqkd.cli as cli
    import workloads
    from tracer import Tracer

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; expected one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    BUILD.mkdir(exist_ok=True)
    tracer = Tracer() if args.trace else None
    host = Host(args.seconds, sample_setup=tracer is None)
    if tracer is None:
        setup_once()  # fills the byte-code cache; not measured
    outcome = workloads.run(workload, args.seed, args.seconds, cli, tracer, host.pause, PAUSE_EVERY_S)

    if tracer is None:
        metrics, lines = end_to_end(workload, outcome, host.setup_times)
    else:
        metrics, lines = per_layer(workload, outcome, tracer)
        tracer.write(BUILD / f"spans-{workload.name}.npz")
    fail_ratio = outcome.failed / outcome.attempted
    print(f"workload {workload.name}, seed {args.seed}: {outcome.attempted} calls, {outcome.failed} failed")
    print(f"{'fail_ratio':<16} {fail_ratio:>12.6g} 1")
    print(f"fastest CPU at each of {host.pauses} pauses: {host.chosen}")
    for line in lines + outcome.problems:
        print(line)
    print("run-record " + json.dumps(run_record(workload, args, host), sort_keys=True))
    correct = outcome.failed == 0 and bool(metrics)
    result = {"correct": correct, "attempted": outcome.attempted, "failed": outcome.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
