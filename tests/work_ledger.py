"""Work ledger: how often each package function runs on five fixed workloads.

A ``sys.setprofile`` hook counts the calls of every module-level and class-level function
of the ``sqkd`` package, keyed by its defining module and ``__qualname__``, so a call is
counted once whichever namespace binds the name it went through. Lambdas, nested functions
and comprehensions are not counted. The workloads are ``run_all_checks(1, 42)``,
``run_all_checks(1, 42, (8,))`` and, in process, the ``rate``, ``threshold`` and 501-step
``curve`` commands; the caches that outlive a call are cleared before each, so the counts
do not depend on run order.

``tests/work_ledger.json`` holds the counts and ``tests/test_work_ledger.py`` checks them:
a change that removes work rewrites the file in the same diff, so the diff shows the work
it saved, and a change that repeats work fails. From the repository root:

    PYTHONPATH=src python tests/work_ledger.py            # rewrite tests/work_ledger.json
    PYTHONPATH=src python tests/work_ledger.py OUT.json   # write the counts to OUT.json
"""
from __future__ import annotations

import contextlib
import inspect
import io
import json
import sys
from collections import Counter
from pathlib import Path

import sqkd
from sqkd import attacks, cli, verification

LEDGER = Path(__file__).with_name("work_ledger.json")

RUNS = {
    "run_all_checks(1, 42)": lambda: verification.run_all_checks(1, 42),
    "run_all_checks(1, 42, (8,))": lambda: verification.run_all_checks(1, 42, (8,)),
    "rate": lambda: cli.main(["rate", "--q", "0.03", "--qx-model", "equal"]),
    "threshold": lambda: cli.main(["threshold", "--qx-model", "equal"]),
    "curve": lambda: cli.main(["curve", "--steps", "501", "--qx-model", "equal"]),
}
KEYRATE_RUNS = ("rate", "threshold", "curve")


def _defined_in(holder, module: str):
    """The functions of ``holder``'s namespace that ``module`` defines, unwrapped, with the
    getters, setters and underlying functions of its properties and static and class methods."""
    for value in vars(holder).values():
        if isinstance(value, property):
            parts = (value.fget, value.fset, value.fdel)
        else:
            parts = (getattr(value, "__func__", getattr(value, "func", value)),)
        for part in parts:
            if callable(part) and getattr(part, "__module__", None) == module:
                part = inspect.unwrap(part)
                if inspect.isfunction(part) and "<" not in part.__qualname__:
                    yield part


def package_functions() -> dict[int, str]:
    """``module.qualname`` of each module- and class-level package function, by its code's id."""
    keys = {}
    for name, module in list(sys.modules.items()):
        if name == sqkd.__name__ or name.startswith(sqkd.__name__ + "."):
            classes = [v for v in vars(module).values() if isinstance(v, type) and v.__module__ == name]
            for holder in (module, *classes):
                for fn in _defined_in(holder, name):
                    keys[id(fn.__code__)] = f"{fn.__module__}.{fn.__qualname__}"
    return keys


def count_calls(run) -> dict[str, int]:
    """Calls per package function while ``run()`` runs, its standard output discarded."""
    keys, counts = package_functions(), Counter()

    def hook(frame, event, arg):
        if event == "call" and id(frame.f_code) in keys:
            counts[keys[id(frame.f_code)]] += 1

    attacks._layout.cache_clear()
    cli._parser.cache_clear()
    with contextlib.redirect_stdout(io.StringIO()):
        sys.setprofile(hook)
        try:
            run()
        finally:
            sys.setprofile(None)
    return dict(sorted(counts.items()))


def measure() -> dict[str, dict[str, int]]:
    """The call counts of every workload in ``RUNS``."""
    return {name: count_calls(run) for name, run in RUNS.items()}


def render(ledger: dict[str, dict[str, int]]) -> str:
    return json.dumps(ledger, indent=2) + "\n"


if __name__ == "__main__":
    target = Path(sys.argv[1]) if len(sys.argv) > 1 else LEDGER
    target.write_text(render(measure()), encoding="utf-8")
