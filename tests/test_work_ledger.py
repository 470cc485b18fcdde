"""The work ledger: each fixed workload calls each package function as often as recorded."""
import ast
import json
from pathlib import Path

import pytest
import work_ledger

# the key-rate commands evaluate closed forms: from linalg they may call the scalar gates
# and binary_entropy, and nothing from the simulator or the verification suites
KEYRATE_LINALG = {"_number", "_check_range", "_check_integer", "binary_entropy"}

# the traced benchmark smoke fails a verify run in which one of perfbench/tracer.py's TARGETS is
# never called; run_all_checks reaches all of them but the CLI entry and two key-rate commands
TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
NOT_ON_RUN_ALL_CHECKS = {("cli", "main"), ("keyrate", "noise_threshold"), ("keyrate", "keyrate_curve")}
VERIFY_RUNS = [run for run in work_ledger.RUNS if run not in work_ledger.KEYRATE_RUNS]


def traced_targets() -> tuple[tuple[str, str], ...]:
    """The (module, attribute) pairs of ``TARGETS`` in perfbench/tracer.py, read from its source."""
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    return next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["TARGETS"]
    )


@pytest.fixture(scope="module")
def measured():
    return work_ledger.measure()


def test_every_workload_does_the_recorded_work(measured):
    # a change that removes work rewrites tests/work_ledger.json (PYTHONPATH=src python
    # tests/work_ledger.py), so its diff shows the calls saved; one that adds work fails here
    recorded = json.loads(work_ledger.LEDGER.read_text(encoding="utf-8"))
    assert list(measured) == list(recorded)
    for run, counts in measured.items():
        moved = {
            key: (recorded[run].get(key, 0), counts.get(key, 0))
            for key in sorted(counts.keys() | recorded[run].keys())
            if counts.get(key, 0) != recorded[run].get(key, 0)
        }
        assert not moved, f"{run}: (recorded, measured) calls {moved}"
    assert work_ledger.render(measured) == work_ledger.LEDGER.read_text(encoding="utf-8")


@pytest.mark.parametrize("run", work_ledger.KEYRATE_RUNS)
def test_keyrate_commands_run_no_simulation(measured, run):
    called = set(measured[run])
    assert "sqkd.cli.main" in called
    beyond = {
        key
        for key in called
        if not key.startswith(("sqkd.cli.", "sqkd.keyrate."))
        and not (key.startswith("sqkd.linalg.") and key.split(".")[2] in KEYRATE_LINALG)
    }
    assert not beyond, f"{run} calls {sorted(beyond)}"


@pytest.mark.parametrize("run", VERIFY_RUNS)
def test_verify_runs_call_every_traced_name(measured, run):
    targets = [target for target in traced_targets() if target not in NOT_ON_RUN_ALL_CHECKS]
    assert len(targets) >= 20  # the table was found and read, not an empty match
    # the ledger counts DensityOperator construction as its __init__
    keys = [f"sqkd.{module}.{attr}" + (".__init__" if attr == "DensityOperator" else "") for module, attr in targets]
    missing = [key for key in keys if not measured[run].get(key)]
    assert not missing, f"{run} never calls {missing}"
