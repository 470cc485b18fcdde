"""The work ledger: each fixed workload calls each package function as often as recorded."""
import json

import pytest
import work_ledger

# the key-rate commands evaluate closed forms: from linalg they may call the scalar gates
# and binary_entropy, and nothing from the simulator or the verification suites
KEYRATE_LINALG = {"_number", "_check_range", "_check_integer", "binary_entropy"}


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
