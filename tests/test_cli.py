"""Tests for the command-line interface.

Everything except the two entry-point smoke tests drives ``main(argv)`` in
process for speed. The smoke tests run a child interpreter on the same
``sqkd`` package the suite imported, so neither needs an installed package.
"""
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sqkd
from csv_reference import render_csv
from sqkd.cli import _cell, _render, build_parser, main
from sqkd.keyrate import (
    DEPOLARIZING, EQUAL, HALF, KeyRateReport, key_rate, keyrate_curve, noise_threshold,
)
from sqkd.verification import CHECK_NAMES, VerifyReport, run_all_checks

REPORT_HEADER = "Q,Q_X,epsilon,delta,s_tau_bound,branch,g,r"
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
# sha256 prefixes of every rate/threshold/curve output the benchmark checks
DIGESTS = Path(__file__).resolve().parents[1] / "perfbench" / "digests.json"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_rate_zero_noise_row(capsys):
    code, out, _ = run_cli(capsys, "rate", "--q", "0", "--qx-model", "equal")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == REPORT_HEADER
    assert lines[1] == "0,0,0,0,1,main,1,1"


def test_rate_csv_matches_library(capsys):
    code, out, _ = run_cli(capsys, "rate", "--q", "0.03", "--qx-model", "equal")
    assert code == 0
    row = dict(zip(REPORT_HEADER.split(","), out.splitlines()[1].split(",")))
    report = key_rate(0.03, EQUAL)
    assert row["branch"] == report.branch
    for field, value in (("epsilon", report.epsilon), ("r", report.r)):
        assert abs(float(row[field]) - value) < 1e-11  # 12 significant digits


def test_rate_json_round_trip(capsys):
    code, out, _ = run_cli(
        capsys, "rate", "--q", "0.03", "--qx-model", "depolarizing", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload == key_rate(0.03, DEPOLARIZING).as_dict()


def test_threshold_output(capsys):
    code, out, _ = run_cli(capsys, "threshold", "--qx-model", "equal")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "model,threshold,threshold_percent"
    fields = lines[1].split(",")
    assert fields[0] == "equal"
    value = float(fields[1])
    assert abs(value - noise_threshold(EQUAL)) < 1e-9
    assert abs(float(fields[2]) - 100.0 * value) < 1e-7


def test_threshold_json(capsys):
    code, out, _ = run_cli(capsys, "threshold", "--qx-model", "half", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["model"] == "half"
    assert abs(payload["threshold_percent"] - 100.0 * payload["threshold"]) < 1e-9
    assert 0.074 < payload["threshold"] < 0.076


def test_curve_rows(capsys):
    code, out, _ = run_cli(
        capsys, "curve", "--q-min", "0", "--q-max", "0.1", "--steps", "3",
        "--qx-model", "equal",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == REPORT_HEADER
    assert len(lines) == 4
    assert [line.split(",")[0] for line in lines[1:]] == ["0", "0.05", "0.1"]


def test_curve_json_matches_library(capsys):
    code, out, _ = run_cli(
        capsys, "curve", "--q-min", "0", "--q-max", "0.1", "--steps", "3",
        "--qx-model", "equal", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert isinstance(payload, list) and len(payload) == 3
    assert payload[0]["r"] == 1.0
    assert payload[0] == key_rate(0.0, EQUAL).as_dict()


def test_keyrate_outputs_match_recorded_digests(capsys):
    digests = json.loads(DIGESTS.read_text())
    assert digests
    mismatched = []
    for command, expected in digests.items():
        code, out, _ = run_cli(capsys, *command.split())
        if code != 0 or hashlib.sha256(out.encode("utf-8")).hexdigest()[:16] != expected:
            mismatched.append(command)
    assert not mismatched, f"{len(mismatched)} of {len(digests)} differ, first: {mismatched[0]}"


@pytest.mark.parametrize(
    "value, text",
    [
        ("floor", "floor"),
        ("", ""),
        (True, "true"),
        (False, "false"),
        (0, "0"),
        (400, "400"),
        (-3, "-3"),
        (0.0, "0"),
        (1.0, "1"),
        (0.1164, "0.1164"),
        (1 / 3, "0.333333333333"),
        (1e-9, "1e-09"),
        (-0.103268785303241, "-0.103268785303"),
        (123456789012345.0, "1.23456789012e+14"),
        (np.float64(0.1164), "0.1164"),
        (np.float64(2) / 3, "0.666666666667"),
        (float("nan"), "nan"),
        (np.float64("nan"), "nan"),
        (float("inf"), "inf"),
        (float("-inf"), "-inf"),
        (np.float64("inf"), "inf"),
    ],
)
def test_csv_cells(value, text):
    # str as it is, bool in lower case, int in full, any float at 12 significant digits
    assert _cell(value) == text


FLOAT_CELLS = st.one_of(
    st.floats(),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 1e-300, 1.23e14]),
)
KINDS = (
    FLOAT_CELLS,
    FLOAT_CELLS.map(np.float64),
    st.integers(),
    st.booleans(),
    st.text(alphabet=st.sampled_from(',"\n\r a1.'), max_size=4),
    st.text(max_size=4),
)


@st.composite
def tables(draw):
    # half the tables keep one cell type per column, as every command's rows do; the
    # others draw any cell anywhere, so types and row lengths change between rows
    if draw(st.booleans()):
        columns = draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=4))
        row = st.tuples(*columns)
    else:
        row = st.lists(st.one_of(KINDS), min_size=1, max_size=4)
    return draw(st.lists(row, min_size=1, max_size=8))


@settings(deadline=None, max_examples=400)
@given(tables())
def test_csv_render_matches_csv_writer(table):
    # the reference reads its header off the first row's keys
    columns = [f"c{i}" for i in range(len(table[0]))]
    dicts = [{f"c{i}": value for i, value in enumerate(cells)} for cells in table]
    assert _render(columns, [tuple(cells) for cells in table], "csv") == render_csv(dicts)


@pytest.mark.parametrize("model", [EQUAL, DEPOLARIZING, HALF], ids=str)
def test_csv_render_of_a_full_curve_matches_csv_writer(model):
    reports = keyrate_curve(0.0, 0.5, 501, model)
    assert _render(KeyRateReport.COLUMNS, reports, "csv") == render_csv([r.as_dict() for r in reports])


# each command's rows as dicts, built from the library without the CLI's tables
DICT_TABLES = {
    "verify --trials 2 --seed 7": lambda: [r._asdict() for r in run_all_checks(2, 7)],
    "threshold --qx-model half": lambda: [
        {"model": "half", "threshold": (t := noise_threshold(HALF)), "threshold_percent": 100.0 * t}
    ],
    "rate --q 0.03 --qx-model depolarizing": lambda: [key_rate(0.03, DEPOLARIZING).as_dict()],
    "curve --q-min 0 --q-max 0.5 --steps 51 --qx-model equal": lambda: [
        r.as_dict() for r in keyrate_curve(0.0, 0.5, 51, EQUAL)
    ],
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", DICT_TABLES)
def test_output_matches_the_dict_reference(capsys, command, fmt):
    # verify's bool cells send its CSV through csv.writer, the other tables through one % format
    dicts = DICT_TABLES[command]()
    code, out, _ = run_cli(capsys, *command.split(), "--format", fmt)
    assert code == 0
    if fmt == "csv":
        assert out == render_csv(dicts)
    else:
        # one row is an object (threshold, rate), several a list (verify, curve)
        assert out == json.dumps(dicts[0] if len(dicts) == 1 else dicts, indent=2) + "\n"
        assert isinstance(json.loads(out), dict) == command.startswith(("threshold", "rate"))


def test_output_file_matches_stdout(capsys, tmp_path):
    target = tmp_path / "curve.csv"
    code, out, _ = run_cli(
        capsys, "curve", "--q-min", "0", "--q-max", "0.1", "--steps", "5",
        "--qx-model", "equal",
    )
    code2 = main([
        "curve", "--q-min", "0", "--q-max", "0.1", "--steps", "5",
        "--qx-model", "equal", "--output", str(target),
    ])
    capsys.readouterr()
    assert code == 0 and code2 == 0
    assert target.read_text() == out


def test_verify_small_run(capsys):
    code, out, _ = run_cli(capsys, "verify", "--trials", "2", "--seed", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "check,trials,max_residual,tolerance,passed" == ",".join(VerifyReport._fields)
    assert tuple(line.split(",")[0] for line in lines[1:]) == CHECK_NAMES
    assert all(line.endswith(",true") for line in lines[1:])


def test_verify_json_types(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--trials", "2", "--seed", "5", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert [entry["check"] for entry in payload] == list(CHECK_NAMES)
    for entry in payload:
        assert isinstance(entry["passed"], bool)
        assert isinstance(entry["trials"], int)
        assert isinstance(entry["max_residual"], float)
        assert entry["passed"] is True


def test_verify_deterministic_output(capsys, tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    for target in (first, second):
        code = main(["verify", "--trials", "2", "--seed", "9", "--output", str(target)])
        capsys.readouterr()
        assert code == 0
    assert first.read_bytes() == second.read_bytes()


def test_verify_d_e_argument(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--trials", "2", "--seed", "5", "--d-e", "2,3"
    )
    assert code == 0
    code, _, err = run_cli(capsys, "verify", "--trials", "2", "--seed", "5", "--d-e", "1,9")
    assert code == 2
    assert "ancilla dimension 1 outside [2, 8]" in err


def test_usage_errors_exit_two(capsys):
    # main() converts argparse SystemExit and ValueError into return codes
    cases = [
        [],
        ["rate"],  # missing --q
        ["rate", "--q", "0.7", "--qx-model", "equal"],
        ["rate", "--q", "0.1", "--qx-model", "bogus"],
        ["curve", "--q-min", "0.2", "--q-max", "0.1", "--steps", "3", "--qx-model", "equal"],
        ["verify", "--trials", "2", "--seed", "-1"],
        ["frobnicate"],
        # non-finite values
        ["rate", "--q", "nan", "--qx-model", "equal"],
        ["curve", "--q-max", "inf", "--qx-model", "equal"],
        ["threshold", "--qx-model", "explicit:nan"],
        ["threshold", "--qx-model", "equal", "--tol", "nan"],
    ]
    for argv in cases:
        assert main(argv) == 2, argv
        capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["rate", "--q", "{0}", "--qx-model", "equal"],
        ["rate", "--q", "{0}", "--qx-model", "equal", "--format", "json"],
        ["rate", "--q", "0.1", "--qx-model", "explicit:{0}"],
        ["threshold", "--qx-model", "explicit:{0}"],
        ["curve", "--q-min", "{0}", "--q-max", "0.1", "--steps", "3", "--qx-model", "half"],
    ],
)
def test_signed_zero_input_reads_as_zero(capsys, argv):
    # -0 passes the range gates; it must not print as -0
    zero = run_cli(capsys, *(arg.format("0") for arg in argv))
    assert zero[0] == 0
    assert run_cli(capsys, *(arg.format("-0") for arg in argv)) == zero
    assert run_cli(capsys, *(arg.format("-0.0") for arg in argv)) == zero


def test_sizes_beyond_float_range_exit_two(capsys):
    huge = "1" + "0" * 400
    for argv in (
        ["verify", "--trials", huge, "--seed", "1"],
        ["curve", "--qx-model", "equal", "--steps", huge],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert err.startswith("error: ") and "beyond float range" in err


def test_threshold_without_positive_rate_exits_one(capsys):
    # explicit:0.5 is a valid model whose rate is 0 at Q=0, so no threshold exists
    code, out, err = run_cli(capsys, "threshold", "--qx-model", "explicit:0.5")
    assert code == 1
    assert out == ""
    assert err == "error: key rate at Q=0 is 0.0, not positive\n"


def test_grid_too_large_to_allocate_exits_one(capsys):
    # 10^15 float64 points are 8 PB, beyond any 64-bit address space: the allocation fails at once
    code, out, err = run_cli(capsys, "curve", "--qx-model", "equal", "--steps", "1000000000000000")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")


def test_unwritable_output_exits_one(capsys, tmp_path):
    target = tmp_path / "missing" / "out.csv"
    code = main(["rate", "--q", "0", "--qx-model", "equal", "--output", str(target)])
    capsys.readouterr()
    assert code == 1


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "rate" in out and "verify" in out


def run_python(cwd, *args, timeout=None):
    """Run ``python *args`` in ``cwd`` on the imported package, not an installed copy."""
    package_root = str(Path(sqkd.__file__).resolve().parents[1])
    search_path = [package_root, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, search_path)))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, cwd=cwd, timeout=timeout
    )


def console_script_target(name):
    """The ``module:function`` that ``[project.scripts]`` declares for ``name``."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as handle:
        return tomllib.load(handle)["project"]["scripts"][name]


def test_repeated_calls_in_one_process_give_the_same_output(capsys):
    # main builds its parser once per process: a usage error or --help before
    # a command must leave nothing behind that changes a later call
    calls = [
        ("rate", "--qx-model", "equal"),
        ("--help",),
        ("rate", "--q", "0.03", "--qx-model", "equal"),
        ("verify", "--trials", "1", "--seed", "3"),
        ("threshold", "--qx-model", "equal"),
    ]
    first = [run_cli(capsys, *argv)[:2] for argv in calls]
    assert [code for code, _ in first] == [2, 0, 0, 0, 0]
    assert all(out for _, out in first[1:])
    for index in (2, 3):
        assert run_cli(capsys, *calls[index])[:2] == first[index]
    # the public builder still makes a new parser on every call
    assert build_parser() is not build_parser()


def test_module_entry_point(tmp_path):
    proc = run_python(tmp_path, "-m", "sqkd", "rate", "--q", "0", "--qx-model", "equal")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[1] == "0,0,0,0,1,main,1,1"


def test_threshold_tolerance_below_float_spacing_terminates(tmp_path):
    # 1e-20 is below the float spacing near the threshold, so the bracket
    # can never get that narrow; the bisection must still stop
    argv = ("-m", "sqkd", "threshold", "--qx-model", "equal", "--tol", "1e-20")
    proc = run_python(tmp_path, *argv, timeout=30)
    assert proc.returncode == 0, proc.stderr
    value = float(proc.stdout.splitlines()[1].split(",")[1])
    assert abs(value - noise_threshold(EQUAL)) < 1e-6


def test_console_script(tmp_path):
    # Run the declared target the way an installer's generated wrapper does.
    target = console_script_target("sqkd")
    wrapper = (
        "import sys\n"
        "from importlib.metadata import EntryPoint\n"
        f"entry = EntryPoint(name='sqkd', value={target!r}, group='console_scripts')\n"
        "sys.argv[0] = 'sqkd'\n"
        "sys.exit(entry.load()())\n"
    )
    proc = run_python(tmp_path, "-c", wrapper, "threshold", "--qx-model", "equal")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("model,threshold,threshold_percent"), proc.stderr
