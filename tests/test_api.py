"""The package's public surface: every exported name resolves, sizes are integers, every
tolerance and private helper has a reader, and README's API session runs as printed."""
import ast
import contextlib
import importlib
import io
import re
from pathlib import Path

import numpy as np
import pytest

import sqkd
from sqkd.attacks import NoiseStats, ReducedAttack, RestrictedAttack, random_collective_attack, random_symmetric_attack
from sqkd.cli import main
from sqkd.keyrate import EQUAL, KeyRateReport, continuity_bound, explicit, key_rate, keyrate_curve, noise_threshold
from sqkd.linalg import _check_integer, basis_state, binary_entropy, haar_random_unitary, layout
from sqkd.tolerances import DEFAULT, Tolerances
from sqkd.verification import SymmetricAttackDiagnostics, VerifyReport, check_lemma_trd, run_all_checks, trial_rng


def test_public_names_resolve():
    for module in ("attacks", "cli", "keyrate", "linalg", "verification"):
        mod = importlib.import_module(f"sqkd.{module}")
        assert len(set(mod.__all__)) == len(mod.__all__), module
        missing = [name for name in mod.__all__ if not hasattr(mod, name)]
        assert not missing, f"sqkd.{module}.__all__ names undefined {missing}"
    # every name the package re-exports is a public name of its module
    tree = ast.parse(Path(sqkd.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        mod = importlib.import_module(f"sqkd.{node.module}")
        for alias in node.names:
            assert hasattr(mod, alias.name), f"sqkd.{node.module}.{alias.name}"
            assert alias.name in getattr(mod, "__all__", [alias.name]), f"sqkd.{node.module}.{alias.name}"
            assert hasattr(sqkd, alias.asname or alias.name)


@pytest.mark.parametrize(
    "size_of",
    [
        lambda n: random_collective_attack(n, np.random.default_rng(0)).d_e,
        lambda n: check_lemma_trd(n, 1).trials,
        lambda n: len(keyrate_curve(0.0, 0.1, n, EQUAL)),
        lambda n: layout(("T", n), ("E", 2)).dims[0],
        lambda n: len(basis_state(n, 1)),
        lambda n: int(np.argmax(basis_state(4, n))),
        lambda n: len(haar_random_unitary(n, np.random.default_rng(0))),
    ],
    ids=["d_e", "trials", "steps", "layout", "basis_state", "basis_index", "haar_random_unitary"],
)
def test_non_integral_sizes_are_rejected(size_of):
    # integral floats and numpy integers are sizes; anything with a fraction is not
    assert size_of(3.0) == size_of(np.int64(3)) == 3
    for bad in (2.5, 2.7, 3.9, float("inf"), float("nan"), "3", b"3"):
        with pytest.raises(ValueError, match="not an integer"):
            size_of(bad)
    # an int beyond float range is refused with a ValueError, never an OverflowError;
    # a layout keeps a plain int as it is
    try:
        assert size_of(10**400) == 10**400
    except ValueError as exc:
        assert "beyond float range" in str(exc)


def test_text_is_not_a_size():
    # float("3") parses, so text would pass as a number if it were not refused first;
    # float(None) and float(3+0j) raise TypeError, which is not a usage error
    calls = [
        lambda: check_lemma_trd("3", 1),
        lambda: basis_state("2", 0),
        lambda: run_all_checks(1, 1, "23"),
        lambda: run_all_checks(1, "1"),
        lambda: keyrate_curve(0, 0.1, "5", EQUAL),
        lambda: basis_state(2, None),
        lambda: basis_state(2, 1 + 0j),
        lambda: trial_rng(None, 1, 1),
        lambda: keyrate_curve(0, 0.1, None, EQUAL),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="is not an integer"):
            call()


IDENTITY = np.eye(4)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: key_rate("0.03", EQUAL), "Q='0.03' is not a real number"),
        (lambda: key_rate(0.03 + 0j, EQUAL), "Q=(0.03+0j) is not a real number"),
        (lambda: key_rate(np.complex128(0.03), EQUAL), f"Q={np.complex128(0.03)!r} is not a real number"),
        (lambda: binary_entropy(b"0.5"), "binary_entropy argument=b'0.5' is not a real number"),
        (lambda: binary_entropy(None), "binary_entropy argument=None is not a real number"),
        (lambda: keyrate_curve("0", "0.1", 3, EQUAL), "q_min='0' is not a real number"),
        (lambda: RestrictedAttack("1", "1", "0.1", 0, IDENTITY, 2), "q0='1' is not a real number"),
        (lambda: RestrictedAttack(1, 1, "0.1", 0, IDENTITY, 2), "eta0='0.1' is not a number"),
        (lambda: RestrictedAttack(1, 1, None, 0, IDENTITY, 2), "eta0=None is not a number"),
        (lambda: ReducedAttack("0.5", np.eye(8)[:, :2]), "p0='0.5' is not a real number"),
        (lambda: explicit("0.1"), "value='0.1' is not a real number"),
        (lambda: random_symmetric_attack("0.1", np.random.default_rng(0)), "q='0.1' is not a real number"),
        (lambda: noise_threshold(EQUAL, tol="1e-6"), "tol='1e-6' is not a real number"),
        (lambda: noise_threshold(EQUAL, tol=None), "tol=None is not a real number"),
        (lambda: run_all_checks(1, 1, 2), "ancilla dimension list 2 is not a sequence"),
    ],
)
def test_text_none_and_complex_are_not_real_inputs(call, message):
    # float("0.5") and complex("0.1") parse text; float(None), float(0.03+0j) and complex(None)
    # raise TypeError, and float(np.complex128(0.03)) would drop the imaginary part
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("kind", [np.complex64, np.complex128, np.clongdouble])
def test_every_numpy_complex_type_is_refused_where_a_real_is_due(kind):
    # float(np.complex64(...)) drops the imaginary part with only a ComplexWarning
    value = kind(0.03 + 0.5j)
    for call, name in [
        (lambda: key_rate(value, EQUAL), "Q"),
        (lambda: continuity_bound(value), "eps"),
        (lambda: binary_entropy(value), "binary_entropy argument"),
        (lambda: explicit(value), "value"),
    ]:
        with pytest.raises(ValueError, match=f"^{re.escape(name)}=.* is not a real number$"):
            call()


@pytest.mark.parametrize(
    "kind", [np.float16, np.float32, np.float64, np.longdouble, np.int8, np.int64, np.uint64, int, float]
)
def test_numpy_real_and_integer_types_are_real_inputs(kind):
    assert key_rate(kind(0), EQUAL) == key_rate(0.0, EQUAL)
    assert binary_entropy(kind(1)) == 0.0
    assert _check_integer("steps", kind(3)) == 3


RECORDS = {
    "VerifyReport": (
        VerifyReport("demo", 5, 1e-12, 1e-9, True),
        "VerifyReport(check='demo', trials=5, max_residual=1e-12, tolerance=1e-09, passed=True)",
    ),
    "NoiseStats": (NoiseStats(0.1, 0.2, 0.3), "NoiseStats(q_fwd=0.1, q_rev=0.2, q_x=0.3)"),
    "SymmetricAttackDiagnostics": (
        SymmetricAttackDiagnostics(0.0, 2, 0.5, 1.0, 0.75, 0.5, 0.0, 0.25, 0.125),
        "SymmetricAttackDiagnostics(q=0.0, d_e=2, q_x=0.5, s_reflect=1.0, s_resend=0.75, s_aux=0.5, "
        "s_x_given_a2=0.0, td_reflect_aux=0.25, h_key_given_b=0.125)",
    ),
    "Tolerances": (
        DEFAULT,
        "Tolerances(hermitian=1e-10, hermitian_input=1e-08, trace_one=1e-10, psd=1e-10, isometry=1e-10, "
        "orthonormal=1e-08, eta_degenerate=1e-08, equivalence=1e-09, decomposition=1e-10)",
    ),
    "KeyRateReport": (key_rate(0.03, EQUAL), None),  # its repr is pinned in test_keyrate
}


@pytest.mark.parametrize("name", RECORDS)
def test_records_are_immutable_named_tuples(name):
    record, expected_repr = RECORDS[name]
    assert type(record).__name__ == name
    assert record == tuple(getattr(record, field) for field in record._fields)
    assert hash(record) == hash(tuple(record))
    assert record._replace() == record and record._asdict() == dict(zip(record._fields, record))
    for attribute in (record._fields[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(record, attribute, 0.0)
    if expected_repr is not None:
        assert repr(record) == expected_repr


def test_replace_reruns_the_record_checks():
    report, _ = RECORDS["VerifyReport"]
    with pytest.raises(ValueError, match="passed flag contradicts residual and tolerance"):
        report._replace(passed=False)
    with pytest.raises(ValueError, match="passed flag contradicts residual and tolerance"):
        report._replace(max_residual=1e-6)
    stats, _ = RECORDS["NoiseStats"]
    with pytest.raises(ValueError, match=re.escape("q_x=1.5 outside [0.0, 1.0]")):
        stats._replace(q_x=1.5)
    # the rates are clamped on replace as on construction
    assert stats._replace(q_fwd=-1e-13, q_x=1.0 + 1e-13) == (0.0, 0.2, 1.0)


def test_only_stateful_types_are_dataclasses():
    # records a computation returns, and settings it reads, are named tuples; layouts, states,
    # attacks and channel models, which hold arrays, caches or behaviour, stay dataclasses
    importers = set()
    for path in Path(sqkd.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else []
            if "dataclasses" in names or isinstance(node, ast.ImportFrom) and node.module == "dataclasses":
                importers.add(path.stem)
    assert importers == {"linalg", "attacks", "keyrate"}


def test_every_tolerance_is_read():
    # a tolerance whose last reader is gone is a dead knob: delete it with that reader
    source = "".join(path.read_text(encoding="utf-8") for path in Path(sqkd.__file__).parent.glob("*.py"))
    read = set(re.findall(r"\bTOL\.(\w+)", source))
    unread = [name for name in Tolerances._fields if name not in read]
    assert not unread, f"tolerances no module reads as TOL.<field>: {unread}"


def test_every_private_helper_has_a_caller():
    # a module-level _name that nothing reads is dead code, such as a constant left behind
    # when its last reader was deleted; reads inside its own definition do not count
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in Path(sqkd.__file__).parent.glob("*.py")]
    reads = [
        (node, node.id if isinstance(node, ast.Name) else node.attr)
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) or isinstance(node, ast.Attribute)
    ]
    unread = []
    for tree in trees:
        for definition in tree.body:
            if isinstance(definition, (ast.FunctionDef, ast.ClassDef)):
                names = [definition.name]
            elif isinstance(definition, (ast.Assign, ast.AnnAssign)):
                targets = definition.targets if isinstance(definition, ast.Assign) else [definition.target]
                names = [n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)]
            else:
                continue
            own = {id(node) for node in ast.walk(definition)}
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    if not any(read == name and id(node) not in own for node, read in reads):
                        unread.append(name)
    assert not unread, f"module-level private names nothing in the package reads: {unread}"


def test_readme_session_prints_what_it_promises():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.DOTALL)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], "README.md", "exec"), {})
    stats, rate, threshold = out.getvalue().splitlines()
    assert len(stats.split()) == 3
    assert rate.startswith("0.2837") and threshold.startswith("0.06149")


def test_readme_cli_examples_print_what_they_show():
    # each `$ sqkd rate|threshold|curve` block: every line shown but `...` is printed at its place
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```\n\$ sqkd (rate|threshold|curve) (.*?)\n(.*?)```", readme, flags=re.DOTALL)
    assert sorted(command for command, _, _ in blocks) == ["curve", "rate", "threshold"]
    for command, args, shown in blocks:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main([command, *args.split()]) == 0
        printed, shown = out.getvalue().splitlines(), shown.splitlines()
        if "..." not in shown:
            assert len(printed) == len(shown), command
        assert len(printed) >= len(shown), command
        for i, line in enumerate(shown):
            if line != "...":
                assert printed[i] == line, f"{command} line {i}"
