"""The package's public surface: every exported name resolves, sizes are integers, every
tolerance and private helper has a reader, and README's API session runs as printed."""
import ast
import contextlib
import dataclasses
import importlib
import io
import re
from pathlib import Path

import numpy as np
import pytest

import sqkd
from sqkd.attacks import random_collective_attack
from sqkd.cli import main
from sqkd.keyrate import EQUAL, keyrate_curve
from sqkd.linalg import basis_state, haar_random_unitary, layout
from sqkd.tolerances import Tolerances
from sqkd.verification import check_lemma_trd, run_all_checks


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
    # float("3") parses, so text would pass as a number if it were not refused first
    calls = [
        lambda: check_lemma_trd("3", 1),
        lambda: basis_state("2", 0),
        lambda: run_all_checks(1, 1, "23"),
        lambda: run_all_checks(1, "1"),
        lambda: keyrate_curve(0, 0.1, "5", EQUAL),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="is not an integer"):
            call()


def test_every_tolerance_is_read():
    # a tolerance whose last reader is gone is a dead knob: delete it with that reader
    source = "".join(path.read_text(encoding="utf-8") for path in Path(sqkd.__file__).parent.glob("*.py"))
    read = set(re.findall(r"\bTOL\.(\w+)", source))
    unread = [f.name for f in dataclasses.fields(Tolerances) if f.name not in read]
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
