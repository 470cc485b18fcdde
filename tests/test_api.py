"""The package's public surface: every exported name resolves, sizes are integers, and every
tolerance has a reader."""
import ast
import dataclasses
import importlib
import re
from pathlib import Path

import numpy as np
import pytest

import sqkd
from sqkd.attacks import random_collective_attack
from sqkd.keyrate import EQUAL, keyrate_curve
from sqkd.linalg import basis_state, haar_random_unitary, layout
from sqkd.tolerances import Tolerances
from sqkd.verification import check_lemma_trd


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
        lambda n: len(haar_random_unitary(n, np.random.default_rng(0))),
    ],
    ids=["d_e", "trials", "steps", "layout", "basis_state", "haar_random_unitary"],
)
def test_non_integral_sizes_are_rejected(size_of):
    # integral floats and numpy integers are sizes; anything with a fraction is not
    assert size_of(3.0) == size_of(np.int64(3)) == 3
    for bad in (2.5, 2.7, 3.9, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="not an integer"):
            size_of(bad)
    # an int beyond float range is refused with a ValueError, never an OverflowError;
    # a layout keeps a plain int as it is
    try:
        assert size_of(10**400) == 10**400
    except ValueError as exc:
        assert "beyond float range" in str(exc)


def test_every_tolerance_is_read():
    # a tolerance whose last reader is gone is a dead knob: delete it with that reader
    source = "".join(path.read_text(encoding="utf-8") for path in Path(sqkd.__file__).parent.glob("*.py"))
    read = set(re.findall(r"\bTOL\.(\w+)", source))
    unread = [f.name for f in dataclasses.fields(Tolerances) if f.name not in read]
    assert not unread, f"tolerances no module reads as TOL.<field>: {unread}"
