"""The package's public surface: every exported name resolves."""
import ast
import importlib
from pathlib import Path

import sqkd


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
