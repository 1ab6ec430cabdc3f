"""The public surface: what ``latcoh`` exports, and what the oracles import."""
import ast
import sys
from pathlib import Path

import latcoh
import latcoh.multibranch

ORACLES = Path(__file__).resolve().parent / "oracles.py"


def test_every_exported_name_resolves_once():
    for package in (latcoh, latcoh.multibranch):
        names = package.__all__
        assert len(names) == len(set(names)), package.__name__
        missing = [name for name in names if not hasattr(package, name)]
        assert not missing, (package.__name__, missing)
    assert set(latcoh.multibranch.__all__) <= set(latcoh.__all__)
    star = {}
    exec("from latcoh import *", star)
    assert set(latcoh.__all__) <= set(star)


def test_oracles_import_nothing_from_latcoh():
    # the oracles are independent of library code: every import they make,
    # at any depth, is absolute and reaches only the standard library
    roots = []
    for node in ast.walk(ast.parse(ORACLES.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            roots += [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "relative import in oracles.py"
            roots.append(node.module.split(".")[0])
    assert roots
    assert "latcoh" not in roots
    assert [r for r in roots if r not in sys.stdlib_module_names] == []
