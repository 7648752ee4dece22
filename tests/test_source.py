"""Source-level guards over the package."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "stabtorus"


def test_no_assert_statements():
    # python -O strips asserts, so invariants must be explicit raises
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources, f"no sources under {PACKAGE}"
    found = []
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_tolerances_live_in_exactnum():
    # phase and equality tolerances are exactnum's policy: no other module may
    # name TOL or write a float literal small enough to be one
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "exactnum.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            names = []
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.alias):
                names = [node.name, node.asname]
            if "TOL" in names:
                found.append(f"{path.name}:{node.lineno}: TOL")
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, float)
                and 0 < abs(node.value) < 1e-6
            ):
                found.append(f"{path.name}:{node.lineno}: {node.value!r}")
    assert found == []
