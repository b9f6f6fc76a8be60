"""No library module holds a float literal or names ``float``.

A stdlib scan that keeps every coefficient exact: a float can only enter
the arithmetic through a literal such as ``0.5`` or ``1j`` or a call such
as ``float(x)``, and none may appear under ``src/torus_surgery``.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "torus_surgery"
MODULES = sorted(PACKAGE.glob("*.py"))


def floats_in(tree):
    """(what, line) for every float or imaginary literal and every use of
    the name ``float``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            yield repr(node.value), node.lineno
        elif isinstance(node, ast.Name) and node.id == "float":
            yield "float", node.lineno


def test_modules_found():
    assert len(MODULES) >= 6


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_floats(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [f"{what} (line {line})" for what, line in floats_in(tree)]
    assert not found, f"{path.name} uses floats: {found}"


@pytest.mark.parametrize(
    "source",
    ["x = 0.5", "x = 1e3", "x = 2j", "x = float(y)", "isinstance(v, float)"],
)
def test_scan_catches(source):
    assert list(floats_in(ast.parse(source)))
