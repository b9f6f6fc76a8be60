"""Every name a library or test module imports is used in that module.

A stdlib stand-in for an unused-import lint.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "torus_surgery"
MODULES = sorted(PACKAGE.glob("*.py"))
TEST_MODULES = sorted(TESTS.glob("*.py"))


def imported_names(tree):
    """(bound name, line) for every import anywhere in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                yield (alias.asname or alias.name), node.lineno


def names_in(node):
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def used_names(tree):
    """Names read anywhere, including inside quoted annotations."""
    used = names_in(tree)
    for node in ast.walk(tree):
        for attr in ("annotation", "returns"):
            annotation = getattr(node, attr, None)
            for part in ast.walk(annotation) if annotation else ():
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    used |= names_in(ast.parse(part.value, mode="eval"))
    return used


def test_modules_found():
    assert len(MODULES) >= 6
    assert Path(__file__).resolve() in TEST_MODULES


@pytest.mark.parametrize(
    "path",
    MODULES + TEST_MODULES,
    ids=lambda p: p.name if p.parent == PACKAGE else f"tests/{p.name}",
)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = used_names(tree)
    unused = [f"{name} (line {line})" for name, line in imported_names(tree)
              if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {unused}"
