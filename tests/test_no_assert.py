"""Correctness checks in the package must not rely on ``assert``.

``python -O`` strips assert statements, so a check written as one would
silently vanish; every check in ``src/kdsm`` raises explicitly instead.
"""

import ast
from pathlib import Path

import pytest

import kdsm

MODULES = sorted(Path(kdsm.__file__).parent.glob("*.py"))


def test_modules_found():
    assert len(MODULES) >= 7


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name} uses assert on lines {lines}"
