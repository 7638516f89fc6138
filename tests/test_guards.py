"""Every guard of the package raises an error of its own: none is an
``assert``, which ``python -O`` would compile out."""

import ast
from pathlib import Path

import rootheight

SOURCES = sorted(Path(rootheight.__file__).parent.glob("*.py"))


def test_package_has_no_assert():
    assert len(SOURCES) >= 9
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
