"""Static checks on the package source."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted(path for path in (Path(__file__).parents[1] / "src" / "palpmap").glob("*.py")
                 if path.name != "__init__.py")


def _unused_imports(path: Path):
    """(line, name) of each name imported by `path` and never read in it.

    A name counts as read when it appears as a bare name or as the head of a
    dotted name; annotations are AST nodes too, postponed or not. Imports on
    lines marked `# noqa` are exempt.
    """
    text = path.read_text()
    tree = ast.parse(text)
    lines = text.splitlines()
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if "# noqa" in lines[node.lineno - 1]:
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.append((node.lineno, name))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in read]


@pytest.mark.parametrize("path", SOURCES, ids=[path.name for path in SOURCES])
def test_no_unused_imports(path):
    assert _unused_imports(path) == []
