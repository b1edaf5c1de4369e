"""Static checks on the package source."""

import ast
import typing
from pathlib import Path

import pytest

from palpmap.cli import CONFIG_SCHEMA
from palpmap.schema import keys
from palpmap.simulator import PHANTOM_SCHEMA

SOURCES = sorted(path for path in (Path(__file__).parents[1] / "src" / "palpmap").glob("*.py")
                 if path.name != "__init__.py")
# files checked for unused imports: the package, its tests and the tools; bench/
# is left out, so that its files change only with the benchmark
LINTED = SOURCES + sorted(path for folder in ("tests", "tools")
                          for path in (Path(__file__).parents[1] / folder).glob("*.py"))


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


@pytest.mark.parametrize("path", LINTED, ids=[path.name for path in LINTED])
def test_no_unused_imports(path):
    assert _unused_imports(path) == []


ROOT = Path(__file__).parents[1]
# every Python file a definition may be referenced from
CALLERS = sorted(path for folder in ("src", "tests", "bench", "tools")
                 for path in (ROOT / folder).rglob("*.py"))


def _definitions(statements):
    """(line, name) of each def, class and assigned name among `statements`."""
    found = []
    for node in statements:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(node.lineno, target.id) for target in targets
                      if isinstance(target, ast.Name)]
    return found


def _references(path: Path):
    """Names `path` reads: bare names, attributes, imported names and string
    constants that are identifiers (`getattr` and `mock.patch` targets)."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.update(part for part in node.value.split(".") if part.isidentifier())
    return names


def test_no_unreferenced_definitions():
    """Every module-level definition in the package is read somewhere in the
    package, its tests, the benchmark or the tools."""
    referenced = set().union(*(_references(path) for path in CALLERS))
    unreferenced = [f"{path.name}:{line} {name}" for path in SOURCES
                    for line, name in _definitions(ast.parse(path.read_text()).body)
                    if name not in referenced]
    assert unreferenced == []


def _reads_outside_definitions(path: Path):
    """Names `path` reads as bare names or as attributes (`care._MIN_STIFFNESS`),
    leaving out each module-level statement's reads of the names it defines."""
    names = set()
    for statement in ast.parse(path.read_text()).body:
        own = {name for _, name in _definitions([statement])}
        for node in ast.walk(statement):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            else:
                continue
            if name not in own:
                names.add(name)
    return names


def test_private_definitions_are_read_in_the_package():
    """Every private module-level function, class and constant is read in the
    package outside its own definition; tests, the benchmark and the tools do
    not count, so a deletion cannot leave a dead helper behind."""
    package = sorted((ROOT / "src" / "palpmap").glob("*.py"))
    read = set().union(*(_reads_outside_definitions(path) for path in package))
    dead = [f"{path.name}:{line} {name}" for path in package
            for line, name in _definitions(ast.parse(path.read_text()).body)
            if name.startswith("_") and not name.startswith("__") and name not in read]
    assert dead == []


def test_exports_are_the_imported_names():
    """`palpmap.__all__` lists each name `__init__.py` imports, once, and no other."""
    body = ast.parse((ROOT / "src" / "palpmap" / "__init__.py").read_text()).body
    imported = [alias.asname or alias.name for node in body
                if isinstance(node, ast.ImportFrom) and node.module != "__future__"
                for alias in node.names]
    [exported] = [ast.literal_eval(node.value) for node in body if isinstance(node, ast.Assign)
                  and [getattr(t, "id", None) for t in node.targets] == ["__all__"]]
    assert sorted(exported) == sorted(imported)


# PhantomSpec parameters that `load_phantom` passes in, not reads as keys
PHANTOM_GIVEN = {"mesh", "bumps", "artery", "true_transform"}


def _readable(hint) -> bool:
    """Whether `schema` reads a key annotated `hint`: `float`, `int`, `str`,
    `list`, `dict`, or a `Tuple` of those (`Tuple[X, ...]` included)."""
    if hint in (float, int, str, list, dict):
        return True
    items = typing.get_args(hint)
    return (typing.get_origin(hint) is tuple and bool(items)
            and all(item is Ellipsis or _readable(item) for item in items))


def test_document_keys_have_readable_annotations():
    """Every config and phantom document key is a target parameter whose
    annotation `schema` reads; a bool, Optional or class annotation is not one."""
    targets = [target for _, target in CONFIG_SCHEMA] + list(PHANTOM_SCHEMA.values())
    unread = [(target.__name__, key) for target in targets for key in keys(target)
              if not _readable(typing.get_type_hints(target).get(key))
              and not (target is PHANTOM_SCHEMA["phantom"] and key in PHANTOM_GIVEN)]
    assert unread == []
