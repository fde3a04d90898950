"""Every third-party module the package imports is declared in
pyproject.toml's ``dependencies``, function-local imports included, so
an install from the project metadata alone can run every path; what the
test suites need is declared there or in the ``test`` extra; every
name a module of the package or of a test suite imports is used in
that module; and every
function and class the package defines is named by the package."""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ideatree"

# import name -> distribution name, where the two differ
DISTRIBUTIONS = {"yaml": "pyyaml"}


def _imported_top_level_names(*directories: Path) -> set[str]:
    names: set[str] = set()
    for path in sorted(p for d in directories or (PACKAGE,) for p in d.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                names.add(node.module.split(".")[0])
    return names


def _declared(extra: str | None = None) -> set[str]:
    """The distributions pyproject.toml declares, with ``extra``'s too."""
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    specs = project["dependencies"]
    if extra is not None:
        specs = specs + project["optional-dependencies"][extra]
    return {re.match(r"[A-Za-z0-9._-]+", spec).group().lower().replace("_", "-")
            for spec in specs}


def test_every_third_party_import_is_a_declared_dependency():
    third_party = _imported_top_level_names() - set(sys.stdlib_module_names) - {"ideatree"}
    # the walk reaches imports inside functions and TYPE_CHECKING blocks
    assert {"numpy", "orjson", "yaml", "requests"} <= third_party
    needed = {DISTRIBUTIONS.get(name, name) for name in third_party}
    assert sorted(needed - _declared()) == []


def test_the_test_extra_declares_what_the_suites_need():
    """An install of ``.[test]`` runs tests/ and perf/: each third-party
    module they import is declared, and so is pytest-benchmark, whose
    ``benchmark`` fixture the perf cases take and whose
    ``--benchmark-disable`` flag tests/test_perf_suite.py passes."""
    suites = (ROOT / "tests", ROOT / "perf")
    local = {p.stem for d in (*suites, ROOT / "bench") for p in d.glob("*.py")}
    third_party = (_imported_top_level_names(*suites) - set(sys.stdlib_module_names)
                   - local - {"ideatree"})
    assert {"pytest", "hypothesis", "numpy"} <= third_party
    needed = {DISTRIBUTIONS.get(name, name) for name in third_party} | {"pytest-benchmark"}
    assert sorted(needed - _declared("test")) == []


def _unused_imports(path: Path) -> list[str]:
    """The names ``path`` imports and never reads, as ``module.name``.

    Imports anywhere count, in functions and ``TYPE_CHECKING`` blocks
    too, and a name read anywhere in the module counts as used. A name
    only a quoted annotation reads is not seen. Names in ``__all__`` and
    imports marked ``# noqa: F401`` are exempt."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    imported: dict[str, None] = {}
    used: set[str] = set()
    for node in ast.walk(ast.parse(source, str(path))):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            marked = any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno])
            if not marked and getattr(node, "module", None) != "__future__":
                imported.update(dict.fromkeys(
                    alias.asname or alias.name.split(".")[0] for alias in node.names))
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            used.update(ast.literal_eval(node.value))
    return [f"{path.stem}.{name}" for name in imported if name not in used]


def test_every_imported_name_is_used():
    """In the package and in the two test suites."""
    paths = sorted(p for d in (PACKAGE, ROOT / "tests", ROOT / "perf") for p in d.rglob("*.py"))
    unused = [name for path in paths for name in _unused_imports(path)]
    assert unused == []


# defined names the package never reads, each with the reason it stays
UNREAD_BY_THE_PACKAGE = {
    "restore": "IdeationTree.restore: bench/rep.py restores each run's "
               "final snapshot for its round-trip check",
    "root": "IdeationTree.root: the root with its aggregate computed on read, "
            "for readers of a tree; the engine names the root by root_id, "
            "which computes nothing, and snapshots settle the aggregate themselves",
}


def _defined_and_read(node: ast.AST, defined: set[tuple[str, bool]],
                      read: set[tuple[str, bool]], enclosing: frozenset = frozenset()) -> None:
    """Add to ``defined`` each function and class under ``node``, as
    ``(name, is a method)``, a method being a ``def`` in a class body;
    and to ``read`` each name under it read, as ``(name, through an
    attribute)`` for a ``Name`` or an ``Attribute``, except inside a
    definition of that same name."""
    for child in ast.iter_child_nodes(node):
        inside = enclosing
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            method = isinstance(node, ast.ClassDef) and not isinstance(child, ast.ClassDef)
            defined.add((child.name, method))
            inside = enclosing | {child.name}
        elif isinstance(child, ast.Name) and child.id not in enclosing:
            read.add((child.id, False))
        elif isinstance(child, ast.Attribute) and child.attr not in enclosing:
            read.add((child.attr, True))
        _defined_and_read(child, defined, read, inside)


def test_every_defined_name_is_read_by_the_package():
    """No engine code that only tests call: each function and class
    defined in the package is named somewhere in it outside its own
    definition, or is exported, or is in UNREAD_BY_THE_PACKAGE. Dunder
    methods, which Python calls itself, are exempt.

    A method counts as read only when an attribute of its name is read
    (``.name``), so a local variable of the same name does not hide it.
    The match is otherwise by name only, across all modules: a method
    passes when any object's attribute of its name is read."""
    import ideatree

    defined: set[tuple[str, bool]] = set()
    read: set[tuple[str, bool]] = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        _defined_and_read(ast.parse(path.read_text(encoding="utf-8"), str(path)),
                          defined, read)
    exported = set(ideatree.__all__)
    by_attribute = {name for name, through_attribute in read if through_attribute} | exported
    by_any = {name for name, _ in read} | exported
    unread = {name for name, method in defined
              if name not in (by_attribute if method else by_any)
              and not (name.startswith("__") and name.endswith("__"))}
    assert sorted(unread - set(UNREAD_BY_THE_PACKAGE)) == []
    assert sorted(set(UNREAD_BY_THE_PACKAGE) - unread) == []
