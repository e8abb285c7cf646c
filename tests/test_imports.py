"""Import rules checked with stdlib ast, no linter.

Every name a fracfactor module imports is used there, every module-level
_private function or class is referenced there, every public method or
property of a class and every module-level public function or constant is
read somewhere in the library or the bench, and the reference oracle
imports nothing from fracfactor.
"""

import ast
from pathlib import Path

import pytest

import fracfactor

MODULES = sorted(Path(fracfactor.__file__).parent.glob("*.py"))
ORACLE = Path(__file__).with_name("oracle.py")
BENCH = sorted(Path(__file__).resolve().parents[1].joinpath("bench").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Imported names that the module never references, lists in __all__ counting as references."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"line {imported[name]}: {name}" for name in sorted(set(imported) - used)]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_imports_are_found():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from .maxflow import Dinic, feasible_flow\n"
        "from .graphs import Graph as G\n"
        "__all__ = ['G']\n"
        "feasible_flow()\n"
    )
    assert unused_imports(source) == ["line 3: Dinic", "line 2: os"]
    assert len(MODULES) >= 10


def dead_helpers(source: str) -> list[str]:
    """Module-level _private functions and classes that no other top-level statement references."""
    tree = ast.parse(source)
    found = []
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_") or node.name.startswith("__"):
            continue
        others = (n for top in tree.body if top is not node for n in ast.walk(top))
        if not any(isinstance(n, ast.Name) and n.id == node.name for n in others):
            found.append(f"line {node.lineno}: {node.name}")
    return found


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_dead_helpers(path):
    assert dead_helpers(path.read_text(encoding="utf-8")) == []


def test_dead_helpers_are_found():
    source = (
        "def _used():\n    pass\n"
        "def _recursive(n):\n    return _recursive(n - 1)\n"
        "class _Unused:\n    pass\n"
        "def __getattr__(name):\n    pass\n"
        "def public():\n    return _used()\n"
    )
    assert dead_helpers(source) == ["line 3: _recursive", "line 5: _Unused"]


def unused_methods(source: str, readers: list[str]) -> list[str]:
    """Public methods and properties of source's classes that no reader names as `.name`."""
    read = {
        node.attr
        for text in readers
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.Attribute)
    }
    return [
        f"line {item.lineno}: {cls.name}.{item.name}"
        for cls in ast.walk(ast.parse(source))
        if isinstance(cls, ast.ClassDef)
        for item in cls.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not item.name.startswith("_")
        and item.name not in read
    ]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_methods_only_tests_call(path):
    readers = [p.read_text(encoding="utf-8") for p in MODULES + BENCH]
    assert unused_methods(path.read_text(encoding="utf-8"), readers) == []


def test_unused_methods_are_found():
    source = (
        "class Shape:\n"
        "    def area(self):\n        return self._side() ** 2\n"
        "    def _side(self):\n        return 1\n"
        "    def __hash__(self):\n        return 0\n"
        "    @property\n    def corners(self):\n        return 4\n"
        "    def planted(self):\n        return None\n"
        "def public(shape):\n    return shape.area()\n"
    )
    reader = "def corners(shape):\n    return shape.corners\n"
    assert unused_methods(source, [source, reader]) == ["line 11: Shape.planted"]
    assert unused_methods(source, [source]) == ["line 9: Shape.corners", "line 11: Shape.planted"]
    assert len(BENCH) >= 4


def names_read(node: ast.AST) -> set[str]:
    """Names that node loads, bare or as an attribute."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) or isinstance(n, ast.Attribute)
    }


def unread_names(source: str, readers: list[str]) -> list[str]:
    """Module-level public functions and constants of source read neither there nor by readers."""
    tree = ast.parse(source)
    read = set().union(*(names_read(ast.parse(text)) for text in readers))
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        local = set().union(*(names_read(top) for top in tree.body if top is not node))
        found += [
            f"line {node.lineno}: {name}"
            for name in names
            if not name.startswith("_") and name not in read | local
        ]
    return found


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_public_names_only_tests_read(path):
    readers = [p.read_text(encoding="utf-8") for p in MODULES + BENCH if p != path]
    assert unread_names(path.read_text(encoding="utf-8"), readers) == []


def test_unread_names_are_found():
    source = (
        "LIMIT = 3\n"
        "KINDS: dict = {}\n"
        "_PRIVATE = 1\n"
        "def used():\n    return LIMIT\n"
        "def recursive(n):\n    return recursive(n - 1)\n"
        "def planted():\n    return None\n"
    )
    reader = "import m\nm.used(m.KINDS)\n"
    assert unread_names(source, [reader]) == ["line 6: recursive", "line 8: planted"]
    assert unread_names(source, []) == [
        "line 2: KINDS",
        "line 4: used",
        "line 6: recursive",
        "line 8: planted",
    ]


def library_imports(source: str) -> list[str]:
    """Modules of the fracfactor package that source imports, absolutely or relatively."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            if node.level or module.split(".")[0] == "fracfactor":
                found.append(f"line {node.lineno}: {module}")
        elif isinstance(node, ast.Import):
            found += [
                f"line {node.lineno}: {alias.name}"
                for alias in node.names
                if alias.name.split(".")[0] == "fracfactor"
            ]
    return found


def test_oracle_shares_no_code_with_the_library():
    assert library_imports(ORACLE.read_text(encoding="utf-8")) == []


def test_library_imports_are_found():
    source = (
        "import itertools\n"
        "import fracfactor.graphs as fg\n"
        "from fracfactor import Graph\n"
        "from .factor import delta_st\n"
        "def f():\n"
        "    from fracfactor.criticality import deletion_verdicts\n"
    )
    assert library_imports(source) == [
        "line 2: fracfactor.graphs",
        "line 3: fracfactor",
        "line 4: .factor",
        "line 6: fracfactor.criticality",
    ]
