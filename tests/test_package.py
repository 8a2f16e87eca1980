"""The package surface: what ``acgf`` exports, and what its modules import."""

import ast
from pathlib import Path

import acgf

SOURCES = Path(acgf.__file__).resolve().parent


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from acgf import *", namespace)
    assert sorted(set(acgf.__all__) - namespace.keys()) == []


def unused_imports(source):
    """Names that an import in ``source`` binds and no other line reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in bound.items() if name not in read)


def test_unused_imports_are_found():
    assert unused_imports("import os\nimport numpy.linalg\nfrom a import b as c\nos.sep\n") == [
        "c (line 3)", "numpy (line 2)"]


def test_no_module_imports_a_name_it_never_uses():
    found = {path.name: unused_imports(path.read_text(encoding="utf-8"))
             for path in sorted(SOURCES.glob("*.py")) if path.name != "__init__.py"}
    assert {name: names for name, names in found.items() if names} == {}
