"""The package surface: what ``acgf`` exports, and what its modules import."""

import argparse
import ast
import importlib.util
import math
import re
from pathlib import Path

import acgf
from acgf import cli, runio

SOURCES = Path(acgf.__file__).resolve().parent
README = Path(__file__).resolve().parents[1] / "README.md"
SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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


def unreferenced_definitions(sources, exempt):
    """Top-level functions and assigned names of ``sources`` (module name -> text) no code reads.

    A definition counts as read where a name of its spelling is loaded, in any
    module, where an attribute of its spelling is loaded from a name that an
    import binds to one of the modules (``en.f`` after ``from . import energy
    as en``, not ``rec.f``), or where ``exempt`` holds it; its ``def`` line,
    its assignment and ``__all__`` strings do not count. ``__all__`` itself is
    exempt.
    """
    modules = {Path(module).stem for module in sources}
    defined, named = [], set(exempt) | {"__all__"}
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defined.append((module, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [(module, name.id) for target in targets
                            for name in ast.walk(target) if isinstance(name, ast.Name)]
        bound = {alias.asname or alias.name for node in ast.walk(tree)
                 if isinstance(node, ast.Import)
                 or isinstance(node, ast.ImportFrom) and node.module in (None, "acgf")
                 for alias in node.names if alias.name in modules}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                named.add(node.id)
            elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                  and isinstance(node.value, ast.Name) and node.value.id in bound):
                named.add(node.attr)
    return sorted(f"{module}:{name}" for module, name in defined if name not in named)


def test_unreferenced_functions_are_found():
    sources = {"a.py": "def f():\n    return g()\ndef g():\n    return x\ndef h():\n    pass\n"
                       "x, y = 1, 2\n_INDEX = {}\nk: int = 3\ndef m():\n    pass\n",
               "b.py": "import a\n__all__ = ['f']\nclass C:\n    def m(self, rec):\n        a.k\n"
                       "        rec.f\n",
               "c.py": "from . import a as alias\nalias.m\n"}
    assert unreferenced_definitions(sources, {"h"}) == ["a.py:_INDEX", "a.py:f", "a.py:y"]


def test_every_library_function_is_called_or_hooked_by_the_benchmark():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    # acgf.__all__ is the public API: an exported function needs no caller in the package
    exempt = {hook.attr for hook in spans.HOOKS} | set(spans.POTENTIAL_METHODS) | set(acgf.__all__)
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(SOURCES.glob("*.py"))}
    assert unreferenced_definitions(sources, exempt) == []


def unknown_readme_flags(readme):
    """Per command of the README's "Command line" block, the flags its parser rejects."""
    block = readme.split("## Command line", 1)[1].split("```")[1]
    parser = cli._build_parser()
    commands = next(action.choices for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction))
    unknown = {}
    for line in block.strip().splitlines():
        _, command, rest = line.split(None, 2)
        accepted = {flag for action in commands[command]._actions
                    for flag in action.option_strings}
        unknown[command] = sorted(set(re.findall(r"--[a-z0-9-]+", rest)) - accepted)
    return unknown


def test_unknown_readme_flags_are_found():
    readme = "## Command line\n\n```\nacgf run --config cfg.json [--threads N]\n```\n"
    assert unknown_readme_flags(readme) == {"run": ["--threads"]}


def test_every_flag_in_the_readme_command_block_is_accepted():
    found = unknown_readme_flags(README.read_text(encoding="utf-8"))
    assert sorted(found) == ["run", "sweep-dep", "sweep-eps", "sweep-reg"]
    assert {command: flags for command, flags in found.items() if flags} == {}


def test_readme_trace_header_is_the_one_written():
    block = README.read_text(encoding="utf-8").split("## Outputs", 1)[1].split("```")[1]
    assert "".join(block.split()) == runio.TRACE_HEADER


def test_readme_library_example_runs_as_written(capsys):
    block = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    source = block.split("```python", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(source, namespace)
    assert math.isfinite(namespace["trace"][-1].free_energy)
    assert capsys.readouterr().out.strip()
