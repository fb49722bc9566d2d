"""Package layout: every public top-level function or class in src/ has a
caller in src/, every import in src/ is used by its module, no module
imports another's private name, and every name the benchmark tracer wraps
exists.  Helpers that only tests need live in tests/, as fixtures or
oracles."""

import ast
import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "crjet"


def unreferenced_definitions(root=SRC) -> list:
    """Public top-level definitions never named, or imported, in the
    package outside their own body."""
    defined, used = [], set()
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for stmt in tree.body:
            own = getattr(stmt, "name", None)
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)) and not own.startswith("_"):
                defined.append((path.relative_to(root).as_posix(), own))
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.alias):
                    name = node.name
                else:
                    continue
                if name != own:
                    used.add(name)
    return [f"{path}::{name}" for path, name in defined if name not in used]


def test_every_public_definition_has_a_caller_in_src():
    assert unreferenced_definitions() == []


def unused_imports(root=SRC) -> list:
    """Names a module in the package imports and never reads; a name listed
    in the module's __all__ counts as read."""
    unused = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported, used = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update((a.asname or a.name).split(".")[0]
                                for a in node.names)
            elif isinstance(node, ast.ImportFrom) and \
                    node.module != "__future__":
                imported.update(a.asname or a.name for a in node.names)
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets):
                used.update(ast.literal_eval(node.value))
        unused.extend(f"{path.relative_to(root).as_posix()}::{name}"
                      for name in sorted(imported - used))
    return unused


def test_every_import_in_src_is_used():
    assert unused_imports() == []


def test_unused_import_is_caught(tmp_path):
    (tmp_path / "mod.py").write_text(
        "from functools import cached_property, reduce\n"
        "import itertools\nimport os.path\nfrom .x import Hidden\n"
        "__all__ = ['Hidden']\n\n"
        "def f(xs):\n    return reduce(max, itertools.chain(xs))\n",
        encoding="utf-8")
    assert unused_imports(tmp_path) == ["mod.py::cached_property",
                                        "mod.py::os"]


def private_imports(root=SRC) -> list:
    """Underscore names a module in the package imports from another
    module."""
    return [f"{path.relative_to(root).as_posix()}::{alias.name}"
            for path in sorted(root.rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.ImportFrom)
            for alias in node.names if alias.name.startswith("_")]


def test_no_private_import_across_modules():
    assert private_imports() == []


def test_private_import_is_caught(tmp_path):
    (tmp_path / "mod.py").write_text(
        "from __future__ import annotations\n"
        "from .x import Public, _hidden\nfrom .y import _Shell as Shell\n",
        encoding="utf-8")
    assert private_imports(tmp_path) == ["mod.py::_hidden", "mod.py::_Shell"]


def test_every_traced_name_exists():
    """The benchmark tracer wraps the modules in MODULES and the methods in
    METHODS by name; a name dropped from src/ fails here, not only in a
    traced benchmark run."""
    spec = importlib.util.spec_from_file_location(
        "crjet_bench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for names in tracing.MODULES.values():
        for name in names:
            importlib.import_module(name)
    missing = [f"{module}.{cls}.{method}"
               for module, classes in tracing.METHODS.items()
               for cls, methods in classes.items()
               for method in methods
               if method not in getattr(importlib.import_module(module),
                                        cls).__dict__]
    assert missing == []

