"""Package layout: every public top-level function or class in src/ has a
caller in src/, every public method is read as an attribute in src/,
every dataclass field in src/ is read as an attribute in src/, tests/ or
perfbench/, every import in src/ is used by its module, no module imports
another's private name, every dotted name a docstring or comment in src/
quotes resolves, and every name the benchmark tracer wraps exists.
A class or method the tracer wraps by name counts as used.  Helpers that
only tests need live in tests/, as fixtures or oracles."""

import ast
import importlib
import importlib.util
import io
import re
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "crjet"
READERS = (ROOT / "src", ROOT / "tests", ROOT / "perfbench")


def load_tracing():
    """The benchmark tracer module, read from perfbench/ without editing
    it."""
    spec = importlib.util.spec_from_file_location(
        "crjet_bench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def traced_names() -> set:
    """The class and method names the tracer's METHODS wraps."""
    return {name for classes in load_tracing().METHODS.values()
            for cls, methods in classes.items() for name in (cls, *methods)}


def unreferenced_definitions(root=SRC, traced=frozenset()) -> list:
    """Public top-level definitions never named, or imported, in the
    package outside their own body; a name in traced counts as used."""
    defined, used = [], set(traced)
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
    assert unreferenced_definitions(traced=traced_names()) == []


def unread_methods(root=SRC, traced=frozenset()) -> list:
    """Public methods of top-level classes whose name is never read as an
    attribute in the package outside the body of the function that
    defines it; a name in traced counts as read."""
    defined, read = [], set(traced)
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        rel = path.relative_to(root).as_posix()
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef):
                defined.extend(
                    (rel, cls.name, m.name) for m in cls.body
                    if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not m.name.startswith("_"))
        stack = [(tree, None)]
        while stack:
            node, own = stack.pop()
            if isinstance(node, ast.Attribute) and node.attr != own:
                read.add(node.attr)
            if own is None and isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                own = node.name
            stack.extend((child, own) for child in ast.iter_child_nodes(node))
    return [f"{rel}::{cls}.{name}" for rel, cls, name in defined
            if name not in read]


def test_every_public_method_is_read_in_src():
    assert unread_methods(traced=traced_names()) == []


def test_unread_method_is_caught(tmp_path):
    (tmp_path / "mod.py").write_text(
        "class Shape:\n"
        "    def area(self):\n        return self.side ** 2\n\n"
        "    @property\n    def side(self):\n        return 1\n\n"
        "    def grow(self, k):\n        return self.grow(k - 1) if k "
        "else self\n\n"
        "    def spin(self):\n        return self\n\n"
        "    def _hidden(self):\n        return self\n\n\n"
        "class Wrapped:\n    def run(self):\n        return 0\n\n\n"
        "def total(shapes):\n    return sum(s.area() for s in shapes)\n",
        encoding="utf-8")
    assert unread_methods(tmp_path) == ["mod.py::Shape.grow",
                                        "mod.py::Shape.spin",
                                        "mod.py::Wrapped.run"]
    assert unread_methods(tmp_path, {"spin", "run"}) == ["mod.py::Shape.grow"]
    assert unreferenced_definitions(tmp_path) == [
        "mod.py::Shape", "mod.py::Wrapped", "mod.py::total"]
    assert unreferenced_definitions(tmp_path, {"Wrapped"}) == [
        "mod.py::Shape", "mod.py::total"]


def _is_dataclass(cls: ast.ClassDef) -> bool:
    """Decorated with @dataclass, called or bare."""
    return any(getattr(getattr(dec, "func", dec), "id", None) == "dataclass"
               for dec in cls.decorator_list)


def unread_fields(root=SRC, readers=READERS) -> list:
    """Fields of the dataclasses defined at top level in the package whose
    name is never loaded as an attribute in any file under readers."""
    defined = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        for cls in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(cls, ast.ClassDef) and _is_dataclass(cls):
                defined.extend((rel, cls.name, stmt.target.id)
                               for stmt in cls.body
                               if isinstance(stmt, ast.AnnAssign)
                               and isinstance(stmt.target, ast.Name))
    read = {node.attr for top in readers for path in top.rglob("*.py")
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    return [f"{rel}::{cls}.{name}" for rel, cls, name in defined
            if name not in read]


def test_every_dataclass_field_is_read():
    assert unread_fields() == []


def test_unread_field_is_caught(tmp_path):
    src, tests = tmp_path / "src", tmp_path / "tests"
    src.mkdir()
    tests.mkdir()
    (src / "mod.py").write_text(
        "from dataclasses import dataclass\n\n\n"
        "@dataclass(frozen=True)\nclass Point:\n    x: int\n    y: int\n"
        "    z: int = 0\n\n    def norm(self):\n        return self.x\n"
        "\n\n@dataclass\nclass Box:\n    side: int\n"
        "    label: str\n\n    def grow(self):\n        self.label = ''\n"
        "\n\nclass Plain:\n    width: int\n",
        encoding="utf-8")
    (tests / "test_mod.py").write_text(
        "def test_point(p, box):\n    assert p.y == box.side\n",
        encoding="utf-8")
    assert unread_fields(src, (src, tests)) == [
        "mod.py::Point.z", "mod.py::Box.label"]
    assert unread_fields(src, (src,)) == [
        "mod.py::Point.y", "mod.py::Point.z", "mod.py::Box.side",
        "mod.py::Box.label"]


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def unread_locals(root=SRC) -> list:
    """Names a function in the package binds in its own body, by an
    assignment, a loop, a with or an except clause, that are never loaded
    there or in a scope nested in it.  An augmented assignment counts as a
    read; names declared nonlocal or global, and _, are exempt."""
    unread = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            read = {"_"}
            for node in ast.walk(func):
                if isinstance(node, ast.Name) and \
                        not isinstance(node.ctx, ast.Store):
                    read.add(node.id)
                elif isinstance(node, (ast.Nonlocal, ast.Global)):
                    read.update(node.names)
                elif isinstance(node, ast.AugAssign) and \
                        isinstance(node.target, ast.Name):
                    read.add(node.target.id)
            bound, stack = [], func.body[::-1]
            while stack:
                node = stack.pop()
                if isinstance(node, ast.Name) and \
                        isinstance(node.ctx, ast.Store):
                    bound.append(node.id)
                elif isinstance(node, ast.ExceptHandler) and node.name:
                    bound.append(node.name)
                if not isinstance(node, _SCOPES):
                    stack.extend(list(ast.iter_child_nodes(node))[::-1])
            unread.extend(f"{rel}::{func.name}: {name}"
                          for name in dict.fromkeys(bound)
                          if name not in read)
    return unread


def test_every_local_is_read():
    assert unread_locals() == []


def test_unread_local_is_caught(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def scale(xs, k):\n    n, m = len(xs), k\n    total = 0\n"
        "    for i, x in enumerate(xs):\n        total += x\n"
        "    for _ in xs:\n        pass\n"
        "    try:\n        pass\n    except ValueError as err:\n"
        "        pass\n"
        "    def inner():\n        nonlocal hits\n        hits = m\n"
        "        unused = 1\n"
        "    hits = 0\n"
        "    return [y for y in xs]\n",
        encoding="utf-8")
    assert unread_locals(tmp_path) == [
        "mod.py::scale: n", "mod.py::scale: i", "mod.py::scale: err",
        "mod.py::inner: unused"]


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


_QUOTED = re.compile(r"``([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)``")


def _module_name(root: Path, path: Path) -> str:
    parts = (root.name,) + path.relative_to(root).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _resolves(dotted: str) -> bool:
    """Whether attribute lookup reaches every part of a dotted name from
    its first part, a module, importing submodules on the way."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], 1):
        if not hasattr(obj, part):
            try:
                importlib.import_module(".".join(parts[:i + 1]))
            except ImportError:
                return False
            if not hasattr(obj, part):
                return False
        obj = getattr(obj, part)
    return True


def unresolved_references(root=SRC) -> list:
    """Double-backticked dotted names in the docstrings and comments of
    the package that start with the package or with one of its top-level
    classes and do not resolve by attribute lookup."""
    classes, texts = {}, []
    for path in sorted(root.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        module = _module_name(root, path)
        tree = ast.parse(source)
        for node in ast.walk(tree):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
                texts.append((path, ast.get_docstring(node) or ""))
        classes.update((stmt.name, module) for stmt in tree.body
                       if isinstance(stmt, ast.ClassDef))
        texts.extend((path, tok.string) for tok in tokenize.generate_tokens(
            io.StringIO(source).readline) if tok.type == tokenize.COMMENT)
    unresolved = []
    for path, text in texts:
        for dotted in _QUOTED.findall(text):
            head = dotted.split(".")[0]
            if head in classes:
                full = f"{classes[head]}.{dotted}"
            elif head == root.name:
                full = dotted
            else:
                continue
            if not _resolves(full):
                unresolved.append(
                    f"{path.relative_to(root).as_posix()}::{dotted}")
    return unresolved


def test_every_quoted_name_resolves():
    assert unresolved_references() == []


def test_unresolved_reference_is_caught(tmp_path, monkeypatch):
    pkg = tmp_path / "layoutpkg"
    (pkg / "sub").mkdir(parents=True)
    (pkg / "__init__.py").write_text("", encoding="utf-8")
    (pkg / "sub" / "__init__.py").write_text("", encoding="utf-8")
    (pkg / "sub" / "shapes.py").write_text(
        '"""Shapes: ``Square.side``, ``Square.area`` and ``Square.words``;\n'
        '``layoutpkg.sub.shapes.Square``, ``layoutpkg.sub.gone`` and\n'
        '``other.Square.words`` outside the package."""\n\n\n'
        "class Square:\n"
        '    """``Square.side.real``, ``Circle.radius``."""\n\n'
        "    side = 1\n\n"
        "    def area(self):\n"
        "        # ``Square.perimeter`` is not defined\n"
        "        return self.side ** 2\n",
        encoding="utf-8")
    monkeypatch.syspath_prepend(str(tmp_path))
    assert unresolved_references(pkg) == [
        "sub/shapes.py::Square.words", "sub/shapes.py::layoutpkg.sub.gone",
        "sub/shapes.py::Square.perimeter"]


def test_every_traced_name_exists():
    """The benchmark tracer wraps the modules in MODULES and the methods in
    METHODS by name; a name dropped from src/ fails here, not only in a
    traced benchmark run."""
    tracing = load_tracing()
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

