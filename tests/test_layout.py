"""Package layout: every public top-level function or class in src/ has a
caller in src/.  Helpers that only tests need live in tests/, as fixtures
or oracles."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "crjet"


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
