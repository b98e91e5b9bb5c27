import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "lfqa_eval"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_module_uses_every_name_it_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    imported = {
        (alias.asname or alias.name).partition(".")[0]
        for node in imports
        if getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []


def test_every_private_helper_is_used():
    """A _name function or class at module level, or method in a class body, that
    nothing in the package refers to, or a self._name attribute stored and never
    read, is left-over code."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")}

    def private(name: str) -> bool:
        return name.startswith("_") and not name.startswith("__")

    defined = {
        (module, node.name)
        for module, tree in trees.items()
        for scope in [tree, *(node for node in ast.walk(tree) if isinstance(node, ast.ClassDef))]
        for node in scope.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and private(node.name)
    }
    stored = set()
    referenced = set()
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                if not isinstance(node.ctx, ast.Load):
                    if isinstance(node.value, ast.Name) and node.value.id == "self" and private(node.attr):
                        stored.add((module, f"self.{node.attr}"))
                    continue
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    unused = [
        f"{module}: {name}"
        for module, name in defined | stored
        if name.removeprefix("self.") not in referenced
    ]
    assert sorted(unused) == []
