"""Package hygiene: no dangling export and no orphaned private helper."""

import ast
from pathlib import Path

import modunits as m

SRC = Path(m.__file__).resolve().parent


def test_every_exported_name_resolves():
    missing = [name for name in m.__all__ if not hasattr(m, name)]
    assert not missing
    assert len(set(m.__all__)) == len(m.__all__)


def _module_private_definitions(tree):
    """(name, node) for each private name a module defines at its top level;
    the node is the definition, whose own mentions of the name do not count."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield stmt.name, stmt
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            for target in targets:
                for node in ast.walk(target):
                    if isinstance(node, ast.Name):
                        yield node.id, node


def _mentions(tree, name, own):
    """Every node of the tree that names ``name``: an import or an attribute,
    and in the defining module (``own``) also a variable."""
    for node in ast.walk(tree):
        if (own and isinstance(node, ast.Name) and node.id == name
                or isinstance(node, ast.Attribute) and node.attr == name
                or isinstance(node, ast.alias) and node.name == name):
            yield node


def test_every_private_module_name_is_used_outside_its_definition():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    unused = []
    for module, tree in trees.items():
        for name, definition in _module_private_definitions(tree):
            if name.startswith("__") or not name.startswith("_"):
                continue
            inside = {id(node) for node in ast.walk(definition)}
            if not any(id(node) not in inside for other, other_tree in trees.items()
                       for node in _mentions(other_tree, name, other == module)):
                unused.append(f"{module}:{name}")
    assert not unused
