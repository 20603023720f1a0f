"""Package hygiene: no dangling export, no orphaned private helper or GF(p)
kernel, and a README Layout block that names every module."""

import ast
import re
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


def test_every_gflinalg_kernel_is_used_in_another_module():
    # the private module's unprefixed functions are kernels for the rest of
    # the package, so one that loses its last caller there is dead code
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    kernels = [stmt.name for stmt in trees.pop("_gflinalg.py").body
               if isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("_")]
    unused = [name for name in kernels
              if not any(isinstance(node, ast.Name) and node.id == name
                         or isinstance(node, ast.Attribute) and node.attr == name
                         for tree in trees.values() for node in ast.walk(tree))]
    assert kernels and not unused


def test_readme_layout_names_every_module():
    readme = (SRC.parents[1] / "README.md").read_text()
    block = readme.split("## Layout", 1)[1].split("```")[1]
    listed = set(re.findall(r"^  (\w+\.py)\b", block, flags=re.MULTILINE))
    modules = {path.name for path in SRC.glob("*.py")} - {"__init__.py"}
    assert listed == modules
