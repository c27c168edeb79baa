"""Every private module-level function and class of the package has a
caller in the package: one that only tests call is dead code that its
tests keep alive.  The command-line front end reads no private name from
outside the package."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "replicagrid"


def _names_read(node: ast.AST):
    """Every name and attribute name read in node's subtree."""
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            yield child.id
        elif isinstance(child, ast.Attribute):
            yield child.attr


def test_every_private_definition_is_used_in_src():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    read = Counter(name for tree in trees.values() for name in _names_read(tree))
    unused = [
        f"{module}: {node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        # Reads inside its own definition (recursion) do not count.
        and read[node.name] == Counter(_names_read(node))[node.name]
    ]
    assert unused == []


def _names_defined(tree: ast.AST):
    """Every name that tree's code binds: definitions, imports, assignment
    targets and attributes assigned."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.alias):
            yield node.asname or node.name
        elif isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Store):
            yield node.id if isinstance(node, ast.Name) else node.attr


def test_cli_reads_no_private_attribute_from_outside_the_package():
    defined = {name for path in SRC.glob("*.py") for name in _names_defined(ast.parse(path.read_text()))}
    read = {
        node.attr
        for node in ast.walk(ast.parse((SRC / "cli.py").read_text()))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        and node.attr.startswith("_") and not node.attr.endswith("__")
    }
    assert sorted(read - defined) == []
