"""Every private module-level function and class of the package has a
caller in the package: one that only tests call is dead code that its
tests keep alive."""

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
