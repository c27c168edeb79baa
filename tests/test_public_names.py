"""Every public name of the package has a reader in the package: each name
in replicagrid.__all__ is a public module-level definition, and each public
module-level function or class and each public method is read in src
outside its own definition.  A name that only tests read belongs with the
tests (tests/references.py)."""

import ast
from collections import Counter

import replicagrid
from test_private_names import SRC, _names_read

# Read from outside the package: the console script's entry point, and the
# per-file replica query that the benchmark's self-check wraps.
EXEMPT = {"cli.main", "placement.CachePlacement.replica_nodes"}


def _public_definitions(trees):
    """(dotted name, node, module level) of every public module-level
    function and class and every public method."""
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            yield f"{module[:-3]}.{node.name}", node, True
            for member in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                    yield f"{module[:-3]}.{node.name}.{member.name}", member, False


def test_every_public_definition_is_used_in_src():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    read = Counter(name for tree in trees.values() for name in _names_read(tree))
    definitions = list(_public_definitions(trees))
    module_level = {node.name for _, node, top in definitions if top}
    assert sorted(set(replicagrid.__all__) - module_level) == []
    unused = [
        dotted
        for dotted, node, _ in definitions
        if dotted not in EXEMPT
        # Reads inside its own definition (recursion) do not count.
        and read[node.name] == Counter(_names_read(node))[node.name]
    ]
    assert unused == []
