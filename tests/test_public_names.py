"""Every public name and field of the package has a reader in the package.

Each name in replicagrid.__all__ is a public module-level definition, and
each public module-level function or class and each public method is read
in src outside its own definition.  A name that only tests read belongs
with the tests (tests/references.py).

Each public field and property of the package's value classes (its public
dataclasses) is read by some subcommand: the six run on small grids, in
every output form, and a field that none of them reads outside __init__
and __post_init__ fails the guard.  So does a getattr(x, "name", default)
in src, which takes two forms of its argument, where the commands pass
only one of them.

Each parameter default of a module-level function or of a class's own
__init__ is both taken and overridden by calls in src: at least one call
leaves the parameter out and another passes it.  A default that every call
overrides is a knob only tests turn, and one that no call overrides is a
constant.  So the index estimators have no public function whose l_hat
only classify_regime passed: they are read as its predicted_l_hat and
predicted_r_hat.  The head-size scan and the power sums that a call's
points share are required arguments.  cli.main's argv is exempt: the
console script leaves it out, and only tests pass it.
"""

import ast
import dataclasses
import functools
import importlib
import json
import sys
from collections import Counter, defaultdict
from pathlib import Path

import replicagrid
from replicagrid import cli
from test_private_names import SRC, _names_read

# Read from outside the package: the console script's entry point, and the
# per-file replica query that the benchmark's self-check wraps.
EXEMPT = {"cli.main", "placement.CachePlacement.replica_nodes"}
# The console script calls main() with no argv; only tests pass one.
DEFAULTS_EXEMPT = {"cli.main: argv"}


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


def _commands(tmp_path):
    """Each subcommand on grids of at most 16 nodes (a sweep to 64), in both
    regimes, with a popularity file, with --output, with its options from
    a --config file (a JSON null among them) and with each oracle path:
    enumeration, the integer program and the density grid."""
    pop_file = tmp_path / "pop.txt"
    pop_file.write_text("0.5\n0.3\n0.2\n")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"nu": 2, "capacity": 2, "m_count": "0.5*N", "tau": 0.8, "output": None}))
    out = str(tmp_path / "out")
    low, high = ["--K", "2", "--M", "0.5*N", "--tau", "0.8"], ["--K", "2", "--M", "1.75*N", "--tau", "2"]
    return [
        ["solve", "--nu", "2", *low, "--output", out],
        ["solve", "--nu", "1", "--K", "2", "--pop-file", str(pop_file)],
        ["place", "--nu", "2", *high, "--output", out],
        ["place", "--nu", "2", *low],
        ["simulate", "--nu", "2", *low, "--output", out],
        ["simulate", "--nu", "2", *high],
        ["sweep", "--nus", "1,2,3", *high, "--output", out],
        ["sweep", "--nus", "1,2,3", *high],
        ["classify", "--nu", "2", *low],
        ["simulate", "--config", str(config)],
        ["oracle", "--nu", "1", "--K", "1", "--M", "3", "--tau", "0.8"],
        ["oracle", "--nu", "2", "--K", "2", "--M", "3", "--tau", "1"],
        ["oracle", "--problem", "cd", "--nu", "1", "--K", "1", "--M", "2", "--tau", "0.8",
         "--resolution", "0.05"],
    ]


def test_every_public_field_is_read_by_a_command(tmp_path, monkeypatch, capsys):
    modules = [
        importlib.import_module(f"replicagrid.{path.stem}")
        for path in sorted(SRC.glob("*.py")) if path.stem != "__init__"
    ]
    classes = [
        cls for module in modules for cls in vars(module).values()
        if dataclasses.is_dataclass(cls) and isinstance(cls, type)
        and cls.__module__ == module.__name__ and not cls.__name__.startswith("_")
    ]
    fields = {
        cls: [f.name for f in dataclasses.fields(cls)] + [
            name for name, member in vars(cls).items()
            if isinstance(member, (property, functools.cached_property)) and not name.startswith("_")
        ]
        for cls in classes
    }
    # Reads made while an object is built, and cached_property's lookup of
    # the instance dict, are not reads of its fields.
    building = {
        getattr(cls, hook).__code__ for cls in classes for hook in ("__init__", "__post_init__")
        if hook in vars(cls)
    }
    cache_lookup = functools.cached_property.__get__.__code__
    reads = set()

    def read(self, name):
        caller = sys._getframe(1).f_code
        if caller not in building:
            if name != "__dict__":
                reads.add((type(self), name))
            elif caller is not cache_lookup:  # vars(): every field is read
                reads.update((type(self), field) for field in fields[type(self)])
        return object.__getattribute__(self, name)

    for cls in classes:
        monkeypatch.setattr(cls, "__getattribute__", read)

    # Each getattr(x, "name", default) in src, and whether x had the name there.
    sites = {
        (module.__file__, node.lineno): module.__name__.rsplit(".", 1)[1]
        for module in modules for node in ast.walk(ast.parse(Path(module.__file__).read_text()))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "getattr"
        and len(node.args) == 3 and isinstance(node.args[1], ast.Constant)
    }
    forms = defaultdict(set)

    def recording_getattr(obj, name, *default):
        caller = sys._getframe(1)
        module = sites.get((caller.f_code.co_filename, caller.f_lineno))
        if module is not None:
            forms[f"{module}.{caller.f_code.co_name}: getattr(..., {name!r}, ...)"].add(hasattr(obj, name))
        return getattr(obj, name, *default)

    for module in modules:
        monkeypatch.setattr(module, "getattr", recording_getattr, raising=False)

    codes = [cli.main(argv) for argv in _commands(tmp_path)]
    capsys.readouterr()
    assert codes == [0] * len(codes)
    unread = [
        f"{cls.__module__.rsplit('.', 1)[1]}.{cls.__name__}.{name}"
        for cls in classes for name in fields[cls] if (cls, name) not in reads
    ]
    one_form = [label for label, found in forms.items() if len(found) == 1]
    assert sorted(unread) + sorted(one_form) == []


def _signatures(trees):
    """(module, name): positional parameters, keyword-only parameters and the
    parameters with a default, of every module-level function and of every
    module-level class's own __init__ (self left out)."""
    found = {}
    for module, tree in trees.items():
        for node in tree.body:
            function, skip = node, 0
            if isinstance(node, ast.ClassDef):
                inits = [m for m in node.body if isinstance(m, ast.FunctionDef) and m.name == "__init__"]
                if not inits:
                    continue
                function, skip = inits[0], 1
            elif not isinstance(node, ast.FunctionDef):
                continue
            args = function.args
            positional = [a.arg for a in args.posonlyargs + args.args][skip:]
            keyword_only = [a.arg for a in args.kwonlyargs]
            defaulted = positional[len(positional) - len(args.defaults):] if args.defaults else []
            defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            found[module[:-3], node.name] = positional, keyword_only, defaulted
    return found


def _calls(trees, signatures):
    """(module, name) and node of every call in src to a signature: by its
    bare name (defined in the module or imported from the package) or as
    an attribute of a package module.  Methods called through an instance
    are not resolved."""
    for module, tree in trees.items():
        names = {name: (mod, name) for mod, name in signatures if mod == module[:-3]}
        modules = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None:
                        modules[alias.asname or alias.name] = alias.name
                    else:
                        names[alias.asname or alias.name] = node.module, alias.name
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name):
                key = names.get(func.id)
            elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
                key = (modules[func.value.id], func.attr) if func.value.id in modules else None
            else:
                continue
            if key in signatures:
                yield key, node


def _passed(call, positional, keyword_only):
    """The parameters a call passes; *args and **kwargs pass every parameter
    they could reach."""
    passed = set()
    for i, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            passed.update(positional[i:])
            break
        passed.update(positional[i:i + 1])
    for keyword in call.keywords:
        passed.update(positional + keyword_only if keyword.arg is None else [keyword.arg])
    return passed


def test_every_parameter_default_is_taken_and_overridden_in_src():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    signatures = _signatures(trees)
    forms = defaultdict(set)  # "module.name: parameter": {passed or not, per call}
    for key, call in _calls(trees, signatures):
        positional, keyword_only, defaulted = signatures[key]
        passed = _passed(call, positional, keyword_only)
        for name in defaulted:
            forms[f"{key[0]}.{key[1]}: {name}"].add(name in passed)
    one_form = [
        label
        for (module, function), (_, _, defaulted) in signatures.items()
        for label in (f"{module}.{function}: {name}" for name in defaulted)
        if label not in DEFAULTS_EXEMPT and len(forms[label]) < 2
    ]
    assert one_form == []
