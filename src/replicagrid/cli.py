"""Command-line front end.

Subcommands: solve, place, simulate, sweep, classify, oracle.  Options come
from flags, then from a JSON config file (a null leaves an option unset).
Exit codes: 0 success, 2 infeasible or invalid input (a bad config or
popularity file is named), 3 internal invariant violation.

Argparse and the plain-argv reader read one option table (_COMMANDS and
_OPTIONS).  The parser is built from it once per process (build_parser is
cached) and gives every help text, usage line and error message.  A plain
command line is a subcommand followed by "--option value" pairs of its
options, each value non-empty, not starting with "-" and valid for the
option's type and choices.  It is read into the namespace argparse would
build.  Every other command line (none, help, --option=value, an error,
...) goes through the top-level parser.  --M is matched once per command
into a function of N, which sweep evaluates at each grid size.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys

import numpy as np

from . import asymptotics, delivery, density, placement
from ._text import _TEXT_ROWS, _g12_digits, _text_blocks
from .errors import InternalInvariantError, InvalidInputError
from .grid import GridSpec
from .popularity import load_popularity, zipf


def _fmt(value: float) -> str:
    return f"{float(value):.12g}"


def parse_m_expression(text: str, n_nodes: int, capacity: float) -> int:
    """Catalog-size expression: an integer, 'c*N', 'c*N^a' or 'K*N - c'."""
    return _catalog_size(text, capacity)(n_nodes)


def _catalog_size(text: str, capacity: float):
    """The catalog-size expression as a function of N, its text matched
    once.  Text it cannot read, a size past the float range and a size
    below 1 raise InvalidInputError when the function is called."""
    s = text.strip().replace(" ", "")
    size = None
    try:
        if re.fullmatch(r"\d+", s):
            count = int(s)
            size = lambda n: count
        elif m := re.fullmatch(r"(?:([0-9.]+)\*)?N(?:\^([0-9.]+))?", s):
            coeff = float(m.group(1)) if m.group(1) else 1.0
            power = float(m.group(2)) if m.group(2) else 1.0
            size = lambda n: int(coeff * n ** power)
        elif m := re.fullmatch(r"K\*N-([0-9.]+)", s):
            c = float(m.group(1))
            size = lambda n: int(capacity * n - c)
    except ValueError:  # e.g. "1.2.3"
        pass

    def m_of_n(n_nodes: int) -> int:
        try:
            value = None if size is None else size(n_nodes)
        except (ValueError, OverflowError):  # a NaN/inf K, a size past the float range
            value = None
        if value is None:
            raise InvalidInputError(
                f"cannot parse catalog size {text!r}; use an integer, "
                "'c*N', 'c*N^a' or 'K*N - c'"
            )
        if value < 1:
            raise InvalidInputError(f"catalog size {text!r} resolves to {value} < 1")
        return value

    return m_of_n


def _read_config(args) -> None:
    """Fill each option that no flag set from --config (a null leaves it unset)."""
    if args.config is None:
        return
    try:
        with open(args.config) as fh:
            doc = json.load(fh)
    except (ValueError, RecursionError) as exc:  # bad bytes, JSON or digit count; deep nesting
        raise InvalidInputError(f"{args.config}: {exc}") from exc
    if not isinstance(doc, dict):
        raise InvalidInputError(f"{args.config}: config must be a JSON object")
    for _, dest, _, _, _, commands in _OPTIONS:
        if args.command in commands and getattr(args, dest) is None:
            setattr(args, dest, doc.get(dest))


def _convert(key: str, value, kind):
    """A flag or JSON config value as kind: str, or a finite int or float.

    A value of another JSON type for a str (true or 0.5 for a path, a
    list, ...) and a number the conversion cannot take exactly (2.5 for an
    int, NaN, ...) are an InvalidInputError naming the option, as is a path
    no file can have.  --M's catalog size may also be a JSON integer.
    """
    flag = "--" + key.replace("_", "-")
    if kind is str:
        if not (isinstance(value, str) or (key == "m_count" and type(value) is int)):
            raise InvalidInputError(f"{flag}: expected a string, got {value!r}")
        try:
            named = key not in ("output", "pop_file") or b"\0" not in os.fsencode(value)
        except UnicodeEncodeError:  # a lone surrogate, from a JSON escape
            named = False
        if not named:
            raise InvalidInputError(f"{flag}: {value!r} is not a name a file can have")
        return str(value)
    try:
        converted = kind(value)
    except (TypeError, ValueError, OverflowError):
        converted = None
    if (
        converted is None
        or isinstance(value, bool)
        or (kind is float and not math.isfinite(converted))  # an int is finite
        or (isinstance(value, float) and converted != value)
    ):
        raise InvalidInputError(f"{flag}: expected a finite {kind.__name__}, got {value!r}")
    return converted


def _option(args, key: str, kind=None, default=...):
    """The option's value as kind (if given); default if unset, or required."""
    value = getattr(args, key)
    if value is None:
        if default is ...:
            raise InvalidInputError(f"missing required option --{key.replace('_', '-')}")
        return default
    return value if kind is None else _convert(key, value, kind)


def _grid(args) -> GridSpec:
    """The --nu grid.  A grid whose N = 4^nu is past the float range is
    refused before 4^nu is formed."""
    nu = _option(args, "nu", int)
    if 2 * nu >= sys.float_info.max_exp:
        raise InvalidInputError(
            f"--nu: N = 4^{nu} is past the float range; use nu < {sys.float_info.max_exp // 2}"
        )
    return GridSpec(nu=nu)


def _resolve_instance(args):
    """Common (grid, capacity, popularity) resolution for most commands."""
    grid = _grid(args)
    capacity = _option(args, "capacity", float)
    pop_file = _option(args, "pop_file", str, None)
    if pop_file is not None:
        pop = load_popularity(pop_file)
    else:
        m_expr = _option(args, "m_count", str)
        m = parse_m_expression(m_expr, grid.node_count, capacity)
        tau = _option(args, "tau", float)
        pop = zipf(m, tau)
    return grid, capacity, pop


def _output_path(args) -> str | None:
    """The --output path, checked before any work is done: its directory
    must exist and it must not be a directory itself.  The file is neither
    opened nor truncated here."""
    path = _option(args, "output", str, None)
    if path is None:
        return None
    if os.path.isdir(path):
        raise InvalidInputError(f"--output: {path!r} is a directory")
    if not path or not os.path.isdir(os.path.dirname(path) or "."):
        raise InvalidInputError(f"--output: {path!r} is not a file in an existing directory")
    return path


def _write_output(path: str, write) -> None:
    """Open the --output file for binary writing and pass it to write."""
    with open(path, "wb") as fh:
        write(fh)


def cmd_solve(args) -> int:
    out = _output_path(args)
    grid, capacity, pop = _resolve_instance(args)
    profile = density.solve_cd(grid.node_count, capacity, pop)
    canon = density.canonical_truncate(profile)
    exact = density.cd_cost(profile, pop)
    canonical_cost = density.lower_bound(canon.densities, pop)
    print(f"l = {profile.l_index}")
    print(f"r = {profile.r_index}")
    densities = profile.densities

    def rows(lo: int, hi: int) -> np.ndarray:
        # 'v, ' per density, each v as _fmt writes it; the last has no ', '.
        digits = _g12_digits(densities[lo:hi])
        table = np.empty((digits.shape[0], digits.shape[1] + 2), dtype=np.uint8)
        table[:, :-2] = digits
        table[:, -2:] = list(b", ")
        if hi == densities.size:
            table[-1, -2:] = 0
        return table

    blocks = _text_blocks(densities.size, _TEXT_ROWS, rows)
    print(b"".join((b"densities = [", *blocks, b"]")).decode("ascii"))
    print(f"C_cd = {_fmt(exact)}")
    print(f"C_cd_canonical = {_fmt(canonical_cost)}")
    print(f"sandwich_lower_margin = {_fmt(canonical_cost - exact)}")
    upper = 2.0 * exact + math.sqrt(2.0) / 6.0
    print(f"sandwich_upper_margin = {_fmt(upper - canonical_cost)}")
    if out is not None:
        _write_output(out, lambda fh: fh.writelines((profile.to_json().encode(), b"\n")))
    return 0


def _build_placement(grid, capacity, pop):
    """The canonical placement of the instance.

    Past 2^53 nodes or capacity slots the placement could neither index
    its files exactly nor be held in memory, so such a grid is refused
    before any work."""
    asymptotics._check_exact_indices(capacity, grid.node_count)
    profile = density.solve_cd(grid.node_count, capacity, pop)
    canon = density.canonical_truncate(profile)
    return placement.canonical_place(grid, canon, pop, _cache_slots(capacity))


def _cache_slots(capacity: float) -> int:
    """The integer cache size of a placement: capacity rounded down, a value
    within 1e-12 below an integer counting as that integer."""
    slots = int(math.floor(capacity + 1e-12))
    if slots < 1:
        raise InvalidInputError(f"placement needs integer capacity >= 1, got {capacity}")
    return slots


def cmd_place(args) -> int:
    out = _output_path(args)
    grid, capacity, pop = _resolve_instance(args)
    placed = _build_placement(grid, capacity, pop)
    print(placement.render_matrix(placed))
    print(f"valid = {str(placement.validate_capacity(placed)).lower()}")
    if out is not None:
        _write_output(out, lambda fh: fh.writelines((placed.to_json(), b"\n")))
    return 0


def cmd_simulate(args) -> int:
    out = _output_path(args)
    grid, capacity, pop = _resolve_instance(args)
    placed = _build_placement(grid, capacity, pop)
    loads = delivery.link_loads(grid, placed, pop)
    total = float(loads.loads.sum())
    hop_total = delivery.total_hop_load(grid, placed, pop)
    residual = abs(total - hop_total) / max(abs(hop_total), 1e-300)
    avg = delivery.avg_link(loads)
    worst = delivery.worst_link(loads)
    # The placement holds the canonical level counts, so its measured
    # densities are the canonical ones: one bound serves Lemma 3 and
    # Theorem 9.
    bound = density.lower_bound(placed.measured_densities(), pop)
    theorem9_cap = 0.25 + 0.75 * math.sqrt(2.0) * bound
    print(f"C_wn = {_fmt(worst)}")
    print(f"C_an = {_fmt(avg)}")
    print(f"load_identity_residual = {_fmt(residual)}")
    print(f"lemma3_margin = {_fmt(avg - bound)}")
    print(f"theorem9_margin = {_fmt(theorem9_cap - avg)}")
    if out is not None:
        _write_output(out, lambda fh: delivery.to_csv(loads, fh))
    return 0


def cmd_sweep(args) -> int:
    out = _output_path(args)
    tau = _option(args, "tau", float)
    capacity = _option(args, "capacity", float)
    m_expr = _option(args, "m_count", str)
    nus_raw = _option(args, "nus")
    if isinstance(nus_raw, str):
        nus_raw = [v for v in nus_raw.split(",") if v.strip()]
    elif not isinstance(nus_raw, list):
        raise InvalidInputError(f"--nus: not a list of grid exponents: {nus_raw!r}")
    nus = [_convert("nus", v, int) for v in nus_raw]
    result = asymptotics.sweep(tau, capacity, _catalog_size(m_expr, capacity), nus)
    print(f"predicted_law = {result.predicted_law}")
    print(f"predicted_exponent = {_fmt(result.predicted_exponent)}")
    print(f"fitted_exponent = {_fmt(result.fitted_exponent)}")
    print(f"fitted_exponent_corrected = {_fmt(result.fitted_exponent_corrected)}")
    csv_text = asymptotics.sweep_to_csv(result)
    if out is None:
        print(csv_text, end="")
    else:
        _write_output(out, lambda fh: fh.write(csv_text.encode()))
    return 0


def cmd_classify(args) -> int:
    tau = _option(args, "tau", float)
    capacity = _option(args, "capacity", float)
    n = _grid(args).node_count
    m = parse_m_expression(_option(args, "m_count", str), n, capacity)
    report = asymptotics.classify_regime(tau, capacity, m, n)
    print(json.dumps(vars(report), indent=2))
    return 0


def cmd_oracle(args) -> int:
    # oracle is imported here, on first use, so the other commands start without it.
    from . import oracle

    grid, capacity, pop = _resolve_instance(args)
    which = _option(args, "problem", default="an")
    if which == "an":
        result = oracle.brute_force_an(grid, _cache_slots(capacity), pop)
        print(f"best_avg_load = {_fmt(result.best_avg_load)}")
        print(f"instances_examined = {result.instances_examined}")
        print(placement.render_matrix(result.best_placement))
    elif which == "cd":
        resolution = _option(args, "resolution", float, 0.01)
        value = oracle.brute_force_cd(grid.node_count, capacity, pop, resolution)
        print(f"grid_minimum = {_fmt(value)}")
    else:
        raise InvalidInputError(f"unknown oracle problem {which!r}; use 'an' or 'cd'")
    return 0


_COMMANDS = {  # subcommand: its handler and help line
    "solve": (cmd_solve, "solve the continuous density problem and its truncation"),
    "place": (cmd_place, "compute the canonical cache placement"),
    "simulate": (cmd_simulate, "simulate delivery and report per-link loads"),
    "sweep": (cmd_sweep, "sweep grid sizes and fit the capacity growth exponent"),
    "classify": (cmd_classify, "report the predicted scaling regime"),
    "oracle": (cmd_oracle, "brute-force baseline on a tiny instance"),
}
_ALL = tuple(_COMMANDS)
_INSTANCE = ("solve", "place", "simulate", "oracle")
# Each option, in registration order: its flags, dest, type, choices, help
# and the subcommands that take it (each takes only the options it reads).
_OPTIONS = (
    (("--config",), "config", None, None, "JSON config file; flags override its values", _ALL),
    (("--nu",), "nu", int, None, "grid exponent: side 2^nu, N = 4^nu", (*_INSTANCE, "classify")),
    (("--capacity", "--K"), "capacity", float, None, "per-node cache size K", _ALL),
    (("--m-count", "--M"), "m_count", None, None,
     "catalog size: integer, 'c*N', 'c*N^a' or 'K*N - c'", _ALL),
    (("--tau",), "tau", float, None, "Zipf exponent", _ALL),
    (("--pop-file",), "pop_file", None, None, "popularity file (one p per line)", _INSTANCE),
    (("--output",), "output", None, None, "write the machine-readable result here",
     ("solve", "place", "simulate", "sweep")),
    (("--nus",), "nus", None, None, "comma-separated grid exponents, e.g. 5,6,7", ("sweep",)),
    (("--problem",), "problem", None, ("an", "cd"), "which baseline", ("oracle",)),
    (("--resolution",), "resolution", float, None, "cd grid resolution", ("oracle",)),
)


@functools.cache  # built once per process; parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="replicagrid",
        description="Optimal content replication and delivery on a toroidal grid",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help_line) in _COMMANDS.items():
        # No abbreviations: sweep must not read --nu as --nus.
        sub = subs.add_parser(name, help=help_line, allow_abbrev=False)
        for flags, dest, kind, choices, help_text, commands in _OPTIONS:
            if name in commands:
                sub.add_argument(*flags, dest=dest, type=kind, choices=choices, help=help_text)
        sub.set_defaults(handler=handler)
    return parser


# Per subcommand: the namespace a parse of its name alone gives, and each of
# its flags mapped to the option's dest, type and choices.
_PLAIN = {
    name: (
        {"command": name, "handler": handler,
         **{option[1]: None for option in _OPTIONS if name in option[5]}},
        {flag: (dest, kind, choices)
         for flags, dest, kind, choices, _, commands in _OPTIONS if name in commands
         for flag in flags},
    )
    for name, (handler, _) in _COMMANDS.items()
}


def _plain_args(argv: list) -> argparse.Namespace | None:
    """build_parser().parse_args(argv) when argv is a subcommand and pairs
    of one of its flags and a value that does not start with '-', converts
    by the option's type and is among its choices; else None.  As
    argparse's store does, a later value for a dest wins."""
    table = _PLAIN.get(argv[0]) if len(argv) % 2 else None
    if table is None:
        return None
    defaults, options = table
    values = dict(defaults)
    for flag, text in zip(argv[1::2], argv[2::2]):
        option = options.get(flag)
        if option is None or not text or text[0] == "-":
            return None
        dest, kind, choices = option
        try:
            value = text if kind is None else kind(text)
        except (TypeError, ValueError):
            return None
        if choices is not None and value not in choices:
            return None
        values[dest] = value
    return argparse.Namespace(**values)


def _parse(argv) -> argparse.Namespace:
    """build_parser().parse_args(argv), read from the option table when
    argv is plain."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _plain_args(argv)
    return build_parser().parse_args(argv) if args is None else args


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        _read_config(args)
        return args.handler(args)
    except InternalInvariantError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (InvalidInputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
