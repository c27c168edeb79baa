"""Span tracer that wraps replicagrid's public functions from outside.

Installing the tracer replaces each public function of a layer module (and
each public method of the module's classes) by a wrapper.  The wrapper is
put wherever a caller looks the name up: every ``replicagrid.*`` module
namespace that holds the original object, so ``delivery.shortest_routes`` is
replaced as well as ``grid.shortest_routes``.  Calls from the CLI and calls
between modules are therefore both recorded.

A timed wrapper records a span ``[name, start, end, parent]``; functions
called once per client or per hop only bump a call counter, because timing
them would cost more than the work they do.  Spans stay in memory; the
worker writes them out when the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from collections import Counter

PACKAGE = "replicagrid"

# Layers whose public functions are timed; each layer is one module.
TIMED_LAYERS = ("cli", "asymptotics", "delivery", "placement", "density", "popularity")

# Called once per client or per hop: counted, never timed.  The grid module
# is geometry used per hop, so only these two entry points are wrapped there.
COUNTED = frozenset({"grid.shortest_routes", "grid.link_index", "placement.buffer_at"})


def _observe_canonical_place(sizes, args):
    grid, canon = args[0], args[1]
    sizes["placement.replicas"] += round(grid.node_count * float(canon.densities.sum()))


def _observe_link_loads(sizes, args):
    grid, placed = args[0], args[1]
    sizes["delivery.client_file_pairs"] += grid.node_count * placed.file_count


# Problem-size counts read from a call's arguments before the call runs.
OBSERVERS = {
    "placement.canonical_place": _observe_canonical_place,
    "delivery.link_loads": _observe_link_loads,
}


def _public_functions(module):
    """(key, owner, attribute, function) for the module's public callables."""
    layer = module.__name__.rsplit(".", 1)[-1]
    for attr, obj in vars(module).items():
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if isinstance(obj, types.FunctionType):
            yield f"{layer}.{attr}", module, attr, obj
        elif isinstance(obj, type):
            for name, member in vars(obj).items():
                if not name.startswith("_") and isinstance(member, types.FunctionType):
                    yield f"{layer}.{name}", obj, name, member


class Tracer:
    """Records spans, call counts and problem sizes while installed."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.calls: Counter = Counter()
        self.sizes: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _timed(self, key, fn):
        spans, stack, calls, sizes = self.spans, self._stack, self.calls, self.sizes
        observe = OBSERVERS.get(key)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[key] += 1
            if observe is not None:
                observe(sizes, args)
            span = [key, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return wrapper

    def _counted(self, key, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}  # id(original function) -> (original, wrapper)
        for layer in TIMED_LAYERS + ("grid",):
            for key, owner, attr, fn in _public_functions(sys.modules[f"{PACKAGE}.{layer}"]):
                if key in COUNTED:
                    wrapper = self._counted(key, fn)
                elif layer in TIMED_LAYERS:
                    wrapper = self._timed(key, fn)
                else:
                    continue
                if isinstance(owner, type):
                    self._patch(owner, attr, wrapper)
                else:
                    wrappers[id(fn)] = (fn, wrapper)
        # A module-level function is replaced under every name bound to it.
        for name, module in list(sys.modules.items()):
            if name != PACKAGE and not name.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(module, attr, hit[1])

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def reset(self) -> None:
        self.spans.clear()
        self.calls.clear()
        self.sizes.clear()
        self._stack.clear()

    def summarize(self) -> dict:
        """Per-layer self time, per-function inclusive time, and counts.

        A span's self time is its duration minus the durations of its direct
        children; summed over a layer's spans this is the layer's self time.
        ``top_level_s`` is the time covered by spans that have no parent.
        """
        child = [0.0] * len(self.spans)
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Counter = Counter()
        for i, (name, start, end, parent) in enumerate(self.spans):
            dur = end - start
            out[name + "_s"] += dur
            out[name.split(".", 1)[0] + ".self_s"] += dur - child[i]
            if parent < 0:
                out["top_level_s"] += dur
        for key, n in self.calls.items():
            out[key + "_calls"] += n
        out.update(self.sizes)
        return dict(out)
