"""Self-check of the benchmark harness.

    python3 perfbench/selfcheck.py

Checks that a corrupted output (one link load scaled by 1.01) is counted as
a failed instance while a last-digit change passes, that seeds give
different arbitrary placements, that the tracer restores every function it
replaced and accounts self time, that the host-speed probe runs, and that run.py's metric names match
BENCHMARK.json.  Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import math
import os
import random
import re
import sys
import tempfile
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from replicagrid import delivery  # noqa: E402

FAILURES: list[str] = []


def expect(condition: bool, what: str) -> None:
    print(("ok    " if condition else "FAIL  ") + what)
    if not condition:
        FAILURES.append(what)


def failed_count(pairs, reference) -> int:
    """Failed instances as the worker counts them for error_rate."""
    return sum(bool(worker._problems(inst, out, reference)) for inst, out in pairs)


def check_simulate(tmpdir: str, reference: dict) -> None:
    inst = workloads.make_instances("simulate", workloads.DEFAULT_SEED, tmpdir)[0]
    out = inst.run()
    ref = {inst.name: reference[inst.name]}
    expect(failed_count([(inst, out)], ref) == 0, "simulate: default-seed output passes")
    rc, stdout, stderr = out
    for margin, fails in (("-4.4408920985e-16", 0), ("-1e-06", 1)):
        edited = re.sub(r"theorem9_margin = \S+", f"theorem9_margin = {margin}", stdout)
        expect(failed_count([(inst, (rc, edited, stderr))], None) == fails,
               f"simulate: Theorem 9 margin {margin} {'fails' if fails else 'passes'}")
    with open(inst.output_path) as fh:
        lines = fh.read().splitlines()
    row = lines[len(lines) // 2].split(",")
    row[4] = f"{float(row[4]) * 1.01:.12g}"
    lines[len(lines) // 2] = ",".join(row)
    with open(inst.output_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    expect(failed_count([(inst, out)], ref) == 1, "simulate: one CSV link load x1.01 fails, reference given")
    expect(failed_count([(inst, out)], None) == 1, "simulate: one CSV link load x1.01 fails, any seed")


def check_loads_arbitrary(reference: dict) -> None:
    inst = workloads.make_instances("loads-arbitrary", workloads.DEFAULT_SEED, "")[0]
    out = inst.run()
    ref = {inst.name: reference[inst.name]}
    loads = np.array(out["loads"].loads)
    expect(failed_count([(inst, out)], ref) == 0, "loads-arbitrary: default-seed output passes")

    # Perturb every load by about one ulp, as a reordered sum would.
    rng = np.random.default_rng(1)
    jiggled = loads * (1.0 + rng.choice([-1.0, 1.0], loads.size) * np.finfo(float).eps)
    ok = dict(out, loads=delivery.LinkLoadMap(grid=inst.grid, loads=jiggled))
    expect(failed_count([(inst, ok)], ref) == 0, "loads-arbitrary: last-digit changes pass")

    bad = loads.copy()
    loaded = np.flatnonzero(loads)
    bad[loaded[loaded.size // 2]] *= 1.01
    broken = dict(out, loads=delivery.LinkLoadMap(grid=inst.grid, loads=bad))
    expect(failed_count([(inst, out), (inst, broken)], None) == 1,
           "loads-arbitrary: one link load x1.01 raises error_rate to 1/2")
    expect(failed_count([(inst, dict(out, worst=out["worst"] * 1.01))], None) == 1,
           "loads-arbitrary: worst_link x1.01 fails")


def check_seeds() -> None:
    a1, _ = workloads.arbitrary_buffers(random.Random("x/1"), 3, 8, 4)
    a2, _ = workloads.arbitrary_buffers(random.Random("x/1"), 3, 8, 4)
    p1 = workloads.make_instances("loads-arbitrary", 1, "")[0].placement
    p2 = workloads.make_instances("loads-arbitrary", 2, "")[0].placement
    expect(a1 == a2, "same seed gives the same arbitrary placement")
    expect(p1.buffers != p2.buffers, "seeds 1 and 2 give different loads-arbitrary placements")
    argv1 = [i.argv for i in workloads.make_instances("simulate", 1, "t")]
    argv0 = [i.argv for i in workloads.make_instances("simulate", 0, "t")]
    expect(argv1 != argv0 and "0.8" in argv0[0], "seed 0 gives the nominal simulate instances, seed 1 others")


def check_tracer(tmpdir: str) -> None:
    from replicagrid import cli, grid, placement

    originals = (cli.main, delivery.link_loads, delivery.shortest_routes, grid.shortest_routes,
                 placement.CachePlacement.replica_nodes)
    inst = workloads.make_instances("simulate", workloads.DEFAULT_SEED, tmpdir)[0]
    tracer = tracing.Tracer()
    sample, outputs = worker._run_pass([inst], tracer)
    wall = sample["wall_s"] + sample["probe_s"]
    restored = (cli.main, delivery.link_loads, delivery.shortest_routes, grid.shortest_routes,
                placement.CachePlacement.replica_nodes)
    expect(all(a is b for a, b in zip(originals, restored)), "tracer restores every replaced function")
    row = tracer.summarize()
    expect(row["grid.shortest_routes_calls"] == row["delivery.client_file_pairs"] == 256 * 128,
           "shortest_routes counted once per client and file (called through delivery)")
    expect(row["delivery.serve_map_calls"] == 128 and row["density.solve_cd_calls"] == 2,
           "calls between modules are recorded")
    self_total = sum(v for k, v in row.items() if k.endswith(".self_s"))
    expect(math.isclose(self_total, row["top_level_s"], rel_tol=1e-9),
           "layer self times add up to the time under top-level spans")
    expect(0 <= row["top_level_s"] <= wall and row["delivery.self_s"] <= row["delivery.link_loads_s"],
           "spans nest inside the instance and its callers")
    expect(not worker._problems(inst, outputs[0], None), "traced output still passes its checks")


def check_hostspeed() -> None:
    speed = hostspeed.SpeedProbe()
    speed.start()
    deadline = time.perf_counter() + 0.3
    while time.perf_counter() < deadline:
        sum(range(1000))
    timing = speed.stop()
    expect(0 < timing.probe_s < 0.05 * timing.wall_s, "host-speed probes run and cost under 5% of the time")
    expect(0.3 < timing.ref_wall_s / timing.wall_s < 2.0, "reference-speed time is within a plausible factor of raw time")


def check_metric_names() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    declared_e2e = [(m["name"], m["unit"]) for m in bench["end_to_end"]]
    declared_layer = [(m["name"], m["unit"]) for m in bench["per_layer"]]
    expect(declared_e2e == list(run.END_TO_END), "end_to_end metrics match BENCHMARK.json")
    expect(declared_layer == list(run.PER_LAYER), "per_layer metrics match BENCHMARK.json")
    expect([w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS),
           "workloads match BENCHMARK.json")


def main() -> int:
    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)
    with tempfile.TemporaryDirectory(dir=HERE) as tmpdir:
        check_simulate(tmpdir, reference)
        check_loads_arbitrary(reference)
        check_seeds()
        check_tracer(tmpdir)
    check_hostspeed()
    check_metric_names()
    print(f"{len(FAILURES)} self-check failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
