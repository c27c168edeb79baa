"""replicagrid benchmark: one command for every workload.

    python3 perfbench/run.py --workload simulate --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py            # every workload, default seed, untraced

Each workload run is one fresh single-threaded worker process (worker.py)
that imports ``replicagrid`` from this checkout's ``src`` and drives it in
process.  With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it reports the per-layer metrics of a traced run.  Human-
readable lines come first; the last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, HERE)

from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

# Set-up is timed in this many extra processes besides the worker itself.
SETUP_PROBES = 4
WORKER_TIMEOUT_S = 170.0

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"))

# Names ending in _s are seconds per pass; the others are counts per pass.
PER_LAYER = tuple(
    (name, "s" if name.endswith("_s") else "count")
    for name in (
        "delivery.self_s", "delivery.link_loads_s", "delivery.serve_map_s", "delivery.serve_map_calls",
        "delivery.to_csv_s", "delivery.total_hop_load_s", "delivery.client_file_pairs",
        "grid.shortest_routes_calls", "grid.link_index_calls",
        "placement.self_s", "placement.canonical_place_s", "placement.render_matrix_s",
        "placement.to_json_s", "placement.validate_capacity_s", "placement.replica_nodes_s",
        "placement.replica_nodes_calls", "placement.buffer_at_calls", "placement.measured_densities_s",
        "placement.replicas",
        "density.self_s", "density.solve_cd_s", "density.solve_cd_calls", "density.canonical_truncate_s",
        "density.lower_bound_s",
        "popularity.self_s", "popularity.zipf_s", "popularity.load_popularity_s",
        "asymptotics.self_s", "asymptotics.sweep_s", "asymptotics.classify_regime_s",
        "asymptotics.capacity_breakdown_s",
        "cli.self_s",
        "traced_wall_s", "trace_overhead_s", "unattributed_s",
    )
)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _spawn(workload: str, seed: int, seconds: float, trace: int, setup_only: bool):
    argv = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        argv.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, text=True)
    ready = proc.stdout.readline().split()
    setup = time.perf_counter() - t0
    try:
        rest, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"{workload}: worker exceeded {WORKER_TIMEOUT_S:.0f} s")
    if len(ready) != 2 or ready[0] != "ready" or proc.returncode != 0:
        raise RuntimeError(f"{workload}: worker exited with code {proc.returncode}")
    # Scaled to the reference core speed measured in the worker's imports.
    return setup * float(ready[1]), rest


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def run_workload(workload: str, seed: int, seconds: float, trace: int):
    """Run one workload; return (metrics, attempted, failed, printable lines)."""
    # Set-up probes go half before and half after the worker, so that their
    # median does not hang on one moment's load.
    probes = 0 if trace else SETUP_PROBES
    setups = [_spawn(workload, seed, seconds, trace, True)[0] for _ in range(probes // 2)]
    setup, rest = _spawn(workload, seed, seconds, trace, False)
    setups.append(setup)
    setups += [_spawn(workload, seed, seconds, trace, True)[0] for _ in range(probes - probes // 2)]
    res = json.loads(rest.strip().splitlines()[-1])
    walls = [p["ref_wall_s"] for p in res["passes"]]
    cpus = [p["ref_cpu_s"] for p in res["passes"]]
    raw_walls = [p["wall_s"] for p in res["passes"]]
    attempted, failed = res["attempted"], res["failed"]
    head = (f"[{workload}] seed={seed} trace={trace}: {len(walls) + len(res['traced_passes'])} passes "
            f"x {res['instances_per_pass']} instances, closed loop, 1 caller")
    lines = [head]
    metrics = {}

    def emit(name, value, unit, note):
        metrics[name] = {"value": value, "unit": unit}
        lines.append(f"  {name:34s} {value:14.6f} {unit:5s} {note}")

    if not trace:
        lo, hi = _quartiles(setups)
        emit("setup_s", statistics.median(setups), "s", f"median of {len(setups)} at reference speed (q1 {lo:.4f}, q3 {hi:.4f})")
        # Times at the reference core speed (hostspeed.py), so that other
        # tenants' load on this core does not show as the program's.
        slowdown = statistics.median(raw_walls) / statistics.median(walls)
        for name, values in (("wall_s", walls), ("cpu_s", cpus)):
            lo, hi = _quartiles(values)
            emit(name, statistics.median(values), "s", f"median of {len(values)} passes at reference speed "
                 f"(q1 {lo:.4f}, q3 {hi:.4f}; raw median x{slowdown:.3f})")
        emit("peak_rss_mb", res["peak_rss_mb"], "MB", "1 sample (whole worker process)")
    else:
        rows = res["layers"]
        traced_wall = statistics.median(p["ref_wall_s"] for p in res["traced_passes"])
        derived = {"traced_wall_s": traced_wall, "trace_overhead_s": traced_wall - statistics.median(walls)}
        for name, unit in PER_LAYER:
            if name in derived:
                value = derived[name]
            else:
                value = statistics.median(row.get(name, 0) for row in rows)
            emit(name, value, unit, f"median of {len(rows)} traced passes")
        lines.append(f"  spans written to {res['span_file']}")
    lines.append(f"  {'error_rate':34s} {failed / attempted:14.6f} {'':5s} {failed} failed of {attempted} attempted")
    lines += [f"  error: {e}" for e in res["errors"]]
    return metrics, attempted, failed, lines


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0, help="measuring time per workload run")
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "replicagrid", "cli.py")):
        print(f"run.py: no replicagrid sources under {SRC}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, attempted, failed = {}, 0, 0
    try:
        for name in names:
            m, a, f, lines = run_workload(name, args.seed, args.seconds, args.trace)
            print("\n".join(lines), flush=True)
            prefix = f"{name}." if len(names) > 1 else ""
            metrics.update({prefix + k: v for k, v in m.items()})
            attempted += a
            failed += f
    except (RuntimeError, ValueError, KeyError, IndexError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
