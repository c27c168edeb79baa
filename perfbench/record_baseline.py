"""Record baseline.json: ten untraced runs and one traced run per workload.

    python3 perfbench/record_baseline.py

Runs run.py the way a comparison does: seeds 1-10 untraced for every
workload (workload by workload), then one traced run per workload at the
default seed, each for BENCHMARK.json's run_seconds.  For every end-to-end
metric it records the ten values, their median and quartiles, and the
spread (q3 - q1) / median, which must stay within the metric's bound.
Run it on a commit whose code the later changes are compared against.
"""

from __future__ import annotations

import json
import os
import platform
import re
import statistics
import subprocess
import sys

import numpy
import scipy

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = tuple(range(1, 11))


def _run(workload: str, seed: int, seconds: int, trace: int):
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True).stdout
    lines = out.strip().splitlines()
    passes = int(re.search(r": (\d+) passes", lines[0]).group(1))
    return json.loads(lines[-1]), passes


def _cpu_model() -> str:
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor()


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    end_to_end, errors, per_layer = {}, {}, {}
    for w in (w["name"] for w in bench["workloads"]):
        values, passes, attempted, failed = {}, [], 0, 0
        for seed in SEEDS:
            res, n = _run(w, seed, seconds, 0)
            passes.append(n)
            attempted += res["attempted"]
            failed += res["failed"]
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        rows = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            rows[name] = {"unit": res["metrics"][name]["unit"], "median": med, "q1": q1, "q3": q3,
                          "spread": (q3 - q1) / med, "values": vals}
            print(f"{w:16s} {name:12s} median {med:10.4f}  spread {(q3 - q1) / med:.4f}  bound {bounds[name]}",
                  flush=True)
        end_to_end[w] = dict(rows, passes_per_run=passes)
        errors[w] = {"failed": failed, "attempted": attempted, "value": failed / attempted}
    for w in end_to_end:
        res, _ = _run(w, 0, seconds, 1)
        per_layer[w] = {name: m["value"] for name, m in res["metrics"].items()}
    baseline = {
        "about": ("End-to-end numbers: 10 untraced runs per workload, seeds 1-10, run_seconds from "
                  "BENCHMARK.json; median, quartiles and spread = (q3 - q1) / median over the 10 run "
                  "values. Per-layer numbers: one traced run per workload at seed 0. Times are at the "
                  "reference core speed of hostspeed.py, except the per-layer span times, which are raw."),
        "machine": {"nproc": os.cpu_count(), "cpu_model": _cpu_model(), "python": platform.python_version(),
                    "numpy": numpy.__version__, "scipy": scipy.__version__,
                    "os": f"{platform.system()} {platform.release().split('-')[0]}"},
        "run_seconds": seconds,
        "seeds": list(SEEDS),
        "end_to_end": end_to_end,
        "error_rate": errors,
        "per_layer": per_layer,
    }
    with open(os.path.join(HERE, "baseline.json"), "w") as fh:
        json.dump(baseline, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
