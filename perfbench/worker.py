"""One workload run in a fresh single-threaded process.

Started by run.py with ``PYTHONPATH`` pointing at the checkout's ``src``.
It imports ``replicagrid.cli``, builds the parser and writes ``ready`` and
the host-speed factor of those imports on stdout; the parent times
spawn-to-ready as set-up and scales it by that factor.  It then runs passes
over the workload's instance list in a closed loop (one caller; each
instance starts when the previous one has finished) until the time budget
is spent, checks every output, and writes one JSON line of raw samples.
Every pass is timed beside a host-speed probe (hostspeed.py).

With ``--trace 1`` passes alternate between untraced and traced; the traced
ones give the per-layer numbers and the span file.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import sys
import time

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _run_pass(instances, tracer):
    """Time every instance's program call; return (sample, outputs).

    The sample sums the instances' hostspeed.Timing fields: raw wall and CPU
    seconds, the same at the reference core speed, and time spent in probes.
    """
    gc.collect()
    speed = hostspeed.SpeedProbe()
    if tracer is not None:
        tracer.reset()
        tracer.install()
    sample = dict.fromkeys(hostspeed.Timing._fields, 0.0)
    outputs = []
    try:
        for inst in instances:
            speed.start()
            try:
                out = inst.run()
            except (Exception, SystemExit) as exc:  # a failed instance, not a failed run
                out = exc
            finally:
                timing = speed.stop()
            for key, value in timing._asdict().items():
                sample[key] += value
            outputs.append(out)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return sample, outputs


def _problems(inst, out, reference) -> list[str]:
    if isinstance(out, (Exception, SystemExit)):
        return [f"{inst.name}: raised {out!r}"]
    try:
        return inst.check(out, reference.get(inst.name) if reference else None)
    except Exception as exc:  # a checker crash on malformed output is a failure
        return [f"{inst.name}: check raised {exc!r}"]


def _measure(args, out_dir: str, tmpdir: str) -> dict:
    # Imported after the set-up mark, so harness code is not timed as set-up.
    import tracer as tracing
    import workloads

    instances = workloads.make_instances(args.workload, args.seed, tmpdir)
    reference = None
    if args.seed == workloads.DEFAULT_SEED:
        with open(os.path.join(HERE, "reference.json")) as fh:
            reference = json.load(fh)
    tracer = tracing.Tracer()

    plain, traced, layers, span_log, errors = [], [], [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    durations = []
    while True:
        use_trace = bool(args.trace) and len(plain) > len(traced)
        t0 = time.perf_counter()
        sample, outputs = _run_pass(instances, tracer if use_trace else None)
        for inst, out in zip(instances, outputs):
            found = _problems(inst, out, reference)
            attempted += 1
            failed += bool(found)
            errors += found
        if use_trace:
            row = tracer.summarize()
            # Placements the benchmark builds itself never pass through canonical_place.
            own = sum(getattr(inst, "replicas", 0) for inst in instances)
            row["placement.replicas"] = row.get("placement.replicas", 0) + own
            # Traced time that no span covers: harness glue and wrapper entry.
            # Spans include the probes that ran inside them.
            row["unattributed_s"] = sample["wall_s"] + sample["probe_s"] - row.pop("top_level_s", 0.0)
            layers.append(row)
            traced.append(sample)
            span_log.append({"pass": len(traced) - 1, "wall_s": sample["wall_s"], "spans": [
                dict(zip(("name", "start", "end", "parent"), s)) for s in tracer.spans]})
        else:
            plain.append(sample)
        durations.append(time.perf_counter() - t0)
        done = plain and (traced or not args.trace)
        # Stop when the next pass would overrun the budget.
        if done and time.perf_counter() - start + max(durations[-2:]) > args.seconds:
            break

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "instances_per_pass": len(instances),
        "passes": plain,
        "traced_passes": traced,
        "layers": layers,
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:5],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.trace:
        span_file = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.json")
        with open(span_file, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "passes": span_log}, fh)
        result["span_file"] = os.path.relpath(span_file, ROOT)
    return result


def main() -> int:
    # Set-up is scaled to the reference core speed like the passes are; the
    # parent multiplies its spawn-to-ready time by the factor printed here.
    speed = hostspeed.SpeedProbe()
    speed.start()
    import replicagrid
    from replicagrid import cli

    cli.build_parser()
    timing = speed.stop()
    print(f"ready {timing.ref_wall_s / timing.wall_s!r}", flush=True)

    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--setup-only", action="store_true", help="exit after the set-up mark")
    args = ap.parse_args()
    if args.setup_only:
        return 0
    expected = os.path.join(ROOT, "src", "replicagrid")
    if os.path.dirname(os.path.abspath(replicagrid.__file__)) != expected:
        print(f"worker: imported replicagrid from {replicagrid.__file__}, not {expected}", file=sys.stderr)
        return 2

    out_dir = os.path.join(HERE, "out")
    tmpdir = os.path.join(out_dir, f"tmp-{os.getpid()}")
    os.makedirs(tmpdir, exist_ok=True)
    try:
        result = _measure(args, out_dir, tmpdir)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
