"""Workload instances generated from a seed, and the checks on their outputs.

Each instance has ``run()``, the program call the benchmark times, and
``check(output, reference)``, which returns a list of problems (empty when
the output is correct).  ``summary(output)`` gives the values recorded in
``reference.json`` for the default seed.

Seed ``DEFAULT_SEED`` gives the nominal instances (the regimes named in
ROADMAP.md); any other seed scales each Zipf exponent and catalog-size
coefficient by a factor drawn from [0.98, 1.02], which keeps the work per
pass within a few percent of the nominal one.  ``loads-arbitrary`` draws
fresh replica placements for every seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random

import numpy as np

DEFAULT_SEED = 0
# Outputs are compared at this tolerance: a reordered floating-point sum
# (relative change ~1e-15) passes, a link load scaled by 1.01 fails.
REL_TOL = 1e-9
ABS_TOL = 1e-12
RESIDUAL_MAX = 1e-9

K = 2
SIMULATE_NU = 4
PLACE_NU = 6
# (name, tau, coefficient c of M = c*N): the ROADMAP's two regimes.
REGIMES = (("tau0.8", 0.8, 0.5), ("tau2", 2.0, 1.75))
SWEEP_NUS = "3,4,5,6,7,8,9,10"
SWEEP_TAUS = (0.5, 0.8, 1.0, 1.2, 1.5, 2.0, 3.0)
# (name, coefficient, exponent) of M = c*N^a.
SWEEP_MS = (("N^0.6", 1.0, 0.6), ("0.5N", 0.5, 1.0), ("1.75N", 1.75, 1.0))
CLASSIFY_NU = 10

ARB_NU = 5
ARB_M = 64
ARB_CAPACITY = 16
ARB_TAU = 0.8
ARB_PLACEMENTS = 2

WORKLOADS = ("simulate", "place", "sweep", "loads-arbitrary")


def _jitter(rng: random.Random, seed: int) -> float:
    return 1.0 if seed == DEFAULT_SEED else rng.uniform(0.98, 1.02)


def _m_expr(coeff: float, power: float, nominal: bool) -> str:
    """Catalog-size expression M = coeff*N^power in the CLI's syntax."""
    base = "N" if power == 1.0 else f"N^{power:g}"
    if nominal:
        return base if coeff == 1.0 else f"{coeff:g}*{base}"
    return f"{coeff:.6f}*{base}"


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def compare(got, want, path="") -> list[str]:
    """Problems where got differs from the reference want (numbers by tolerance)."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path}: keys differ from reference"]
        return [p for k in want for p in compare(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: length differs from reference"]
        return [p for i, (g, w) in enumerate(zip(got, want)) for p in compare(g, w, f"{path}[{i}]")]
    if isinstance(want, bool) or isinstance(want, str):
        return [] if got == want else [f"{path}: {got!r} != reference {want!r}"]
    if isinstance(got, (int, float)) and not isinstance(got, bool) and close(float(got), float(want)):
        return []
    return [f"{path}: {got!r} != reference {want!r}"]


def _field(text: str):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    return text


def _key_values(lines) -> dict:
    out = {}
    for line in lines:
        key, sep, value = line.partition(" = ")
        if sep:
            out[key.strip()] = value.strip()
    return out


class CliInstance:
    """One ``replicagrid`` invocation through ``cli.main`` with stdout captured."""

    def __init__(self, name: str, argv: list[str], output_path: str | None = None):
        self.name = name
        self.argv = argv
        self.output_path = output_path

    def run(self):
        from replicagrid import cli

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(self.argv))
        return rc, out.getvalue(), err.getvalue()

    def read_file(self) -> str:
        with open(self.output_path) as fh:
            return fh.read()

    def check(self, output, reference=None) -> list[str]:
        rc, stdout, stderr = output
        if rc != 0:
            return [f"{self.name}: exit code {rc}: {stderr.strip()[:200]}"]
        problems, summary = self._inspect(stdout)
        if reference is not None:
            problems += compare(summary, reference, self.name)
        return problems

    def summary(self, output) -> dict:
        return self._inspect(output[1])[1]


class SimulateInstance(CliInstance):
    def _inspect(self, stdout):
        kv = {k: float(v) for k, v in _key_values(stdout.splitlines()).items()}
        problems = []
        names = ("C_wn", "C_an", "load_identity_residual", "lemma3_margin", "theorem9_margin")
        if any(not math.isfinite(kv[n]) for n in names):
            problems.append(f"{self.name}: non-finite value in {kv}")
        if not kv["load_identity_residual"] <= RESIDUAL_MAX:
            problems.append(f"{self.name}: load identity residual {kv['load_identity_residual']}")
        # Theorem 9 holds with equality for canonical placements, so its
        # margin is 0 up to rounding: compare at the stated tolerance.
        floor = -(REL_TOL * abs(kv["C_an"]) + ABS_TOL)
        for margin in ("lemma3_margin", "theorem9_margin"):
            if not kv[margin] >= floor:
                problems.append(f"{self.name}: {margin} = {kv[margin]} < 0")
        lines = self.read_file().splitlines()
        side = 2 ** SIMULATE_NU
        rows = [line.split(",") for line in lines[1:]]
        links = rows[: 2 * side * side]
        summaries = {r[3]: float(r[4]) for r in rows[2 * side * side :] if r[0] == "summary"}
        loads = np.array([float(r[4]) for r in links])
        if lines[0] != "link_index,origin_x,origin_y,axis,load" or len(rows) != 2 * side * side + 2:
            problems.append(f"{self.name}: CSV has the wrong shape")
        if [int(r[0]) for r in links] != list(range(len(links))):
            problems.append(f"{self.name}: CSV link indices out of order")
        if not np.all(np.isfinite(loads)) or np.any(loads < 0):
            problems.append(f"{self.name}: negative or non-finite link load")
        pairs = (
            ("CSV worst vs max load", summaries["worst"], float(loads.max())),
            ("CSV avg vs mean load", summaries["avg"], math.fsum(loads) / loads.size),
            ("C_wn vs CSV worst", kv["C_wn"], summaries["worst"]),
            ("C_an vs mean CSV load", kv["C_an"], math.fsum(loads) / loads.size),
        )
        problems += [f"{self.name}: {what}: {a!r} != {b!r}" for what, a, b in pairs if not close(a, b)]
        summary = {n: kv[n] for n in ("C_wn", "C_an", "lemma3_margin", "theorem9_margin")}
        return problems, summary


class PlaceInstance(CliInstance):
    def _inspect(self, stdout):
        problems = []
        lines = stdout.splitlines()
        side = 2 ** PLACE_NU
        n = side * side
        if lines[-1] != "valid = true":
            problems.append(f"{self.name}: placement not reported valid: {lines[-1]!r}")
        if len(lines) != side + 1 or any(len(row.split()) != side for row in lines[:-1]):
            problems.append(f"{self.name}: matrix rendering has the wrong shape")
        text = self.read_file()
        doc = json.loads(text)
        buffers = doc["buffers"]
        m_count, cap = doc["file_count"], doc["capacity"]
        if doc["nu"] != PLACE_NU or cap != K or len(buffers) != n:
            problems.append(f"{self.name}: placement header {doc['nu']}, {cap}, {len(buffers)} buffers")
        holders: list[list[tuple[int, int]]] = [[] for _ in range(m_count)]
        for key, files in buffers.items():
            x, y = (int(v) for v in key.split(","))
            if len(files) > cap or len(set(files)) != len(files):
                problems.append(f"{self.name}: buffer {key} over capacity or repeated")
            for m in files:
                holders[m].append((x, y))
        for m, nodes in enumerate(holders):
            count = len(nodes)
            level = round(math.log(n / count, 4)) if count else -1
            if count == 0 or 4 ** level * count != n:
                problems.append(f"{self.name}: file {m} has {count} replicas, not N/4^k")
                continue
            period = 2 ** level
            if len({(x % period, y % period) for x, y in nodes}) != 1:
                problems.append(f"{self.name}: file {m} replicas are not {period}-periodic")
        summary = {"valid": lines[-1] == "valid = true", "sha256": hashlib.sha256(text.encode()).hexdigest()}
        return problems, summary


class SweepInstance(CliInstance):
    def _inspect(self, stdout):
        lines = stdout.splitlines()
        kv = _key_values(lines[:4])
        header = lines[4]
        rows = []
        for line in lines[5:]:
            # The regime label may itself contain commas.
            fields = line.split(",")
            rows.append([_field(v) for v in fields[:8]] + [",".join(fields[8:-2])]
                        + [_field(v) for v in fields[-2:]])
        problems = []
        nus = [int(v) for v in SWEEP_NUS.split(",")]
        if header.split(",")[0] != "nu" or [r[0] for r in rows] != nus:
            problems.append(f"{self.name}: CSV rows do not cover nu = {SWEEP_NUS}")
        for nu, n, m, cap, _tau, c, l_idx, r_idx, regime, *_ in rows:
            if n != 4 ** nu or not 1 <= m <= cap * n or not (math.isfinite(c) and c > 0):
                problems.append(f"{self.name}: bad row at nu={nu}: N={n} M={m} C={c}")
            if not 1 <= l_idx <= r_idx <= m + 1 or not regime:
                problems.append(f"{self.name}: bad split at nu={nu}: l={l_idx} r={r_idx}")
        exps = {k: float(kv[k]) for k in ("predicted_exponent", "fitted_exponent", "fitted_exponent_corrected")}
        if not all(math.isfinite(v) for v in exps.values()):
            problems.append(f"{self.name}: non-finite exponent {exps}")
        summary = {"predicted_law": kv["predicted_law"], **exps, "rows": rows}
        return problems, summary


class ClassifyInstance(CliInstance):
    def _inspect(self, stdout):
        doc = json.loads(stdout)
        problems = []
        n = 4 ** CLASSIFY_NU
        if doc["n_nodes"] != n or not 1 <= doc["m_count"] <= K * n:
            problems.append(f"{self.name}: instance N={doc['n_nodes']} M={doc['m_count']}")
        if doc["truncation_state"] not in ("empty", "almost_empty", "nonempty"):
            problems.append(f"{self.name}: unknown truncation state {doc['truncation_state']!r}")
        if not doc["predicted_l_hat"] >= 1 or not doc["predicted_r_hat"] >= 1:
            problems.append(f"{self.name}: predicted indices below 1")
        if not doc["predicted_law"].startswith("C = Theta("):
            problems.append(f"{self.name}: unexpected law {doc['predicted_law']!r}")
        return problems, doc


def _torus_hop_total(side: int, reps: np.ndarray) -> int:
    """Sum over all nodes of the hop distance to the nearest of reps."""
    coords = np.arange(side)
    dx = np.abs(coords[:, None] - reps[None, :, 0])
    dy = np.abs(coords[:, None] - reps[None, :, 1])
    dx = np.minimum(dx, side - dx)  # (side, W): row distance to each replica
    dy = np.minimum(dy, side - dy)
    nearest = (dx[:, None, :] + dy[None, :, :]).min(axis=2)
    return int(nearest.sum())


def arbitrary_buffers(rng: random.Random, nu: int, m_count: int, capacity: int):
    """Random non-canonical placement: (buffers, replica count per file).

    Replica counts are drawn one per stratum of 1..N/4 and shuffled over the
    files, so every seed gives the same spread of counts; replica nodes are
    drawn uniformly among nodes with free capacity.
    """
    n = 4 ** nu
    width = (n // 4) / m_count
    counts = [rng.randint(1 + math.floor(i * width), math.floor((i + 1) * width)) for i in range(m_count)]
    rng.shuffle(counts)
    occupancy = [0] * n
    buffers = [set() for _ in range(n)]
    for m, w in enumerate(counts):
        free = [i for i in range(n) if occupancy[i] < capacity]
        for i in rng.sample(free, w):
            buffers[i].add(m)
            occupancy[i] += 1
    return buffers, counts


class ArbitraryLoadsInstance:
    """Delivery-layer library calls on one seeded non-canonical placement."""

    def __init__(self, name: str, rng: random.Random):
        from replicagrid import grid, placement, popularity

        self.name = name
        self.grid = grid.GridSpec(nu=ARB_NU)
        buffers, self.counts = arbitrary_buffers(rng, ARB_NU, ARB_M, ARB_CAPACITY)
        self.placement = placement.CachePlacement(
            grid=self.grid,
            capacity=ARB_CAPACITY,
            file_count=ARB_M,
            buffers=tuple(frozenset(b) for b in buffers),
        )
        self.pop = popularity.zipf(ARB_M, ARB_TAU)
        side = self.grid.side
        holders = [[] for _ in range(ARB_M)]
        for idx, buf in enumerate(buffers):
            for m in buf:
                holders[m].append((idx // side, idx % side))
        # Independent total-hop reference for the load identity check.
        self.hop_reference = math.fsum(
            float(p) * _torus_hop_total(side, np.array(h)) for p, h in zip(self.pop.probs, holders)
        )

    @property
    def replicas(self) -> int:
        return sum(self.counts)

    def run(self):
        from replicagrid import delivery, placement

        loads = delivery.link_loads(self.grid, self.placement, self.pop)
        return {
            "loads": loads,
            "total_hop": delivery.total_hop_load(self.grid, self.placement, self.pop),
            "worst": delivery.worst_link(loads),
            "avg": delivery.avg_link(loads),
            "densities": self.placement.measured_densities(),
            "valid": placement.validate_capacity(self.placement),
        }

    def check(self, output, reference=None) -> list[str]:
        loads = np.asarray(output["loads"].loads, dtype=float)
        n = self.grid.node_count
        problems = []
        if loads.shape != (2 * n,) or not np.all(np.isfinite(loads)) or np.any(loads < 0):
            return [f"{self.name}: link loads have the wrong shape or sign"]
        pairs = (
            ("sum of link loads vs total hop load", math.fsum(loads), self.hop_reference),
            ("total_hop_load", output["total_hop"], self.hop_reference),
            ("worst_link vs max load", output["worst"], float(loads.max())),
            ("avg_link vs mean load", output["avg"], math.fsum(loads) / loads.size),
        )
        problems += [f"{self.name}: {what}: {a!r} != {b!r}" for what, a, b in pairs if not close(a, b)]
        if not np.array_equal(np.rint(np.asarray(output["densities"]) * n), np.array(self.counts)):
            problems.append(f"{self.name}: measured densities do not match the replica counts")
        if output["valid"] is not True:
            problems.append(f"{self.name}: placement not reported within capacity")
        if reference is not None:
            problems += compare(self.summary(output), reference, self.name)
        return problems

    def summary(self, output) -> dict:
        return {"worst": output["worst"], "avg": output["avg"]}


def make_instances(workload: str, seed: int, tmpdir: str) -> list:
    """The instance list of one pass of the workload, generated from seed."""
    rng = random.Random(f"{workload}/{seed}")
    out = []
    if workload in ("simulate", "place"):
        nu = SIMULATE_NU if workload == "simulate" else PLACE_NU
        cls = SimulateInstance if workload == "simulate" else PlaceInstance
        suffix = "csv" if workload == "simulate" else "json"
        for name, tau, coeff in REGIMES:
            tau_j, coeff_j = tau * _jitter(rng, seed), coeff * _jitter(rng, seed)
            nominal = seed == DEFAULT_SEED
            path = os.path.join(tmpdir, f"{workload}-{name}.{suffix}")
            argv = [workload, "--nu", str(nu), "--K", str(K), "--M", _m_expr(coeff_j, 1.0, nominal),
                    "--tau", f"{tau_j:g}" if nominal else f"{tau_j:.6f}", "--output", path]
            out.append(cls(f"{workload}/{name}", argv, path))
    elif workload == "sweep":
        for tau in SWEEP_TAUS:
            for m_name, coeff, power in SWEEP_MS:
                m_expr = _m_expr(coeff * _jitter(rng, seed), power, seed == DEFAULT_SEED)
                common = ["--K", str(K), "--M", m_expr, "--tau", f"{tau:g}"]
                name = f"tau{tau:g}/M{m_name}"
                out.append(SweepInstance(f"sweep/{name}", ["sweep", "--nus", SWEEP_NUS] + common))
                out.append(ClassifyInstance(f"classify/{name}", ["classify", "--nu", str(CLASSIFY_NU)] + common))
    elif workload == "loads-arbitrary":
        out = [ArbitraryLoadsInstance(f"loads-arbitrary/p{i}", rng) for i in range(ARB_PLACEMENTS)]
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return out
