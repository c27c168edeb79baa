"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines interleaved; without -s they appear in captured output on failure.
"""

import math
import time

import numpy as np

from replicagrid.delivery import avg_link, link_loads, total_hop_load
from replicagrid.density import (
    CanonicalProfile,
    canonical_truncate,
    cd_cost,
    lower_bound,
    solve_cd,
)
from replicagrid.grid import GridSpec
from replicagrid.oracle import brute_force_an, brute_force_cd
from replicagrid.placement import CachePlacement, canonical_place, validate_capacity
from replicagrid.popularity import Popularity, zipf
from replicagrid.asymptotics import classify_regime, sweep
from references import kkt_residuals
from route_walker import enumerate_cluster
from test_delivery import _reference_link_bound


def _report(num: int, desc: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def _random_pop(rng, m):
    raw = np.sort(rng.uniform(0.05, 1.0, m))[::-1]
    return Popularity(raw / raw.sum())


def _canonical(grid, capacity, pop):
    prof = solve_cd(grid.node_count, float(capacity), pop)
    return canonical_place(grid, canonical_truncate(prof), pop, capacity)


def test_criterion_1_load_identity():
    rng = np.random.default_rng(11)
    start = time.monotonic()
    worst = 0.0
    for _ in range(50):
        nu = int(rng.integers(1, 5))
        grid = GridSpec(nu=nu)
        m = int(rng.integers(1, 33))
        k = int(rng.integers(1, 4))
        while k * grid.node_count < m:
            k += 1
        pop = _random_pop(rng, m)
        placed = _canonical(grid, k, pop)
        total = float(link_loads(grid, placed, pop).loads.sum())
        expect = total_hop_load(grid, placed, pop)
        worst = max(worst, abs(total - expect) / max(abs(expect), 1e-300))
    elapsed = time.monotonic() - start
    _report(
        1,
        f"load identity on 50 instances (worst rel {worst:.2e}, {elapsed:.1f}s)",
        worst <= 1e-9 and elapsed < 10.0,
    )


def test_criterion_2_solver_vs_grid_oracle():
    rng = np.random.default_rng(12)
    resolution = {1: 1e-3, 2: 1e-3, 3: 0.01, 4: 0.025}
    start = time.monotonic()
    ok = True
    worst_kkt = 0.0
    count = 0
    for n in (4, 16):
        for m in (1, 2, 3, 4):
            for k in (1, 2):
                if count >= 20:
                    break
                pop = _random_pop(rng, m) if count % 2 else zipf(m, float(rng.uniform(0.0, 2.0)))
                prof = solve_cd(n, float(k), pop)
                exact = cd_cost(prof, pop)
                grid_min = brute_force_cd(n, float(k), pop, resolution[m])
                ok &= exact <= grid_min + 1e-12
                res, up, down = kkt_residuals(prof, pop)
                worst_kkt = max(worst_kkt, res)
                ok &= res <= 1e-7 and up >= -1e-9 and down >= -1e-9
                count += 1
    for _ in range(count, 20):  # top up to exactly 20 instances
        m = int(rng.integers(1, 5))
        pop = _random_pop(rng, m)
        prof = solve_cd(16, 3.0, pop)
        ok &= cd_cost(prof, pop) <= brute_force_cd(16, 3.0, pop, resolution[m]) + 1e-12
        ok &= kkt_residuals(prof, pop)[0] <= 1e-7
        count += 1
    elapsed = time.monotonic() - start
    _report(
        2,
        f"solver <= grid oracle and KKT <= 1e-7 on {count} instances "
        f"(worst KKT {worst_kkt:.2e}, {elapsed:.1f}s)",
        ok and count == 20 and elapsed < 30.0,
    )


def test_criterion_3_truncation_sandwich():
    rng = np.random.default_rng(13)
    ok = True
    for _ in range(100):
        nu = int(rng.integers(1, 6))
        n = 4 ** nu
        k = float(rng.integers(1, 5))
        m = int(rng.integers(1, min(int(k * n), 200) + 1))
        pop = _random_pop(rng, m) if rng.integers(2) else zipf(m, float(rng.uniform(0.0, 3.0)))
        prof = solve_cd(n, k, pop)
        exact = cd_cost(prof, pop)
        rounded = lower_bound(canonical_truncate(prof).densities, pop)
        ok &= exact <= rounded + 1e-12
        ok &= rounded < 2.0 * exact + math.sqrt(2.0) / 6.0 + 1e-12
    _report(3, "truncation sandwich C* <= C° < 2C* + sqrt(2)/6 on 100 instances", ok)


def test_criterion_4_order_optimality_vs_oracle():
    start = time.monotonic()
    instances = [
        (1, 1, zipf(1, 1.0)),
        (1, 1, zipf(2, 1.0)),
        (1, 1, Popularity(np.array([0.9, 0.1]))),
        (1, 1, zipf(3, 0.8)),
        (1, 1, zipf(4, 1.2)),
        (1, 2, zipf(4, 1.0)),
        (1, 2, zipf(3, 0.0)),
        (2, 1, zipf(2, 1.0)),
        (2, 1, zipf(3, 1.0)),  # exact integer-programming path
        (2, 1, zipf(4, 0.8)),  # exact integer-programming path
    ]
    ok = True
    for nu, cap, pop in instances:
        grid = GridSpec(nu=nu)
        oracle = brute_force_an(grid, cap, pop)
        placed = _canonical(grid, cap, pop)
        avg = avg_link(link_loads(grid, placed, pop))
        ok &= avg <= 0.5 + 1.5 * math.sqrt(2.0) * oracle.best_avg_load + 1e-9
    elapsed = time.monotonic() - start
    _report(
        4,
        f"canonical avg load within the order bound of the true optimum on "
        f"{len(instances)} oracle instances ({elapsed:.1f}s)",
        ok and elapsed < 60.0,
    )


def test_criterion_5_placement_validity():
    rng = np.random.default_rng(15)
    ok = True
    for _ in range(100):
        nu = int(rng.integers(1, 4))
        cap = int(rng.integers(1, 5))
        budget = float(cap)
        levels = []
        for _ in range(int(rng.integers(1, 41))):
            k = int(rng.integers(0, nu + 1))
            if 4.0 ** -k > budget:
                k = nu
                if 4.0 ** -k > budget:
                    break
            levels.append(k)
            budget -= 4.0 ** -k
        levels = levels or [nu]
        counts = np.bincount(levels, minlength=nu + 1)
        canon = CanonicalProfile(counts=counts, nu=nu)
        pop = zipf(len(levels), float(rng.uniform(0.0, 2.0)))
        placed = canonical_place(GridSpec(nu=nu), canon, pop, cap)
        ok &= validate_capacity(placed)
        ok &= max(len(b) for b in placed.buffers) <= cap
    _report(5, "canonical placement valid on 100 random level-set configs", ok)


def test_criterion_6_cluster_geometry():
    ok = True
    nu1_note = ""
    for level in (1, 2, 3):
        hop_sum, _ = enumerate_cluster(level)
        ok &= hop_sum == 2 ** (3 * level - 1)
        grid = GridSpec(nu=level)
        buffers = tuple(
            frozenset([0]) if node == (0, 0) else frozenset() for node in grid.nodes()
        )
        placed = CachePlacement(grid=grid, capacity=1, file_count=1, buffers=buffers)
        holds = _reference_link_bound(grid, placed, 0, 1.0)
        if level == 1:
            nu1_note = f"; level-1 bound holds: {holds}"
        else:
            ok &= holds
    _report(6, "cluster hop sums equal 2^(3k-1) and link bounds hold" + nu1_note, ok)


def test_criterion_7_scaling_laws():
    start = time.monotonic()
    nus = range(5, 11)
    fit_a = sweep(0.5, 2.0, lambda n: n, nus).fitted_exponent
    fit_b = sweep(1.25, 2.0, lambda n: int(0.1 * 2.0 * n), nus).fitted_exponent
    fit_c = sweep(2.0, 2.0, lambda n: int(n ** 0.6), nus).fitted_exponent
    res_d = sweep(1.0, 2.0, lambda n: n, nus)
    ratios = [
        pt.c_value * math.log(pt.m_count) / math.sqrt(pt.m_count) for pt in res_d.points
    ]
    spread = max(ratios) / min(ratios)
    elapsed = time.monotonic() - start
    ok = (
        abs(fit_a - 0.5) <= 0.1
        and abs(fit_b - 0.25) <= 0.1
        and abs(fit_c) <= 0.1
        and spread <= 2.0
        and elapsed < 120.0
    )
    _report(
        7,
        "scaling laws: fits "
        f"{fit_a:.3f}~0.5, {fit_b:.3f}~0.25, {fit_c:.3f}~0, "
        f"sqrt(M)/log M spread {spread:.2f}<=2 ({elapsed:.1f}s)",
        ok,
    )


def test_criterion_8_index_estimators():
    rng = np.random.default_rng(7)
    ok = True
    worst = 0.0
    # 45 instances across the tau < 3/2 branch (estimate tight: r ~ slack
    # times (3-2tau)/(2tau)), where l = l_hat = 1 must hold exactly.
    for _ in range(45):
        tau = float(rng.uniform(0.3, 1.1))
        nu = int(rng.integers(5, 8))
        n = 4 ** nu
        k = float(rng.integers(1, 4))
        lo = max(1 - 2 * tau / 3 + 0.1, 0.2)
        m = int(rng.uniform(lo, 0.9) * k * n)
        prof = solve_cd(n, k, zipf(m, tau))
        report = classify_regime(tau, k, m, n)
        rel = abs(prof.r_index - report.predicted_r_hat) / prof.r_index
        worst = max(worst, rel)
        ok &= rel <= 0.25
        ok &= prof.l_index == report.predicted_l_hat == 1
    # 5 instances in the tau > 3/2, M <= (K - beta)N branch.
    for tau, k, nu, frac in (
        (2.0, 4.0, 7, 0.8),
        (3.0, 4.0, 6, 0.5),
        (2.5, 4.0, 7, 0.5),
        (2.0, 4.0, 6, 0.6),
        (3.0, 5.0, 7, 0.5),
    ):
        n = 4 ** nu
        m = int(frac * n)
        prof = solve_cd(n, k, zipf(m, tau))
        rel = abs(prof.r_index - classify_regime(tau, k, m, n).predicted_r_hat) / prof.r_index
        worst = max(worst, rel)
        ok &= rel <= 0.25
    _report(
        8,
        f"index estimators within 25% on 50 omega(1)-slack instances "
        f"(worst {worst:.3f})",
        ok,
    )


def test_criterion_9_gupta_kumar_degenerate():
    points = []
    for nu in (3, 4, 5, 6):
        n = 4 ** nu
        pop = zipf(n, 0.5)  # M = KN with K = 1
        prof = solve_cd(n, 1.0, pop)
        c = float(np.sum((prof.densities ** -0.5 - 1.0) * pop.probs))
        points.append((math.sqrt(n), c))
    xs = np.log([p[0] for p in points])
    ys = np.log([p[1] for p in points])
    slope = float(np.polyfit(xs, ys, 1)[0])
    _report(
        9,
        f"zero-slack instance recovers C = Theta(sqrt(N)) (slope {slope:.3f})",
        abs(slope - 1.0) <= 0.15,
    )
