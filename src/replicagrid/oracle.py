"""Independent ground-truth baselines on tiny instances.

These deliberately avoid the engine's closed forms: the placement optimum
is found by exhaustive enumeration (or an exact integer program when the
enumeration space is too large) and the density optimum by plain grid
search.  The per-hop route walker that checks delivery is a test reference
and lives in `tests/route_walker.py`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .density import COST_FACTOR
from .errors import InfeasibleError, InternalInvariantError, InvalidInputError
from .grid import GridSpec, hop_distance
from .placement import CachePlacement
from .popularity import Popularity

MAX_ORACLE_NU = 2  # N <= 16 nodes
MAX_ORACLE_FILES = 4
_MAX_ENUM_STATES = 300_000
_MAX_GRID_POINTS = 40_000_000


@dataclass(frozen=True)
class OracleResult:
    """Optimum found by brute force.

    instances_examined counts explicitly scored placements; it is 0 when
    the exact integer-programming path was taken instead of enumeration.
    """

    best_avg_load: float
    best_placement: CachePlacement
    instances_examined: int


def _distance_matrix(grid: GridSpec) -> np.ndarray:
    nodes = list(grid.nodes())
    n = len(nodes)
    d = np.zeros((n, n), dtype=np.int64)
    for i, a in enumerate(nodes):
        for j, b in enumerate(nodes):
            d[i, j] = hop_distance(grid, a, b)
    return d


def _check_an_instance(grid: GridSpec, capacity: int, pop: Popularity) -> None:
    if grid.nu > MAX_ORACLE_NU:
        raise InvalidInputError(f"oracle limited to nu <= {MAX_ORACLE_NU}, got nu = {grid.nu}")
    if pop.m_count > MAX_ORACLE_FILES:
        raise InvalidInputError(
            f"oracle limited to M <= {MAX_ORACLE_FILES}, got M = {pop.m_count}"
        )
    if not isinstance(capacity, int) or capacity < 1:
        raise InvalidInputError(f"capacity must be a positive integer, got {capacity!r}")
    if capacity * grid.node_count < pop.m_count:
        raise InfeasibleError(
            f"infeasible: KN < M ({capacity}*{grid.node_count} < {pop.m_count})"
        )


def _enumerate_an(
    grid: GridSpec, capacity: int, pop: Popularity, dist: np.ndarray
) -> OracleResult:
    n = grid.node_count
    m_count = pop.m_count
    p = pop.probs
    size = min(capacity, m_count)
    choices = list(itertools.combinations(range(m_count), size))
    best = None
    best_buffers = None
    examined = 0
    all_files = frozenset(range(m_count))
    for combo in itertools.product(range(len(choices)), repeat=n):
        covered = frozenset(itertools.chain.from_iterable(choices[c] for c in combo))
        if covered != all_files:
            continue
        examined += 1
        total = 0.0
        for m in range(m_count):
            holders = [w for w, c in enumerate(combo) if m in choices[c]]
            total += p[m] * dist[:, holders].min(axis=1).sum()
        avg = total / (2 * n)
        if best is None or avg < best:
            best = avg
            best_buffers = [choices[c] for c in combo]
    if best is None:
        raise InternalInvariantError("no coverage-feasible placement found")
    return OracleResult(
        best_avg_load=float(best),
        best_placement=CachePlacement(
            grid=grid,
            capacity=capacity,
            file_count=m_count,
            buffers=tuple(frozenset(b) for b in best_buffers),
        ),
        instances_examined=examined,
    )


def _milp_an(
    grid: GridSpec, capacity: int, pop: Popularity, dist: np.ndarray
) -> OracleResult:
    """Exact optimum via mixed-integer programming.

    Binary x[w, m]: node w caches file m.  Continuous y[n, m, w]: fraction
    of node n's demand for m served by w.  For fixed x the LP over y picks
    nearest replicas, so the model value equals the enumeration value.
    """
    # scipy is imported here, on first use, so the CLI starts without it.
    from scipy import sparse
    from scipy.optimize import Bounds, LinearConstraint, milp

    n = grid.node_count
    m_count = pop.m_count
    p = pop.probs
    nx = n * m_count  # x variables first, then y
    ny = n * m_count * n

    def xi(w, m):
        return w * m_count + m

    def yi(node, m, w):
        return nx + (node * m_count + m) * n + w

    c = np.zeros(nx + ny)
    for node in range(n):
        for m in range(m_count):
            for w in range(n):
                c[yi(node, m, w)] = p[m] * dist[node, w] / (2 * n)

    rows, cols, vals = [], [], []
    row = 0
    # Each (node, m) demand fully served.
    eq_lo, eq_hi = [], []
    for node in range(n):
        for m in range(m_count):
            for w in range(n):
                rows.append(row)
                cols.append(yi(node, m, w))
                vals.append(1.0)
            eq_lo.append(1.0)
            eq_hi.append(1.0)
            row += 1
    # y[n, m, w] <= x[w, m].
    for node in range(n):
        for m in range(m_count):
            for w in range(n):
                rows.extend([row, row])
                cols.extend([yi(node, m, w), xi(w, m)])
                vals.extend([1.0, -1.0])
                eq_lo.append(-np.inf)
                eq_hi.append(0.0)
                row += 1
    # Buffer capacity per node.
    for w in range(n):
        for m in range(m_count):
            rows.append(row)
            cols.append(xi(w, m))
            vals.append(1.0)
        eq_lo.append(-np.inf)
        eq_hi.append(float(capacity))
        row += 1

    a = sparse.csr_matrix((vals, (rows, cols)), shape=(row, nx + ny))
    constraint = LinearConstraint(a, np.array(eq_lo), np.array(eq_hi))
    integrality = np.concatenate([np.ones(nx), np.zeros(ny)])
    bounds = Bounds(np.zeros(nx + ny), np.ones(nx + ny))
    res = milp(c=c, constraints=constraint, integrality=integrality, bounds=bounds)
    if not res.success:
        raise InternalInvariantError(f"integer program failed: {res.message}")
    x = res.x[:nx].round().astype(int)
    buffers = [
        [m for m in range(m_count) if x[xi(w, m)] == 1] for w in range(n)
    ]
    return OracleResult(
        best_avg_load=float(res.fun),
        best_placement=CachePlacement(
            grid=grid,
            capacity=capacity,
            file_count=m_count,
            buffers=tuple(frozenset(b) for b in buffers),
        ),
        instances_examined=0,
    )


def brute_force_an(grid: GridSpec, capacity: int, pop: Popularity) -> OracleResult:
    """Minimum average link load over all placements (tiny instances only).

    Scores placements by the total-load identity: average load equals
    (1 / 2N) * sum over nodes and files of p_m times the hop distance to
    the nearest replica.
    """
    _check_an_instance(grid, capacity, pop)
    dist = _distance_matrix(grid)
    size = min(capacity, pop.m_count)
    states = math.comb(pop.m_count, size) ** grid.node_count
    if states <= _MAX_ENUM_STATES:
        return _enumerate_an(grid, capacity, pop, dist)
    return _milp_an(grid, capacity, pop, dist)


def brute_force_cd(
    n_nodes: int, capacity: float, pop: Popularity, resolution: float
) -> float:
    """Grid-search minimum of the density objective.

    Returns the minimum of (sqrt(2)/6) * sum (d^(-1/2) - 1) p over grid
    points d in [1/N, 1]^M with sum d <= K; at most one Lipschitz constant
    times the resolution above the true optimum.
    """
    if pop.m_count > MAX_ORACLE_FILES:
        raise InvalidInputError(
            f"oracle limited to M <= {MAX_ORACLE_FILES}, got M = {pop.m_count}"
        )
    if resolution < 1e-3:
        raise InvalidInputError(f"resolution must be >= 1e-3, got {resolution}")
    if capacity * n_nodes < pop.m_count:
        raise InfeasibleError("infeasible: KN < M")
    lo = 1.0 / n_nodes
    values = np.arange(lo, 1.0, resolution)
    values = np.concatenate([values, [1.0]])
    m_count = pop.m_count
    if float(len(values)) ** m_count > _MAX_GRID_POINTS:
        raise InvalidInputError(
            f"grid search would need {len(values)}^{m_count} points; "
            "refuse — coarsen the resolution"
        )
    shape = (len(values),) * m_count
    total = np.zeros(shape)
    obj = np.zeros(shape)
    costs = values ** -0.5 - 1.0
    for axis in range(m_count):
        view = [1] * m_count
        view[axis] = len(values)
        total += values.reshape(view)
        obj += pop.probs[axis] * costs.reshape(view)
    obj[total > capacity + 1e-12] = np.inf
    best = float(obj.min())
    if not math.isfinite(best):
        raise InternalInvariantError("no feasible grid point found")
    return COST_FACTOR * best
