"""Closed forms and one-file loads that only tests read.

kkt_residuals and a_coeff check a solved density profile and the worst-link
bound, rhombus_lower_hop_sum bounds a cluster's hop sum, and file_loads
gives the link loads of one file alone through the package's own kernel.
"""

from __future__ import annotations

import math

import numpy as np

from replicagrid.delivery import link_loads
from replicagrid.density import DensityProfile
from replicagrid.errors import InvalidInputError
from replicagrid.grid import GridSpec
from replicagrid.placement import CachePlacement
from replicagrid.popularity import Popularity


def kkt_residuals(profile: DensityProfile, pop: Popularity) -> tuple[float, float, float]:
    """Stationarity and dual-feasibility residuals of a profile.

    Returns (max relative interior residual, min slack of the up-truncated
    marginals over mu, min slack of mu over the down-truncated marginals).
    Slacks are >= 0 (up to rounding) at an optimum.
    """
    d = profile.densities
    p = pop.probs
    mu = profile.mu
    l, r = profile.l_index, profile.r_index
    marginal = 0.5 * p * d ** -1.5
    interior = marginal[l - 1 : r - 1]
    interior_res = (
        float(np.max(np.abs(interior - mu)) / max(mu, 1e-300)) if interior.size else 0.0
    )
    up_slack = float(np.min(marginal[: l - 1] - mu)) if l > 1 else 0.0
    down_slack = float(np.min(mu - marginal[r - 1 :])) if r <= p.size else 0.0
    return interior_res, up_slack, down_slack


def a_coeff(i: int, j: int, capacity: float, n_nodes: int, pop: Popularity) -> float:
    """Popularity-mass coefficient of the worst-link additive bound.

    Equals (sum of p_k^(2/3) for k = i+1..M-j) / (K - i - j/N), and 1 when
    the denominator is exactly zero.
    """
    m_count = pop.m_count
    if not (0 <= i <= m_count and 0 <= j <= m_count):
        raise InvalidInputError("i, j must lie in 0..M")
    denom = capacity - i - j / n_nodes
    if denom < -1e-12:
        raise InvalidInputError(f"negative denominator K - i - j/N = {denom}")
    if abs(denom) <= 1e-12:
        return 1.0
    q = pop.probs[i : m_count - j] ** (2.0 / 3.0)
    return float(q.sum()) / denom


def rhombus_lower_hop_sum(cluster_size: float) -> float:
    """Hop-sum lower bound for a cluster of Q nodes around one replica.

    Uses the rhombus radius rho = (-1 + sqrt(2Q - 1)) / 2 and the exact
    ring-sum 2 rho (rho + 1) (2 rho + 1) / 3.
    """
    q = float(cluster_size)
    if q < 1:
        raise InvalidInputError(f"cluster size must be >= 1, got {cluster_size}")
    rho = 0.5 * (-1.0 + math.sqrt(2.0 * q - 1.0))
    return 2.0 * rho * (rho + 1.0) * (2.0 * rho + 1.0) / 3.0


def file_loads(grid: GridSpec, placement: CachePlacement, m: int, p_m: float = 1.0) -> np.ndarray:
    """Link loads of file m alone at popularity weight p_m: link_loads of a
    one-file placement, given by buffers, of m's holders, times p_m.

    link_loads adds (p_m / 2) c to the loads for half-route counts c, and
    (0.5 c) p_m is the same float, so these loads summed in file order are
    link_loads of the whole placement bit for bit.
    """
    buffers = [frozenset()] * grid.node_count
    for x, y in placement.replica_nodes(m):
        buffers[x * grid.side + y] = frozenset([0])
    alone = CachePlacement(grid=grid, capacity=1, file_count=1, buffers=buffers)
    return link_loads(grid, alone, Popularity(np.array([1.0]))).loads * p_m
