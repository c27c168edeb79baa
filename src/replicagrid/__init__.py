"""Optimal content replication and delivery on a toroidal grid.

Solves the continuous replication-density problem exactly, truncates the
densities to powers of 1/4, tiles the resulting replicas onto a square
torus, simulates nearest-replica shortest-path delivery, and checks the
closed-form scaling laws.  The brute-force baselines for the placement
and density optima live in `replicagrid.oracle`, imported on its own.
"""

from .asymptotics import (
    RegimeReport,
    SweepResult,
    classify_regime,
    sweep,
)
from .delivery import (
    LinkLoadMap,
    avg_link,
    cluster_hop_sum,
    link_loads,
    total_hop_load,
    worst_link,
)
from .density import (
    CanonicalProfile,
    DensityProfile,
    canonical_truncate,
    cd_cost,
    lower_bound,
    solve_cd,
)
from .errors import InfeasibleError, InternalInvariantError, InvalidInputError
from .grid import GridSpec, hop_distance
from .placement import (
    CachePlacement,
    canonical_place,
    render_matrix,
    validate_capacity,
)
from .popularity import Popularity, load_popularity, zipf

__all__ = [
    "RegimeReport",
    "SweepResult",
    "classify_regime",
    "sweep",
    "LinkLoadMap",
    "avg_link",
    "cluster_hop_sum",
    "link_loads",
    "total_hop_load",
    "worst_link",
    "CanonicalProfile",
    "DensityProfile",
    "canonical_truncate",
    "cd_cost",
    "lower_bound",
    "solve_cd",
    "InfeasibleError",
    "InternalInvariantError",
    "InvalidInputError",
    "GridSpec",
    "hop_distance",
    "CachePlacement",
    "canonical_place",
    "render_matrix",
    "validate_capacity",
    "Popularity",
    "load_popularity",
    "zipf",
]

__version__ = "0.1.0"
