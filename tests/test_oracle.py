import math

import numpy as np
import pytest

from replicagrid.delivery import avg_link, link_loads
from replicagrid.density import canonical_truncate, cd_cost, lower_bound, solve_cd
from replicagrid.errors import InfeasibleError, InvalidInputError
from replicagrid.grid import GridSpec
from replicagrid.oracle import (
    _distance_matrix,
    _milp_an,
    brute_force_an,
    brute_force_cd,
)
from replicagrid.placement import canonical_place
from replicagrid.popularity import Popularity, zipf
from route_walker import enumerate_cluster
from test_delivery import _reference_link_bound


def test_an_single_file_everywhere():
    res = brute_force_an(GridSpec(nu=1), 1, Popularity(np.array([1.0])))
    assert res.best_avg_load == 0.0


def test_an_bijection_instance():
    # N=4, M=4, K=1: every covering placement is a bijection, and each file
    # contributes hop sum 4, so the optimum is 0.5 for any popularity.
    res = brute_force_an(GridSpec(nu=1), 1, zipf(4, 1.0))
    assert math.isclose(res.best_avg_load, 0.5, rel_tol=1e-12)
    assert res.instances_examined == 24


def test_an_skewed_popularity_prefers_popular_file():
    res = brute_force_an(GridSpec(nu=1), 1, Popularity(np.array([0.9, 0.1])))
    densities = res.best_placement.measured_densities()
    assert densities[0] >= 0.75  # popular file in at least 3 of 4 nodes
    assert densities[0] > densities[1]


def test_an_refuses_large_instances():
    with pytest.raises(InvalidInputError):
        brute_force_an(GridSpec(nu=3), 1, zipf(2, 1.0))
    with pytest.raises(InvalidInputError):
        brute_force_an(GridSpec(nu=1), 2, zipf(5, 1.0))
    with pytest.raises(InvalidInputError):
        brute_force_an(GridSpec(nu=1), 0, zipf(2, 1.0))


def test_milp_agrees_with_enumeration():
    for pop in (zipf(3, 1.0), Popularity(np.array([0.5, 0.3, 0.2]))):
        grid = GridSpec(nu=1)
        enum = brute_force_an(grid, 1, pop)
        exact = _milp_an(grid, 1, pop, _distance_matrix(grid))
        assert math.isclose(enum.best_avg_load, exact.best_avg_load, abs_tol=1e-9)


def test_an_result_respects_lemma3():
    res = brute_force_an(GridSpec(nu=1), 1, zipf(3, 0.8))
    bound = lower_bound(res.best_placement.measured_densities(), zipf(3, 0.8))
    assert res.best_avg_load >= bound - 1e-12


def test_theorem9_order_bound_vs_true_optimum():
    for pop, cap in ((zipf(3, 1.0), 1), (Popularity(np.array([0.9, 0.1])), 1), (zipf(4, 0.5), 2)):
        grid = GridSpec(nu=1)
        oracle = brute_force_an(grid, cap, pop)
        prof = solve_cd(grid.node_count, float(cap), pop)
        placed = canonical_place(grid, canonical_truncate(prof), pop, cap)
        avg = avg_link(link_loads(grid, placed, pop))
        assert avg <= 0.5 + 1.5 * math.sqrt(2.0) * oracle.best_avg_load + 1e-9


def test_cd_grid_search_matches_solver():
    pop = Popularity(np.array([0.7, 0.2, 0.1]))
    best = brute_force_cd(4, 1.0, pop, 0.01)
    exact = cd_cost(solve_cd(4, 1.0, pop), pop)
    assert abs(best - exact) <= 1e-2
    assert exact <= best + 1e-12


def test_cd_single_file():
    # M=1, K>=1: d=1 is feasible and optimal with zero cost.
    assert brute_force_cd(4, 1.0, Popularity(np.array([1.0])), 1e-3) == 0.0


def test_cd_uniform_popularity_is_symmetric():
    pop = zipf(2, 0.0)
    best = brute_force_cd(16, 1.0, pop, 1e-3)
    exact = cd_cost(solve_cd(16, 1.0, pop), pop)
    assert abs(best - exact) <= 1e-2


def test_cd_refusals():
    with pytest.raises(InvalidInputError):
        brute_force_cd(4, 1.0, zipf(5, 1.0), 0.01)
    with pytest.raises(InvalidInputError):
        brute_force_cd(4, 1.0, zipf(2, 1.0), 1e-4)
    with pytest.raises(InfeasibleError):
        brute_force_cd(4, 0.5, zipf(3, 1.0), 0.01)


def test_enumerate_cluster_hop_sums():
    for level in (1, 2, 3):
        hop_sum, loads = enumerate_cluster(level)
        assert hop_sum == 2 ** (3 * level - 1)
        assert loads.shape == (2 * 4 ** level,)
        assert np.all(loads >= 0.0)
    with pytest.raises(InvalidInputError):
        enumerate_cluster(0)


def test_enumerate_cluster_satisfies_link_bounds():
    from replicagrid.placement import CachePlacement

    for level in (1, 2, 3):
        grid = GridSpec(nu=level)
        buffers = tuple(
            frozenset([0]) if node == (0, 0) else frozenset()
            for node in grid.nodes()
        )
        placed = CachePlacement(grid=grid, capacity=1, file_count=1, buffers=buffers)
        assert _reference_link_bound(grid, placed, 0, 1.0)
