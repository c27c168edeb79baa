import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from replicagrid import delivery
from replicagrid.delivery import (
    avg_link,
    cluster_hop_sum,
    link_loads,
    per_file_link_bound,
    per_file_link_loads,
    rhombus_lower_hop_sum,
    to_csv,
    total_hop_load,
    worst_link,
)
from replicagrid.density import a_coeff, canonical_truncate, lower_bound, solve_cd
from replicagrid.errors import InvalidInputError
from replicagrid.grid import GridSpec, enumerate_links, signed_axis_delta
from replicagrid.oracle import route_walk_loads, serve_map
from replicagrid.placement import CachePlacement, canonical_place
from replicagrid.popularity import Popularity, zipf


def _single_replica(grid, at=(0, 0)):
    buffers = tuple(
        frozenset([0]) if node == at else frozenset() for node in grid.nodes()
    )
    return CachePlacement(grid=grid, capacity=1, file_count=1, buffers=buffers)


def _random_placement(rng, grid, m, capacity):
    """Arbitrary (usually non-canonical) covering placement."""
    n = grid.node_count
    buffers = [set() for _ in range(n)]
    for f in range(m):
        holders = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
        for w in holders:
            buffers[w].add(f)
    return CachePlacement(
        grid=grid, capacity=capacity, file_count=m,
        buffers=tuple(frozenset(b) for b in buffers),
    )


def _canonical(grid, capacity, pop):
    prof = solve_cd(grid.node_count, float(capacity), pop)
    return canonical_place(grid, canonical_truncate(prof), pop, capacity)


def test_single_replica_totals():
    grid = GridSpec(nu=1)
    placed = _single_replica(grid)
    pop = Popularity(np.array([1.0]))
    loads = link_loads(grid, placed, pop)
    assert math.isclose(float(loads.loads.sum()), 4.0, rel_tol=1e-12)
    assert math.isclose(avg_link(loads), 0.5, rel_tol=1e-12)
    assert math.isclose(total_hop_load(grid, placed, pop), 4.0, rel_tol=1e-12)


def test_all_local_means_zero_load():
    grid = GridSpec(nu=2)
    buffers = tuple(frozenset({0, 1}) for _ in grid.nodes())
    placed = CachePlacement(grid=grid, capacity=2, file_count=2, buffers=buffers)
    loads = link_loads(grid, placed, zipf(2, 1.0))
    assert np.all(loads.loads == 0.0)
    assert worst_link(loads) == 0.0 and avg_link(loads) == 0.0


def test_serve_map_basics():
    grid = GridSpec(nu=2)
    placed = _single_replica(grid, at=(1, 2))
    sm = serve_map(grid, placed, 0)
    assert all(server == (1, 2) for server, _ in sm.values())
    server, routes = sm[(1, 2)]
    assert routes.routes[0][1] == ((1, 2),)
    with pytest.raises(InvalidInputError):
        serve_map(grid, placed, 1)


@pytest.mark.parametrize(
    "replicas, expect",
    [
        # Equidistant replicas: north before south, then west before east,
        # and a same-row replica before a southern one.
        ([(0, 0), (2, 0)], {(1, 0): (0, 0), (3, 0): (2, 0)}),
        ([(0, 0), (0, 2)], {(0, 1): (0, 0), (0, 3): (0, 2)}),
        ([(0, 1), (1, 0)], {(1, 1): (0, 1)}),
        ([(2, 1), (1, 0)], {(1, 1): (1, 0)}),
    ],
)
def test_serve_map_tie_order(replicas, expect):
    grid = GridSpec(nu=2)
    buffers = tuple(frozenset([0]) if node in replicas else frozenset() for node in grid.nodes())
    placed = CachePlacement(grid=grid, capacity=1, file_count=1, buffers=buffers)
    sm = serve_map(grid, placed, 0)
    assert {node: sm[node][0] for node in expect} == expect


def test_serve_map_cluster_radius():
    # A level-k file is never more than 2^k hops from a replica (at most
    # 2^(k-1) per axis under the tie rule); level 1 gives distances {0,1,1,2}.
    grid = GridSpec(nu=2)
    pop = zipf(4, 1.0)
    placed = _canonical(grid, 1, pop)
    for m in range(4):
        level = round(math.log(grid.node_count / len(placed.replica_nodes(m)), 4))
        sm = serve_map(grid, placed, m)
        for node, (server, routes) in sm.items():
            hops = len(routes.routes[0][1]) - 1
            assert hops <= 2 ** level


def test_load_identity_random_placements():
    rng = np.random.default_rng(17)
    for _ in range(25):
        nu = int(rng.integers(1, 4))
        grid = GridSpec(nu=nu)
        m = int(rng.integers(1, 9))
        placed = _random_placement(rng, grid, m, capacity=m)
        raw = np.sort(rng.uniform(0.05, 1.0, m))[::-1]
        pop = Popularity(raw / raw.sum())
        loads = link_loads(grid, placed, pop)
        assert np.all(loads.loads >= 0.0)
        total = float(loads.loads.sum())
        expect = total_hop_load(grid, placed, pop)
        assert abs(total - expect) <= 1e-9 * max(expect, 1.0)
        assert worst_link(loads) >= avg_link(loads)


def test_lemma3_lower_bound_any_placement():
    rng = np.random.default_rng(23)
    for _ in range(15):
        nu = int(rng.integers(1, 4))
        grid = GridSpec(nu=nu)
        m = int(rng.integers(1, 7))
        placed = _random_placement(rng, grid, m, capacity=m)
        pop = zipf(m, float(rng.uniform(0.0, 2.0)))
        loads = link_loads(grid, placed, pop)
        assert avg_link(loads) >= lower_bound(placed.measured_densities(), pop) - 1e-12


def test_theorem9_chain_for_canonical_placements():
    rng = np.random.default_rng(31)
    for _ in range(15):
        nu = int(rng.integers(1, 4))
        grid = GridSpec(nu=nu)
        cap = int(rng.integers(1, 4))
        m = int(rng.integers(1, min(12, cap * grid.node_count) + 1))
        pop = zipf(m, float(rng.uniform(0.2, 1.8)))
        placed = _canonical(grid, cap, pop)
        canon = canonical_truncate(solve_cd(grid.node_count, float(cap), pop))
        avg = avg_link(link_loads(grid, placed, pop))
        cap9 = 0.25 + 0.75 * math.sqrt(2.0) * lower_bound(canon.densities, pop)
        assert avg <= cap9 + 1e-9


def test_theorem10_chain_for_canonical_placements():
    rng = np.random.default_rng(37)
    for _ in range(10):
        nu = int(rng.integers(1, 4))
        grid = GridSpec(nu=nu)
        cap = int(rng.integers(1, 3))
        m = int(rng.integers(1, min(10, cap * grid.node_count) + 1))
        pop = zipf(m, float(rng.uniform(0.2, 1.5)))
        placed = _canonical(grid, cap, pop)
        loads = link_loads(grid, placed, pop)
        a00 = a_coeff(0, 0, float(cap), grid.node_count, pop)
        bound = 2.5 + a00 + (1.5 * math.sqrt(2.0) + 2.0) * avg_link(loads)
        assert worst_link(loads) <= bound + 1e-9


def test_per_file_loads_sum_to_total():
    grid = GridSpec(nu=2)
    pop = zipf(5, 1.0)
    placed = _canonical(grid, 1, pop)
    total = link_loads(grid, placed, pop).loads
    acc = np.zeros_like(total)
    for m in range(5):
        acc += per_file_link_loads(grid, placed, m, float(pop.probs[m]))
    assert np.allclose(acc, total, atol=1e-12)


def test_per_file_pattern_is_periodic():
    grid = GridSpec(nu=3)
    pop = zipf(3, 1.0)
    placed = _canonical(grid, 1, pop)
    for m in range(3):
        reps = placed.replica_nodes(m)
        period = round(math.sqrt(grid.node_count / len(reps)))
        loads = per_file_link_loads(grid, placed, m, 1.0)
        side = grid.side
        by_link = {}
        for idx, link in enumerate(enumerate_links(grid)):
            (x, y) = link.origin
            by_link[(x, y, link.axis)] = loads[idx]
        for (x, y, axis), v in by_link.items():
            assert math.isclose(
                v, by_link[((x + period) % side, (y + period) % side, axis)],
                abs_tol=1e-12,
            )


def test_per_file_link_bounds_canonical():
    rng = np.random.default_rng(41)
    for _ in range(10):
        nu = int(rng.integers(1, 4))
        grid = GridSpec(nu=nu)
        cap = int(rng.integers(1, 3))
        m = int(rng.integers(1, min(8, cap * grid.node_count) + 1))
        pop = zipf(m, float(rng.uniform(0.3, 1.5)))
        placed = _canonical(grid, cap, pop)
        for f in range(m):
            assert per_file_link_bound(grid, placed, f, float(pop.probs[f]))


def test_level0_files_generate_no_load():
    grid = GridSpec(nu=2)
    pop = zipf(2, 1.0)
    placed = _canonical(grid, 2, pop)  # K=2, M=2: everything everywhere
    for f in range(2):
        assert np.all(per_file_link_loads(grid, placed, f, 1.0) == 0.0)
        assert per_file_link_bound(grid, placed, f, 1.0)


def test_cluster_hop_sum_values():
    assert cluster_hop_sum(0) == 0
    assert cluster_hop_sum(1) == 4
    assert cluster_hop_sum(2) == 32
    assert cluster_hop_sum(3) == 256
    with pytest.raises(InvalidInputError):
        cluster_hop_sum(-1)


def test_rhombus_lower_hop_sum():
    assert rhombus_lower_hop_sum(1) == 0.0
    # 25 nodes form a full rhombus of radius 3: bound 2*3*4*7/3 = 56.
    assert math.isclose(rhombus_lower_hop_sum(25), 56.0, rel_tol=1e-12)
    rho = 0.5 * (-1.0 + math.sqrt(2 * 30 - 1))
    expect = 2.0 * rho * (rho + 1.0) * (2.0 * rho + 1.0) / 3.0
    assert math.isclose(rhombus_lower_hop_sum(30), expect, rel_tol=1e-12)
    assert rhombus_lower_hop_sum(30) > rhombus_lower_hop_sum(25)
    with pytest.raises(InvalidInputError):
        rhombus_lower_hop_sum(0.5)


def test_rhombus_bound_below_cluster_sum():
    # The rhombus bound is a lower bound for the square-cluster hop sum.
    for level in (1, 2, 3):
        q = 4 ** level
        assert rhombus_lower_hop_sum(q) <= cluster_hop_sum(level) + 1e-9


def test_nu0_grid_rejected():
    grid = GridSpec(nu=0)
    placed = CachePlacement(
        grid=grid, capacity=1, file_count=1, buffers=(frozenset([0]),)
    )
    with pytest.raises(InvalidInputError):
        link_loads(grid, placed, Popularity(np.array([1.0])))


def test_csv_export():
    grid = GridSpec(nu=1)
    placed = _single_replica(grid)
    loads = link_loads(grid, placed, Popularity(np.array([1.0])))
    text = to_csv(loads)
    lines = text.strip().splitlines()
    assert lines[0] == "link_index,origin_x,origin_y,axis,load"
    assert len(lines) == 1 + 8 + 2
    assert lines[-2].startswith("summary,,,worst,")
    assert lines[-1].startswith("summary,,,avg,")


def _placement_from_holders(grid, holders):
    """Placement where file f is held at the node indices in holders[f]."""
    m = len(holders)
    buffers = tuple(
        frozenset(f for f in range(m) if idx in holders[f]) for idx in range(grid.node_count)
    )
    return CachePlacement(grid=grid, capacity=m, file_count=m, buffers=buffers)


def _decreasing_popularity(draw, m):
    raw = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=m, max_size=m)))
    return Popularity(np.sort(raw / raw.sum())[::-1])


def _assert_matches_walker(grid, placed, pop):
    """The load kernel equals the per-hop route walk, file by file and summed."""
    total = np.zeros(2 * grid.node_count)
    for m in range(placed.file_count):
        p_m = float(pop.probs[m])
        expect = route_walk_loads(grid, placed, m, p_m)
        assert np.abs(per_file_link_loads(grid, placed, m, p_m) - expect).max() <= 1e-12
        total += expect
    assert np.abs(link_loads(grid, placed, pop).loads - total).max() <= 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.data())
def test_kernel_matches_walker_random_placements(nu, data):
    grid = GridSpec(nu=nu)
    n = grid.node_count
    m = data.draw(st.integers(1, 4))
    holders = []
    for _ in range(m):
        count = data.draw(st.integers(1, n))
        holders.append(set(data.draw(st.permutations(range(n)))[:count]))
    pop = _decreasing_popularity(data.draw, m)
    _assert_matches_walker(grid, _placement_from_holders(grid, holders), pop)


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 4), st.integers(1, 3), st.data())
def test_kernel_matches_walker_files_everywhere(nu, m, data):
    grid = GridSpec(nu=nu)
    placed = _placement_from_holders(grid, [set(range(grid.node_count))] * m)
    pop = _decreasing_popularity(data.draw, m)
    _assert_matches_walker(grid, placed, pop)
    assert np.all(link_loads(grid, placed, pop).loads == 0.0)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 4), st.data())
def test_kernel_matches_walker_single_replica(nu, data):
    grid = GridSpec(nu=nu)
    at = data.draw(st.integers(0, grid.node_count - 1))
    _assert_matches_walker(grid, _placement_from_holders(grid, [{at}]), Popularity(np.array([1.0])))


@pytest.mark.parametrize(
    "holders", [set(c) for r in range(1, 5) for c in itertools.combinations(range(4), r)]
)
def test_kernel_matches_walker_side2(holders):
    # On the side-2 grid east and west (north and south) neighbours coincide,
    # but the two parallel links between them are distinct.
    grid = GridSpec(nu=1)
    _assert_matches_walker(grid, _placement_from_holders(grid, [holders]), Popularity(np.array([1.0])))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.data())
def test_kernel_matches_walker_half_side_offsets(nu, data):
    # Replicas side/2 apart put clients midway, where the north/west tie
    # rule picks both the serving replica and the route direction.
    grid = GridSpec(nu=nu)
    side, half = grid.side, grid.side // 2
    bx, by = data.draw(st.integers(0, side - 1)), data.draw(st.integers(0, side - 1))
    offsets = [(0, 0), (half, 0), (0, half), (half, half)]
    holders = []
    for _ in range(data.draw(st.integers(1, 3))):
        chosen = data.draw(st.sets(st.sampled_from(offsets), min_size=1))
        holders.append({((bx + ox) % side) * side + (by + oy) % side for ox, oy in chosen})
    pop = _decreasing_popularity(data.draw, len(holders))
    _assert_matches_walker(grid, _placement_from_holders(grid, holders), pop)


@pytest.mark.parametrize(
    "nu, w_count, pairs",
    # Blocks are pairs // (side * W) whole rows, or column chunks of one row
    # max(1, pairs // W) nodes wide when side * W > pairs: one node per block
    # (rows 1, 2 and 10), chunks ragged at the row end (4 % 3, 16 % 15, 8 % 7,
    # 16 % 15, 32 % 31), one row (row 4, and exactly side * W in row 11), two
    # rows, and three rows ragged at the grid end (16 % 3, row 12).
    [(1, 1, 1), (2, 16, 4), (2, 2, 7), (3, 5, 64), (4, 3, 100), (4, 64, 1000),
     (3, 5, 39), (4, 3, 47), (5, 100, 3199), (5, 1024, 500), (3, 5, 40), (4, 3, 144)],
)
def test_nearest_replica_blocks_match_default(monkeypatch, nu, w_count, pairs):
    grid = GridSpec(nu=nu)
    rng = np.random.default_rng(nu * 1000 + w_count)
    idx = rng.choice(grid.node_count, size=w_count, replace=False)
    reps = np.stack([idx // grid.side, idx % grid.side], axis=1).astype(np.int64)
    choice, dist = delivery._nearest_replica(grid, reps)
    monkeypatch.setattr(delivery, "_BLOCK_PAIRS", pairs)
    small_choice, small_dist = delivery._nearest_replica(grid, reps)
    assert np.array_equal(small_choice, choice)
    assert np.array_equal(small_dist, dist)


_REFERENCE_BLOCK_PAIRS = 2**20


def _reference_nearest_replica(grid, reps):
    """The original N x W nearest-replica scan, kept as a reference."""
    side = grid.side
    n = grid.node_count
    block = max(1, _REFERENCE_BLOCK_PAIRS // reps.shape[0])
    choice = np.empty(n, dtype=np.int64)
    dist = np.empty(n, dtype=np.int64)
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        nodes = np.arange(lo, hi, dtype=np.int64)
        dx = signed_axis_delta(side, nodes[:, None] // side, reps[None, :, 0])
        dy = signed_axis_delta(side, nodes[:, None] % side, reps[None, :, 1])
        d = np.abs(dx) + np.abs(dy)
        key = ((d * 3 + np.sign(dx) + 1) * 3 + np.sign(dy) + 1) * (side * side)
        key += reps[None, :, 0] * side + reps[None, :, 1]
        c = np.argmin(key, axis=1)
        choice[lo:hi] = c
        dist[lo:hi] = d[np.arange(hi - lo), c]
    return choice, dist


def _block_pairs(draw, side, w_count):
    """A _BLOCK_PAIRS value giving the drawn block shape for side x side nodes
    and W replicas: the default, a column chunk of one row (one node when
    W exceeds it), exactly one row, or several rows (ragged when side % rows)."""
    row = side * w_count
    shape = draw(st.sampled_from(["default", "chunk", "row", "rows"]))
    if shape == "chunk" and row > 1:
        return draw(st.integers(1, row - 1))
    if shape == "row":
        return row
    if shape == "rows":
        return row * draw(st.integers(2, side + 1)) + draw(st.integers(0, row - 1))
    return delivery._BLOCK_PAIRS


def _assert_nearest_matches_reference(grid, reps, pairs):
    expect_choice, expect_dist = _reference_nearest_replica(grid, reps)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(delivery, "_BLOCK_PAIRS", pairs)
        choice, dist = delivery._nearest_replica(grid, reps)
    assert choice.dtype == dist.dtype == np.int64
    assert np.array_equal(choice, expect_choice)
    assert np.array_equal(dist, expect_dist)


def _coords(grid, indices):
    idx = np.sort(np.asarray(list(indices), dtype=np.int64))
    return np.stack([idx // grid.side, idx % grid.side], axis=1)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 5), st.data())
def test_nearest_replica_matches_reference_scan(nu, data):
    grid = GridSpec(nu=nu)
    n = grid.node_count
    w_count = data.draw(st.integers(1, n))
    seed = data.draw(st.integers(0, 2**32 - 1))
    reps = _coords(grid, np.random.default_rng(seed).choice(n, size=w_count, replace=False))
    _assert_nearest_matches_reference(grid, reps, _block_pairs(data.draw, grid.side, w_count))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.data())
def test_nearest_replica_matches_reference_half_side_offsets(nu, data):
    # Clients midway between replicas side/2 apart are served under the
    # north/west tie rule.
    grid = GridSpec(nu=nu)
    side, half = grid.side, grid.side // 2
    bx, by = data.draw(st.integers(0, side - 1)), data.draw(st.integers(0, side - 1))
    corners = [(0, 0), (half, 0), (0, half), (half, half)]
    offsets = data.draw(st.sets(st.sampled_from(corners), min_size=1))
    reps = _coords(grid, {((bx + ox) % side) * side + (by + oy) % side for ox, oy in offsets})
    _assert_nearest_matches_reference(grid, reps, _block_pairs(data.draw, side, reps.shape[0]))


def _assert_table_matches_replica_nodes(placed):
    files = range(placed.file_count)
    for m, reps in zip(files, delivery._replica_coords(placed, files)):
        assert reps.dtype == np.int64 and reps.shape == (len(placed.replica_nodes(m)), 2)
        assert [tuple(r) for r in reps.tolist()] == placed.replica_nodes(m)


@pytest.mark.parametrize("nu", [1, 2, 3, 4])
@pytest.mark.parametrize("cap, tau", [(1, 0.8), (2, 0.0), (3, 2.0)])
def test_replica_table_matches_replica_nodes_canonical(nu, cap, tau):
    grid = GridSpec(nu=nu)
    m = min(2 * grid.node_count, cap * grid.node_count)
    _assert_table_matches_replica_nodes(_canonical(grid, cap, zipf(m, tau)))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.data())
def test_replica_table_matches_replica_nodes_random(nu, data):
    # Holders drawn from half the nodes at most, so some buffers stay empty.
    grid = GridSpec(nu=nu)
    n = grid.node_count
    holders = [
        set(data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=max(1, n // 2))))
        for _ in range(data.draw(st.integers(1, 6)))
    ]
    _assert_table_matches_replica_nodes(_placement_from_holders(grid, holders))


def _with_uncached_file(grid, uncached, m=3):
    holders = [{0, grid.node_count - 1} for _ in range(m)]
    holders[uncached] = set()
    return _placement_from_holders(grid, holders)


@pytest.mark.parametrize("uncached", [0, 1, 2])
def test_uncached_file_is_named(uncached):
    grid = GridSpec(nu=2)
    placed = _with_uncached_file(grid, uncached)
    pop = zipf(3, 1.0)
    message = f"file {uncached} is cached nowhere"
    with pytest.raises(InvalidInputError, match=message):
        link_loads(grid, placed, pop)
    with pytest.raises(InvalidInputError, match=message):
        total_hop_load(grid, placed, pop)
    with pytest.raises(InvalidInputError, match=message):
        per_file_link_loads(grid, placed, uncached)
    for m in {0, 1, 2} - {uncached}:
        assert np.array_equal(
            per_file_link_loads(grid, placed, m), route_walk_loads(grid, placed, m)
        )


@pytest.mark.parametrize("m", [-1, 3])
def test_file_outside_catalog_rejected(m):
    grid = GridSpec(nu=2)
    placed = _with_uncached_file(grid, 0)
    with pytest.raises(InvalidInputError, match=f"file id {m} outside 0..2"):
        per_file_link_loads(grid, placed, m)


@pytest.mark.parametrize("nu", [1, 2, 3])
def test_csv_rows_follow_enumerate_links(nu):
    grid = GridSpec(nu=nu)
    placed = _single_replica(grid, at=(1, 0))
    loads = link_loads(grid, placed, Popularity(np.array([1.0])))
    rows = to_csv(loads).splitlines()[1:-2]
    assert rows == [
        f"{idx},{link.origin[0]},{link.origin[1]},{link.axis},{loads.loads[idx]:.12g}"
        for idx, link in enumerate(enumerate_links(grid))
    ]
