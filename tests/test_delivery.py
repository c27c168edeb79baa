import gc
import hashlib
import io
import itertools
import math
import re
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from replicagrid import delivery, placement
from replicagrid.delivery import (
    avg_link,
    cluster_hop_sum,
    link_loads,
    to_csv,
    total_hop_load,
    worst_link,
)
from replicagrid.density import canonical_truncate, lower_bound, solve_cd
from replicagrid.errors import InvalidInputError
from replicagrid.grid import COLUMN, ROW, GridSpec
from replicagrid.placement import CachePlacement, canonical_place
from replicagrid.popularity import Popularity, zipf
from references import a_coeff, file_loads, rhombus_lower_hop_sum
from route_walker import link_index, route_walk_loads, serve_map, signed_axis_delta
from test_placement import _reference_rounds


def _links(grid):
    """(x, y, axis) of every link in index order, by a loop over the nodes:
    link 2i is the row link of row-major node i, 2i + 1 its column link."""
    side = grid.side
    return [(x, y, axis) for x in range(side) for y in range(side) for axis in (ROW, COLUMN)]


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
        acc += file_loads(grid, placed, m, float(pop.probs[m]))
    assert np.allclose(acc, total, atol=1e-12)


def test_file_loads_summed_in_file_order_are_link_loads():
    # Bit for bit where every file goes through the batched kernel: on a
    # placement given by buffers, each file at 1..N random nodes.
    grid = GridSpec(nu=5)
    placed = _random_placement(np.random.default_rng(7), grid, 16, capacity=16)
    pop = zipf(16, 0.8)
    summed = np.zeros(2 * grid.node_count)
    for m in range(16):
        summed += file_loads(grid, placed, m, float(pop.probs[m]))
    assert np.array_equal(summed, link_loads(grid, placed, pop).loads)


def test_per_file_pattern_is_periodic():
    grid = GridSpec(nu=3)
    pop = zipf(3, 1.0)
    placed = _canonical(grid, 1, pop)
    for m in range(3):
        reps = placed.replica_nodes(m)
        period = round(math.sqrt(grid.node_count / len(reps)))
        loads = file_loads(grid, placed, m, 1.0)
        side = grid.side
        by_link = {link: loads[idx] for idx, link in enumerate(_links(grid))}
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
            assert _reference_link_bound(grid, placed, f, float(pop.probs[f]))


def test_level0_files_generate_no_load():
    grid = GridSpec(nu=2)
    pop = zipf(2, 1.0)
    placed = _canonical(grid, 2, pop)  # K=2, M=2: everything everywhere
    for f in range(2):
        assert np.all(file_loads(grid, placed, f, 1.0) == 0.0)
        assert _reference_link_bound(grid, placed, f, 1.0)


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


def _csv(load_map):
    """The CSV that to_csv writes, as text."""
    fh = io.BytesIO()
    to_csv(load_map, fh)
    return fh.getvalue().decode("ascii")


def test_csv_export():
    grid = GridSpec(nu=1)
    placed = _single_replica(grid)
    loads = link_loads(grid, placed, Popularity(np.array([1.0])))
    text = _csv(loads)
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
        assert np.abs(file_loads(grid, placed, m, p_m) - expect).max() <= 1e-12
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


def _replica_coords(placed, m):
    """Replica coordinates of file m, row-major, from the replica table."""
    coords, offsets = placed._replicas
    return coords[offsets[m]:offsets[m + 1]]


def _block_keys(grid, placed):
    """Serving keys of every file, block by block under the module's block
    rule, stacked in file order."""
    coords, offsets = placed._replicas
    files = np.arange(placed.file_count)
    blocks = delivery._blocks(grid, files.size, delivery._BLOCK_NODE_FILES)
    return np.concatenate([delivery._serving_keys(grid, coords, offsets, files[b]) for b in blocks])


@pytest.mark.parametrize(
    "nu, w_count, budget",
    # A key block is max(1, budget // N) consecutive files of the seven
    # drawn, and its run counts go in sub-blocks of max(1, budget // 16N)
    # files.  One file per key block: every budget below 2N, among them a
    # budget of one node-file pair (1, 1, 1), exactly N (3, 5, 64), and files
    # at every node (5, 1024, 500).  Three files per key block, the last
    # block ragged: (4, 64, 1000) and (5, 100, 3199).  Two per key block:
    # (2, 16, 40).  All seven in one key block: (2, 2, 112) exactly, (3, 5,
    # 1000) with room left.  Below 32N every sub-block is one file.  All
    # seven in one key block split into sub-blocks of two (2, 16, 640) and
    # three (3, 5, 3200), the last sub-block ragged.
    [(1, 1, 1), (2, 16, 4), (2, 2, 7), (3, 5, 64), (4, 3, 100), (4, 64, 1000),
     (3, 5, 39), (4, 3, 47), (5, 100, 3199), (5, 1024, 500), (3, 5, 40), (4, 3, 144),
     (2, 16, 40), (2, 2, 112), (3, 5, 1000), (2, 16, 640), (3, 5, 3200)],
)
def test_nearest_replica_blocks_match_default(monkeypatch, nu, w_count, budget):
    grid = GridSpec(nu=nu)
    rng = np.random.default_rng(nu * 1000 + w_count)
    holders = [set(rng.choice(grid.node_count, size=w_count, replace=False).tolist()) for _ in range(7)]
    pop = zipf(7, 0.8)

    def run():
        # A fresh placement per call order, so that total_hop_load serves
        # its own blocks on one and reads what link_loads recorded on the
        # other.
        first, second = (_placement_from_holders(grid, holders) for _ in range(2))
        hops = total_hop_load(grid, first, pop)
        loads = link_loads(grid, second, pop).loads
        assert total_hop_load(grid, second, pop) == hops
        assert np.array_equal(link_loads(grid, first, pop).loads, loads)
        return _block_keys(grid, first), loads, hops

    default = run()
    monkeypatch.setattr(delivery, "_BLOCK_NODE_FILES", budget)
    small = run()
    assert np.array_equal(small[0], default[0]) and np.array_equal(small[1], default[1])
    assert small[2] == default[2]


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


def _reference_cyclic_minimum(value, step, tie):
    """For each position p of the leading axis, the least value[q] + step d
    + tie t over every q, by a loop in Python integers: d the cyclic
    distance from p to q, t = 0 for q before p (at d = side/2 too), 1 for
    q = p and 2 for q after p."""
    side = value.shape[0]
    rows = value.reshape(side, -1).tolist()
    out = []
    for p in range(side):
        terms = []
        for q in range(side):
            ahead = (q - p) % side
            d, t = (0, 1) if ahead == 0 else (ahead, 2) if 2 * ahead < side else (side - ahead, 0)
            terms.append([v + step * d + tie * t for v in rows[q]])
        out.append([min(column) for column in zip(*terms)])
    return np.array(out, dtype=np.int64).reshape(value.shape)


def _cyclic_minimum_bound(step, side, tie, dtype=np.int64):
    """The largest input value _cyclic_minimum is exact for in dtype: every
    intermediate is at most max value + 2 (step side + tie), which must
    stay inside dtype."""
    return int(np.iinfo(dtype).max) - 2 * (step * side + tie)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([1, 2, 4, 8, 16]),
    st.sampled_from([(1,), (7,), (3, 5)]),
    st.sampled_from(["small", "wide", "sentinel", "pairs"]),
    st.sampled_from([np.int32, np.int64]),
    st.data(),
)
def test_cyclic_minimum_matches_brute_force(side, width, cells, dtype, data):
    # Values 0..2 make distance and tie decide; "wide" values reach the
    # bound of the drawn dtype; "sentinel" cells sit at the largest value,
    # as cells without a replica do; "pairs" are mirror images about a
    # drawn centre c, so positions c and c + side/2 see equal values at
    # equal distances both ways, and the one cell side/2 away goes to the
    # before side.  An int32 step leaves the bound at least half of int32.
    step = data.draw(st.integers(1, 10**9 if dtype is np.int64 else 2**29 // side))
    tie = data.draw(st.integers(0, (step - 1) // 2))  # step > 2 tie
    top = 2 if cells == "small" else _cyclic_minimum_bound(step, side, tie, dtype)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    value = rng.integers(0, top, size=(side, *width), endpoint=True, dtype=dtype)
    if cells == "sentinel":
        value[rng.random(value.shape) < 0.7] = top
    if cells == "pairs":
        c = int(rng.integers(side))
        value = np.minimum(value, value[(2 * c - np.arange(side)) % side])
    got = value.copy()
    delivery._cyclic_minimum(got, step, tie)
    assert np.array_equal(got, _reference_cyclic_minimum(value, step, tie))


def test_serving_keys_stay_inside_the_scan_bound():
    # A cell without a replica holds 18 n side; the first scan (step 9n,
    # tie n) leaves at most that plus n, and the row term adds at most
    # n - side before the second (step 9n, tie 3n).  Both fit up to nu = 19.
    for nu in range(20):
        n, side = 4**nu, 2**nu
        assert 18 * n * side <= _cyclic_minimum_bound(9 * n, side, n)
        assert 18 * n * side + 2 * n - side <= _cyclic_minimum_bound(9 * n, side, 3 * n)
    n, side = 4**20, 2**20
    assert 18 * n * side > _cyclic_minimum_bound(9 * n, side, n)


def test_narrow_serving_keys_stay_inside_the_scan_bound():
    # The same two scans in int32 fit up to nu = 8 and not at nu = 9, the
    # grids on which _key_dtype picks int32 and int64.
    for nu in range(20):
        n, side = 4**nu, 2**nu
        fits = (
            18 * n * side <= _cyclic_minimum_bound(9 * n, side, n, np.int32)
            and 18 * n * side + 2 * n - side <= _cyclic_minimum_bound(9 * n, side, 3 * n, np.int32)
        )
        assert fits == (nu <= 8)
        assert delivery._key_dtype(GridSpec(nu=nu)) == (np.int32 if fits else np.int64)


def test_narrow_keys_match_wide_keys_at_nu_8(monkeypatch):
    # nu = 8 is the last grid with int32 keys: keys, loads, per-file loads
    # and hop totals equal those of the same kernel run in int64.
    grid = GridSpec(nu=8)
    n = grid.node_count
    rng = np.random.default_rng(8)
    holders = [{n - 1}, set(rng.choice(n, size=n // 4, replace=False).tolist())]
    pop = zipf(2, 0.8)

    def run():
        placed = _placement_from_holders(grid, holders)
        loads = link_loads(grid, placed, pop).loads
        per_file = [file_loads(grid, placed, m, float(pop.probs[m])) for m in range(2)]
        return _block_keys(grid, placed), loads, per_file, placed._hops.copy()

    narrow = run()
    monkeypatch.setattr(delivery, "_key_dtype", lambda grid: np.int64)
    wide = run()
    assert narrow[0].dtype == np.int32 and wide[0].dtype == np.int64
    assert np.array_equal(narrow[0], wide[0]) and np.array_equal(narrow[1], wide[1])
    assert all(np.array_equal(a, b) for a, b in zip(narrow[2], wide[2]))
    assert np.array_equal(narrow[3], wide[3]) and narrow[3].dtype == np.int64


def _block_budget(draw, n, files):
    """A _BLOCK_NODE_FILES value for `files` files on N = n nodes: the
    default, one file per key block (any budget below 2N), k files per key
    block for 2 <= k < files (ragged when files % k), all files in one key
    block, or all files in one key block whose run counts go in sub-blocks
    of k files (a sixteenth of the budget; ragged when files % k).  Below
    32N a sub-block is one file, so every key block of several files is
    split."""
    shape = draw(st.sampled_from(["default", "one", "some", "all", "split"]))
    if shape == "one":
        return draw(st.integers(1, 2 * n - 1))
    if shape == "some" and files > 2:
        return draw(st.integers(2, files - 1)) * n + draw(st.integers(0, n - 1))
    if shape == "all":
        return files * n + draw(st.integers(0, n))
    if shape == "split" and files > 2:
        return 16 * (draw(st.integers(2, files - 1)) * n + draw(st.integers(0, n - 1)))
    return delivery._BLOCK_NODE_FILES


def _assert_nearest_matches_reference(grid, placed, budget):
    """Under the given block budget, every file's serving node and hop count
    from the batched kernel match the reference scan, and the key's tie
    digit matches the signed offsets to the serving replica."""
    n, side = grid.node_count, grid.side
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(delivery, "_BLOCK_NODE_FILES", budget)
        keys = _block_keys(grid, placed)
    assert keys.dtype == delivery._key_dtype(grid) and keys.shape == (placed.file_count, n)
    nodes = np.arange(n)
    for m, key in enumerate(keys):
        reps = _replica_coords(placed, m)
        choice, dist = _reference_nearest_replica(grid, reps)
        server = key % n
        assert np.array_equal(server, reps[choice, 0] * side + reps[choice, 1])
        assert np.array_equal(key // (9 * n), dist)
        dx = signed_axis_delta(side, nodes // side, server // side)
        dy = signed_axis_delta(side, nodes % side, server % side)
        assert np.array_equal(key // n % 9, 3 * (np.sign(dx) + 1) + np.sign(dy) + 1)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 5), st.data())
def test_nearest_replica_matches_reference_scan(nu, data):
    grid = GridSpec(nu=nu)
    n = grid.node_count
    holders = []
    for _ in range(data.draw(st.integers(1, 4))):
        w_count = data.draw(st.integers(1, n))
        seed = data.draw(st.integers(0, 2**32 - 1))
        holders.append(set(np.random.default_rng(seed).choice(n, size=w_count, replace=False).tolist()))
    placed = _placement_from_holders(grid, holders)
    _assert_nearest_matches_reference(grid, placed, _block_budget(data.draw, n, len(holders)))


def _half_side_holders(draw, grid):
    """1 to 3 files, each held at some of the four nodes side/2 apart
    around a drawn base."""
    side, half = grid.side, grid.side // 2
    bx, by = draw(st.integers(0, side - 1)), draw(st.integers(0, side - 1))
    corners = [(0, 0), (half, 0), (0, half), (half, half)]
    return [
        {((bx + ox) % side) * side + (by + oy) % side
         for ox, oy in draw(st.sets(st.sampled_from(corners), min_size=1))}
        for _ in range(draw(st.integers(1, 3)))
    ]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.data())
def test_nearest_replica_matches_reference_half_side_offsets(nu, data):
    # Clients midway between replicas side/2 apart are served under the
    # north/west tie rule.
    grid = GridSpec(nu=nu)
    holders = _half_side_holders(data.draw, grid)
    placed = _placement_from_holders(grid, holders)
    _assert_nearest_matches_reference(grid, placed, _block_budget(data.draw, grid.node_count, len(holders)))


def _assert_table_matches_replica_nodes(placed):
    # The reference scans every node's buffer for the file.
    side = placed.grid.side
    for m in range(placed.file_count):
        want = [divmod(i, side) for i, buf in enumerate(placed.buffers) if m in buf]
        reps = _replica_coords(placed, m)
        assert reps.dtype == np.int64 and reps.shape == (len(want), 2)
        assert [tuple(r) for r in reps.tolist()] == want == placed.replica_nodes(m)


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
    for m in {0, 1, 2} - {uncached}:
        assert np.array_equal(file_loads(grid, placed, m), route_walk_loads(grid, placed, m))


@pytest.mark.parametrize("serve", [link_loads, total_hop_load], ids=["loads", "hops"])
@pytest.mark.parametrize("compact", [True, False], ids=["compact", "buffers"])
def test_placement_and_popularity_sizes_must_match(serve, compact):
    grid = GridSpec(nu=2)
    placed = _canonical(grid, 2, zipf(8, 0.8)) if compact else _with_uncached_file(grid, 0)
    with pytest.raises(InvalidInputError, match="placement and popularity sizes differ"):
        serve(grid, placed, zipf(placed.file_count + 1, 0.8))


@pytest.mark.parametrize("m", [-1, 3])
def test_file_outside_catalog_rejected(m):
    grid = GridSpec(nu=2)
    placed = _with_uncached_file(grid, 0)
    with pytest.raises(InvalidInputError, match=f"file id {m} outside 0..2"):
        placed.replica_nodes(m)


def test_catalog_is_built_once_and_read_only(monkeypatch):
    grid = GridSpec(nu=3)
    rng = np.random.default_rng(3)
    holders = [set(rng.choice(grid.node_count, size=c, replace=False).tolist()) for c in (1, 5, 16, 30)]
    placed = _placement_from_holders(grid, holders)
    pop = zipf(len(holders), 0.8)
    calls = []
    build = placement._replica_table

    def counted(built):
        calls.append(built)
        return build(built)

    monkeypatch.setattr(placement, "_replica_table", counted)
    loads = link_loads(grid, placed, pop).loads
    total_hop_load(grid, placed, pop)
    for m in range(placed.file_count):
        placed.replica_nodes(m)
    assert calls == [placed]
    for array in placed._replicas:
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[...] = 0
    assert np.array_equal(link_loads(grid, placed, pop).loads, loads)
    assert calls == [placed]


@pytest.mark.parametrize("nu", [1, 2, 3, 4])
def test_hop_record_gives_the_same_results_in_every_call_order(nu):
    grid = GridSpec(nu=nu)
    n = grid.node_count
    rng = np.random.default_rng(nu)
    holders = [set(range(n)), {n - 1}]
    holders += [set(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False).tolist()) for _ in range(6)]
    pop = zipf(len(holders), 0.8)
    alone, loads_first, hops_first = (_placement_from_holders(grid, holders) for _ in range(3))
    hops = total_hop_load(grid, alone, pop)
    loads = link_loads(grid, loads_first, pop).loads
    assert total_hop_load(grid, loads_first, pop) == hops
    assert total_hop_load(grid, hops_first, pop) == hops
    assert np.array_equal(link_loads(grid, hops_first, pop).loads, loads)
    # Every order records the kernel's hop total of every file.
    expect = (_block_keys(grid, alone) // (9 * n)).sum(axis=1)
    for placed in (alone, loads_first, hops_first):
        assert placed._hops.dtype == np.int64 and np.array_equal(placed._hops, expect)


def test_link_loads_then_total_hop_load_serve_each_file_once(monkeypatch):
    # A lattice file at every level among random ones: given by buffers,
    # none is loaded in closed form, and each goes through the kernel once.
    grid = GridSpec(nu=3)
    n = grid.node_count
    rng = np.random.default_rng(11)
    holders = [_lattice_holders(grid, k, (1, 0)) for k in range(grid.nu + 1)]
    holders += [set(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False).tolist()) for _ in range(5)]
    placed = _placement_from_holders(grid, holders)
    pop = zipf(9, 0.8)
    served = []
    kernel = delivery._serving_keys

    def counted(grid, coords, offsets, files):
        served.append(files.tolist())
        return kernel(grid, coords, offsets, files)

    monkeypatch.setattr(delivery, "_serving_keys", counted)
    monkeypatch.setattr(delivery, "_lattice_loads", lambda *args: pytest.fail("closed form used"))
    monkeypatch.setattr(delivery, "_BLOCK_NODE_FILES", 2 * n)
    loads = link_loads(grid, placed, pop).loads
    hops = total_hop_load(grid, placed, pop)
    assert total_hop_load(grid, placed, pop) == hops
    assert served == [[f, f + 1] for f in range(0, 8, 2)] + [[8]]
    assert math.isclose(float(loads.sum()), hops, rel_tol=1e-12)


@pytest.mark.parametrize("nu", [2, 4])
@pytest.mark.parametrize("form", ["buffers", "compact"])
def test_grid_must_be_the_placements(nu, form):
    # A nu = 2 grid used to raise a bare IndexError, a nu = 4 grid to give
    # loads of a grid the placement is not on.
    grid, other = GridSpec(nu=3), GridSpec(nu=nu)
    pop = zipf(8, 0.8)
    if form == "compact":
        placed = _canonical(grid, 2, pop)
    else:
        placed = _random_placement(np.random.default_rng(3), grid, 8, capacity=8)
    message = f"grid nu={nu} does not match the placement's grid nu=3"
    for call in (link_loads, total_hop_load):
        with pytest.raises(InvalidInputError, match=message):
            call(other, placed, pop)
    assert "_hops" not in vars(placed)
    loads = link_loads(grid, placed, pop).loads
    assert math.isclose(float(loads.sum()), total_hop_load(grid, placed, pop), rel_tol=1e-12)


@pytest.mark.parametrize("nu", [1, 2, 3])
def test_csv_rows_follow_link_index_rule(nu):
    grid = GridSpec(nu=nu)
    placed = _single_replica(grid, at=(1, 0))
    loads = link_loads(grid, placed, Popularity(np.array([1.0])))
    rows = _csv(loads).splitlines()[1:-2]
    assert rows == [
        f"{idx},{x},{y},{axis},{loads.loads[idx]:.12g}"
        for idx, (x, y, axis) in enumerate(_links(grid))
    ]


class _HashingSink:
    """A binary file that keeps only the size and SHA-256 of its bytes."""

    def __init__(self):
        self.size, self.sha256 = 0, hashlib.sha256()

    def write(self, data):
        self.size += len(data)
        self.sha256.update(data)

    def writelines(self, blocks):
        for data in blocks:
            self.write(data)


def test_csv_is_written_block_by_block():
    """The nu = 9 CSV of simulate --K 2 --M 1.75*N --tau 2 is 17.7 MB.
    Joined before writing, it would be held at least once; written as each
    block is made, only one block's tables (about 2.9 MB) are live."""
    grid = GridSpec(nu=9)
    pop = zipf(int(1.75 * grid.node_count), 2.0)
    loads = link_loads(grid, _canonical(grid, 2, pop), pop)
    sink = _HashingSink()
    tracemalloc.start()
    try:
        to_csv(loads, sink)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sink.sha256.hexdigest() == "8fcf17fd2d54cc1eaa12da8101e186a67fbab389eb333ca4367d4eac83f79757"
    assert peak < sink.size / 2


def _reference_to_csv(load_map):
    """to_csv as one f-string per link."""
    lines = ["link_index,origin_x,origin_y,axis,load"]
    grid = load_map.grid
    for idx, load in enumerate(load_map.loads.tolist()):
        x, y = divmod(idx >> 1, grid.side)
        lines.append(f"{idx},{x},{y},{COLUMN if idx & 1 else ROW},{load:.12g}")
    lines.append(f"summary,,,worst,{worst_link(load_map):.12g}")
    lines.append(f"summary,,,avg,{avg_link(load_map):.12g}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("nu", range(1, 8))
@pytest.mark.parametrize("tau, share", [(0.8, 0.5), (2.0, 1.75)])
def test_csv_matches_per_link_reference_canonical(nu, tau, share):
    """From nu = 7 (32,768 links) the rows come in more than one block."""
    grid = GridSpec(nu=nu)
    pop = zipf(max(1, int(share * grid.node_count)), tau)
    loads = link_loads(grid, _canonical(grid, 2, pop), pop)
    assert _csv(loads) == _reference_to_csv(loads)


def test_csv_matches_per_link_reference_off_lattice():
    grid = GridSpec(nu=4)
    placed = _random_placement(np.random.default_rng(11), grid, 12, 12)
    loads = link_loads(grid, placed, zipf(12, 0.8))
    assert _csv(loads) == _reference_to_csv(loads)


@pytest.mark.parametrize(
    "nu, loads",
    [
        (2, [0.0, -0.0, -1.5, float("nan"), 1e-300, -2.5e17, float("inf"), 1234567890.125] * 4),
        (1, [0.0] * 8),
        (3, list(np.random.default_rng(5).normal(size=128))),
    ],
)
def test_csv_matches_per_link_reference_any_loads(nu, loads):
    load_map = delivery.LinkLoadMap(grid=GridSpec(nu=nu), loads=np.array(loads))
    assert _csv(load_map) == _reference_to_csv(load_map)


@pytest.mark.parametrize(
    "nu, loads, message",
    [
        (1, np.arange(11.0), "8 links need 8 loads, got shape (11,)"),
        (2, np.zeros((16, 2)), "32 links need 32 loads, got shape (16, 2)"),
        (1, [], "8 links need 8 loads, got shape (0,)"),
        (0, [1.0, 2.0], "the 1-node grid has no links"),
    ],
    ids=["odd-length", "two-axes", "empty", "no-links"],
)
def test_load_map_refuses_a_grid_without_links_or_other_sizes(nu, loads, message):
    # So worst_link, avg_link and to_csv read 2N loads of a grid with links.
    with pytest.raises(InvalidInputError, match=re.escape(message)):
        delivery.LinkLoadMap(grid=GridSpec(nu=nu), loads=loads)


@pytest.mark.parametrize("nu", [2, 3, 4])
def test_walker_and_load_map_follow_link_index_rule(nu):
    # Each step of a single replica's routes is counted on the link the rule
    # gives it; from side 4 on, a step's two nodes name one link.  (Side 2,
    # where two parallel links join the same nodes, is in test_grid.)
    grid = GridSpec(nu=nu)
    side = grid.side
    placed = _single_replica(grid, at=(1, 0))
    link_of = {}
    for idx, (x, y, axis) in enumerate(_links(grid)):
        b = (x, (y + 1) % side) if axis == ROW else ((x + 1) % side, y)
        assert link_index(grid, (x, y), b) == idx
        link_of[(x, y), b] = link_of[b, (x, y)] = idx
    counted = np.zeros(2 * grid.node_count)
    for _node, (_server, routes) in serve_map(grid, placed, 0).items():
        for frac, path in routes.routes:
            for a, b in zip(path, path[1:]):
                counted[link_of[a, b]] += float(frac)
    assert np.array_equal(route_walk_loads(grid, placed, 0), counted)
    loads = link_loads(grid, placed, Popularity(np.array([1.0]))).loads
    assert np.allclose(loads, counted, rtol=0, atol=1e-12)


def _lattice_holders(grid, level, anchor):
    """Node indices of the 2^level-periodic lattice through anchor."""
    side, s = grid.side, 2**level
    ax, ay = anchor
    return {
        ((ax + i) % side) * side + (ay + j) % side
        for i in range(0, side, s) for j in range(0, side, s)
    }


def _assert_engine_matches(grid, placed, pop):
    """link_loads equals the per-file kernel summed over files (and the route
    walk at nu <= 3) to 1e-12 of the largest load, with the same unloaded
    links and no negative load."""
    got = link_loads(grid, placed, pop).loads
    refs = [sum(file_loads(grid, placed, m, float(pop.probs[m])) for m in range(placed.file_count))]
    if grid.nu <= 3:
        refs.append(sum(route_walk_loads(grid, placed, m, float(pop.probs[m]))
                        for m in range(placed.file_count)))
    for expect in refs:
        assert np.abs(got - expect).max() <= 1e-12 * expect.max()
        assert np.array_equal(got == 0.0, expect == 0.0)
    assert np.all(got >= 0.0)


_FILE_CAPS = {5: 160, 6: 160}  # files per canonical case, to bound the per-file reference


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.integers(1, 3), st.sampled_from([0.0, 0.8, 2.0]), st.data())
def test_engine_matches_per_file_canonical(nu, cap, tau, data):
    grid = GridSpec(nu=nu)
    n = grid.node_count
    m = data.draw(st.integers(1, min(cap * n, _FILE_CAPS.get(nu, 2 * n))))
    pop = zipf(m, tau)
    placed = _canonical(grid, cap, pop)
    _assert_engine_matches(grid, placed, pop)


def _draw_mixed_holders(draw, grid):
    """Holders of a mixed catalog: lattice files at random anchors and at
    half-period offsets from one base (side/2 for single replicas),
    single-replica and everywhere files, and files held at random nodes."""
    nu, side, n = grid.nu, grid.side, grid.node_count
    node = st.integers(0, side - 1)
    base = (draw(node), draw(node))
    holders = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["lattice", "half-period", "single", "everywhere", "random"]))
        if kind == "random":
            count = draw(st.integers(1, n))
            holders.append(set(draw(st.permutations(range(n)))[:count]))
            continue
        level = {"single": nu, "everywhere": 0}.get(kind) or draw(st.integers(1, nu))
        if kind == "half-period":
            half = 2**level // 2
            shift = st.integers(0, 1)
            anchor = (base[0] + half * draw(shift), base[1] + half * draw(shift))
        else:
            anchor = (draw(node), draw(node))
        holders.append(_lattice_holders(grid, level, anchor))
    return holders


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 5), st.data())
def test_engine_matches_per_file_mixed(nu, data):
    grid = GridSpec(nu=nu)
    holders = _draw_mixed_holders(data.draw, grid)
    placed = _placement_from_holders(grid, holders)
    pop = _decreasing_popularity(data.draw, len(holders))
    _assert_engine_matches(grid, placed, pop)


@pytest.mark.parametrize("extra", [[], [{0, 3}], [set(range(4))], [{1, 2}, {0}]])
@pytest.mark.parametrize("anchors", [[0], [3], [0, 3], [1, 2], [0, 1, 2, 3], [2, 2, 1]])
def test_engine_matches_per_file_side2(anchors, extra):
    # Level-1 lattice files on the side-2 grid are single replicas whose
    # clients use both parallel links; {0, 3} and {1, 2} are off any lattice.
    grid = GridSpec(nu=1)
    holders = [{a} for a in anchors] + extra
    raw = np.arange(len(holders), 0, -1, dtype=float)
    pop = Popularity(raw / raw.sum())
    _assert_engine_matches(grid, _placement_from_holders(grid, holders), pop)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 6), st.data())
def test_engine_every_file_at_one_anchor(nu, data):
    # Files sharing one anchor leave whole lines of links unloaded when they
    # share a level too: those links must read exactly 0.
    grid = GridSpec(nu=nu)
    anchor = (data.draw(st.integers(0, grid.side - 1)), data.draw(st.integers(0, grid.side - 1)))
    levels = data.draw(st.lists(st.integers(0, nu), min_size=1, max_size=8))
    placed = _placement_from_holders(grid, [_lattice_holders(grid, k, anchor) for k in levels])
    pop = _decreasing_popularity(data.draw, len(levels))
    _assert_engine_matches(grid, placed, pop)
    # With one level k >= 1, a row and a column of links per 2^k block idle.
    if len(set(levels) - {0}) == 1:
        idle = np.count_nonzero(link_loads(grid, placed, pop).loads == 0.0)
        assert idle == 2 * grid.node_count // 2 ** max(levels)


def _reference_lattice_loads(grid, level, anchors, weights):
    """_lattice_loads as it was written with one mask per level, each level
    tiled to the whole grid and added there."""
    side = grid.side
    rows = np.zeros((side, side))
    cols = np.zeros((side, side))
    for k in np.unique(level[level >= 1]).tolist():
        s = 2 ** k
        sel = level == k
        a = np.bincount(
            anchors[sel, 0] * s + anchors[sel, 1], weights=weights[sel], minlength=s * s
        ).reshape(s, s)
        h = np.abs(np.arange(s) - s // 2).astype(float)
        circ = h[(np.arange(s)[None, :] - np.arange(s)[:, None]) % s]
        tiles = (side // s, side // s)
        rows += np.tile(0.5 * (s * (a @ circ) + a.sum(axis=0) @ circ), tiles)
        cols += np.tile(0.5 * (s * (circ.T @ a) + (circ.T @ a.sum(axis=1))[:, None]), tiles)
    return rows, cols


def _assert_lattice_loads_match_reference(grid, counts, weights):
    got = delivery._lattice_loads(grid, counts, weights)
    level = np.repeat(np.arange(grid.nu + 1), counts)
    anchors, _ = _reference_rounds(level, grid.nu)
    expect = _reference_lattice_loads(grid, level, anchors, weights)
    assert all(np.array_equal(g, e) for g, e in zip(got, expect))


@pytest.mark.parametrize("nu", range(1, 9))
@pytest.mark.parametrize("tau, share", [(0.8, 0.5), (2.0, 1.75), (0.0, 2.0)])
def test_lattice_loads_bit_identical_to_per_level_masks_canonical(nu, tau, share):
    grid = GridSpec(nu=nu)
    pop = zipf(int(share * grid.node_count) - (tau == 0.0), tau)
    placed = _canonical(grid, 2, pop)
    weights = delivery.REQUEST_RATE * pop.probs
    _assert_lattice_loads_match_reference(grid, placed.counts, weights)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6), st.data())
def test_lattice_loads_bit_identical_to_per_level_masks_random(nu, data):
    # Random catalogs and any weights.  Capping the levels low puts many
    # files of a level on one anchor, where the order of the additions
    # shows in the rounding.
    grid = GridSpec(nu=nu)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    top = min(nu, data.draw(st.sampled_from([1, 2, nu])))
    level = rng.integers(0, top + 1, size=data.draw(st.integers(1, 400)))
    weights = rng.random(level.size)
    if data.draw(st.booleans()):
        weights *= 10.0 ** rng.integers(-300, 3, size=level.size)
    _assert_lattice_loads_match_reference(grid, np.bincount(level, minlength=nu + 1), weights)


def _counting_kernel_files(monkeypatch):
    """Record the replica count of every file the batched kernel serves."""
    calls = []
    kernel = delivery._serving_keys

    def counted(grid, coords, offsets, files):
        calls.extend(np.diff(offsets)[files].tolist())
        return kernel(grid, coords, offsets, files)

    monkeypatch.setattr(delivery, "_serving_keys", counted)
    return calls


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5), st.data())
def test_near_lattice_file_takes_per_file_path(nu, data):
    # 4^j replicas on a lattice with one moved off it, beside the whole
    # lattice (a single replica always is one, so j >= 1): given by
    # buffers, both go through the kernel.
    grid = GridSpec(nu=nu)
    side = grid.side
    level = data.draw(st.integers(1, nu - 1))
    anchor = (data.draw(st.integers(0, side - 1)), data.draw(st.integers(0, side - 1)))
    lattice = _lattice_holders(grid, level, anchor)
    moved = data.draw(st.sampled_from(sorted(lattice)))
    target = data.draw(st.sampled_from(sorted(set(range(grid.node_count)) - lattice)))
    holders = [(lattice - {moved}) | {target}, _lattice_holders(grid, level, anchor)]
    placed = _placement_from_holders(grid, holders)
    pop = Popularity(np.array([0.6, 0.4]))
    with pytest.MonkeyPatch.context() as mp:
        calls = _counting_kernel_files(mp)
        link_loads(grid, placed, pop)
    assert calls == [len(lattice)] * 2
    _assert_engine_matches(grid, placed, pop)


@pytest.mark.parametrize("nu", [1, 2, 3, 4])
@pytest.mark.parametrize("cap, tau, share", [(1, 0.8, 0.5), (2, 2.0, 1.75), (3, 0.0, 2.0)])
def test_canonical_link_loads_skip_per_file_kernel(monkeypatch, nu, cap, tau, share):
    # Neither link_loads nor total_hop_load of a compact placement serves a
    # file, builds the replica table or keeps a hop record.
    grid = GridSpec(nu=nu)
    pop = zipf(max(1, min(int(share * grid.node_count), cap * grid.node_count)), tau)
    placed = _canonical(grid, cap, pop)
    calls = _counting_kernel_files(monkeypatch)
    link_loads(grid, placed, pop)
    total_hop_load(grid, placed, pop)
    assert calls == []
    assert "_replicas" not in vars(placed) and "_hops" not in vars(placed)


def test_random_placement_link_loads_call_kernel_per_non_lattice_file(monkeypatch):
    # Given by buffers, every file goes through the kernel, lattice files too.
    rng = np.random.default_rng(53)
    calls = _counting_kernel_files(monkeypatch)
    for _ in range(20):
        grid = GridSpec(nu=int(rng.integers(1, 4)))
        m = int(rng.integers(1, 9))
        placed = _random_placement(rng, grid, m, capacity=m)
        pop = zipf(m, 0.8)
        calls.clear()
        link_loads(grid, placed, pop)
        assert calls == [len(placed.replica_nodes(f)) for f in range(m)]


def _per_file_hop_sum(grid, placed, pop):
    total = 0.0
    hops = (_block_keys(grid, placed) // (9 * grid.node_count)).sum(axis=1)
    for m in range(placed.file_count):
        total += float(pop.probs[m]) * float(hops[m])
    return total


@pytest.mark.parametrize("nu", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("cap, tau, share", [(1, 0.8, 0.5), (2, 2.0, 1.75), (3, 0.0, 2.0)])
def test_closed_form_hop_total_is_exact_canonical(nu, cap, tau, share):
    grid = GridSpec(nu=nu)
    pop = zipf(max(1, min(int(share * grid.node_count), cap * grid.node_count)), tau)
    placed = _canonical(grid, cap, pop)
    assert total_hop_load(grid, placed, pop) == _per_file_hop_sum(grid, placed, pop)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.data())
def test_hop_total_is_exact_mixed(nu, data):
    grid = GridSpec(nu=nu)
    holders = _draw_mixed_holders(data.draw, grid)
    placed = _placement_from_holders(grid, holders)
    pop = _decreasing_popularity(data.draw, len(holders))
    assert total_hop_load(grid, placed, pop) == _per_file_hop_sum(grid, placed, pop)


def _reference_link_bound(grid, placement, m, p_m=1.0):
    """Whether file m's loads at weight p_m keep the per-file link bounds of
    a canonically placed file (acceptance criterion 6), by a loop over the
    links: links between two nodes served by different replicas carry
    nothing, links sharing a row or column with the serving replica carry at
    most 2^(k-1) (2^(k-1) + 1/2) p_m, and all other links at most
    2^(k-2) p_m, where 4^-k is the file's replication density."""
    reps = _replica_coords(placement, m)
    w_count = reps.shape[0]
    ratio = grid.node_count / w_count
    level = round(math.log(ratio, 4))
    if 4 ** level != ratio:
        raise InvalidInputError(f"file {m} does not have a power-of-4 replica count")

    loads = file_loads(grid, placement, m, p_m)
    if level == 0:
        return bool(np.all(loads <= 1e-12))

    choice = _reference_nearest_replica(grid, reps)[0]
    servers = {node: int(choice[i]) for i, node in enumerate(grid.nodes())}

    aligned_cap = 2.0 ** (level - 1) * (2.0 ** (level - 1) + 0.5) * p_m
    off_cap = 2.0 ** (level - 2) * p_m
    tol = 1e-12
    side = grid.side
    for idx, (x, y, axis) in enumerate(_links(grid)):
        load = loads[idx]
        if load <= tol:
            continue
        other = (x, (y + 1) % side) if axis == ROW else ((x + 1) % side, y)
        if servers[(x, y)] != servers[other]:
            return False
        w = reps[servers[(x, y)]]
        if axis == ROW:
            aligned = x == int(w[0])
        else:
            aligned = y == int(w[1])
        cap = aligned_cap if aligned else off_cap
        if load > cap + tol:
            return False
    return True


@pytest.mark.parametrize("nu", [1, 2, 3, 4])
@pytest.mark.parametrize("cap, tau", [(1, 0.8), (2, 2.0), (3, 0.0)])
def test_link_bounds_hold_canonical(nu, cap, tau):
    grid = GridSpec(nu=nu)
    pop = zipf(min(2 * grid.node_count, cap * grid.node_count, 24), tau)
    placed = _canonical(grid, cap, pop)
    for m in range(placed.file_count):
        assert _reference_link_bound(grid, placed, m, 1.0)
        assert _reference_link_bound(grid, placed, m, 1e-13)


def _reference_run_counts(side, line, start, delta):
    """Per-link count of one file's cyclic runs, as a (line, position) array:
    the per-file difference-array count the batched kernel replaced."""
    first = line * (2 * side) + (start + np.minimum(delta, 0)) % side
    size = 2 * side * side
    diff = np.bincount(first, minlength=size) - np.bincount(first + np.abs(delta), minlength=size)
    runs = diff.reshape(side, 2 * side).cumsum(axis=1)
    return runs[:, :side] + runs[:, side:]


@pytest.mark.parametrize("nu", [1, 2, 3])
def test_run_counts_match_reference_on_every_run(nu):
    # One file per (client, server) pair: every other client serves itself
    # and makes no run, so the file's counts are the four runs of that pair.
    # Over all pairs every (line, start, delta) run occurs, among them runs
    # ending exactly at the line end and delta = -side/2.
    grid = GridSpec(nu=nu)
    side, n = grid.side, grid.node_count
    client, server = np.divmod(np.arange(n * n), n)
    keys = np.tile(np.arange(n), (n * n, 1))
    keys[np.arange(n * n), client] = server
    counts = delivery._run_counts(grid, keys, delivery._run_tables(grid, n * n))
    assert counts.shape == (n * n, side, side, 2)
    xc, yc = np.divmod(client, side)
    xs, ys = np.divmod(server, side)
    dx, dy = signed_axis_delta(side, xc, xs), signed_axis_delta(side, yc, ys)
    for f in range(n * n):
        at = slice(f, f + 1)
        rows = sum(_reference_run_counts(side, line[at], yc[at], dy[at]) for line in (xs, xc))
        cols = sum(_reference_run_counts(side, line[at], xc[at], dx[at]) for line in (yc, ys))
        assert np.array_equal(counts[f], np.stack([rows, cols.T], axis=-1))
    ends = (yc + np.minimum(dy, 0)) % side + np.abs(dy)
    assert -side // 2 in dy.tolist() and side in ends.tolist()
    # Some run ends strictly inside the doubled line's second half, so the
    # fold of the second half onto the first is exercised (no room on side 2).
    assert side == 2 or np.any((side < ends) & (ends < 3 * side // 2))


@pytest.mark.parametrize("nu", range(1, 11))
def test_pair_table_holds_every_signed_offset_run(nu):
    # Every (client c, server t) pair on sides 2 .. 2^10, row (c << nu) | t.
    side, n = 2**nu, 4**nu
    table = delivery._pair_table(GridSpec(nu=nu))
    assert table.dtype == np.int32 and table.shape == (n, 2) and table.nbytes == 8 * n
    c, t = np.divmod(np.arange(n), side)
    d = (t - c) % side
    delta = np.where(2 * d < side, d, d - side)  # a tie at side/2 goes negative
    start = (c + np.minimum(delta, 0)) % side
    assert np.array_equal(table[:, 0], start)
    assert np.array_equal(table[:, 1], start + np.abs(delta))
    tie = d == side // 2
    assert np.array_equal(table[tie, 0], (c[tie] - side // 2) % side)
    assert np.all(table[tie, 1] - table[tie, 0] == side // 2)
    same = d == 0
    assert np.array_equal(table[same, 0], c[same]) and np.array_equal(table[same, 1], c[same])
    assert table.min() >= 0 and table[:, 1].max() < 3 * side // 2


def _arrays_reachable_from(module):
    """Every ndarray reachable from the module's globals, not looking into
    other modules or into classes and functions defined elsewhere."""
    seen, stack, found = set(), [module], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            found.append(obj)
        elif isinstance(obj, types.ModuleType) and obj is not module:
            continue
        elif isinstance(obj, (type, types.FunctionType)) and obj.__module__ != module.__name__:
            continue
        else:
            stack.extend(gc.get_referents(obj))
    return found


# tracemalloc peak of the call below, numpy 2.4, when each axis computed
# its signed offsets, starts and stops in full-size passes (no pair table)
# and the line ids of both axes were built up front: 13,117,462 bytes (200
# per node).  With the pair table it was 11,543,478 bytes (176 per node),
# and 11,282,762 (172 per node) with int32 keys and per-call client tables.
_ONE_FILE_NU8_PEAK = 13_117_462


def test_link_loads_memory_is_bounded_and_keeps_no_pair_table():
    grid = GridSpec(nu=8)
    n = grid.node_count
    rng = np.random.default_rng(8)
    placed = _placement_from_holders(grid, [set(rng.choice(n, n // 4, replace=False).tolist())])
    pop = zipf(1, 0.8)
    placed._replicas  # built before tracing, as a second call would find it
    tracemalloc.start()
    try:
        link_loads(grid, placed, pop)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= _ONE_FILE_NU8_PEAK
    assert not [a.shape for a in _arrays_reachable_from(delivery) if a.size >= n]


def test_delivery_keeps_nothing_new_on_the_placement_or_the_grid():
    # The pair and client tables are made per call: the placement gains
    # only its replica table (built from its node table) and hop record.
    grid = GridSpec(nu=4)
    rng = np.random.default_rng(4)
    placed = _placement_from_holders(
        grid, [set(rng.choice(grid.node_count, size=k, replace=False).tolist()) for k in (1, 5, 64)]
    )
    pop = zipf(3, 0.8)
    before, grid_before = set(vars(placed)), dict(vars(grid))
    link_loads(grid, placed, pop)
    assert set(vars(placed)) - before == {"_node_table", "_replicas", "_hops"}
    total_hop_load(grid, placed, pop)
    assert set(vars(placed)) - before == {"_node_table", "_replicas", "_hops"}
    assert vars(grid) == grid_before


def test_compact_link_loads_scale_each_round_not_the_catalog():
    # M = 4,000 files on 64 nodes, nearly all at the last level: the
    # request weights are scaled per round, never as one M-float copy.
    grid = GridSpec(nu=3)
    pop = zipf(4000, 0.8)
    placed = _canonical(grid, 64, pop)
    link_loads(grid, placed, pop)  # what a first call sets up is not counted
    tracemalloc.start()
    try:
        link_loads(grid, placed, pop)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * pop.m_count


def _reference_file_loads(grid, reps, weight, loads):
    """Add the loads of one file held at reps, served by the reference scan
    and counted per file, to loads."""
    side = grid.side
    choice, _ = _reference_nearest_replica(grid, reps)
    nodes = np.arange(grid.node_count)
    xc, yc = nodes // side, nodes % side
    xs, ys = reps[choice, 0], reps[choice, 1]
    dx, dy = signed_axis_delta(side, xc, xs), signed_axis_delta(side, yc, ys)
    rows = _reference_run_counts(side, xs, yc, dy) + _reference_run_counts(side, xc, yc, dy)
    cols = _reference_run_counts(side, yc, xc, dx) + _reference_run_counts(side, ys, xc, dx)
    loads[0::2] += (weight / 2) * rows.ravel()
    loads[1::2] += (weight / 2) * cols.T.ravel()


def _reference_loads_and_hops(grid, placed, pop):
    """link_loads and total_hop_load of a placement given by buffers, by a
    loop over files: each file by the reference scan and per-file run
    counts, added in file order; hops by the scan."""
    weights = delivery.REQUEST_RATE * pop.probs
    loads = np.zeros(2 * grid.node_count)
    hops = np.zeros(placed.file_count)
    for m in range(placed.file_count):
        reps = _replica_coords(placed, m)
        hops[m] = _reference_nearest_replica(grid, reps)[1].sum()
        _reference_file_loads(grid, reps, float(weights[m]), loads)
    return loads, delivery.REQUEST_RATE * float(np.cumsum(pop.probs * hops)[-1])


def _fresh(placed):
    """An equal placement with nothing built or recorded on it yet."""
    return CachePlacement(
        grid=placed.grid, capacity=placed.capacity, file_count=placed.file_count,
        buffers=placed.buffers,
    )


def _assert_bit_identical_to_reference(grid, placed, pop, budget):
    """Under the given block budget, link_loads, total_hop_load and every
    file's loads alone (file_loads) equal the per-file reference exactly,
    whichever of the first two runs first on a fresh placement."""
    expect_loads, expect_hops = _reference_loads_and_hops(grid, placed, pop)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(delivery, "_BLOCK_NODE_FILES", budget)
        loads_first = _fresh(placed)
        loads = link_loads(grid, loads_first, pop).loads
        hops = total_hop_load(grid, loads_first, pop)
        hops_first = _fresh(placed)
        hops_alone = total_hop_load(grid, hops_first, pop)
        loads_after = link_loads(grid, hops_first, pop).loads
    assert np.array_equal(loads, expect_loads) and np.array_equal(loads_after, expect_loads)
    assert hops == expect_hops and hops_alone == expect_hops
    for m in range(placed.file_count):
        p_m = float(pop.probs[m])
        expect = np.zeros(2 * grid.node_count)
        _reference_file_loads(grid, _replica_coords(placed, m), delivery.REQUEST_RATE * p_m, expect)
        assert np.array_equal(file_loads(grid, placed, m, p_m), expect)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5), st.data())
def test_batched_kernel_bit_identical_to_per_file_reference(nu, data):
    # Mixed catalogs (lattice, single-replica, everywhere and random files)
    # plus files at nodes side/2 apart, under drawn block budgets.
    grid = GridSpec(nu=nu)
    holders = _draw_mixed_holders(data.draw, grid)
    holders += _half_side_holders(data.draw, grid)
    placed = _placement_from_holders(grid, holders)
    pop = _decreasing_popularity(data.draw, len(holders))
    budget = _block_budget(data.draw, grid.node_count, len(holders))
    _assert_bit_identical_to_reference(grid, placed, pop, budget)


@pytest.mark.parametrize("nu", [1, 2, 4])
@pytest.mark.parametrize("per_block", [1, 3, 5])
def test_batched_kernel_bit_identical_forced_blocks(nu, per_block):
    # A single-replica file, a file at every node, a pair side/2 apart on
    # one row, a diagonal pair side/2 apart and three random sets: one file
    # per block, three per block with a ragged last block of one, or five
    # per block with a ragged last block of two.
    grid = GridSpec(nu=nu)
    n, side, half = grid.node_count, grid.side, grid.side // 2
    rng = np.random.default_rng(nu)
    holders = [{3 % n}, set(range(n)), {0, half}, {0, half * side + half}]
    holders += [set(rng.choice(n, size=int(rng.integers(2, n)), replace=False).tolist()) for _ in range(3)]
    placed = _placement_from_holders(grid, holders)
    pop = zipf(len(holders), 0.8)
    _assert_bit_identical_to_reference(grid, placed, pop, per_block * n)
