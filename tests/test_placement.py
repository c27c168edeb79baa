import hashlib
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from replicagrid import _text, cli, placement
from replicagrid.delivery import link_loads, total_hop_load
from replicagrid.density import CanonicalProfile, canonical_truncate, solve_cd
from replicagrid.errors import InternalInvariantError, InvalidInputError
from replicagrid.grid import GridSpec
from replicagrid.placement import (
    CachePlacement,
    canonical_place,
    render_matrix,
    validate_capacity,
)
from replicagrid.popularity import Popularity, zipf


def _levels_profile(levels, nu):
    """The profile of per-file levels, which never decrease along the ids."""
    assert list(levels) == sorted(levels)
    counts = np.bincount(np.array(levels, dtype=np.int64), minlength=nu + 1)
    return CanonicalProfile(counts=counts, nu=nu)


def _levels_of(counts):
    """The per-file levels of level counts."""
    return np.repeat(np.arange(len(counts)), counts)


def _random_levels(rng, nu, capacity, m_max=40):
    """Random levels, non-decreasing along the ids, with sum of densities
    <= capacity."""
    levels = []
    budget = float(capacity)
    for _ in range(int(rng.integers(1, m_max + 1))):
        k = int(rng.integers(0, nu + 1))
        if 4.0 ** -k > budget:
            k = nu
            if 4.0 ** -k > budget:
                break
        levels.append(k)
        budget -= 4.0 ** -k
    return sorted(levels) or [nu]


def diagonal_order(k):
    """Coordinates of the 2^k x 2^k matrix in precedence order: the test
    reference for the diagonal ranks of placement._rounds.

    The main diagonal is scanned top-left to bottom-right first, then the
    diagonal starting one row below (with wrap-around), and so on; the
    coordinate at rank j*s + t + 1 is ((j + t) mod s, t) for side s = 2^k.
    """
    if k < 1:
        raise InvalidInputError(f"k must be >= 1, got {k}")
    s = 2 ** k
    return [((j + t) % s, t) for j in range(s) for t in range(s)]


def test_diagonal_order_k1():
    assert diagonal_order(1) == [(0, 0), (1, 1), (1, 0), (0, 1)]


def test_diagonal_order_k2_main_diagonal_first():
    order = diagonal_order(2)
    assert order[:4] == [(0, 0), (1, 1), (2, 2), (3, 3)]
    assert sorted(order) == [(x, y) for x in range(4) for y in range(4)]


def test_diagonal_order_is_permutation():
    for k in (1, 2, 3):
        order = diagonal_order(k)
        assert len(order) == 4 ** k
        assert len(set(order)) == 4 ** k
    with pytest.raises(InvalidInputError):
        diagonal_order(0)


def test_reference_layout_64_nodes():
    # 3 files at level 1, 19 at level 2, 3 at level 3 on the 8x8 grid, K=2.
    levels = [1] * 3 + [2] * 19 + [3] * 3
    canon = _levels_profile(levels, nu=3)
    pop = zipf(25, 1.0)
    grid = GridSpec(nu=3)
    placed = canonical_place(grid, canon, pop, 2)
    assert validate_capacity(placed)
    # File 3 (0-based id 2, level 1) gets 16 replicas every 2 nodes.
    reps = placed.replica_nodes(2)
    assert len(reps) == 16
    (x0, y0) = reps[0]
    assert set(reps) == {((x0 + 2 * i) % 8, (y0 + 2 * j) % 8) for i in range(4) for j in range(4)}


def test_full_replication_when_everything_level0():
    grid = GridSpec(nu=2)
    canon = _levels_profile([0, 0, 0], nu=2)
    placed = canonical_place(grid, canon, zipf(3, 1.0), 3)
    assert placed.buffers == (frozenset({0, 1, 2}),) * grid.node_count


def test_single_file_at_top_level():
    grid = GridSpec(nu=2)
    canon = _levels_profile([2], nu=2)
    placed = canonical_place(grid, canon, Popularity(np.array([1.0])), 1)
    assert len(placed.replica_nodes(0)) == 1


def test_measured_densities_match_canonical():
    rng = np.random.default_rng(5)
    for _ in range(20):
        nu = int(rng.integers(1, 4))
        cap = int(rng.integers(1, 4))
        levels = _random_levels(rng, nu, cap)
        canon = _levels_profile(levels, nu=nu)
        pop = zipf(len(levels), 1.0)
        placed = canonical_place(GridSpec(nu=nu), canon, pop, cap)
        assert np.array_equal(placed.measured_densities(), canon.densities)
        assert validate_capacity(placed)


def test_tiling_has_single_base():
    grid = GridSpec(nu=3)
    levels = [1, 1, 2, 2, 2, 3]
    canon = _levels_profile(levels, nu=3)
    placed = canonical_place(grid, canon, zipf(6, 0.8), 1)
    for m, k in enumerate(levels):
        period = 2 ** k
        reps = placed.replica_nodes(m)
        assert len(reps) == grid.node_count // 4 ** k
        x0, y0 = min(reps)
        expected = {
            ((x0 + i * period) % 8, (y0 + j * period) % 8)
            for i in range(8 // period)
            for j in range(8 // period)
        }
        assert set(reps) == expected


def test_occupancy_balance_within_submatrix():
    rng = np.random.default_rng(9)
    for _ in range(10):
        nu = int(rng.integers(1, 4))
        cap = int(rng.integers(1, 4))
        levels = _random_levels(rng, nu, cap)
        canon = _levels_profile(levels, nu=nu)
        placed = canonical_place(GridSpec(nu=nu), canon, zipf(len(levels), 1.2), cap)
        side = 2 ** nu
        occ = np.array([[len(placed.buffers[x * side + y]) for y in range(side)] for x in range(side)])
        assert occ.max() - occ.min() <= 1


def test_determinism():
    grid = GridSpec(nu=2)
    canon = _levels_profile([1, 1, 2, 2, 2], nu=2)
    pop = zipf(5, 1.0)
    a = canonical_place(grid, canon, pop, 1)
    b = canonical_place(grid, canon, pop, 1)
    assert a.buffers == b.buffers


def test_validate_capacity_violations():
    grid = GridSpec(nu=1)
    over = CachePlacement(
        grid=grid, capacity=1, file_count=2,
        buffers=(frozenset({0, 1}), frozenset(), frozenset(), frozenset()),
    )
    assert not validate_capacity(over)
    missing = CachePlacement(
        grid=grid, capacity=1, file_count=2,
        buffers=(frozenset({0}), frozenset(), frozenset(), frozenset()),
    )
    assert not validate_capacity(missing)


def test_canonical_place_input_validation():
    grid = GridSpec(nu=1)
    canon = _levels_profile([1, 1], nu=1)
    pop = zipf(2, 1.0)
    with pytest.raises(InvalidInputError):
        canonical_place(grid, canon, pop, 0)
    with pytest.raises(InvalidInputError):
        canonical_place(GridSpec(nu=2), canon, pop, 1)
    over = _levels_profile([0, 0], nu=1)
    with pytest.raises(InvalidInputError):
        canonical_place(grid, over, pop, 1)
    with pytest.raises(InvalidInputError, match="profile and popularity sizes differ"):
        canonical_place(grid, canon, zipf(3, 1.0), 1)


def test_render_matrix_smoke():
    grid = GridSpec(nu=1)
    canon = _levels_profile([1, 1, 1], nu=1)
    placed = canonical_place(grid, canon, Popularity(np.array([0.7, 0.2, 0.1])), 1)
    text = render_matrix(placed)
    assert text.splitlines() == ["1 .", "3 2"]


def _reference_place(grid, canon, pop, capacity):
    """Buffers from the original per-cell diagonal scan, kept as a reference."""
    side = grid.side
    p = pop.probs
    buffers = [set() for _ in range(grid.node_count)]

    for k in range(1, grid.nu + 1):
        members = np.flatnonzero(_levels_of(canon.counts) == k).tolist()
        if not members:
            continue
        order = diagonal_order(k)
        period = 2 ** k
        reps = side // period
        for m in sorted(members, key=lambda f: (-p[f], f)):
            anchor = None
            best = None
            for (x, y) in order:
                occ = len(buffers[x * side + y])
                if best is None or occ < best:
                    best = occ
                    anchor = (x, y)
            ax, ay = anchor
            for i in range(reps):
                for j in range(reps):
                    idx = (ax + i * period) * side + (ay + j * period)
                    buffers[idx].add(m)
                    if len(buffers[idx]) > capacity:
                        raise InternalInvariantError(
                            "cache capacity exceeded during placement"
                        )

    for m in np.flatnonzero(_levels_of(canon.counts) == 0).tolist():
        for buf in buffers:
            buf.add(m)
            if len(buf) > capacity:
                raise InternalInvariantError("cache capacity exceeded during placement")

    return tuple(frozenset(b) for b in buffers)


@st.composite
def _placement_cases(draw):
    nu = draw(st.integers(1, 6))
    cap = draw(st.integers(1, 3))
    tau = draw(st.sampled_from([0.0, 0.8, 2.0]))
    # The reference scans 4^k cells per file, so fewer files keep nu 5-6 quick.
    m_max = 40 if nu <= 4 else 20
    levels = _random_levels(np.random.default_rng(draw(st.integers(0, 10**6))), nu, cap, m_max)
    return nu, cap, tau, levels


@settings(max_examples=150, deadline=None)
@given(_placement_cases())
# tau = 0: every popularity ties, so files go in id order.
@example((3, 2, 0.0, [1] * 3 + [2] * 12 + [3] * 20))
# Side-2 grid, with a level-0 file.
@example((1, 2, 0.8, [0, 1, 1, 1]))
# Level 2 empty between occupied levels 1 and 3, level 4 on top.
@example((4, 1, 0.8, [1, 1, 3, 3, 3, 3, 3, 4, 4, 4]))
# Every file at level nu.
@example((2, 1, 2.0, [2] * 5))
# Level 2 needs three rounds: 4 cells at occupancy 0, 12 at 1, and 30 files.
@example((2, 3, 0.8, [1] * 3 + [2] * 30))
# The K*N - 1 catalog of solve_cd + canonical_truncate (K = 2): all at level nu.
@example((3, 2, 0.8, [3] * 127))
def test_canonical_place_matches_reference_scan(case):
    nu, cap, tau, levels = case
    canon = _levels_profile(levels, nu=nu)
    pop = zipf(len(levels), tau)
    grid = GridSpec(nu=nu)
    placed = canonical_place(grid, canon, pop, cap)
    assert placed.buffers == _reference_place(grid, canon, pop, cap)


def test_measured_densities_zero_for_uncached_file():
    placed = CachePlacement(
        grid=GridSpec(nu=1), capacity=1, file_count=3,
        buffers=(frozenset({0}), frozenset({0}), frozenset(), frozenset({1})),
    )
    assert placed.measured_densities().tolist() == [0.5, 0.25, 0.0]


def test_replica_nodes_row_major_for_arbitrary_placement():
    anti_diagonal = frozenset({1})
    buffers = [frozenset() for _ in range(16)]
    for idx in (12, 9, 6, 3):
        buffers[idx] = anti_diagonal
    placed = CachePlacement(
        grid=GridSpec(nu=2), capacity=1, file_count=2, buffers=tuple(buffers)
    )
    assert placed.replica_nodes(1) == [(0, 3), (1, 2), (2, 1), (3, 0)]
    assert placed.replica_nodes(0) == []


def test_replica_nodes_of_a_compact_placement_reads_its_lattice_without_buffers():
    grid = GridSpec(nu=6)
    pop = zipf(int(1.75 * grid.node_count), 2.0)
    placed = cli._build_placement(grid, 2.0, pop)
    side, levels = grid.side, np.repeat(np.arange(grid.nu + 1), placed.counts)
    anchors, _ = _reference_rounds(levels, grid.nu)
    for m in (0, 8, 1000, pop.m_count - 1):
        step = 2 ** int(levels[m])
        ax, ay = anchors[m].tolist()
        lattice = [(x, y) for x in range(ax, side, step) for y in range(ay, side, step)]
        assert placed.replica_nodes(m) == lattice
    assert "buffers" not in vars(placed)


def _reference_render_matrix(placement):
    """render_matrix as it was written with one buffer lookup per cell."""
    side = placement.grid.side
    compact = placement.file_count < 36
    digits = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ"
    cells = []
    for x in range(side):
        row = []
        for y in range(side):
            files = sorted(placement.buffers[x * side + y])
            if compact:
                row.append("".join(digits[m + 1] for m in files) or ".")
            else:
                row.append(",".join(str(m + 1) for m in files) or ".")
        cells.append(row)
    width = max((len(c) for row in cells for c in row), default=1)
    return "\n".join(" ".join(c.ljust(width) for c in row) for row in cells)


def _reference_to_json(placement):
    """CachePlacement.to_json's bytes as they were written with one buffer
    lookup per cell."""
    side = placement.grid.side
    doc = {
        "nu": placement.grid.nu,
        "capacity": placement.capacity,
        "file_count": placement.file_count,
        "buffers": {
            f"{x},{y}": sorted(placement.buffers[x * side + y]) for (x, y) in placement.grid.nodes()
        },
    }
    return json.dumps(doc).encode()


def _renderer_cases():
    rng = np.random.default_rng(17)
    for nu in range(1, 6):
        for cap in (1, 2, 3):
            # m_max 40 crosses the base-36 limit of 35 files.
            levels = _random_levels(rng, nu, cap, m_max=40)
            canon = _levels_profile(levels, nu=nu)
            yield canonical_place(GridSpec(nu=nu), canon, zipf(len(levels), 0.8), cap)
    # Catalogs just under and at the base-36 limit, some buffers empty.
    for m_count in (35, 36, 37):
        buffers = [frozenset() for _ in range(16)]
        buffers[0] = frozenset(range(m_count))
        buffers[5] = frozenset({m_count - 1})
        yield CachePlacement(
            grid=GridSpec(nu=2), capacity=m_count, file_count=m_count, buffers=tuple(buffers)
        )
    # Every buffer empty, on a side-2 and a side-1 grid.
    yield CachePlacement(grid=GridSpec(nu=1), capacity=1, file_count=2, buffers=(frozenset(),) * 4)
    yield CachePlacement(grid=GridSpec(nu=0), capacity=1, file_count=1, buffers=(frozenset(),))


def test_renderers_match_per_cell_reference():
    compact_seen = comma_seen = 0
    for placed in _renderer_cases():
        assert render_matrix(placed) == _reference_render_matrix(placed)
        assert placed.to_json() == _reference_to_json(placed)
        if placed.file_count < 36:
            compact_seen += 1
        else:
            comma_seen += 1
    assert compact_seen and comma_seen


# Values on both sides of the 4-digit chunk edges, up to 2^53 - 1.
_CHUNK_EDGE_VALUES = [0, 9, 10, 9999, 10000, 10001, 10000005, 99999999, 10**8, 2**53 - 1]


def test_decimal_digits_match_str():
    for values in (_CHUNK_EDGE_VALUES, *([v] for v in _CHUNK_EDGE_VALUES)):
        digits = _text._decimal_digits(np.array(values, dtype=np.int64))
        width = max(len(str(v)) for v in values)
        assert digits.dtype == np.uint8 and digits.shape == (len(values), width)
        expected = [str(v).rjust(width, "\0").encode() for v in values]
        assert [row.tobytes() for row in digits] == expected


# File ids whose 1-based labels, or themselves, sit at a chunk edge.
_EDGE_IDS = [9998, 9999, 10000, 99999998, 99999999, 10**8, 10**9 - 1]


@st.composite
def _buffer_placements(draw):
    nu = draw(st.integers(0, 4))
    cap = draw(st.integers(1, 5))
    # Both sides of the base-36 limit, and catalogs up to 10^9.
    count = draw(st.one_of(st.integers(1, 40), st.sampled_from([35, 36]), st.integers(41, 10**9)))
    edges = [m for m in _EDGE_IDS if m < count]
    ids = st.integers(0, count - 1)
    if edges:
        ids = st.one_of(ids, st.sampled_from(edges))
    # Cells may be empty; some draws leave every cell empty.
    buffers = draw(st.lists(st.frozensets(ids, max_size=cap), min_size=4**nu, max_size=4**nu))
    return CachePlacement(grid=GridSpec(nu=nu), capacity=cap, file_count=count, buffers=buffers)


@settings(max_examples=150, deadline=None)
@given(_buffer_placements())
def test_buffer_placement_renderers_match_per_cell_reference(placed):
    assert render_matrix(placed) == _reference_render_matrix(placed)
    assert placed.to_json() == _reference_to_json(placed)


@pytest.mark.parametrize(
    "nu, tau, m, stdout_sha256, output_sha256",
    [
        (
            6, "0.8", "0.5*N",
            "bffafe840a013d951262b2540e899263e3a0886f851a7edec52f98e834853591",
            "a8a877a81bc725ef9a3a7eb445aa4cf6676f251399d0eaa0eafaa74dab8f4b06",
        ),
        (
            6, "2", "1.75*N",
            "66a90e21a8368d0759b4e37c80ae4974f0b485c20c5ea6a6367df60b46bad0b0",
            "1a0e8235609ec3a5f829a9ea3aa627b7ae1846d04b33004d727e52075d6fddfa",
        ),
        (
            7, "0.8", "0.5*N",
            "0a0a9dedcd6c0446d7c9b0df063098a3c1b2bcff186524747a2a36e2934203ec",
            "206d470a77036cd9f3b85ed5f23428cf0c29be4d0cc67305bb034110ecdf1dfa",
        ),
        (
            7, "2", "1.75*N",
            "e72233f6c599809a07e3a51ff52f08dfddf59b3d27b8bb4a9f6bf5b3df5c362b",
            "a1c960f0e97065956e829108451d7b09c16ef881f7a709ea483c6ac15ecc8319",
        ),
    ],
    ids=["nu-6-tau-0.8", "nu-6-tau-2", "nu-7-tau-0.8", "nu-7-tau-2"],
)
def test_place_output_is_pinned(capsys, tmp_path, nu, tau, m, stdout_sha256, output_sha256):
    """The stdout and --output bytes of `place --K 2`, pinned.  At nu = 6
    these are the benchmark's two place instances.  At nu = 7, tau 2 the
    catalog (28,672 files) has 5-digit ids, across the first 4-digit chunk
    edge."""
    out = tmp_path / "placement.json"
    argv = ["place", "--nu", str(nu), "--K", "2", "--M", m, "--tau", tau, "--output", str(out)]
    assert cli.main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == stdout_sha256
    assert hashlib.sha256(out.read_bytes()).hexdigest() == output_sha256


def test_renderers_match_per_cell_reference_over_several_blocks():
    # 65,536 nodes: four blocks of columns for the planar tables.
    grid = GridSpec(nu=8)
    pop = zipf(int(0.5 * grid.node_count), 0.8)
    placed = cli._build_placement(grid, 2.0, pop)
    assert grid.node_count > _text._TEXT_ROWS
    assert render_matrix(placed) == _reference_render_matrix(placed)
    assert placed.to_json() == _reference_to_json(placed)


def test_to_json_memory_stays_below_the_node_major_table():
    # to_json at nu = 8, tau 2, M = 1.75 N (65,536 nodes, 1.6 MB of text),
    # the node table built beforehand.  Writing one node-major table and
    # copying it whole to bytes peaked at 7,186,733 bytes; the planar table,
    # transposed a block at a time, must not peak higher.
    grid = GridSpec(nu=8)
    pop = zipf(int(1.75 * grid.node_count), 2.0)
    placed = cli._build_placement(grid, 2.0, pop)
    placed._node_table
    tracemalloc.start()
    try:
        doc = placed.to_json()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(doc) == 1_634_570
    assert peak <= 7_186_733


@st.composite
def _counted_placements(draw):
    """Buffer placements with catalogs up to 10^4 files (the counts are
    file_count long), ids at both ends of the catalog, empty nodes, and
    nodes over capacity."""
    nu = draw(st.integers(0, 3))
    cap = draw(st.integers(1, 4))
    count = draw(st.integers(1, 10**4))
    ids = st.one_of(st.integers(0, count - 1), st.sampled_from([0, count - 1]))
    buffers = draw(st.lists(st.frozensets(ids, max_size=cap + 1), min_size=4**nu, max_size=4**nu))
    return CachePlacement(grid=GridSpec(nu=nu), capacity=cap, file_count=count, buffers=buffers)


@settings(max_examples=150, deadline=None)
@given(_counted_placements())
# Every node empty, so the node table has width 0.
@example(CachePlacement(grid=GridSpec(nu=1), capacity=1, file_count=3, buffers=(frozenset(),) * 4))
# The 1-node grid, holding the first and the last id.
@example(CachePlacement(grid=GridSpec(nu=0), capacity=2, file_count=10**4, buffers=[{0, 10**4 - 1}]))
@example(CachePlacement(grid=GridSpec(nu=0), capacity=1, file_count=1, buffers=[{0}]))
# File 1 of 3 cached nowhere, every node within capacity.
@example(CachePlacement(grid=GridSpec(nu=1), capacity=2, file_count=3,
                        buffers=({0, 2}, {0}, {2}, set())))
def test_replica_counts_match_masked_bincount(placed):
    """measured_densities and validate_capacity count replicas from the
    replica table's offsets, as the node table's masked bincount does."""
    table = placed._node_table
    counts = np.bincount(table[table >= 0], minlength=placed.file_count)
    densities = placed.measured_densities()
    assert densities.shape == (placed.file_count,)
    assert np.array_equal(densities, counts / placed.grid.node_count)
    fits = max(map(len, placed.buffers)) <= placed.capacity
    assert validate_capacity(placed) == (fits and bool(np.all(counts > 0)))


def _reference_buffers(placed):
    """The frozensets canonical_place used to build, one per node, from the
    (node, file) key sort (_reference_node_major)."""
    files, bounds = (v.tolist() for v in _reference_node_major(placed))
    return tuple(frozenset(files[a:b]) for a, b in zip(bounds, bounds[1:]))


@st.composite
def _compact_cases(draw):
    """(nu, K, tau, catalog): catalog is a list of levels, or a catalog size
    for solve_cd and canonical_truncate."""
    nu = draw(st.integers(0, 6))
    cap = draw(st.integers(1, 3))
    tau = draw(st.sampled_from([0.0, 0.8, 2.0]))
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 10**6)))
        return nu, cap, tau, _random_levels(rng, nu, cap, m_max=60)
    return nu, cap, tau, draw(st.integers(1, cap * 4 ** nu))


@settings(max_examples=100, deadline=None)
@given(_compact_cases())
# Side-2 grids: a level-0 file with level-1 files, and a solved catalog.
@example((1, 2, 0.8, [0, 1, 1, 1]))
@example((1, 1, 2.0, 4))
# Levels 2 and 5 empty between occupied levels.
@example((6, 1, 0.8, [1, 1, 3, 3, 3, 3, 3, 4, 4, 4, 6]))
# All files at level 0, on a 64-node and on the 1-node grid.
@example((3, 3, 0.8, [0, 0, 0]))
@example((0, 2, 0.0, [0, 0]))
# The K*N - 1 catalog, all at level nu; and equal popularities.
@example((3, 2, 0.8, 127))
@example((5, 3, 2.0, 3 * 4**5 - 1))
@example((3, 2, 0.0, 100))
def test_compact_form_matches_buffers_form(case):
    nu, cap, tau, catalog = case
    grid = GridSpec(nu=nu)
    if isinstance(catalog, int):
        pop = zipf(catalog, tau)
        canon = canonical_truncate(solve_cd(grid.node_count, float(cap), pop))
    else:
        pop = zipf(len(catalog), tau)
        canon = _levels_profile(catalog, nu=nu)
    placed = canonical_place(grid, canon, pop, cap)
    assert placed.counts is canon.counts
    for k, _, _, ax, ay in placement._rounds(placed.counts, nu):
        assert np.all((ax >= 0) & (ax < 2**k) & (ay >= 0) & (ay < 2**k))
    # Renderers and loads first: none of them may need the buffers.
    text, doc = render_matrix(placed), placed.to_json()
    loads = link_loads(grid, placed, pop).loads if nu else None
    hops = total_hop_load(grid, placed, pop)
    densities = placed.measured_densities()
    assert "buffers" not in vars(placed)

    assert placed.buffers == _reference_buffers(placed)
    assert text == _reference_render_matrix(placed)
    assert doc == _reference_to_json(placed)
    # The same placement as buffers goes through the batched kernel: the
    # same loads within 1e-12 of the largest, the same unloaded links, and
    # the same integer hop totals, so the same total.
    plain = CachePlacement(grid=grid, capacity=cap, file_count=canon.m_count, buffers=placed.buffers)
    assert text == render_matrix(plain) and doc == plain.to_json()
    if nu:
        kernel = link_loads(grid, plain, pop).loads
        assert np.abs(kernel - loads).max() <= 1e-12 * loads.max()
        assert np.array_equal(kernel == 0.0, loads == 0.0)
    assert hops == total_hop_load(grid, plain, pop)
    assert np.array_equal(densities, plain.measured_densities())
    assert validate_capacity(placed) and validate_capacity(plain)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 3).flatmap(lambda nu: st.lists(st.integers(0, 9), min_size=nu + 1, max_size=nu + 1)),
    st.integers(-3, 2),
)
# The 1-node grid: empty, and one file short of its two.
@example([0], 0)
@example([2], -1)
# Side-2 and side-4 grids one slot short, full and one slot spare.
@example([1, 5], -1)
@example([0, 4, 9], 0)
@example([3, 0, 1], 1)
def test_compact_capacity_check_matches_node_table(counts, offset):
    """validate_capacity of a compact placement, read from its counts,
    against the same placement given by buffers, read from its node table;
    capacity is offset from the largest occupancy."""
    nu = len(counts) - 1
    grid = GridSpec(nu=nu)
    capacity = max(placement._max_occupancy(np.array(counts), nu) + offset, 0)
    placed = CachePlacement(grid=grid, capacity=capacity, file_count=sum(counts), counts=counts)
    got = validate_capacity(placed)
    assert "_node_table" not in vars(placed)
    plain = CachePlacement(
        grid=grid, capacity=capacity, file_count=sum(counts), buffers=placed.buffers
    )
    assert got == validate_capacity(plain) == (max(map(len, plain.buffers)) <= capacity)


def _reference_rounds(levels, nu):
    """Anchors and round values by the round loop canonical_place used to
    run: per level, with o the block read in diagonal order, round w lists
    in rank order every cell with o <= w, from w = min(o) up, and the
    level's files (ascending id) take the rounds' cells in turn.  A file's
    round value is the w of its round.  Checks on the way that occupancy
    differs by at most 1 between cells before every level."""
    block = np.zeros((1, 1), dtype=np.int64)
    anchors = np.zeros((levels.size, 2), dtype=np.int64)
    values = np.full(levels.size, -1, dtype=np.int64)
    for k in range(1, nu + 1):
        ids = np.flatnonzero(levels == k)
        if ids.size == 0:
            continue
        s = 2 ** k
        copies = s // block.shape[0]
        block = np.tile(block, (copies, copies))
        assert block.max() - block.min() <= 1
        xs, ys = np.array(diagonal_order(k)).T
        o = block[xs, ys]
        rounds, w, need = [], int(o.min()), ids.size
        while need:
            cells = np.flatnonzero(o <= w)[:need]
            rounds.append(cells)
            values[ids[ids.size - need:ids.size - need + cells.size]] = w
            need -= cells.size
            w += 1
        ranks = np.concatenate(rounds)
        ax, ay = xs[ranks], ys[ranks]
        block += np.bincount(ax * s + ay, minlength=s * s).reshape(s, s)
        anchors[ids, 0], anchors[ids, 1] = ax, ay
    return anchors, values


@st.composite
def _level_sets(draw):
    """(nu, levels): random non-decreasing levels for 1..300 files."""
    nu = draw(st.integers(1, 5))
    return nu, sorted(draw(st.lists(st.integers(0, nu), min_size=1, max_size=300)))


def _place_levels(nu, levels, tau=0.8):
    """canonical_place on the given levels at the least capacity they fit."""
    levels = np.array(levels, dtype=np.int64)
    counts = np.bincount(levels, minlength=nu + 1)
    replicas = sum(int(c) * 4 ** (nu - k) for k, c in enumerate(counts) if k)
    cap = int(counts[0]) - (-replicas // 4**nu) or 1
    canon = _levels_profile(levels, nu=nu)
    return canonical_place(GridSpec(nu=nu), canon, zipf(levels.size, tau), cap)


@settings(max_examples=200, deadline=None)
@given(_level_sets())
# Several rounds at level 1 after a partly filled level, and one file per level.
@example((2, [1] * 9 + [2] * 7))
@example((3, [1, 2, 3]))
# Level 2 empty between levels 1 and 3; every file at level 0; the 1-node
# grid; the side-2 grid with a level-0 file.
@example((3, [0, 1, 1, 3, 3, 3]))
@example((3, [0, 0, 0]))
@example((0, [0, 0]))
@example((1, [0, 1, 1, 1, 1, 1]))
def test_closed_form_rounds_match_reference_loop(case):
    nu, levels = case
    placed = _place_levels(nu, levels)
    levels = _levels_of(placed.counts)
    anchors, values = _reference_rounds(levels, nu)
    closed = np.zeros_like(anchors)
    closed_values = np.full(levels.size, -1, dtype=np.int64)
    for k, ids, w, ax, ay in placement._rounds(placed.counts, nu):
        assert np.all(levels[ids] == k)
        # Distinct anchors within a round, as _lattice_loads' indexed add needs.
        assert np.unique(ax * 2**k + ay).size == ids.stop - ids.start
        closed[ids, 0], closed[ids, 1] = ax, ay
        closed_values[ids] = w
    assert np.array_equal(closed, anchors)
    assert np.array_equal(closed_values, values)


def _reference_node_major(placed):
    """Every held id, grouped by node in row-major order and ascending
    within a node, and the offsets of each node's ids: by one sort of
    (node, file) keys for a compact placement, as the per-node view used to
    be built, and from the sorted buffers otherwise."""
    if placed.counts is None:
        sizes = np.array([len(b) for b in placed.buffers], dtype=np.int64)
        files = np.array([m for b in placed.buffers for m in sorted(b)], dtype=np.int64)
    else:
        side, count, levels = placed.grid.side, placed.file_count, _levels_of(placed.counts)
        anchors, _ = _reference_rounds(levels, placed.grid.nu)
        keys = []
        for k in np.unique(levels).tolist():
            ids = np.flatnonzero(levels == k)
            steps = np.arange(0, side, 2 ** k, dtype=np.int64)
            ax, ay = anchors[ids, 0], anchors[ids, 1]
            cells = (ax[:, None, None] + steps[:, None]) * side + ay[:, None, None] + steps
            keys.append((cells * count + ids[:, None, None]).ravel())
        nodes, files = np.divmod(np.sort(np.concatenate(keys)), count)
        sizes = np.bincount(nodes, minlength=placed.grid.node_count)
    bounds = np.zeros(sizes.size + 1, dtype=np.int64)
    np.cumsum(sizes, out=bounds[1:])
    return files, bounds


def _assert_node_table_matches_reference(placed):
    files, bounds = _reference_node_major(placed)
    sizes = np.diff(bounds)
    table = placed._node_table
    expect = np.full((sizes.size, sizes.max()), -1, dtype=np.int64)
    expect[np.arange(expect.shape[1]) < sizes[:, None]] = files
    assert table.dtype == np.int64 and np.array_equal(table, expect)
    assert not table.flags.writeable


@settings(max_examples=100, deadline=None)
@given(_compact_cases())
# tau = 0 ties, all at level nu.
@example((3, 2, 0.0, 100))
# Level 2 empty between levels 1 and 3, with level-0 files; every file at
# level 0; the 1-node grid.
@example((3, 3, 0.0, [0, 0, 1, 1, 3, 3, 3]))
@example((3, 3, 0.8, [0, 0, 0]))
@example((0, 2, 0.8, [0, 0]))
# Side-2 grids: a level-0 file with level-1 files, and a solved catalog.
@example((1, 2, 0.8, [0, 1, 1, 1]))
@example((1, 1, 2.0, 4))
# Nodes left empty: one file on the 64-node grid.
@example((3, 1, 0.8, [3]))
def test_compact_node_table_matches_node_file_sort(case):
    nu, cap, tau, catalog = case
    grid = GridSpec(nu=nu)
    if isinstance(catalog, int):
        pop = zipf(catalog, tau)
        canon = canonical_truncate(solve_cd(grid.node_count, float(cap), pop))
    else:
        pop = zipf(len(catalog), tau)
        canon = _levels_profile(catalog, nu=nu)
    _assert_node_table_matches_reference(canonical_place(grid, canon, pop, cap))


@settings(max_examples=100, deadline=None)
@given(_buffer_placements())
def test_buffer_node_table_matches_sorted_buffers(placed):
    _assert_node_table_matches_reference(placed)


def test_skewed_buffer_node_table():
    # One node holds 300 files, far above the mean of under one per node;
    # every other row is padding past its one or no id.
    grid = GridSpec(nu=3)
    buffers = [frozenset({m % 7}) if m % 3 else frozenset() for m in range(grid.node_count)]
    buffers[37] = frozenset(range(300))
    placed = CachePlacement(grid=grid, capacity=300, file_count=300, buffers=buffers)
    _assert_node_table_matches_reference(placed)
    assert placed._node_table.shape == (64, 300)
    assert render_matrix(placed) == _reference_render_matrix(placed)
    assert placed.to_json() == _reference_to_json(placed)
    assert validate_capacity(placed)
    assert not validate_capacity(
        CachePlacement(grid=grid, capacity=299, file_count=300, buffers=buffers)
    )


@pytest.mark.parametrize("tau, m", [(0.8, 0.5), (2.0, 1.75), (0.0, 2.0)])
def test_delivery_builds_no_node_table(tau, m):
    grid = GridSpec(nu=4)
    pop = zipf(max(1, int(m * grid.node_count) - (tau == 0.0)), tau)
    placed = canonical_place(grid, canonical_truncate(solve_cd(grid.node_count, 2.0, pop)), pop, 2)
    link_loads(grid, placed, pop)
    total_hop_load(grid, placed, pop)
    placed.measured_densities()
    assert "_node_table" not in vars(placed) and "buffers" not in vars(placed)


def test_canonical_place_keeps_only_the_levels():
    # The placement is the profile's level counts: at nu = 9, tau 2 and
    # M = 1.75 N (458,752 files) an (M, 2) int64 anchor array would keep
    # 7.3 MB.
    grid = GridSpec(nu=9)
    pop = zipf(int(1.75 * grid.node_count), 2.0)
    canon = canonical_truncate(solve_cd(grid.node_count, 2.0, pop))
    tracemalloc.start()
    try:
        placed = canonical_place(grid, canon, pop, 2)
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert placed.counts is canon.counts
    assert kept < 2**20


def _reachable_arrays(*roots):
    """Every ndarray reachable from the roots through instance attributes
    (vars()), tuples, lists and dicts."""
    seen, stack, found = set(), list(roots), []
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            found.append(obj)
        elif isinstance(obj, (tuple, list)):
            stack.extend(obj)
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif hasattr(obj, "__dict__"):
            stack.extend(vars(obj).values())
    return found


@pytest.mark.parametrize("tau, m", [(0.8, 0.5), (2.0, 1.75), (0.0, 2.0)])
def test_canonical_path_keeps_nothing_catalog_sized(tau, m):
    # The profile and the compact placement hold nu + 1 level counts, and
    # what simulate reads of them is made afresh, not kept.
    grid = GridSpec(nu=5)
    pop = zipf(int(m * grid.node_count) - (tau == 0.0), tau)
    canon = canonical_truncate(solve_cd(grid.node_count, 2.0, pop))
    placed = canonical_place(grid, canon, pop, 2)
    assert [a.shape for a in _reachable_arrays(canon, placed)] == [(6,)]
    link_loads(grid, placed, pop)
    total_hop_load(grid, placed, pop)
    assert placed.measured_densities().size == canon.densities.size == pop.m_count
    assert not [a.shape for a in _reachable_arrays(canon, placed) if a.size >= pop.m_count]


def test_simulate_builds_no_buffers(monkeypatch, capsys):
    placed = []

    def place(*args):
        placed.append(real_place(*args))
        return placed[-1]

    def no_table(*args):
        raise AssertionError("simulate read the replica table")

    real_place = placement.canonical_place
    monkeypatch.setattr(placement, "canonical_place", place)
    monkeypatch.setattr(placement, "_replica_table", no_table)
    for tau, m in (("0.8", "0.5*N"), ("2", "1.75*N"), ("0", "K*N - 1")):
        assert cli.main(["simulate", "--nu", "4", "--K", "2", "--M", m, "--tau", tau]) == 0
    assert "load_identity_residual" in capsys.readouterr().out
    assert len(placed) == 3
    assert all("buffers" not in vars(p) and p.counts is not None for p in placed)
    assert all("_node_table" not in vars(p) for p in placed)
    assert all("_hops" not in vars(p) for p in placed)


def test_placement_takes_one_form():
    grid = GridSpec(nu=1)
    with pytest.raises(InvalidInputError):
        CachePlacement(grid=grid, capacity=1, file_count=1)
    placed = CachePlacement(grid=grid, capacity=1, file_count=1, counts=[1, 0])
    assert placed.buffers == (frozenset({0}),) * 4
    with pytest.raises(InvalidInputError):
        CachePlacement(
            grid=grid, capacity=1, file_count=1, buffers=(frozenset({0}),) * 4, counts=[1, 0]
        )


_COUNT_CHECKS = [
    # A count past level nu would hold files at a level above nu.
    ([0, 1, 0, 1], r"nu = 2 needs 3 level counts, got shape \(4,\)"),
    ([1, 1], r"nu = 2 needs 3 level counts, got shape \(2,\)"),
    ([3, -1, 0], "level 1 has a negative count, -1"),
    ([0.5, 1.5, 0.0], "level counts must be integers, got float64"),
    ([1, 0, 0], "level counts sum to 1, not file_count 2"),
]
_COUNT_IDS = [
    "level-above-nu", "levels-short", "negative-level", "non-integer", "sum-not-file-count",
]


@pytest.mark.parametrize("counts, message", _COUNT_CHECKS, ids=_COUNT_IDS)
def test_compact_form_is_checked(counts, message):
    with pytest.raises(InvalidInputError, match=message):
        CachePlacement(grid=GridSpec(nu=2), capacity=2, file_count=2, counts=counts)


@pytest.mark.parametrize("counts, message", _COUNT_CHECKS[:4], ids=_COUNT_IDS[:4])
def test_canonical_profile_counts_are_checked(counts, message):
    with pytest.raises(InvalidInputError, match=message):
        CanonicalProfile(counts=counts, nu=2)


@pytest.mark.parametrize("count", [3, 5])
def test_buffer_count_must_match_the_grid(count):
    with pytest.raises(InvalidInputError, match=f"{count} buffers for a grid of 4 nodes"):
        CachePlacement(
            grid=GridSpec(nu=1), capacity=1, file_count=1, buffers=(frozenset({0}),) * count
        )


@pytest.mark.parametrize(
    "file_count, buffers, message",
    [
        (3, ({0, -3}, {1}, {2}, set()), "file id -3 is negative"),
        (3, ({0, -2}, {1}, {2}, set()), "file id -2 is negative"),
        (3, ({0, 40}, {1}, {2}, set()), "file id 40 outside 0..2"),
        # A negative id is named before an id past the catalog: the node
        # table's -1 padding could not tell it apart.
        (2, ({0, -3}, {1, 7}, set(), set()), "file id -3 is negative"),
        (2, ({0, 5}, {1}, set(), {0}), "file id 5 outside 0..1"),
        (2, ({0, -1}, {1}, set(), {0}), "file id -1 is negative"),
    ],
    ids=["negative-3", "negative-2", "past-40", "negative-before-past", "past-5", "negative-1"],
)
def test_constructor_refuses_ids_outside_the_catalog(file_count, buffers, message):
    # Refused when built, so no renderer, replica_nodes or delivery kernel
    # ever reads the id.
    with pytest.raises(InvalidInputError, match=message):
        CachePlacement(
            grid=GridSpec(nu=1), capacity=2, file_count=file_count,
            buffers=tuple(map(frozenset, buffers)),
        )
