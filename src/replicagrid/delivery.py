"""Per-link traffic under nearest-replica shortest-path delivery.

Each node issues requests at unit rate; a request for file m is served by
the nearest replica (ties to the north, then west).  I-shaped routes carry
the full request stream, the two L-shaped routes half each.  Both traffic
directions accumulate on the same undirected link.

The placement's form chooses the path.  A compact placement (every file
on one 2^k-periodic lattice, as canonical_place makes it) is loaded per
level in closed form, and its hop total read from one entry per level.
A placement given by buffers is served file by file by one batched
kernel: consecutive files in key blocks of _BLOCK_NODE_FILES node-file
pairs, the nearest replica of every node by two scans over an integer
selection key, each walking its cyclic axis one position per step across
every file and line of the block (_serving_keys, _cyclic_minimum), and
the half-route counts of the files of a cache-sized sub-block, node-major
like the loads (_run_counts): every run's start and stop from one take
per axis from a table of (client, server) coordinate pairs (_pair_table),
counted by one bincount per axis and sign on doubled lines of 2 side
positions.  The keys are int32 up to nu = 8 and int64 from nu = 9, the
narrowest type that holds the scans' bound of 36 n side + 8 n
(_key_dtype).  The pair table and the clients' side of every take and
line id (_run_tables) are made once per call and never kept.  The grid
side is 2^nu, so the kernel indexes by shifts and masks.  Its replica
table is built once and kept on the placement (CachePlacement._replicas).

Each file of a placement given by buffers is served once for its hop
total: link_loads and total_hop_load write the total, the key's hops
summed over the nodes, into the placement's hop record
(CachePlacement._hops, M int64 values, -1 until known), and
total_hop_load serves only files not yet recorded.  A total depends on
the placement alone, not on popularity, so writing it again gives the
same value.  Every call checks that the grid is the placement's.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import BinaryIO

import numpy as np

from ._text import _TEXT_ROWS, _decimal_digits, _g12_digits, _text_blocks
from .errors import InvalidInputError
from .grid import COLUMN, ROW, GridSpec
from .placement import CachePlacement, _rounds
from .popularity import Popularity, _frozen

REQUEST_RATE = 1.0  # per-node request rate; other rates follow by scaling
# Node-file pairs per key block (_serving_keys), 1 MiB per int64 array of
# the block and 512 KiB per int32 one (_key_dtype): a scan step spans many
# files at low nu, and a block stays small at high nu.  _run_counts peaks
# at about 16 int64 arrays of its block's size against about 4 key arrays,
# and ran fastest on a sixteenth of a key block (8 files at nu = 5), so it
# runs in sub-blocks of that size.  With int32 keys, key blocks of 2^18
# pairs (the same bytes), with sub-blocks of a sixteenth or of 2^13 pairs,
# were no faster at nu = 5 or 7.
_BLOCK_NODE_FILES = 2**17


@dataclass(frozen=True)
class LinkLoadMap:
    """Loads for the 2N links, by the link index of the grid module:
    link 2i is the row link of row-major node i, 2i + 1 its column link.
    Checked when built: the grid has links (nu >= 1) and there are 2N
    loads, so no reader checks them again."""

    grid: GridSpec
    loads: np.ndarray

    def __post_init__(self) -> None:
        if self.grid.nu == 0:
            raise InvalidInputError("the 1-node grid has no links")
        loads = _frozen(np.asarray(self.loads, dtype=float))
        if loads.shape != (links := 2 * self.grid.node_count,):
            raise InvalidInputError(f"{links} links need {links} loads, got shape {loads.shape}")
        object.__setattr__(self, "loads", loads)


def worst_link(load_map: LinkLoadMap) -> float:
    return float(load_map.loads.max())


def avg_link(load_map: LinkLoadMap) -> float:
    return float(load_map.loads.mean())


def _block_files(grid: GridSpec, pairs: int) -> int:
    """Files per block of `pairs` node-file pairs (one file when a file
    alone has more nodes)."""
    return max(1, pairs // grid.node_count)


def _blocks(grid: GridSpec, count: int, pairs: int):
    """Slices of `count` consecutive files, `pairs` node-file pairs each
    (_block_files)."""
    step = _block_files(grid, pairs)
    for lo in range(0, count, step):
        yield slice(lo, lo + step)


def _serving_keys(
    grid: GridSpec, coords: np.ndarray, offsets: np.ndarray, files: np.ndarray
) -> np.ndarray:
    """Selection key of every node's serving replica, (len(files), N), for
    each listed file of the replica table (coords, offsets).

    The key of replica (rx, ry) for node (x, y) is n (9 hops + tie) + rx side
    + ry, with tie = 3 (sign dx + 1) + sign dy + 1 over the signed offsets
    from node to replica: fewest hops, then north before south, then west
    before east.  Distinct replicas have distinct keys, so the least key
    picks one exactly: key % n is the serving node and key // 9n the hops.

    The key is a row term in (x, rx) plus a column term in (y, ry), so it is
    minimised in two scans of _cyclic_minimum, each along the leading axis
    of a (side, files, side) array: first over ry, the least column term
    per client column y, file and replica row rx; then over rx, per client
    row x, file and client column y.  Each scan costs O(N) per file.  A
    cell with no replica holds 18 n side, past every real key (below
    n (9 side + 9)), so every intermediate stays below 36 n side + 8 n:
    inside int32 up to nu = 8 and int64 up to nu = 19.  The keys are made
    in the narrower type that fits (_key_dtype), so up to nu = 8 the scans
    move half the bytes.
    """
    side, n = grid.side, grid.node_count
    counts = offsets[files + 1] - offsets[files]
    owner = np.repeat(np.arange(files.size), counts)
    rows = np.arange(owner.size) + np.repeat(offsets[files] - (np.cumsum(counts) - counts), counts)
    rx, ry = coords[rows, 0], coords[rows, 1]
    dtype = _key_dtype(grid)
    value = np.full((side, files.size, side), 18 * n * side, dtype=dtype)
    value[ry, owner, rx] = ry
    _cyclic_minimum(value, 9 * n, n)
    value += np.arange(0, n, side, dtype=dtype)
    # Each scan overwrites its input and the input of the second replaces
    # the first's, so the block holds about four arrays of its size at once.
    key = value.transpose(2, 1, 0).copy()
    del value
    _cyclic_minimum(key, 9 * n, 3 * n)
    return key.swapaxes(0, 1).reshape(files.size, n)


def _key_dtype(grid: GridSpec) -> type:
    """The narrowest signed integer type that holds every intermediate of
    the key scans (_serving_keys), 36 n side + 8 n: int32 up to nu = 8,
    int64 from nu = 9."""
    n = grid.node_count
    return np.int32 if 36 * n * grid.side + 8 * n <= np.iinfo(np.int32).max else np.int64


def _cyclic_minimum(value: np.ndarray, step: int, tie: int) -> None:
    """Overwrite value, a signed integer array (side, ...) with trailing
    axes, with the cyclic minimum along its leading axis, worked out in
    value's own dtype: for each position p on a cycle of length side, the
    least value[q] + step d + tie t over positions q at cyclic distance d,
    with t = 0 for q before p (a decreasing step, as at d = side/2), 1 for
    q = p and 2 for q after p.

    The least term from q before p is step p plus the least value[q] - step q
    over q < p, and over the half lap before position 0 (q - side for q >=
    side/2); likewise after p.  One scan per direction walks the leading
    axis, one np.minimum over a whole slice of the other axes per position.
    The half laps also reach some q at more than side/2 the other way
    round, or at d = side: those terms exceed the right one (step > 2 tie),
    so the minimum is unchanged.  For values, step and tie >= 0 every
    intermediate lies in [-step side, max value + 2 step side + 2 tie],
    which must fit the dtype.
    """
    side = value.shape[0]
    half = (side + 1) // 2  # side / 2, or 1 on the one-position cycle
    ramp = step * np.arange(side, dtype=value.dtype).reshape((side,) + (1,) * (value.ndim - 1))
    # before[p] becomes the least value[q] - step q over q < p, before[0]
    # the half lap before position 0; after[p] the least value[q] + step q
    # + 2 tie over q >= p, after[side] the half lap after side - 1.
    before = np.empty((side + 1,) + value.shape[1:], dtype=value.dtype)
    after = np.empty_like(before)
    np.subtract(value, ramp, out=before[1:])
    np.add(value, ramp + 2 * tie, out=after[:-1])
    np.add(before[side + 1 - half:].min(axis=0), step * side, out=before[0])
    np.add(after[:half].min(axis=0), step * side, out=after[side])
    for p in range(1, side):
        np.minimum(before[p - 1], before[p], out=before[p])
        np.minimum(after[side - p + 1], after[side - p], out=after[side - p])
    value += tie
    before = before[:-1]
    before += ramp
    np.minimum(value, before, out=value)
    after = after[1:]
    after -= ramp
    np.minimum(value, after, out=value)


def _lattice_loads(
    grid: GridSpec, counts: np.ndarray, probs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Row and column link loads, each (side, side) by owning node, of the
    compact placement with the given level counts under request weights
    REQUEST_RATE probs (files at level 0 are held everywhere and load
    nothing).  Each round scales only its own files' slice of probs.

    One replica at (0, 0) on a 2^k torus of side s loads row link (x, y)
    with (w/2) h[y] (1 + s [x == 0]), h[y] = |y - s/2|, and column links
    with the transpose; the 2^k-periodic lattice repeats that torus.  So
    level k is an s x s matrix A of weight per anchor times the circulant
    H[b, y] = h[(y - b) mod s], tiled over the grid.  Every term is a
    non-negative weight times a non-negative integer, so a link that
    carries nothing stays at exactly 0.

    A is summed from the placement's rounds (_rounds), in file order within
    a level.  A round's anchors are distinct, so one indexed add per round
    adds each cell's files in ascending id order onto an exact 0, as one
    bincount over the level's files would.  The sums are kept at the last
    level's period, tiled up to each next level's and to the grid once at
    the end: each cell adds its levels' terms in level order onto an exact
    0, as sums over the whole grid would.
    """
    masses = {}
    for k, ids, _, ax, ay in _rounds(counts, grid.nu):
        if k not in masses:
            masses[k] = np.zeros(4 ** k)
        masses[k][(ax << k) + ay] += REQUEST_RATE * probs[ids]
    rows = cols = np.zeros((1, 1))
    for k in list(masses):
        s = 2 ** k
        # Popped, so each level's matrix is freed once its products are in.
        a = masses.pop(k).reshape(s, s)
        h = np.abs(np.arange(s) - s // 2).astype(float)
        circ = h[(np.arange(s)[None, :] - np.arange(s)[:, None]) % s]
        # The sums so far have the last level's period: tile them to s.
        tiles = (s // rows.shape[0],) * 2
        rows = np.tile(rows, tiles) + 0.5 * (s * (a @ circ) + a.sum(axis=0) @ circ)
        cols = np.tile(cols, tiles) + 0.5 * (s * (circ.T @ a) + (circ.T @ a.sum(axis=1))[:, None])
    tiles = (grid.side // rows.shape[0],) * 2
    return np.tile(rows, tiles), np.tile(cols, tiles)


def _pair_table(grid: GridSpec) -> np.ndarray:
    """The (start, unmasked stop) of the run from client coordinate c to
    server coordinate t along one axis (_run_counts), as an (N, 2) int32
    table with row (c << nu) | t.  It takes 8 N bytes (128 MiB at
    nu = 12), so each link_loads call makes it once (_run_tables) and
    nothing keeps it."""
    side, mask = grid.side, grid.side - 1
    coord = np.arange(side)
    delta = (coord - coord[:, None]) & mask  # [c, t]: (t - c) mod side
    delta -= side * (2 * delta >= side)  # signed; a tie at side/2 goes negative
    table = np.empty((side, side, 2), dtype=np.int32)
    table[..., 0] = (coord[:, None] + np.minimum(delta, 0)) & mask
    table[..., 1] = table[..., 0] + np.abs(delta)
    return table.reshape(-1, 2)


def _run_tables(grid: GridSpec, files: int) -> tuple:
    """What _run_counts reads in every sub-block of up to `files` files,
    made once per link_loads call and never kept: the pair
    table (_pair_table), each file's first line id 2 N f as a (files, 1)
    column, and per axis the client's pair-table row offset c << nu, (N,),
    and its line ids by file, (files, N).  A row run's client coordinate
    is y_c and its client line row x_c; a column run's are x_c and column
    y_c."""
    nu, n = grid.nu, grid.node_count
    xc, yc = np.divmod(np.arange(n), grid.side)
    base = np.arange(0, 2 * files * n, 2 * n)[:, None]
    clients = ((yc << nu, (xc << nu + 1) + base), (xc << nu, (yc << nu + 1) + base))
    return _pair_table(grid), base, clients


def _run_counts(grid: GridSpec, keys: np.ndarray, tables: tuple) -> np.ndarray:
    """Per-link count of half-routes of each file served by keys, as a
    (files, side, side, 2) integer array by owning node (x, y): [..., 0]
    the row link, [..., 1] the column link, the interleaved order of loads.

    A client's demand goes half along the x-first L-route (along column
    y_c to row x_s, then along row x_s) and half along the y-first one
    (along row x_c to column y_s, then along column y_s); an I-route is
    the case where the two coincide.  Each half-route is one cyclic run per
    axis, from the client's coordinate c toward the server's t: |delta|
    links, delta the signed offset with a tie at side/2 going negative.  A
    step toward a lower coordinate crosses the link owned by the node it
    lands on, so the run covers the links owned by positions start =
    (c + min(delta, 0)) & (side - 1) up to the unmasked stop = start +
    |delta|, in [0, 3 side / 2).  Both depend on (c, t) alone, so one take
    from the pair table per axis gives every run's; the client's side of
    the take and of the line ids comes from the call's tables
    (_run_tables).  Keys may be int32 or int64 (_key_dtype).

    Runs are counted on doubled lines of 2 side positions: +1 at start and
    -1 at stop, one bincount per sign over all runs of all files.  The
    count at position p is then the cumulative sum at p plus that at
    p + side.  So the second half is added onto the first, the first
    half's sum (the runs that wrap past the line end) goes in at position
    0, and a cumulative sum along each line gives the counts.
    """
    nu, side, n = grid.nu, grid.side, grid.node_count
    table, base, clients = tables
    files, mask = keys.shape[0], side - 1
    size = 2 * files * n
    xs, ys = (keys >> nu) & mask, keys & mask  # key % n is the server
    counts = np.empty((files, side, side, 2), dtype=np.int64)
    server = np.empty((files, n), dtype=np.int64)
    at = np.empty((2, files, n), dtype=np.int64)
    # Each axis's counts are summed in every other slot of `at`, free once
    # its bincounts are done: with numpy 2.4, a cumulative sum along a
    # strided view ran three to four times as fast as along contiguous rows.
    flat = at.reshape(-1, 2)[:, 0]
    runs = flat.reshape(files * side, side)
    # Lines are numbered file by file, a line's first position at 2 side
    # line: rows x by column position y, then columns y by row position x.
    # A row run lies on row x_s or x_c from client column y_c to y_s, a
    # column run on column y_c or y_s from client row x_c to x_s.
    for axis, line, (client, client_line), target in ((0, xs, clients[0], ys), (1, ys, clients[1], xs)):
        np.left_shift(line, nu + 1, out=server)
        server += base[:files]
        client_line = client_line[:files]
        ends = np.take(table, client | target, axis=0).astype(np.int64)
        np.add(server, ends[..., 0], out=at[0])
        np.add(client_line, ends[..., 0], out=at[1])
        diff = np.bincount(at.ravel(), minlength=size)
        np.add(server, ends[..., 1], out=at[0])
        np.add(client_line, ends[..., 1], out=at[1])
        diff -= np.bincount(at.ravel(), minlength=size)
        halves = diff.reshape(files * side, 2, side)
        np.add(halves[:, 0], halves[:, 1], out=runs)
        # A folded line sums to 0, so one cumulative sum over all lines
        # starts each line at its wrapped runs once position 0 gains them
        # and gives back the previous line's.
        wrapped = halves[:, 0].sum(axis=1)
        runs[:, 0] += wrapped
        runs[1:, 0] -= wrapped[:-1]
        np.cumsum(flat, out=flat)
        by_line = runs.reshape(files, side, side)
        counts[..., axis] = by_line if axis == 0 else by_line.swapaxes(1, 2)
    return counts


def _catalog(grid: GridSpec, placement: CachePlacement, pop: Popularity):
    """After checking the grid and the sizes, a placement given by buffers'
    replica table and its offsets (CachePlacement._replicas, built on first
    read), where a file cached nowhere is an error; None for a compact
    placement."""
    if grid.nu != placement.grid.nu:
        raise InvalidInputError(
            f"grid nu={grid.nu} does not match the placement's grid nu={placement.grid.nu}"
        )
    if placement.file_count != pop.m_count:
        raise InvalidInputError("placement and popularity sizes differ")
    if placement.counts is not None:
        return None
    coords, offsets = placement._replicas
    empty = np.flatnonzero(offsets[1:] == offsets[:-1])
    if empty.size:
        raise InvalidInputError(f"file {empty[0]} is cached nowhere")
    return coords, offsets


def _record_hops(
    grid: GridSpec, placement: CachePlacement, block: np.ndarray, keys: np.ndarray
) -> None:
    """Write the hop totals of the block's files, served by keys
    (_serving_keys), into the placement's hop record."""
    placement._hops[block] = (keys // (9 * grid.node_count)).sum(axis=1, dtype=np.int64)


def link_loads(grid: GridSpec, placement: CachePlacement, pop: Popularity) -> LinkLoadMap:
    """Accumulate per-link traffic over all files.

    A compact placement is summed per level in closed form
    (_lattice_loads).  A placement given by buffers is served in key blocks
    of consecutive files (_blocks, _serving_keys); each key block's
    half-route counts are taken in sub-blocks (_run_counts) from tables
    made once for the call (_run_tables), and each file's are added to the
    loads in file order at weight REQUEST_RATE p_m.  The hop totals go into
    the placement's hop record on the way (_record_hops), so a later
    total_hop_load serves no file again; the loads are not kept.  Requires
    a nu >= 1 grid; the single-node grid has no links to load.
    """
    if grid.nu == 0:
        raise InvalidInputError("simulation requires nu >= 1 (the 1-node grid has no links)")
    replicas = _catalog(grid, placement, pop)
    if placement.counts is not None:
        rows, cols = _lattice_loads(grid, placement.counts, pop.probs)
        loads = np.empty(2 * grid.node_count)
        loads[0::2], loads[1::2] = rows.ravel(), cols.ravel()
    else:
        loads = np.zeros(2 * grid.node_count)
        files = np.arange(placement.file_count)
        part = _BLOCK_NODE_FILES // 16
        tables = _run_tables(grid, min(files.size, _block_files(grid, part)))
        for block in _blocks(grid, files.size, _BLOCK_NODE_FILES):
            ids = files[block]
            keys = _serving_keys(grid, *replicas, ids)
            _record_hops(grid, placement, ids, keys)
            for sub in _blocks(grid, ids.size, part):
                for m, file_counts in zip(ids[sub].tolist(), _run_counts(grid, keys[sub], tables)):
                    # Counts are integers, so a link that carries nothing
                    # stays at exactly 0.
                    loads += (REQUEST_RATE * pop.probs[m] / 2) * file_counts.ravel()
    loads.setflags(write=False)
    return LinkLoadMap(grid=grid, loads=loads)


def total_hop_load(grid: GridSpec, placement: CachePlacement, pop: Popularity) -> float:
    """Sum over nodes and files of hop-distance-to-nearest-replica times p_m.

    A compact placement's file at level k has 4^(nu-k) clusters of
    cluster_hop_sum(k) hops each, one table entry per level.  A placement
    given by buffers reads its hop record, and serves (_blocks,
    _serving_keys) and records only files it does not hold yet, so the
    result is the same whether or not link_loads ran first.  This equals
    the sum of all link loads (total-load identity).
    """
    replicas = _catalog(grid, placement, pop)
    if placement.counts is not None:
        per_level = [4.0 ** (grid.nu - k) * cluster_hop_sum(k) for k in range(grid.nu + 1)]
        hops = np.repeat(per_level, placement.counts)
    else:
        hops = placement._hops
        files = np.flatnonzero(hops < 0)
        for block in _blocks(grid, files.size, _BLOCK_NODE_FILES):
            ids = files[block]
            _record_hops(grid, placement, ids, _serving_keys(grid, *replicas, ids))
    # cumsum adds in file order, so the total is bit-identical to a running
    # per-file sum.
    return REQUEST_RATE * float(np.cumsum(pop.probs * hops)[-1])


def cluster_hop_sum(level: int) -> int:
    """Total hops from all nodes of a 2^level square cluster to its replica."""
    if level < 0:
        raise InvalidInputError(f"level must be >= 0, got {level}")
    if level == 0:
        return 0
    return 2 ** (3 * level - 1)


def to_csv(load_map: LinkLoadMap, fh: BinaryIO) -> None:
    """Write the CSV rendering to the binary file fh: link_index, origin_x,
    origin_y, axis, load, then the summary rows.

    Each link is one NUL-padded byte row, 'idx,x,y,axis,load' and a
    newline.  Blocks of rows hold whole origin rows x (2 * side links), so
    a block writes each x once and every ',y,axis,' from one (side, 2)
    table; each block is written as it is made, so the CSV is never held
    whole.
    """
    loads, side = load_map.loads, load_map.grid.side
    worst, avg = worst_link(load_map), avg_link(load_map)
    # Link idx is owned by node idx // 2 (row-major), ROW before COLUMN
    # (the grid module's link index rule).  ',x' per origin row x and
    # ',y,axis,' per link of a row, from one digit table of the coordinates.
    coords = _decimal_digits(np.arange(side))
    wc = coords.shape[1]
    x_text = np.zeros((side, wc + 1), dtype=np.uint8)
    x_text[:, 0] = ord(",")
    x_text[:, 1:] = coords
    axes = [f",{ROW},".encode(), f",{COLUMN},".encode()]
    y_axis_text = np.zeros((side, 2, wc + 1 + max(map(len, axes))), dtype=np.uint8)
    y_axis_text[:, :, 0] = ord(",")
    y_axis_text[:, :, 1:wc + 1] = coords[:, None]
    for j, axis in enumerate(axes):
        y_axis_text[:, j, wc + 1:wc + 1 + len(axis)] = list(axis)

    def rows(lo: int, hi: int) -> np.ndarray:
        index = _decimal_digits(np.arange(lo, hi))
        x_rows = x_text[lo // (2 * side):hi // (2 * side)]
        load = _g12_digits(loads[lo:hi])
        widths = [index.shape[1], x_text.shape[1], y_axis_text.shape[2], load.shape[1], 1]
        ends = list(itertools.accumulate(widths))
        table = np.empty((x_rows.shape[0], side, 2, ends[-1]), dtype=np.uint8)
        table[..., ends[0]:ends[1]] = x_rows[:, None, None]
        table[..., ends[1]:ends[2]] = y_axis_text
        table[..., -1] = ord("\n")
        block = table.reshape(-1, ends[-1])
        block[:, :ends[0]] = index
        block[:, ends[2]:ends[3]] = load
        return block

    step = 2 * side * max(1, _TEXT_ROWS // (2 * side))
    fh.write(b"link_index,origin_x,origin_y,axis,load\n")
    fh.writelines(_text_blocks(loads.size, step, rows))
    fh.write(f"summary,,,worst,{worst:.12g}\nsummary,,,avg,{avg:.12g}\n".encode())
