"""Canonical placement of replicas into node caches.

Files at level k (density 4^-k) get one replica per 2^k x 2^k submatrix of
the grid, tiled with period 2^k on both axes.  Within a submatrix the anchor
node is the least-occupied one, ties resolved by a fixed diagonal scan
order.  Level-0 files go into every cache at the end.

Before level k the occupancy is 2^k-periodic, so one 2^k x 2^k block holds
all of it; the next level's block is four copies of it.  Anchors are chosen
in rounds on that block rather than by a scan per file (see
canonical_place).  The placement keeps only each file's level and anchor;
the cache contents per node are derived from them when read.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass

import numpy as np

from ._text import _decimal_digits
from .density import CanonicalProfile
from .errors import InternalInvariantError, InvalidInputError
from .grid import GridSpec, Node
from .popularity import Popularity, _frozen


@dataclass(frozen=True, init=False, eq=False)
class CachePlacement:
    """Per-node cache contents, in one of two forms.

    Built from buffers, buffers[i] holds 0-based file ids for the node with
    row-major index i.  canonical_place builds the compact form instead:
    file m is held on the 2^levels[m]-periodic lattice through anchors[m],
    its first row-major replica (in [0, 2^level)^2; (0, 0) at level 0).
    In the compact form buffers is built on first read; delivery,
    measured_densities and the renderers never read it.  Delivery reads
    the replica table and lattice levels (_replicas), built on first read
    and kept; of a compact placement only the per-file calls read them.
    Delivery also keeps each off-lattice file's hop total in _hops, M
    int64 values made on first use; a compact placement never makes it.
    """

    grid: GridSpec
    capacity: int
    file_count: int
    levels: np.ndarray | None
    anchors: np.ndarray | None

    def __init__(self, grid, capacity, file_count, buffers=None, *, levels=None, anchors=None):
        if (buffers is None) == (levels is None or anchors is None):
            raise InvalidInputError("a placement takes either buffers or levels and anchors")
        if buffers is None:
            levels, anchors = (_frozen(np.asarray(v, dtype=np.int64)) for v in (levels, anchors))
        elif len(buffers := tuple(buffers)) != grid.node_count:
            raise InvalidInputError(f"{len(buffers)} buffers for a grid of {grid.node_count} nodes")
        else:
            # An instance attribute hides the cached property below.
            object.__setattr__(self, "buffers", buffers)
        for name, value in (
            ("grid", grid), ("capacity", capacity), ("file_count", file_count),
            ("levels", levels), ("anchors", anchors),
        ):
            object.__setattr__(self, name, value)

    @functools.cached_property
    def buffers(self) -> tuple[frozenset[int], ...]:
        files, bounds = (v.tolist() for v in self._node_major)
        return tuple(frozenset(files[a:b]) for a, b in zip(bounds, bounds[1:]))

    @functools.cached_property
    def _node_major(self) -> tuple[np.ndarray, np.ndarray]:
        """Every held file id, grouped by node in row-major order and
        ascending within a node, and the offsets of each node's ids."""
        if self.levels is None:
            sizes = np.fromiter(map(len, self.buffers), dtype=np.int64, count=len(self.buffers))
            files = np.fromiter(
                itertools.chain.from_iterable(map(sorted, self.buffers)),
                dtype=np.int64, count=int(sizes.sum()),
            )
        else:
            # Each file's anchor plus all lattice offsets, sorted by one
            # (node, file) key.
            side, count = self.grid.side, self.file_count
            keys = []
            for k in np.unique(self.levels).tolist():
                ids = np.flatnonzero(self.levels == k)
                steps = np.arange(0, side, 2 ** k, dtype=np.int64)
                ax, ay = self.anchors[ids, 0], self.anchors[ids, 1]
                cells = (ax[:, None, None] + steps[:, None]) * side + ay[:, None, None] + steps
                keys.append((cells * count + ids[:, None, None]).ravel())
            nodes, files = np.divmod(np.sort(np.concatenate(keys)), count)
            sizes = np.bincount(nodes, minlength=self.grid.node_count)
        bounds = np.zeros(sizes.size + 1, dtype=np.int64)
        np.cumsum(sizes, out=bounds[1:])
        return files, bounds

    @functools.cached_property
    def _replicas(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The replica table and its offsets (_replica_table) and each
        file's lattice level (_lattice_levels); read-only, built once."""
        coords, offsets = _replica_table(self)
        levels = _lattice_levels(self.grid, coords, offsets)
        return tuple(map(_frozen, (coords, offsets, levels)))

    @functools.cached_property
    def _hops(self) -> np.ndarray:
        """Each file's hop total, the hops from every node to its nearest
        replica summed over the nodes, or -1 while not yet known.

        Written by delivery (link_loads and total_hop_load), for off-lattice
        files only.  A total depends on the placement alone, not on
        popularity, so writing it again gives the same value.
        """
        return np.full(self.file_count, -1, dtype=np.int64)

    def _replica_counts(self) -> np.ndarray:
        """Replicas of each file id, 0 to at least file_count - 1."""
        files, _ = self._node_major
        if files.size and files.min() < 0:
            raise InvalidInputError(f"file id {int(files.min())} is negative")
        return np.bincount(files, minlength=self.file_count)

    def replica_nodes(self, m: int) -> list[Node]:
        """Nodes holding file m, row-major order."""
        if not (0 <= m < self.file_count):
            raise InvalidInputError(f"file id {m} outside 0..{self.file_count - 1}")
        side = self.grid.side
        return [divmod(i, side) for i, buf in enumerate(self.buffers) if m in buf]

    def measured_densities(self) -> np.ndarray:
        """Fraction of caches holding each file."""
        if self.levels is not None:
            # 4^(nu - k) of 4^nu caches; powers of 2 divide exactly.
            return 4.0 ** -self.levels
        return self._replica_counts() / self.grid.node_count

    def _checked_node_major(self) -> tuple[np.ndarray, np.ndarray]:
        """_node_major, once every id is known to be in 0..file_count - 1."""
        files, bounds = self._node_major
        if files.size and (low := int(files.min())) < 0:
            raise InvalidInputError(f"file id {low} is negative")
        if files.size and (high := int(files.max())) >= self.file_count:
            raise InvalidInputError(f"file id {high} outside 0..{self.file_count - 1}")
        return files, bounds

    def to_json(self) -> str:
        """The header, then '"x,y": [ids]' per node in row-major order.

        Each key, id (with its ', ') and closing '], ' is one NUL-padded row
        of a byte table, the rows in output order; dropping the NULs leaves
        the text.
        """
        head = json.dumps({
            "nu": self.grid.nu,
            "capacity": self.capacity,
            "file_count": self.file_count,
            "buffers": {},
        })
        side = self.grid.side
        files, bounds = self._checked_node_major()
        sizes = np.diff(bounds)
        ids = _decimal_digits(files)
        coords = _decimal_digits(np.arange(side))
        wx, wd = coords.shape[1] + 2, ids.shape[1]
        row = np.dtype((np.void, max(2 * wx + 2, wd + 2, 3)))
        # Key rows '"x,y": [', broadcast from the x and the y table.
        keys = np.zeros((side, side, row.itemsize), dtype=np.uint8)
        keys[:, :, 0] = ord('"')
        keys[:, :, 1:wx - 1] = coords[:, None]
        keys[:, :, wx - 1] = ord(",")
        keys[:, :, wx:2 * wx - 2] = coords
        keys[:, :, 2 * wx - 2:2 * wx + 2] = list(b'": [')
        # Id rows 'id, ', the last of each cell without its ', '.
        items = np.zeros((files.size, row.itemsize), dtype=np.uint8)
        items[:, :wd] = ids
        items[:, wd:wd + 2] = list(b", ")
        items[bounds[1:][sizes > 0] - 1, wd:] = 0
        # Node n's key row, then its ids, then its closing row.
        table = np.zeros(files.size + 2 * sizes.size, dtype=row)
        before = 2 * np.arange(sizes.size)
        table[bounds[:-1] + before] = keys.view(row).ravel()
        table[np.arange(files.size) + np.repeat(before + 1, sizes)] = items.view(row).ravel()
        table[bounds[1:] + before + 1] = np.void(b"], ".ljust(row.itemsize, b"\0"))
        # The last node's '], ' loses its ', ' to the closing '}}'.
        text = table.tobytes().translate(None, b"\0")[:-2].decode("ascii")
        return head[:-2] + text + "}}"


def _replica_table(placement: CachePlacement) -> tuple[np.ndarray, np.ndarray]:
    """Every replica as one (R, 2) int64 coordinate array sorted by file id,
    each file's rows in row-major order (the order of replica_nodes), and the
    M + 1 offsets of each file's rows, from the placement's node-major ids.

    Raises on an id outside the catalog, as the renderers do.
    """
    files, bounds = placement._checked_node_major()
    holder = np.repeat(np.arange(bounds.size - 1, dtype=np.int64), np.diff(bounds))
    # A stable sort by file keeps each file's holders in row-major order.
    order = np.argsort(files, kind="stable")
    coords = np.stack(np.divmod(holder[order], placement.grid.side), axis=1)
    offsets = np.zeros(placement.file_count + 1, dtype=np.int64)
    np.cumsum(np.bincount(files, minlength=placement.file_count), out=offsets[1:])
    return coords, offsets


def _lattice_levels(grid: GridSpec, coords: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Level k of each lattice file, -1 for every other file.

    File m is a lattice file at level k when it has 4^(nu-k) replicas, all
    congruent mod 2^k to its first row-major replica (its anchor): distinct
    nodes, so they are the whole 2^k-periodic lattice through the anchor.
    A file held nowhere is no lattice file.
    """
    counts = np.diff(offsets)
    powers = 4 ** np.arange(grid.nu + 1, dtype=np.int64)
    j = np.searchsorted(powers, counts)  # counts <= N = 4^nu, so j <= nu
    level = np.where(powers[j] == counts, grid.nu - j, -1)
    owner = np.repeat(np.arange(counts.size), counts)
    period = 2 ** np.maximum(level, 0)[owner, None]
    off_lattice = np.any((coords - coords[offsets[owner]]) % period != 0, axis=1)
    return np.where(np.bincount(owner, weights=off_lattice, minlength=counts.size) == 0, level, -1)


def _diagonal_cells(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column arrays of the 2^k x 2^k matrix in diagonal order."""
    s = 2 ** k
    j, t = np.divmod(np.arange(s * s, dtype=np.int64), s)
    return (j + t) % s, t


def diagonal_order(k: int) -> list[Node]:
    """Coordinates of the 2^k x 2^k matrix in precedence order.

    The main diagonal is scanned top-left to bottom-right first, then the
    diagonal starting one row below (with wrap-around), and so on; the
    coordinate at rank j*s + t + 1 is ((j + t) mod s, t) for side s = 2^k.
    """
    if k < 1:
        raise InvalidInputError(f"k must be >= 1, got {k}")
    xs, ys = _diagonal_cells(k)
    return list(zip(xs.tolist(), ys.tolist()))


def canonical_place(
    grid: GridSpec,
    canon: CanonicalProfile,
    pop: Popularity,
    capacity: int,
) -> CachePlacement:
    """Fill the caches level by level, most popular files first.

    Each file at level k is anchored at the least-occupied cell of the
    2^k x 2^k occupancy block, ties to the lower diagonal rank, and is held
    at its anchor plus every multiple of 2^k on both axes.  File by file,
    that choice is water-filling, so a level runs in rounds: with o the
    block read in diagonal order, round w lists in rank order every cell
    with o <= w, for w = min(o), min(o) + 1, ...  A cell listed in round w
    was listed w - o times before, so it then holds w, the least occupancy
    left.  The level's files, most popular first (equal popularity to the
    lower id), take the concatenated rounds' cells.

    Requires sum of canonical densities <= capacity; under that premise the
    result never exceeds capacity at any node and covers every file.
    """
    if not isinstance(capacity, int) or capacity < 1:
        raise InvalidInputError(f"capacity must be a positive integer, got {capacity!r}")
    if canon.nu != grid.nu:
        raise InvalidInputError(
            f"canonical profile level range (nu={canon.nu}) does not match grid nu={grid.nu}"
        )
    if canon.m_count != pop.m_count:
        raise InvalidInputError("profile and popularity sizes differ")
    if float(canon.densities.sum()) > capacity + 1e-9:
        raise InvalidInputError("canonical densities exceed the cache capacity")

    block = np.zeros((1, 1), dtype=np.int64)
    levels = canon.levels
    anchors = np.zeros((levels.size, 2), dtype=np.int64)

    for k in range(1, grid.nu + 1):
        # Popularity never increases with the id, so ascending ids put the
        # most popular first and equal popularity to the lower id.
        ids = np.flatnonzero(levels == k)
        if ids.size == 0:
            continue
        # Occupancy so far has the block's period, so copies of it fill 2^k.
        s = 2 ** k
        copies = s // block.shape[0]
        block = np.tile(block, (copies, copies))
        xs, ys = _diagonal_cells(k)
        o = block[xs, ys]
        rounds, w, need = [], int(o.min()), ids.size
        while need:
            cells = np.flatnonzero(o <= w)[:need]
            rounds.append(cells)
            need -= cells.size
            w += 1
        ranks = np.concatenate(rounds)
        ax, ay = xs[ranks], ys[ranks]
        block += np.bincount(ax * s + ay, minlength=s * s).reshape(s, s)
        anchors[ids, 0], anchors[ids, 1] = ax, ay

    # Occupancy only grows, so its final maximum is over capacity iff some add was.
    if block.max() + np.count_nonzero(levels == 0) > capacity:
        raise InternalInvariantError("cache capacity exceeded during placement")
    anchors.setflags(write=False)
    return CachePlacement(
        grid=grid, capacity=capacity, file_count=canon.m_count, levels=levels, anchors=anchors
    )


def validate_capacity(placement: CachePlacement) -> bool:
    """True iff no buffer exceeds capacity and every file is cached somewhere."""
    files, bounds = placement._node_major
    if np.diff(bounds).max() > placement.capacity:
        return False
    count = placement.file_count
    if files.size and (files.min() < 0 or files.max() >= count):
        return False
    return bool(np.all(np.bincount(files, minlength=count) > 0))


_DIGITS = np.frombuffer(b"0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ", dtype=np.uint8)


def render_matrix(placement: CachePlacement) -> str:
    """Compact text rendering of the cache contents, one grid row per line.

    File ids are printed 1-based; single base-36 characters when the catalog
    is small enough, comma-separated numbers otherwise.  Every cell is
    padded to the widest, so the text is an (N, width + 1) byte matrix of
    spaces, a newline ending each grid row, each cell's text written at the
    start of its row ('.' when empty).
    """
    side = placement.grid.side
    files, bounds = placement._checked_node_major()
    sizes = np.diff(bounds)
    if placement.file_count < _DIGITS.size:
        chars, lengths = _DIGITS[files + 1], sizes
    else:
        # Each label's digits and a comma, less the comma after a cell's last.
        labels = files + 1
        digits = _decimal_digits(labels)
        cells = np.zeros((files.size, digits.shape[1] + 1), dtype=np.uint8)
        cells[:, :-1] = digits
        cells[:, -1] = ord(",")
        cells[bounds[1:][sizes > 0] - 1, -1] = 0
        # A label has one digit more than the powers 10, 100, ... it reaches.
        ends = np.zeros(files.size + 1, dtype=np.int64)
        np.cumsum(np.searchsorted(10 ** np.arange(1, 19), labels, side="right") + 2, out=ends[1:])
        chars, lengths = cells[cells != 0], np.diff(ends[bounds]) - (sizes > 0)
    width = max(int(lengths.max()), 1)
    text = np.full((sizes.size, width + 1), ord(" "), dtype=np.uint8)
    # The cells' characters, in order, fill the first lengths[n] of row n.
    text[np.arange(width + 1) < lengths[:, None]] = chars
    text[sizes == 0, 0] = ord(".")
    text[side - 1::side, -1] = ord("\n")
    return text.ravel()[:-1].tobytes().decode("ascii")
