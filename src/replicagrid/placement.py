"""Canonical placement of replicas into node caches.

Files at level k (density 4^-k) get one replica per 2^k x 2^k submatrix of
the grid, tiled with period 2^k on both axes.  Within a submatrix the anchor
node is the least-occupied one, ties resolved by a fixed diagonal scan
order.  Level-0 files go into every cache at the end.

Before level k the occupancy is 2^k-periodic and differs by at most 1
between cells, so the level's water-filling rounds follow from the level
counts alone (_rounds): which ids each round takes, and the occupancy w
each of them finds in its cell.  Only the first round of a level reads
the 2^k x 2^k occupancy block, for which cells are the least occupied.
The placement keeps only the level counts; the anchors are made by
_rounds where they are read, a round at a time.

The per-node view is one (N, W) int64 node table, W the largest
occupancy: row i holds the ids cached at row-major node i, ascending,
padded with -1 at the end.  A canonical placement writes file m into slot
(number of level-0 files) + w of every row of its lattice, a round at a
time through a view of the table with the coordinates mod 2^k as axes,
ids in ascending order.  A placement given by buffers builds its table
from them.  Either way the table is built on first read and kept:
buffers, validation, both renderers and delivery's replica table read
it, and simulate never builds it.  The renderers' text is
column-planar, one byte column per node in row-major order
(_text._planar_table), so each slot of the table fills whole rows of it.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass

import numpy as np

from ._text import _decimal_digits, _planar_table, _planar_text
from .density import CanonicalProfile, _level_counts
from .errors import InternalInvariantError, InvalidInputError
from .grid import GridSpec, Node
from .popularity import Popularity, _frozen


@dataclass(frozen=True, init=False, eq=False)
class CachePlacement:
    """Per-node cache contents, in one of two forms.

    Built from buffers, buffers[i] holds 0-based file ids for the node with
    row-major index i, each checked to lie in 0..file_count - 1, so no
    reader checks them again.  canonical_place builds the compact form
    instead, the level counts alone: the counts[k] ids after those of
    lower levels are each held on a 2^k-periodic lattice, as canonical
    water-filling places them (_rounds).  The compact form is checked:
    counts is nu + 1 integers >= 0 summing to file_count.  There buffers
    is built on first read; delivery, replica_nodes, measured_densities
    and the renderers never read it.  The node table (_node_table) is
    built on first read and kept; delivery of a compact placement never
    reads it.  The replica table (_replicas) is built on first read and
    kept, and its offsets count each file's replicas.  Delivery and
    replica_nodes read it, as do measured_densities and validate_capacity
    of a placement given by buffers; of a compact placement only
    replica_nodes reads it.
    Delivery of a placement given by buffers also keeps every file's hop
    total in _hops, M int64 values made on first use; a compact placement
    never makes it.
    """

    grid: GridSpec
    capacity: int
    file_count: int
    counts: np.ndarray | None

    def __init__(self, grid, capacity, file_count, buffers=None, *, counts=None):
        if (buffers is None) == (counts is None):
            raise InvalidInputError("a placement takes either buffers or counts")
        if buffers is None:
            counts = _level_counts(counts, grid.nu)
            if (total := int(counts.sum())) != file_count:
                raise InvalidInputError(f"level counts sum to {total}, not file_count {file_count}")
        elif len(buffers := tuple(buffers)) != grid.node_count:
            raise InvalidInputError(f"{len(buffers)} buffers for a grid of {grid.node_count} nodes")
        else:
            held = np.fromiter(itertools.chain.from_iterable(buffers), dtype=np.int64)
            if held.size and (least := int(held.min())) < 0:
                raise InvalidInputError(f"file id {least} is negative")
            if held.size and (largest := int(held.max())) >= file_count:
                raise InvalidInputError(f"file id {largest} outside 0..{file_count - 1}")
            # An instance attribute hides the cached property below.
            object.__setattr__(self, "buffers", buffers)
        for name, value in (
            ("grid", grid), ("capacity", capacity), ("file_count", file_count),
            ("counts", counts),
        ):
            object.__setattr__(self, name, value)

    @functools.cached_property
    def buffers(self) -> tuple[frozenset[int], ...]:
        return tuple(frozenset(row).difference((-1,)) for row in self._node_table.tolist())

    @functools.cached_property
    def _node_table(self) -> np.ndarray:
        """The held ids of row-major node i in row i, ascending and padded
        with -1 to the largest occupancy; read-only."""
        if self.counts is None:
            sizes = np.fromiter(map(len, self.buffers), dtype=np.int64, count=len(self.buffers))
            files = np.fromiter(
                itertools.chain.from_iterable(map(sorted, self.buffers)),
                dtype=np.int64, count=int(sizes.sum()),
            )
            table = np.full((sizes.size, int(sizes.max())), -1, dtype=np.int64)
            table[np.arange(table.shape[1]) < sizes[:, None]] = files
            table.setflags(write=False)
            return table
        nu, side, n = self.grid.nu, self.grid.side, self.grid.node_count
        level0 = int(self.counts[0])
        table = np.full((n, _max_occupancy(self.counts, nu)), -1, dtype=np.int64)
        table[:, :level0] = np.arange(level0)
        for k, ids, w, ax, ay in _rounds(self.counts, nu):
            # Axes 1 and 3 of the lattice view are the coordinates mod 2^k,
            # so one write puts a file at every replica.
            lattice = table.reshape(side >> k, 2 ** k, side >> k, 2 ** k, -1)
            lattice[:, ax, :, ay, level0 + w] = np.arange(ids.start, ids.stop)[:, None, None]
        table.setflags(write=False)
        return table

    @functools.cached_property
    def _replicas(self) -> tuple[np.ndarray, np.ndarray]:
        """The replica table and its offsets (_replica_table); read-only,
        built once."""
        return tuple(map(_frozen, _replica_table(self)))

    @functools.cached_property
    def _hops(self) -> np.ndarray:
        """Each file's hop total, the hops from every node to its nearest
        replica summed over the nodes, or -1 while not yet known.

        Written by delivery (link_loads and total_hop_load) of a placement
        given by buffers, for every file.  A total depends on the placement
        alone, not on popularity, so writing it again gives the same value.
        """
        return np.full(self.file_count, -1, dtype=np.int64)

    def replica_nodes(self, m: int) -> list[Node]:
        """Nodes holding file m, row-major order: its rows of the replica
        table."""
        if not (0 <= m < self.file_count):
            raise InvalidInputError(f"file id {m} outside 0..{self.file_count - 1}")
        coords, offsets = self._replicas
        return list(map(tuple, coords[offsets[m]:offsets[m + 1]].tolist()))

    def measured_densities(self) -> np.ndarray:
        """Fraction of caches holding each file."""
        if self.counts is not None:
            # 4^(nu - k) of 4^nu caches; powers of 2 divide exactly.
            return np.repeat(4.0 ** -np.arange(self.grid.nu + 1), self.counts)
        return np.diff(self._replicas[1]) / self.grid.node_count

    def to_json(self) -> bytes:
        """The header, then '"x,y": [ids]' per node in row-major order, as
        ASCII bytes.

        The text is a column-planar NUL-padded byte table: one row per byte
        position of a node's text, one column per node.  A node's text is
        its key, one fixed-width cell per slot of the node table (the id,
        after ', ' past the first slot; all NUL for padding) and its
        closing '], ', so each field is written as whole rows.  Blocks of
        columns are transposed to node-major bytes and their NULs dropped
        (_planar_text), so no node-major copy of the whole table is held.
        """
        head = json.dumps({
            "nu": self.grid.nu,
            "capacity": self.capacity,
            "file_count": self.file_count,
            "buffers": {},
        }).encode()
        table = self._node_table
        side, (n, width) = self.grid.side, table.shape
        ids = _decimal_digits(np.maximum(table, 0).ravel())
        coords = _decimal_digits(np.arange(side)).T
        wx, wd = coords.shape[0], ids.shape[1]
        key = 2 * wx + 6
        text = _planar_table(key + width * (wd + 2) + 3, n)
        # Keys '"x,y": [' of nodes x * side + y.
        text[0] = ord('"')
        text[1:wx + 1] = np.repeat(coords, side, axis=1)
        text[wx + 1] = ord(",")
        text[wx + 2:2 * wx + 2] = np.tile(coords, side)
        text[2 * wx + 2:key] = _column(b'": [')
        # Splitting the first axis of a row slice keeps a view.
        cells = text[key:-3].reshape(width, wd + 2, n)
        cells[:1, :2] = 0
        cells[1:, :2] = _column(b", ")
        cells[:, 2:] = ids.reshape(n, width, wd).transpose(1, 2, 0)
        cells *= _held_slots(table)[:, None]
        text[-3:] = _column(b"], ")
        blocks = _planar_text(text)
        # The last node's '], ' loses its ', ' to the closing '}}'.
        blocks[-1] = blocks[-1][:-2]
        return b"".join((head[:-2], *blocks, b"}}"))


def _held_slots(table: np.ndarray) -> np.ndarray:
    """The node table's held slots as a C-contiguous (W, N) bool mask, one
    row per slot: in the table's own layout every reduction or broadcast
    over it runs along the short slot axis, several times slower."""
    return np.ascontiguousarray((table >= 0).T)


def _column(chars: bytes) -> np.ndarray:
    """chars as a (len(chars), 1) uint8 column, one byte per row of a
    column-planar table."""
    return np.frombuffer(chars, dtype=np.uint8)[:, None]


def _replica_table(placement: CachePlacement) -> tuple[np.ndarray, np.ndarray]:
    """Every replica as one (R, 2) int64 coordinate array sorted by file id,
    each file's rows in row-major order, and the M + 1 offsets of each
    file's rows, from the placement's node table."""
    table = placement._node_table
    holder, slot = np.nonzero(table >= 0)
    files = table[holder, slot]
    # A stable sort by file keeps each file's holders in row-major order.
    order = np.argsort(files, kind="stable")
    coords = np.stack(np.divmod(holder[order], placement.grid.side), axis=1)
    offsets = np.zeros(placement.file_count + 1, dtype=np.int64)
    np.cumsum(np.bincount(files, minlength=placement.file_count), out=offsets[1:])
    return coords, offsets


def _diagonal_cells(rank: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column arrays of the cells at the given diagonal ranks of
    the 2^k x 2^k matrix."""
    t = rank & (2 ** k - 1)
    x = rank >> k
    x += t
    x &= 2 ** k - 1
    return x, t


def _rounds(counts: np.ndarray, nu: int):
    """Canonical placement's water-filling rounds in order, from the level
    counts alone: (k, ids, w, ax, ay) for each round of each level k >= 1,
    ids the slice of the round's file ids (level k's follow the lower
    levels'), w the occupancy each finds in its cell and (ax, ay) their
    anchors, the cells they take in [0, 2^k)^2, distinct within a round.

    The 2^k x 2^k block before level k holds T = sum_{1 <= k' < k}
    n_k' 4^(k - k') replicas, with occupancy differing by at most 1 between
    cells: c = 4^k - (T mod 4^k) cells hold w0 = T // 4^k, the rest
    w0 + 1.  So round w0 gives the level's first c files (ascending id) the
    c cells at w0, in diagonal rank order, and each later round w gives the
    next 4^k files every cell, all then at w, in rank order.  The level's
    files, most popular first (equal popularity to the lower id), take the
    rounds' cells in turn.
    """
    counts = counts.tolist()
    held, first = 0, counts[0]
    # The occupancy of the last level's block, in diagonal rank order.
    occupancy = np.zeros((1, 1), dtype=np.int64)
    for k in range(1, nu + 1):
        held, size = 4 * held, counts[k]
        if size:
            # Occupancy so far has the last level's period q, so the cell at
            # rank j s + t of this level's s = 2^k block, ((j + t) mod s, t),
            # holds what rank (j mod q) q + (t mod q) does: the q x q block
            # in rank order, tiled.
            copies = 2 ** k // occupancy.shape[0]
            occupancy = np.tile(occupancy, (copies, copies))
            w0, extra = divmod(held, 4 ** k)
            starts = [0, *range(4 ** k - extra, size, 4 ** k)]
            for w, lo, hi in zip(itertools.count(w0), starts, starts[1:] + [size]):
                # The round's files take its cells at w, the least occupied,
                # in rank order.  After the level's first round every cell
                # is at w, so a later round takes the first ranks.
                if w == w0:
                    ranks = np.flatnonzero(occupancy == w)[:hi - lo]
                    occupancy.ravel()[ranks] += 1
                else:
                    ranks = np.arange(hi - lo)
                    occupancy.ravel()[:hi - lo] += 1
                yield k, slice(first + lo, first + hi), w, *_diagonal_cells(ranks, k)
        held, first = held + size, first + size


def _max_occupancy(counts: np.ndarray, nu: int) -> int:
    """The largest cache occupancy of the canonical placement of counts.

    Occupancy is balanced over the grid (_rounds), so its largest value is
    the level-0 files plus the ceiling of the mean over the other levels.
    """
    counts = counts.tolist()
    replicas = sum(c * 4 ** (nu - k) for k, c in enumerate(counts[1:], start=1))
    return counts[0] - (-replicas // 4 ** nu)


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
    that choice is water-filling, so a level runs in rounds (_rounds) that
    follow from the level counts alone: the placement is its level counts,
    and the anchors are made where they are read.

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
    if canon.mass > capacity + 1e-9:
        raise InvalidInputError("canonical densities exceed the cache capacity")
    placed = CachePlacement(
        grid=grid, capacity=capacity, file_count=canon.m_count, counts=canon.counts
    )
    if _max_occupancy(placed.counts, grid.nu) > capacity:
        raise InternalInvariantError("cache capacity exceeded during placement")
    return placed


def validate_capacity(placement: CachePlacement) -> bool:
    """True iff no buffer exceeds capacity and every file is cached somewhere."""
    if placement.counts is not None:
        # Every file of a compact placement has 4^(nu - k) >= 1 replicas,
        # and some node holds the largest occupancy.
        return _max_occupancy(placement.counts, placement.grid.nu) <= placement.capacity
    # Rows are padded at the end, so a node holds more than capacity ids iff
    # its slot at index capacity is held.
    if np.any(placement._node_table[:, placement.capacity:] >= 0):
        return False
    return bool(np.all(np.diff(placement._replicas[1]) > 0))


_DIGITS = np.frombuffer(b"0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ", dtype=np.uint8)


def render_matrix(placement: CachePlacement) -> str:
    """Compact text rendering of the cache contents, one grid row per line.

    File ids are printed 1-based; single base-36 characters when the catalog
    is small enough, comma-separated numbers otherwise.  Every cell is
    padded to the widest, with a space between cells and a newline ending
    each grid row ('.' when empty).

    The text is a column-planar NUL-padded byte table, one column per node
    in row-major order: a '.' row (NUL unless the node is empty), one cell
    per slot of the node table (the label's characters, then a comma
    before the next held slot; all NUL for padding), rows of padding (a
    space in the first d, d the bytes the node's text falls short of the
    widest; NUL after) and the separator.  Blocks of columns are
    transposed to node-major bytes and their NULs dropped (_planar_text),
    as in CachePlacement.to_json.
    """
    side = placement.grid.side
    table = placement._node_table
    (n, slots), held = table.shape, _held_slots(table)
    if placement.file_count < _DIGITS.size:
        chars, comma = _DIGITS[table.T + 1][:, None], 0
    else:
        digits = _decimal_digits((table + 1).ravel())
        chars, comma = digits.reshape(n, slots, digits.shape[1]).transpose(1, 2, 0), 1
    wd = chars.shape[1]
    body = 1 + slots * (wd + comma)
    # A node's text is at most body bytes, so at most body rows of padding
    # and the separator follow.
    text = _planar_table(2 * body + 1, n)
    text[0] = ~held.any(axis=0) * np.uint8(ord("."))
    cells = text[1:body].reshape(slots, wd + comma, n)
    np.multiply(chars, held[:, None], out=cells[:, :wd])
    if comma:
        cells[:-1, wd] = held[1:] * np.uint8(ord(","))
        cells[-1:, wd] = 0
    # int32 counts take half the time of intp ones, and no column comes
    # near 2^31 bytes.
    lengths = (text[:body] != 0).sum(axis=0, dtype=np.int32)
    # Only as many rows of padding as the largest shortfall.
    short = lengths.max() - lengths
    pads = int(short.max())
    text[body:body + pads] = (np.arange(pads)[:, None] < short) * np.uint8(ord(" "))
    rows = text[:body + pads + 1]
    rows[-1] = ord(" ")
    rows[-1, side - 1::side] = ord("\n")
    blocks = _planar_text(rows)
    # The last row's newline is not printed.
    blocks[-1] = blocks[-1][:-1]
    return b"".join(blocks).decode("ascii")
