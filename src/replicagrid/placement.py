"""Canonical placement of replicas into node caches.

Files at level k (density 4^-k) get one replica per 2^k x 2^k submatrix of
the grid, tiled with period 2^k on both axes.  Within a submatrix the anchor
node is the least-occupied one, ties resolved by a fixed diagonal scan
order.  Level-0 files go into every cache at the end.

Before level k the occupancy is 2^k-periodic, so one 2^k x 2^k block holds
all of it; the next level's block is four copies of it.  Anchors are chosen
in rounds on that block rather than by a scan per file (see
canonical_place), and every cache is filled at the end in one pass.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .density import CanonicalProfile
from .errors import InternalInvariantError, InvalidInputError
from .grid import GridSpec, Node
from .popularity import Popularity


@dataclass(frozen=True)
class CachePlacement:
    """Per-node cache contents; buffers[i] holds 0-based file ids for the
    node with row-major index i."""

    grid: GridSpec
    capacity: int
    file_count: int
    buffers: tuple[frozenset[int], ...]

    def buffer_at(self, node: Node) -> frozenset[int]:
        return self.buffers[self.grid.node_index(node)]

    def replica_nodes(self, m: int) -> list[Node]:
        """Nodes holding file m, row-major order."""
        if not (0 <= m < self.file_count):
            raise InvalidInputError(f"file id {m} outside 0..{self.file_count - 1}")
        side = self.grid.side
        return [divmod(i, side) for i, buf in enumerate(self.buffers) if m in buf]

    def measured_densities(self) -> np.ndarray:
        """Fraction of caches holding each file."""
        held = np.array([m for buf in self.buffers for m in buf], dtype=np.int64)
        return np.bincount(held, minlength=self.file_count) / self.grid.node_count

    def to_json(self) -> str:
        side = self.grid.side
        doc = {
            "nu": self.grid.nu,
            "capacity": self.capacity,
            "file_count": self.file_count,
            "buffers": {
                f"{i // side},{i % side}": sorted(buf) for i, buf in enumerate(self.buffers)
            },
        }
        return json.dumps(doc)


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

    side = grid.side
    p = pop.probs
    block = np.zeros((1, 1), dtype=np.int64)
    level0 = np.asarray(canon.level_sets[0], dtype=np.int64)
    # Per level: (k, file ids in placing order, anchor rows, anchor columns).
    lattices = [(0, level0, np.zeros_like(level0), np.zeros_like(level0))]

    for k in range(1, grid.nu + 1):
        ids = np.asarray(canon.level_sets[k], dtype=np.int64)
        if ids.size == 0:
            continue
        # Occupancy so far has the block's period, so copies of it fill 2^k.
        copies = 2 ** k // block.shape[0]
        block = np.tile(block, (copies, copies))
        # Most popular first; equal popularity resolves to the lower id.
        ids = ids[np.lexsort((ids, -p[ids]))]
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
        np.add.at(block, (ax, ay), 1)
        lattices.append((k, ids, ax, ay))

    # Occupancy only grows, so its final maximum is over capacity iff some add was.
    if block.max() + level0.size > capacity:
        raise InternalInvariantError("cache capacity exceeded during placement")

    # Every (node, file) pair: each file's anchor plus all lattice offsets.
    nodes, held = [], []
    for k, ids, ax, ay in lattices:
        steps = np.arange(0, side, 2 ** k, dtype=np.int64)
        cells = (ax[:, None, None] + steps[:, None]) * side + ay[:, None, None] + steps
        nodes.append(cells.ravel())
        held.append(np.repeat(ids, steps.size ** 2))
    nodes = np.concatenate(nodes)
    held = np.concatenate(held)
    files = held[np.lexsort((held, nodes))].tolist()
    bounds = np.zeros(grid.node_count + 1, dtype=np.int64)
    np.cumsum(np.bincount(nodes, minlength=grid.node_count), out=bounds[1:])
    bounds = bounds.tolist()

    return CachePlacement(
        grid=grid,
        capacity=capacity,
        file_count=canon.m_count,
        buffers=tuple(frozenset(files[a:b]) for a, b in zip(bounds, bounds[1:])),
    )


def validate_capacity(placement: CachePlacement) -> bool:
    """True iff no buffer exceeds capacity and every file is cached somewhere."""
    if any(len(b) > placement.capacity for b in placement.buffers):
        return False
    return set().union(*placement.buffers) == set(range(placement.file_count))


_DIGITS = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ"


def render_matrix(placement: CachePlacement) -> str:
    """Compact text rendering of the cache contents, one grid row per line.

    File ids are printed 1-based; single base-36 characters when the catalog
    is small enough, comma-separated numbers otherwise.
    """
    side = placement.grid.side
    compact = placement.file_count < len(_DIGITS)
    cells = []
    for files in map(sorted, placement.buffers):
        if compact:
            cells.append("".join(_DIGITS[m + 1] for m in files) or ".")
        else:
            cells.append(",".join(str(m + 1) for m in files) or ".")
    width = max(map(len, cells), default=1)
    rows = (cells[x * side:(x + 1) * side] for x in range(side))
    return "\n".join(" ".join(c.ljust(width) for c in row) for row in rows)
