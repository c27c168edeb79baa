"""Canonical placement of replicas into node caches.

Files at level k (density 4^-k) get one replica per 2^k x 2^k submatrix of
the grid, tiled with period 2^k on both axes.  Within a submatrix the anchor
node is the least-occupied one, ties resolved by a fixed diagonal scan
order.  Level-0 files go into every cache at the end.
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
        doc = {
            "nu": self.grid.nu,
            "capacity": self.capacity,
            "file_count": self.file_count,
            "buffers": {
                f"{x},{y}": sorted(self.buffer_at((x, y)))
                for (x, y) in self.grid.nodes()
            },
        }
        return json.dumps(doc)


def diagonal_order(k: int) -> list[Node]:
    """Coordinates of the 2^k x 2^k matrix in precedence order.

    The main diagonal is scanned top-left to bottom-right first, then the
    diagonal starting one row below (with wrap-around), and so on; the
    coordinate at rank j*s + t + 1 is ((j + t) mod s, t) for side s = 2^k.
    """
    if k < 1:
        raise InvalidInputError(f"k must be >= 1, got {k}")
    s = 2 ** k
    return [((j + t) % s, t) for j in range(s) for t in range(s)]


def canonical_place(
    grid: GridSpec,
    canon: CanonicalProfile,
    pop: Popularity,
    capacity: int,
) -> CachePlacement:
    """Fill the caches level by level, most popular files first.

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
    nodes = np.arange(grid.node_count).reshape(side, side)
    occupancy = np.zeros((side, side), dtype=np.int64)
    buffers: list[set[int]] = [set() for _ in range(grid.node_count)]

    for k in range(1, grid.nu + 1):
        members = canon.level_sets[k]
        if not members:
            continue
        xs, ys = np.array(diagonal_order(k)).T
        period = 2 ** k
        # Most popular first; equal popularity resolves to the lower index.
        for m in sorted(members, key=lambda f: (-p[f], f)):
            # All period x period submatrices are identical at this point, so
            # the top-left one stands in for the step-5 search; argmin picks
            # the first least-occupied cell in diagonal order.
            rank = int(np.argmin(occupancy[xs, ys]))
            tile = np.s_[xs[rank]::period, ys[rank]::period]
            occupancy[tile] += 1
            for i in nodes[tile].ravel().tolist():
                buffers[i].add(m)

    # Occupancy only grows, so its final maximum is over capacity iff some add was.
    if occupancy.max() + len(canon.level_sets[0]) > capacity:
        raise InternalInvariantError("cache capacity exceeded during placement")
    for buf in buffers:
        buf.update(canon.level_sets[0])

    return CachePlacement(
        grid=grid,
        capacity=capacity,
        file_count=canon.m_count,
        buffers=tuple(frozenset(b) for b in buffers),
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
    for x in range(side):
        row = []
        for y in range(side):
            files = sorted(placement.buffer_at((x, y)))
            if compact:
                row.append("".join(_DIGITS[m + 1] for m in files) or ".")
            else:
                row.append(",".join(str(m + 1) for m in files) or ".")
        cells.append(row)
    width = max((len(c) for row in cells for c in row), default=1)
    return "\n".join(" ".join(c.ljust(width) for c in row) for row in cells)
