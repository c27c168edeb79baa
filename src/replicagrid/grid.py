"""Toroidal square-grid geometry.

Coordinates are 0-based ``(x, y)`` pairs with ``x`` the row and ``y`` the
column, both in ``{0, ..., side - 1}``.  The grid wraps around on both axes.
Every node owns two undirected links: one to its east neighbor
``(x, (y+1) % side)`` and one to its south neighbor ``((x+1) % side, y)``,
for ``2N`` links in total.  Link ``2i`` is the row (east) link of the node
with row-major index ``i = x * side + y``, and link ``2i + 1`` its column
(south) link; this is the index of every link-load array.  The nu = 0 grid
has no links (its would-be links are self-loops).

When a displacement of exactly ``side / 2`` can be covered by wrapping
either way, the decreasing-coordinate (north / west) direction is chosen.
This tie rule is applied consistently everywhere so that link loads are
reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidInputError

Node = tuple[int, int]

ROW = "row"  # horizontal link: origin to its east neighbor
COLUMN = "column"  # vertical link: origin to its south neighbor


@dataclass(frozen=True)
class GridSpec:
    """A toroidal 2^nu x 2^nu grid of N = 4^nu nodes."""

    nu: int

    def __post_init__(self) -> None:
        if not isinstance(self.nu, int) or self.nu < 0:
            raise InvalidInputError(f"nu must be a nonnegative integer, got {self.nu!r}")

    @property
    def side(self) -> int:
        return 2 ** self.nu

    @property
    def node_count(self) -> int:
        return 4 ** self.nu

    def nodes(self):
        side = self.side
        for x in range(side):
            for y in range(side):
                yield (x, y)

    def check_node(self, node: Node) -> None:
        x, y = node
        side = self.side
        if not (0 <= x < side and 0 <= y < side):
            raise InvalidInputError(f"node {node} outside {side}x{side} grid")


def hop_distance(grid: GridSpec, a: Node, b: Node) -> int:
    """Torus L1 distance between two nodes."""
    grid.check_node(a)
    grid.check_node(b)
    side = grid.side
    dx = abs(a[0] - b[0])
    dy = abs(a[1] - b[1])
    return min(dx, side - dx) + min(dy, side - dy)

