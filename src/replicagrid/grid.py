"""Toroidal square-grid geometry.

Coordinates are 0-based ``(x, y)`` pairs with ``x`` the row and ``y`` the
column, both in ``{0, ..., side - 1}``.  The grid wraps around on both axes.
Every node owns two undirected links: one to its east neighbor
``(x, (y+1) % side)`` and one to its south neighbor ``((x+1) % side, y)``,
for ``2N`` links in total.

When a displacement of exactly ``side / 2`` can be covered by wrapping
either way, the decreasing-coordinate (north / west) direction is chosen.
This tie rule is applied consistently everywhere so that link loads are
reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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

    def node_index(self, node: Node) -> int:
        x, y = node
        return x * self.side + y

    def check_node(self, node: Node) -> None:
        x, y = node
        side = self.side
        if not (0 <= x < side and 0 <= y < side):
            raise InvalidInputError(f"node {node} outside {side}x{side} grid")


@dataclass(frozen=True)
class Link:
    """An undirected link, identified by the node that owns it and the axis.

    ``axis == ROW`` connects origin to its east neighbor, ``axis == COLUMN``
    to its south neighbor (wrap-around included).
    """

    origin: Node
    axis: str


@dataclass(frozen=True)
class RouteSet:
    """The (fraction, path) pairs used to serve one client/server pair.

    Fractions are exact rationals summing to 1; each path is an ordered node
    list from client to server whose hop count equals the torus L1 distance.
    """

    routes: tuple[tuple[Fraction, tuple[Node, ...]], ...]

    def total_fraction(self) -> Fraction:
        return sum((f for f, _ in self.routes), Fraction(0))


def signed_axis_delta(side: int, a, b):
    """Shortest signed displacement from coordinate a to b on a cycle.

    A tie (|delta| == side/2) resolves to the negative (north/west)
    direction.  Works elementwise on int arrays as well as on ints.
    """
    d = (b - a) % side
    return d - side * (2 * d >= side)


def hop_distance(grid: GridSpec, a: Node, b: Node) -> int:
    """Torus L1 distance between two nodes."""
    grid.check_node(a)
    grid.check_node(b)
    side = grid.side
    dx = abs(a[0] - b[0])
    dy = abs(a[1] - b[1])
    return min(dx, side - dx) + min(dy, side - dy)


def _axis_walk(side: int, node: Node, axis: int, delta: int) -> list[Node]:
    """Nodes visited moving `delta` steps along one axis, start excluded."""
    out = []
    step = 1 if delta > 0 else -1
    coord = list(node)
    for _ in range(abs(delta)):
        coord[axis] = (coord[axis] + step) % side
        out.append((coord[0], coord[1]))
    return out


def shortest_routes(grid: GridSpec, client: Node, server: Node) -> RouteSet:
    """Shortest route(s) from client to server.

    Same node: a single zero-hop path.  Same row or column (on the shortest
    wrap side): the single I-shaped path.  Otherwise the two L-shaped paths,
    each carrying half the traffic.
    """
    grid.check_node(client)
    grid.check_node(server)
    side = grid.side
    dx = signed_axis_delta(side, client[0], server[0])
    dy = signed_axis_delta(side, client[1], server[1])

    if dx == 0 and dy == 0:
        return RouteSet(routes=((Fraction(1), (client,)),))

    if dx == 0 or dy == 0:
        axis = 0 if dy == 0 else 1
        delta = dx if dy == 0 else dy
        path = [client] + _axis_walk(side, client, axis, delta)
        return RouteSet(routes=((Fraction(1), tuple(path)),))

    # Two L-shaped paths: rows first, then columns first.
    via_x = [client] + _axis_walk(side, client, 0, dx)
    via_x += _axis_walk(side, via_x[-1], 1, dy)
    via_y = [client] + _axis_walk(side, client, 1, dy)
    via_y += _axis_walk(side, via_y[-1], 0, dx)
    half = Fraction(1, 2)
    return RouteSet(routes=((half, tuple(via_x)), (half, tuple(via_y))))


def enumerate_links(grid: GridSpec) -> list[Link]:
    """All 2N links, row-major by origin, east link before south link.

    The degenerate nu=0 grid has no usable links (self-loops are excluded).
    """
    if grid.nu == 0:
        return []
    links = []
    for node in grid.nodes():
        links.append(Link(origin=node, axis=ROW))
        links.append(Link(origin=node, axis=COLUMN))
    return links


def link_index(grid: GridSpec, a: Node, b: Node) -> int:
    """Index (in enumerate_links order) of the link used to step a -> b.

    The step direction follows the signed-delta convention, which matters on
    side-2 axes where the east and west neighbor coincide but the two
    parallel links are distinct.
    """
    side = grid.side
    if a[0] == b[0]:
        d = signed_axis_delta(side, a[1], b[1])
        if abs(d) != 1:
            raise InvalidInputError(f"nodes {a}, {b} are not row-adjacent")
        origin = a if d == 1 else b
        return 2 * grid.node_index(origin)
    if a[1] == b[1]:
        d = signed_axis_delta(side, a[0], b[0])
        if abs(d) != 1:
            raise InvalidInputError(f"nodes {a}, {b} are not column-adjacent")
        origin = a if d == 1 else b
        return 2 * grid.node_index(origin) + 1
    raise InvalidInputError(f"nodes {a}, {b} are not adjacent")
