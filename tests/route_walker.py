"""The per-hop route walker: a test reference for delivery.

It takes each client's serving replica of one file from delivery's
serving keys and walks each hop of the one or two shortest routes to it,
with exact rational route fractions.  It is slow (a Python loop per hop),
so it runs only on small grids, where the tests hold the vectorised
link-load kernel, the link index rule and the cluster geometry to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from replicagrid.delivery import REQUEST_RATE, _serving_keys
from replicagrid.errors import InvalidInputError
from replicagrid.grid import GridSpec, Node, hop_distance
from replicagrid.placement import CachePlacement


def signed_axis_delta(side: int, a, b):
    """Shortest signed displacement from coordinate a to b on a cycle.

    A tie (|delta| == side/2) resolves to the negative (north/west)
    direction.  Works elementwise on int arrays as well as on ints.
    """
    d = (b - a) % side
    return d - side * (2 * d >= side)


@dataclass(frozen=True)
class RouteSet:
    """The (fraction, path) pairs used to serve one client/server pair.

    Fractions are exact rationals summing to 1; each path is an ordered node
    list from client to server whose hop count equals the torus L1 distance.
    """

    routes: tuple[tuple[Fraction, tuple[Node, ...]], ...]

    def total_fraction(self) -> Fraction:
        return sum((f for f, _ in self.routes), Fraction(0))


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


def link_index(grid: GridSpec, a: Node, b: Node) -> int:
    """Index (by the link index rule of the grid module) of the link used to
    step a -> b.

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
        return 2 * (origin[0] * side + origin[1])
    if a[1] == b[1]:
        d = signed_axis_delta(side, a[0], b[0])
        if abs(d) != 1:
            raise InvalidInputError(f"nodes {a}, {b} are not column-adjacent")
        origin = a if d == 1 else b
        return 2 * (origin[0] * side + origin[1]) + 1
    raise InvalidInputError(f"nodes {a}, {b} are not adjacent")


def serve_map(
    grid: GridSpec, placement: CachePlacement, m: int
) -> dict[Node, tuple[Node, RouteSet]]:
    """Map every node to its serving replica of m and the routes used."""
    if not placement.replica_nodes(m):
        raise InvalidInputError(f"file {m} is cached nowhere")
    keys = _serving_keys(grid, *placement._replicas, np.array([m]))
    servers = (keys[0] % grid.node_count).tolist()
    out: dict[Node, tuple[Node, RouteSet]] = {}
    for node, server in zip(grid.nodes(), servers):
        server = divmod(server, grid.side)
        out[node] = (server, shortest_routes(grid, node, server))
    return out


def route_walk_loads(
    grid: GridSpec, placement: CachePlacement, m: int, p_m: float = 1.0
) -> np.ndarray:
    """Link loads generated by file m alone, at popularity weight p_m, found
    by walking every hop of every client's routes (indexed by the link index
    rule of the grid module)."""
    loads = np.zeros(2 * grid.node_count)
    weight = REQUEST_RATE * p_m
    for _node, (_server, routes) in serve_map(grid, placement, m).items():
        for frac, path in routes.routes:
            w = weight * float(frac)
            for a, b in zip(path, path[1:]):
                loads[link_index(grid, a, b)] += w
    return loads


def enumerate_cluster(level: int) -> tuple[int, np.ndarray]:
    """Walk a 2^level x 2^level torus served by a single replica at (0, 0).

    Returns the total hop count over all nodes and the per-link loads at
    unit popularity (indexed by the link index rule of the grid module).
    """
    if level not in (1, 2, 3):
        raise InvalidInputError(f"level must be in {{1, 2, 3}}, got {level}")
    grid = GridSpec(nu=level)
    buffers = [frozenset([0]) if node == (0, 0) else frozenset() for node in grid.nodes()]
    placement = CachePlacement(
        grid=grid, capacity=1, file_count=1, buffers=tuple(buffers)
    )
    hop_sum = sum(hop_distance(grid, node, (0, 0)) for node in grid.nodes())
    loads = route_walk_loads(grid, placement, 0, 1.0)
    return hop_sum, loads
