import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from replicagrid.errors import InvalidInputError
from replicagrid.grid import GridSpec, hop_distance
from route_walker import link_index, shortest_routes, signed_axis_delta


def test_grid_spec_basics():
    g = GridSpec(nu=3)
    assert g.side == 8
    assert g.node_count == 64
    assert len(list(g.nodes())) == 64
    with pytest.raises(InvalidInputError):
        GridSpec(nu=-1)


def test_hop_distance_examples():
    g = GridSpec(nu=3)  # side 8
    assert hop_distance(g, (0, 0), (0, 0)) == 0
    assert hop_distance(g, (0, 0), (2, 3)) == 5
    assert hop_distance(g, (0, 0), (7, 7)) == 2


def test_torus_diameter():
    for nu in (1, 2):
        g = GridSpec(nu=nu)
        diam = max(
            hop_distance(g, a, b)
            for a, b in itertools.product(g.nodes(), repeat=2)
        )
        assert diam == g.side  # 2 * (side / 2)


@settings(max_examples=200)
@given(st.integers(1, 3), st.data())
def test_hop_distance_metric(nu, data):
    g = GridSpec(nu=nu)
    coord = st.tuples(st.integers(0, g.side - 1), st.integers(0, g.side - 1))
    a, b, c = data.draw(coord), data.draw(coord), data.draw(coord)
    assert hop_distance(g, a, b) == hop_distance(g, b, a)
    assert hop_distance(g, a, c) <= hop_distance(g, a, b) + hop_distance(g, b, c)
    assert (hop_distance(g, a, b) == 0) == (a == b)


def test_shortest_routes_i_path():
    g = GridSpec(nu=3)
    rs = shortest_routes(g, (0, 0), (0, 3))
    assert len(rs.routes) == 1
    frac, path = rs.routes[0]
    assert frac == Fraction(1)
    assert len(path) - 1 == 3
    assert path == ((0, 0), (0, 1), (0, 2), (0, 3))


def test_shortest_routes_l_paths():
    g = GridSpec(nu=3)
    rs = shortest_routes(g, (0, 0), (2, 3))
    assert len(rs.routes) == 2
    for frac, path in rs.routes:
        assert frac == Fraction(1, 2)
        assert len(path) - 1 == 5
    assert rs.total_fraction() == Fraction(1)


def test_shortest_routes_local():
    g = GridSpec(nu=2)
    rs = shortest_routes(g, (1, 1), (1, 1))
    assert rs.routes == ((Fraction(1), ((1, 1),)),)


def test_axis_tie_goes_negative():
    # Displacement of exactly side/2 must resolve north/west.
    assert signed_axis_delta(4, 0, 2) == -2
    assert signed_axis_delta(8, 1, 5) == -4
    g = GridSpec(nu=2)
    rs = shortest_routes(g, (0, 0), (2, 0))
    assert rs.routes[0][1] == ((0, 0), (3, 0), (2, 0))


@pytest.mark.parametrize("side", [1, 2, 3, 4, 8])
def test_signed_axis_delta_arrays_match_scalars(side):
    a, b = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
    got = signed_axis_delta(side, a, b)
    for i, j in itertools.product(range(side), repeat=2):
        want = signed_axis_delta(side, i, j)
        assert type(want) is int and got[i, j] == want
        # Shortest, and a tie at side/2 goes negative.
        assert (want - (j - i)) % side == 0 and -side <= 2 * want < side


@settings(max_examples=200)
@given(st.integers(1, 3), st.data())
def test_routes_are_shortest_and_complete(nu, data):
    g = GridSpec(nu=nu)
    coord = st.tuples(st.integers(0, g.side - 1), st.integers(0, g.side - 1))
    a, b = data.draw(coord), data.draw(coord)
    rs = shortest_routes(g, a, b)
    assert rs.total_fraction() == Fraction(1)
    for _, path in rs.routes:
        assert path[0] == a and path[-1] == b
        assert len(path) - 1 == hop_distance(g, a, b)
        for u, v in zip(path, path[1:]):
            assert hop_distance(g, u, v) == 1
    assert rs == shortest_routes(g, a, b)  # deterministic


def test_link_index_covers_all_links():
    g = GridSpec(nu=2)
    seen = set()
    for x in range(4):
        for y in range(4):
            seen.add(link_index(g, (x, y), (x, (y + 1) % 4)))
            seen.add(link_index(g, (x, y), ((x + 1) % 4, y)))
    assert seen == set(range(32))


def test_link_index_side2_parallel_links():
    # On a side-2 axis the two neighbors coincide but the parallel links are
    # distinct; the direction of travel selects the link.
    g = GridSpec(nu=1)
    fwd = link_index(g, (0, 0), (0, 1))
    back = link_index(g, (0, 1), (0, 0))
    assert fwd != back
    with pytest.raises(InvalidInputError):
        link_index(g, (0, 0), (1, 1))
