"""Value types hold their arrays read-only: an array that is already
read-only and owns its memory is kept, anything else is copied first."""

import numpy as np
import pytest

from replicagrid.delivery import LinkLoadMap, link_loads
from replicagrid.density import CanonicalProfile, DensityProfile, canonical_truncate, solve_cd
from replicagrid.grid import GridSpec
from replicagrid.placement import CachePlacement, canonical_place
from replicagrid.popularity import Popularity, zipf


def _pipeline():
    grid = GridSpec(nu=3)
    pop = zipf(96, 0.8)
    profile = solve_cd(grid.node_count, 2.0, pop)
    canon = canonical_truncate(profile)
    placed = canonical_place(grid, canon, pop, 2)
    return pop, profile, canon, placed, link_loads(grid, placed, pop)


def test_pipeline_arrays_are_read_only():
    pop, profile, canon, placed, loads = _pipeline()
    held = (pop.probs, profile.densities, canon.counts, placed.counts, loads.loads)
    for array in held:
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = array[0]


def test_placement_shares_the_canonical_levels():
    _, _, canon, placed, _ = _pipeline()
    assert placed.counts is canon.counts


# (name, array handed over, the array the value type built from it holds)
_HOLDERS = [
    ("Popularity.probs", np.array([0.5, 0.3, 0.2]), lambda a: Popularity(a).probs),
    (
        "DensityProfile.densities",
        np.array([1.0, 0.5, 0.25]),
        lambda a: DensityProfile(
            densities=a, l_index=2, r_index=4, mu=1.0, n_nodes=4, capacity=2.0
        ).densities,
    ),
    (
        "CanonicalProfile.counts",
        np.array([1, 2], dtype=np.int64),
        lambda a: CanonicalProfile(counts=a, nu=1).counts,
    ),
    ("LinkLoadMap.loads", np.arange(8.0), lambda a: LinkLoadMap(grid=GridSpec(nu=1), loads=a).loads),
    (
        "CachePlacement.counts",
        np.array([1, 2], dtype=np.int64),
        lambda a: CachePlacement(GridSpec(nu=1), 2, 3, counts=a).counts,
    ),
]
_IDS = [name for name, _, _ in _HOLDERS]


@pytest.mark.parametrize("name, base, hold", _HOLDERS, ids=_IDS)
def test_writable_array_is_copied(name, base, hold):
    given = base.copy()
    held = hold(given)
    assert held is not given and not held.flags.writeable
    given[...] = 0
    assert np.array_equal(held, base)


@pytest.mark.parametrize("name, base, hold", _HOLDERS, ids=_IDS)
def test_read_only_view_is_copied(name, base, hold):
    # A view's owner can still be written, so the view does not count as owned.
    owner = base.copy()
    view = owner[:]
    view.setflags(write=False)
    held = hold(view)
    assert held is not view
    owner[...] = 0
    assert np.array_equal(held, base)


@pytest.mark.parametrize("name, base, hold", _HOLDERS, ids=_IDS)
def test_read_only_owner_is_kept(name, base, hold):
    given = base.copy()
    given.setflags(write=False)
    assert hold(given) is given
