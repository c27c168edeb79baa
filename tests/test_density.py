import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from replicagrid.density import (
    COST_FACTOR,
    DensityProfile,
    _split_indices,
    canonical_truncate,
    cd_cost,
    lower_bound,
    solve_cd,
)
from replicagrid.errors import InfeasibleError, InvalidInputError
from replicagrid.popularity import Popularity, zipf
from references import a_coeff, kkt_residuals


def _pop(values):
    return Popularity(np.array(values, dtype=float))


def _random_pop(rng, m):
    raw = np.sort(rng.uniform(0.05, 1.0, m))[::-1]
    return Popularity(raw / raw.sum())


def test_solve_cd_two_equal_files():
    prof = solve_cd(16, 1.0, _pop([0.5, 0.5]))
    assert np.allclose(prof.densities, [0.5, 0.5], atol=1e-12)
    assert (prof.l_index, prof.r_index) == (1, 3)


def test_solve_cd_reference_instance():
    prof = solve_cd(4, 1.0, _pop([0.7, 0.2, 0.1]))
    assert np.allclose(prof.densities, [0.5, 0.25, 0.25], atol=1e-12)
    assert (prof.l_index, prof.r_index) == (1, 2)
    # Hand-checked multiplier ordering: interior marginal exceeds the
    # down-truncated marginals 0.8 and 0.4.
    assert math.isclose(prof.mu, 0.5 * 0.7 * 0.5 ** -1.5, rel_tol=1e-12)


def test_solve_cd_slack_capacity():
    prof = solve_cd(4, 3.0, _pop([0.7, 0.2, 0.1]))
    assert np.all(prof.densities == 1.0)
    assert (prof.l_index, prof.r_index) == (4, 4)
    assert prof.mu == 0.0


def test_solve_cd_sum_check_is_relative_to_capacity():
    # M = K N with K = 3959.75: the densities sum to K within 2.7e-13 of it,
    # which is 1.1e-9 in absolute terms.
    prof = solve_cd(4, 3959.75, zipf(15839, 0.0))
    assert math.isclose(float(prof.densities.sum()), 3959.75, rel_tol=1e-12)
    assert np.allclose(prof.densities, 0.25, rtol=1e-12)


def test_solve_cd_infeasible():
    with pytest.raises(InfeasibleError):
        solve_cd(4, 1.0, zipf(5, 1.0))
    with pytest.raises(InvalidInputError):
        solve_cd(0, 1.0, zipf(2, 1.0))
    with pytest.raises(InvalidInputError):
        solve_cd(4, 0.0, zipf(2, 1.0))


def test_cd_cost_examples():
    all_ones = DensityProfile(
        densities=np.ones(3), l_index=4, r_index=4, mu=0.0, n_nodes=4, capacity=3.0
    )
    assert cd_cost(all_ones, _pop([0.5, 0.3, 0.2])) == 0.0

    half = DensityProfile(
        densities=np.array([0.5, 0.5]), l_index=1, r_index=3, mu=1.0,
        n_nodes=16, capacity=1.0,
    )
    assert math.isclose(
        cd_cost(half, _pop([0.5, 0.5])), COST_FACTOR * (math.sqrt(2) - 1),
        rel_tol=1e-12,
    )

    single = DensityProfile(
        densities=np.array([0.01]), l_index=1, r_index=1, mu=1.0,
        n_nodes=100, capacity=1.0,
    )
    assert math.isclose(cd_cost(single, _pop([1.0])), COST_FACTOR * 9, rel_tol=1e-12)


def test_lower_bound_matches_cd_cost_and_raw_vectors():
    pop = _pop([0.5, 0.5])
    assert math.isclose(
        lower_bound(np.array([0.25, 0.25]), pop), COST_FACTOR * 1.0, rel_tol=1e-12
    )
    prof = solve_cd(16, 1.0, pop)
    assert lower_bound(prof.densities, pop) == cd_cost(prof, pop)
    with pytest.raises(InvalidInputError):
        lower_bound(np.array([0.5, 0.0]), pop)


def test_lower_bound_rejects_sizes_that_differ():
    with pytest.raises(InvalidInputError, match="densities and popularity sizes differ"):
        lower_bound(np.array([0.5, 0.25, 0.25]), _pop([0.5, 0.5]))


@pytest.mark.parametrize("bad", [0.0, -0.25, math.nan, -math.inf])
def test_lower_bound_rejects_a_density_that_is_not_positive(bad):
    with pytest.raises(InvalidInputError, match="densities must be positive"):
        lower_bound(np.array([0.5, bad]), _pop([0.5, 0.5]))


@pytest.mark.parametrize("capacity", [-1.0, math.nan, math.inf, -math.inf])
def test_solve_cd_rejects_capacity_that_is_not_finite_and_positive(capacity):
    with pytest.raises(InvalidInputError, match="capacity must be a finite positive number"):
        solve_cd(4, capacity, zipf(2, 1.0))


@pytest.mark.parametrize("n_nodes", [0, -16, 2, 8, 15, 17])
def test_canonical_truncate_rejects_node_counts_not_powers_of_4(n_nodes):
    prof = DensityProfile(
        densities=np.array([1.0, 0.25]), l_index=1, r_index=3, mu=1.0, n_nodes=n_nodes,
        capacity=2.0,
    )
    with pytest.raises(InvalidInputError, match=f"n_nodes={n_nodes} is not a power of 4"):
        canonical_truncate(prof)


def test_canonical_truncate_examples():
    prof = DensityProfile(
        densities=np.array([1.0, 0.3, 0.25]), l_index=1, r_index=4, mu=1.0,
        n_nodes=16, capacity=2.0,
    )
    canon = canonical_truncate(prof)
    assert canon.counts.tolist() == [1, 2, 0]
    assert np.allclose(canon.densities, [1.0, 0.25, 0.25])

    prof4 = solve_cd(4, 1.0, _pop([0.7, 0.2, 0.1]))
    canon4 = canonical_truncate(prof4)
    assert np.allclose(canon4.densities, [0.25] * 3)
    assert float(canon4.densities.sum()) == 0.75

    bad = DensityProfile(
        densities=np.array([0.5]), l_index=1, r_index=2, mu=1.0,
        n_nodes=8, capacity=1.0,
    )
    with pytest.raises(InvalidInputError):
        canonical_truncate(bad)


def test_a_coeff_examples():
    assert a_coeff(0, 0, 1.0, 4, _pop([1.0])) == 1.0
    # Zero denominator is defined as 1.
    assert a_coeff(1, 0, 1.0, 4, _pop([0.6, 0.4])) == 1.0
    val = a_coeff(0, 0, 2.0, 4, _pop([0.5, 0.5]))
    assert math.isclose(val, 0.5 ** (2.0 / 3.0), rel_tol=1e-12)
    with pytest.raises(InvalidInputError):
        a_coeff(2, 3, 1.0, 4, _pop([0.5, 0.5]))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 5), st.integers(1, 60), st.floats(1.0, 8.0), st.integers(0, 10**6))
def test_solve_cd_structure_and_kkt(nu, m, k, seed):
    n = 4 ** nu
    if k * n < m:
        k = math.ceil(m / n)
    rng = np.random.default_rng(seed)
    pop = _random_pop(rng, m)
    prof = solve_cd(n, float(k), pop)
    d = prof.densities
    l, r = prof.l_index, prof.r_index
    assert 1 <= l <= r <= m + 1
    assert np.all(d[: l - 1] == 1.0)
    assert np.all(d[r - 1 :] == 1.0 / n)
    assert np.all(d[l - 1 : r - 1] > 1.0 / n) and np.all(d[l - 1 : r - 1] < 1.0)
    assert np.all(np.diff(d) <= 1e-12)  # nonincreasing with nonincreasing p
    total = float(d.sum())
    assert total <= k + 1e-9
    if k < m:
        assert abs(total - k) <= 1e-9
    interior_res, up_slack, down_slack = kkt_residuals(prof, pop)
    assert interior_res <= 1e-7
    assert up_slack >= -1e-9
    assert down_slack >= -1e-9


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4), st.integers(1, 40), st.floats(1.0, 6.0), st.integers(0, 10**6))
def test_theorem7_sandwich_and_truncation(nu, m, k, seed):
    n = 4 ** nu
    if k * n < m:
        k = math.ceil(m / n)
    pop = _random_pop(np.random.default_rng(seed), m)
    prof = solve_cd(n, float(k), pop)
    canon = canonical_truncate(prof)
    # d0 <= d < 4 d0 and capacity is respected.
    assert np.all(canon.densities <= prof.densities + 1e-15)
    assert np.all(prof.densities < 4.0 * canon.densities + 1e-15)
    assert float(canon.densities.sum()) <= k + 1e-9
    exact = cd_cost(prof, pop)
    rounded = lower_bound(canon.densities, pop)
    assert exact <= rounded + 1e-12
    assert rounded < 2.0 * exact + math.sqrt(2.0) / 6.0 + 1e-12


def test_monotone_comparative_statics():
    rng = np.random.default_rng(3)
    pop = _random_pop(rng, 20)
    costs_k = [cd_cost(solve_cd(64, k, pop), pop) for k in (1.0, 1.5, 2.0, 4.0, 8.0)]
    assert all(a >= b - 1e-12 for a, b in zip(costs_k, costs_k[1:]))
    costs_n = [cd_cost(solve_cd(4 ** nu, 2.0, pop), pop) for nu in (2, 3, 4, 5)]
    assert all(a >= b - 1e-12 for a, b in zip(costs_n, costs_n[1:]))


def test_uniqueness_under_permuted_ties():
    # Equal popularities must give equal densities regardless of ordering.
    pop = _pop([0.3, 0.3, 0.2, 0.2])
    d = solve_cd(16, 2.0, pop).densities
    assert d[0] == d[1] and d[2] == d[3]


def test_real_valued_capacity():
    pop = zipf(6, 1.0)
    prof = solve_cd(16, 1.5, pop)
    assert abs(float(prof.densities.sum()) - 1.5) <= 1e-9


@pytest.mark.parametrize("offset", [-300, -40, -2, 2, 40, 300])
def test_split_search_widens_from_a_wrong_start(offset):
    # r = 386 lies inside (l, M + 1), so the search checks the start, then
    # doubles its step up or down until the floor condition turns.
    n, pop = 4**5, zipf(4**5, 1.2)
    q = pop.probs ** (2.0 / 3.0)
    prefix = np.concatenate(([0.0], np.cumsum(q)))
    args = (n, 2.0, pop.m_count, lambda i: q[i - 1], lambda a, b: prefix[b] - prefix[a - 1])
    assert _split_indices(*args) == (1, 386)
    assert _split_indices(*args, start=lambda l: 386.5 + offset) == (1, 386)


def test_json_roundtrip():
    prof = solve_cd(16, 1.0, zipf(5, 1.1))
    assert json.loads(prof.to_json()) == {
        "n_nodes": 16, "capacity": 1.0, "l": prof.l_index, "r": prof.r_index,
        "mu": prof.mu, "densities": prof.densities.tolist(),
    }


def _level_reference(d: float, nu: int) -> int:
    """The least k in 0..nu with 4^-k <= d, in exact rationals."""
    if d == math.inf:
        return 0
    k = 0
    while k < nu and Fraction(1, 4**k) > Fraction(d):
        k += 1
    return k


def test_canonical_truncate_is_exact():
    nu = 10
    rng = np.random.default_rng(5)
    powers = [4.0**-k for k in range(nu + 3)] + [2.0**-k for k in range(2 * nu + 3)]
    values = list(np.exp(rng.uniform(math.log(4.0 ** -(nu + 2)), math.log(2.0), 2000)))
    for v in powers:
        values += [v, np.nextafter(v, 0.0), np.nextafter(v, math.inf)]
    values += [5e-324, 1.0, 1.5, 2.0, math.inf]
    d = np.sort(np.array(values, dtype=float))[::-1]
    prof = DensityProfile(
        densities=d, l_index=1, r_index=d.size + 1, mu=1.0, n_nodes=4**nu, capacity=float(d.size),
    )
    canon = canonical_truncate(prof)
    levels = np.repeat(np.arange(nu + 1), canon.counts)
    assert levels.tolist() == [_level_reference(float(v), nu) for v in d]
    assert np.array_equal(canon.densities, 4.0 ** -levels.astype(float))


def _counts_reference(d, nu):
    """Level counts from the per-file levels: nu + 1 minus the count of the
    powers 4^-nu..4^0 that are <= d, capped at nu."""
    levels = np.searchsorted(4.0 ** np.arange(-nu, 1), d, side="right")
    return np.bincount(np.minimum(nu + 1 - levels, nu), minlength=nu + 1)


@st.composite
def _solved_catalogs(draw):
    """(n_nodes, K, Popularity): a Zipf catalog, or a random nonincreasing
    one with many ties, that K N caches can hold."""
    nu = draw(st.integers(0, 8))
    cap = draw(st.floats(1.0, 7.25))
    m_count = draw(st.integers(1, min(int(cap * 4**nu), 5000)))
    if draw(st.booleans()):
        return 4**nu, cap, zipf(m_count, draw(st.floats(0.0, 4.0)))
    # A few distinct values, each repeated, in nonincreasing order.
    values = draw(st.lists(st.floats(1e-6, 1.0), min_size=1, max_size=4))
    raw = np.sort(np.array(values)[draw(st.lists(
        st.integers(0, len(values) - 1), min_size=m_count, max_size=m_count
    ))])[::-1]
    return 4**nu, cap, Popularity(raw / raw.sum())


@settings(max_examples=300, deadline=None)
@given(_solved_catalogs())
@example((4**8, 7.25, zipf(7 * 4**8, 4.0)))
@example((4**5, 2.0, zipf(2 * 4**5 - 1, 0.0)))
@example((1, 1.0, zipf(1, 0.8)))
def test_counts_match_the_per_file_levels(case):
    n, cap, pop = case
    prof = solve_cd(n, cap, pop)
    canon = canonical_truncate(prof)
    nu = canon.nu
    assert canon.counts.tolist() == _counts_reference(prof.densities, nu).tolist()
    assert canon.m_count == pop.m_count


def test_canonical_truncate_refuses_rising_densities():
    prof = DensityProfile(
        densities=np.array([1.0, 0.25, 0.25, 0.3, 0.5]), l_index=1, r_index=6, mu=1.0,
        n_nodes=16, capacity=3.0,
    )
    with pytest.raises(InvalidInputError, match="density 0.3 of file 3 rises above 0.25"):
        canonical_truncate(prof)


@pytest.mark.parametrize("bad", [0.0, -0.0, -0.25, math.nan, -math.inf])
def test_canonical_truncate_rejects_a_density_that_is_not_positive(bad):
    prof = DensityProfile(
        densities=np.array([0.5, 0.25, bad]), l_index=1, r_index=4, mu=1.0, n_nodes=16,
        capacity=2.0,
    )
    with pytest.raises(InvalidInputError, match=f"density {bad!r} of file 2 "):
        canonical_truncate(prof)
