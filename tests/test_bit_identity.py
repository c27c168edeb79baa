"""The popularity -> density -> cost pipeline against test-side copies of its
earlier formulas, each of which allocated a fresh array per step.

Every comparison is exact (np.array_equal and ==): the in-place forms must
give the same bits, not merely close values.
"""

import math
import tracemalloc
import warnings
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from replicagrid.density import (
    COST_FACTOR,
    canonical_truncate,
    lower_bound,
    solve_cd,
)
from replicagrid.errors import InvalidInputError
from replicagrid.popularity import Popularity, zipf

TAUS = [0.0, 0.5, 0.8, 1.0, 1.5, 2.0, 3.0]


def _zipf_reference(m_count, tau):
    ranks = np.arange(1, m_count + 1, dtype=float)
    weights = ranks ** (-float(tau))
    return weights / weights.sum()


def _solve_cd_reference(n, k_cap, p):
    """(densities, l, r, mu) by the earlier solve_cd, which built a
    concatenated prefix and a scaled copy of the interior."""
    m_count = p.size
    if k_cap >= m_count:
        return np.ones(m_count), m_count + 1, m_count + 1, 0.0
    q = p ** (2.0 / 3.0)
    prefix = np.concatenate(([0.0], np.cumsum(q)))

    def mass(l, r):
        # As solve_cd takes it: one file's q, or a direct sum where the
        # difference is under 2^32 sqrt(n) ulps of prefix[r - 1], n files.
        if r - l == 1:
            return float(q[l - 1])
        diff = float(prefix[r - 1] - prefix[l - 1])
        if diff < 2.0**32 * math.sqrt(r - l) * math.ulp(prefix[r - 1]):
            return float(q[l - 1 : r - 1].sum())
        return diff

    def cap(l, r):
        return k_cap - (l - 1) - (m_count - r + 1) / n

    def above_floor(l, r):
        return r == l or cap(l, r) * n * q[r - 2] > mass(l, r)

    def head_below_one(l, r):
        return r == l or cap(l, r) * q[l - 1] < mass(l, r)

    def prev_head_pinned(l, r):
        return l == 1 or cap(l - 1, r) * q[l - 2] >= mass(l - 1, r)

    for l in range(1, min(int(math.floor(k_cap + 1e-12)) + 1, m_count) + 1):
        lo, hi = l, m_count + 1
        if above_floor(l, m_count + 1):
            r = m_count + 1
        else:
            while hi - lo > 1:
                mid = (lo + hi) // 2
                lo, hi = (mid, hi) if above_floor(l, mid) else (lo, mid)
            r = lo
        if cap(l, r) >= -1e-12 and head_below_one(l, r) and prev_head_pinned(l, r):
            break
    d = np.empty(m_count)
    d[: l - 1] = 1.0
    d[r - 1 :] = 1.0 / n
    if l < r:
        d[l - 1 : r - 1] = cap(l, r) / mass(l, r) * q[l - 1 : r - 1]
        mu = 0.5 * p[l - 1] * d[l - 1] ** (-1.5)
    else:
        lo_mu = 0.5 * p[r - 1] * n ** 1.5 if r <= m_count else 0.0
        hi_mu = 0.5 * p[l - 2] if l > 1 else math.inf
        mu = lo_mu if math.isinf(hi_mu) else 0.5 * (lo_mu + hi_mu)
    return d, l, r, mu


# The capacity C = sum (d^(-1/2) - 1) p and its three parts, C = c_mid +
# c_down - tail: the interior files contribute p / sqrt(d) (c_mid), the
# down-truncated files sqrt(N) p (c_down), and every file from l on -p (tail).
_Breakdown = namedtuple("_Breakdown", "c_total c_mid c_down tail")


def _breakdown_reference(d, p, l, r, n):
    return _Breakdown(
        c_total=float(np.sum((d ** -0.5 - 1.0) * p)),
        c_mid=float(np.sum(p[l - 1 : r - 1] / np.sqrt(d[l - 1 : r - 1]))),
        c_down=math.sqrt(n) * float(np.sum(p[r - 1 :])),
        tail=float(np.sum(p[l - 1 :])),
    )


def _lower_bound_reference(d, p):
    return COST_FACTOR * float(np.sum((d ** -0.5 - 1.0) * p))


def _check_pipeline(tau, m_count, n, capacity):
    pop = zipf(m_count, tau)
    assert np.array_equal(pop.probs, _zipf_reference(m_count, tau))
    prof = solve_cd(n, capacity, pop)
    d, l, r, mu = _solve_cd_reference(n, capacity, pop.probs)
    assert (prof.l_index, prof.r_index, prof.mu) == (l, r, mu)
    assert np.array_equal(prof.densities, d)
    p = pop.probs
    assert lower_bound(prof.densities, pop) == _lower_bound_reference(d, p)
    if n & (n - 1) == 0 and (n.bit_length() - 1) % 2 == 0:  # a power of 4
        canon = canonical_truncate(prof)
        assert lower_bound(canon.densities, pop) == _lower_bound_reference(canon.densities, p)
    return prof


# (tau, N, M, K, which part of the split the instance exercises)
EDGE_CASES = [
    (0.8, 4, 2, 0.5, "empty interior"),  # M = K N: every file at 1/N
    (3.0, 5, 100, 20.0, "empty interior"),
    (3.0, 37, 10, 7.0, "no tail"),
    (0.0, 1024, 40, 2.0, "no tail"),
    (3.0, 37, 100, 3.0, "no head"),
    (3.0, 37, 40, 2.0, "no head"),
    (1.0, 16, 5, 5.0, "slack"),
    (2.0, 4, 3, 400.0, "slack"),
    (1.5, 16, 100, 20.0, "head, interior and tail"),
]


@pytest.mark.parametrize("tau, n, m_count, capacity, case", EDGE_CASES)
def test_edge_cases_are_bit_identical(tau, n, m_count, capacity, case):
    prof = _check_pipeline(tau, m_count, n, capacity)
    l, r = prof.l_index, prof.r_index
    holds = {
        "empty interior": l == r <= m_count,
        "no tail": l < r == m_count + 1 and capacity < m_count,
        "no head": l == 1 < r <= m_count,
        "slack": capacity >= m_count and l == r == m_count + 1,
        "head, interior and tail": 1 < l < r <= m_count,
    }[case]
    assert holds, (case, l, r)


_n_nodes = st.one_of(st.integers(0, 9).map(lambda e: 4**e), st.integers(1, 10**6))
_extra_capacity = st.one_of(
    st.just(0.0), st.floats(0.0, 1.0), st.floats(0.0, 20.0), st.floats(0.0, 2e5)
)


@settings(max_examples=150, deadline=None)
@given(
    tau=st.one_of(st.sampled_from(TAUS), st.floats(0.0, 4.0)),
    m_count=st.one_of(st.integers(1, 60), st.integers(1, 100_000)),
    n=_n_nodes,
    extra=_extra_capacity,
)
@example(tau=1.0, m_count=100_000, n=4**9, extra=0.0)
@example(tau=0.0, m_count=1, n=1, extra=0.0)
@example(tau=0.0, m_count=15839, n=4, extra=0.0)  # K = 3959.75: sums round past 1e-9
@example(tau=4.0, m_count=4000, n=4, extra=2400.0)  # K = 3400: interior summed directly
def test_pipeline_is_bit_identical_to_fresh_array_formulas(tau, m_count, n, extra):
    # K runs from M/N (below 1 when N > M; no slack at all when extra = 0)
    # to far above M.
    _check_pipeline(tau, m_count, n, m_count / n + extra)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 2000), st.floats(0.0, 4.0), st.integers(0, 2**32 - 1))
def test_lower_bound_is_bit_identical_on_arbitrary_densities(m_count, tau, seed):
    pop = zipf(m_count, tau)
    d = np.random.default_rng(seed).uniform(1e-6, 1.0, m_count)
    assert lower_bound(d, pop) == _lower_bound_reference(d, pop.probs)


def _validation_reference(values):
    """The message of the earlier validator (per-element checks first), or None."""
    p = np.asarray(values, dtype=float)
    if p.ndim != 1 or p.size < 1:
        return "popularity must be a nonempty 1-d vector"
    if not np.all(np.isfinite(p) & (p > 0.0)):
        return "all popularities must be finite and strictly positive"
    if np.any(np.diff(p) > 0.0):
        return "popularities must be nonincreasing"
    with np.errstate(over="ignore"):
        total = float(p.sum())
    if abs(total - 1.0) > 1e-12:
        return f"popularities must sum to 1, got {total!r}"
    return None


def _validation_message(values):
    """The validator's message, or None; a numpy warning on the way fails."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            Popularity(np.array(values, dtype=float))
    except InvalidInputError as exc:
        return str(exc)
    return None


PRECEDENCE_CASES = {
    "nan": [0.5, math.nan, 0.5],
    "nan last": [0.5, 0.5, math.nan],
    "+inf": [math.inf, 0.5],
    "-inf": [0.5, -math.inf],
    "zero": [1.0, 0.0],
    "negative": [0.75, 0.5, -0.25],
    "rising pair": [0.25, 0.75],
    "rising pair and a negative": [0.5, 1.0, -0.5],
    "sum overflows": [1e308, 1e308],
    "sum is not 1": [0.5, 0.25],
    "valid": [0.5, 0.25, 0.25],
}


@pytest.mark.parametrize("case", list(PRECEDENCE_CASES))
def test_validation_keeps_its_messages_and_precedence(case):
    values = PRECEDENCE_CASES[case]
    assert _validation_message(values) == _validation_reference(values)
    assert case == "valid" or _validation_message(values) is not None


_special = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 1e308, 5e-324])


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.lists(st.one_of(_special, st.floats(allow_nan=True)), min_size=1, max_size=8),
        st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=8).map(
            lambda v: (np.sort(v)[::-1] / np.sum(v)).tolist()
        ),
    )
)
def test_validation_matches_per_element_checks(values):
    assert _validation_message(values) == _validation_reference(values)


def test_solve_cd_memory_peak():
    """Three catalog-sized float64 arrays at most for solve_cd (q, the
    prefix sums and d), four for zipf plus solve_cd (p as well)."""
    m_count = 7 * 4**9 // 4  # M = 1.75 N at nu = 9
    array_bytes = 8 * (m_count + 1)

    def peak_above_start(run):
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        run()
        return tracemalloc.get_traced_memory()[1] - start

    pop = zipf(m_count, 0.8)
    tracemalloc.start()
    try:
        solve_peak = peak_above_start(lambda: solve_cd(4**9, 2.0, pop))
        pipeline_peak = peak_above_start(lambda: solve_cd(4**9, 2.0, zipf(m_count, 0.8)))
    finally:
        tracemalloc.stop()
    assert solve_peak <= 3 * array_bytes + 2**20
    assert pipeline_peak <= 4 * array_bytes + 2**20
