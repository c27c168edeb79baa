"""The catalog-free Zipf path of `asymptotics` against the array reference.

`_PowerSums` is checked against math.fsum and the zeta tail, and the
estimates that filter the split search against the exact sums; the split
(l, r) and the capacity C are checked against solve_cd and the array
breakdown on a grid of taus and catalog sizes up to nu = 9, and
the split against itself without the filter and without the start that
`_PowerSums.crossing` gives its r search.
"""

import contextlib
import hashlib
import io
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from replicagrid import asymptotics
from replicagrid.asymptotics import (
    _PowerSums,
    _zipf_breakdown,
    _zipf_split,
    _zipf_start,
    classify_regime,
    sweep,
)
from replicagrid.cli import main
from replicagrid.density import _interior_cap, _split_indices, solve_cd
from replicagrid.popularity import zipf
from test_bit_identity import _breakdown_reference

POWERS = (0.0, 1 / 3, 2 / 3, 1 - 1e-9, 1.0, 1 + 1e-9, 4 / 3, 2.0)
SEGMENTS = (
    (5, 4),  # empty
    (1, 0),  # empty at the start
    (7, 7),  # one term
    (1, 1),
    (3, 15),  # short: direct terms only
    (1, 40),  # direct head, then Euler-Maclaurin
    (1, 100_000),
    (37, 250_000),
    (123_456, 123_500),  # short, far out
    (90_000, 600_000),
)


def test_zeta_coefficients_are_the_nearest_floats():
    bernoulli = ["1/6", "-1/30", "1/42", "-1/30", "5/66", "-691/2730", "7/6", "-3617/510",
                 "43867/798", "-174611/330", "854513/138", "-236364091/2730"]
    assert len(asymptotics._ZETA_COEFFS) == len(bernoulli)
    for k, (b, coeff) in enumerate(zip(bernoulli, asymptotics._ZETA_COEFFS), start=1):
        assert coeff == float(Fraction(b) / math.factorial(2 * k)), k


def _fsum_reference(s, a, b):
    if b < a:
        return 0.0
    return math.fsum(np.arange(a, b + 1, dtype=float) ** -s)


@pytest.mark.parametrize("s", POWERS)
def test_power_sum_matches_fsum(s):
    for a, b in SEGMENTS:
        want = _fsum_reference(s, a, b)
        got = _PowerSums(s)(a, b)
        # A few ulp: the integral's pow, expm1 and division each round.
        assert got == want if want == 0.0 else abs(got - want) <= 1e-15 * want, (a, b)


def test_power_sum_counts_at_s_zero():
    assert _PowerSums(0.0)(1, 2**53) == 2.0**53
    assert _PowerSums(0.0)(10, 9) == 0.0


@pytest.mark.parametrize("s", [1 + 1e-9, 4 / 3, 2.0, 3.5])
@pytest.mark.parametrize("a", [1, 11, 1000])
def test_power_sum_approaches_zeta_tail(s, a):
    # The segment plus the tail past it is the whole tail, and the segment
    # grows towards it.
    total = _PowerSums(s)(a)
    last = 0.0
    for b in [a, a + 5, a + 50] + [int(v) for v in np.geomspace(a + 100, 1e15, 12)]:
        seg = _PowerSums(s)(a, b)
        assert last <= seg <= total
        assert math.isclose(seg + _PowerSums(s)(b + 1), total, rel_tol=2e-15), b
        last = seg


@settings(max_examples=400, deadline=None)
@given(
    s=st.floats(0.0, 8.0),
    a=st.integers(1, 10**4),
    length=st.one_of(st.integers(0, 40), st.integers(0, 2**40)),
)
@example(s=0.0, a=1, length=2**40 - 1)
@example(s=1.0, a=1, length=10)  # ends at n = 11: the start's direct terms
@example(s=1.0, a=1, length=11)  # ends at n: the shortest Euler-Maclaurin segment
@example(s=1.0, a=1, length=30)  # a short segment past n, summed directly
@example(s=8.0, a=10**4, length=2**40 - 10**4)
def test_estimate_lies_within_a_quarter_of_its_bound(s, a, length):
    b = min(a + length, 2**40)
    sums = _PowerSums(s)
    est, err = sums.estimate(a, b)
    exact = sums(a, b)
    assert abs(exact - est) <= err / 4, (est, err, exact)


def _certificate(q_at, mass, n, k, m, l, r):
    """(lhs, rhs, holds) of each condition that makes the (l, r) search stop
    at (l, r) for this l: the interior l..r-1 above the 1/N floor, file r
    not, file l below density one, and file l-1 pinned at one."""
    cap = lambda l, r: _interior_cap(n, k, m, l, r)
    out = []
    if r > l:
        lhs, rhs = cap(l, r) * n * q_at(r - 1), mass(l, r)
        out.append((lhs, rhs, lhs > rhs))
        lhs, rhs = cap(l, r) * q_at(l), mass(l, r)
        out.append((lhs, rhs, lhs < rhs))
    if r <= m:
        lhs, rhs = cap(l, r + 1) * n * q_at(r), mass(l, r + 1)
        out.append((lhs, rhs, not lhs > rhs))
    if l > 1:
        lhs, rhs = cap(l - 1, r) * q_at(l - 1), mass(l - 1, r)
        out.append((lhs, rhs, lhs >= rhs))
    return out


def _near_tie(lhs, rhs):
    return abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs))


def _fsum_capacity(n, k, m, tau, l, r):
    """C = c_mid + c_down - tail at (l, r), each part's per-file terms
    summed by math.fsum."""
    ranks = np.arange(1, m + 1, dtype=float)
    h = math.fsum(ranks ** -tau)
    p = ranks ** -tau / h
    q = ranks[l - 1 : r - 1] ** (-2.0 * tau / 3.0)
    d = _interior_cap(n, k, m, l, r) * q / math.fsum(q)
    c_mid = math.fsum(p[l - 1 : r - 1] / np.sqrt(d))
    c_down = math.sqrt(n) * math.fsum(p[r - 1 :])
    tail = math.fsum(p[l - 1 :])
    return c_mid + c_down - tail


def _catalog_sizes(n, k):
    kn = int(k * n)
    named = (1, int(k), int(n**0.6), n // 2, n, int(1.75 * n), kn - 50, kn - 1, kn)
    return sorted({m for m in named if 1 <= m <= kn})


EQUIVALENCE_TAUS = (0.0, 0.5, 0.8, 1.0, 1.25, 1.5, 2.0, 3.0)


@pytest.mark.parametrize("nu", range(0, 10))
def test_catalog_free_split_and_breakdown_match_arrays(nu):
    n, k = 4**nu, 2.0
    ties = 0
    for tau in EQUIVALENCE_TAUS:
        for m in _catalog_sizes(n, k):
            pop = zipf(m, tau)
            prof = solve_cd(n, k, pop)
            want = _breakdown_reference(prof.densities, pop.probs, prof.l_index, prof.r_index, n)
            l, r = _zipf_split(n, k, m, tau)
            got = _zipf_breakdown(n, k, m, tau, l, r, _PowerSums(2.0 * tau / 3.0), _PowerSums(tau))
            case = (tau, m, (prof.l_index, prof.r_index), (l, r))
            if (l, r) != (prof.l_index, prof.r_index):
                # Only a condition whose two sides tie to 1e-12 in the array
                # path's own arithmetic may decide differently here.
                q = pop.probs ** (2.0 / 3.0)
                prefix = np.concatenate(([0.0], np.cumsum(q)))
                s = 2.0 * tau / 3.0
                array_side = _certificate(
                    lambda i: q[i - 1], lambda a, b: prefix[b - 1] - prefix[a - 1],
                    n, k, m, prof.l_index, prof.r_index,
                )
                free_side = _certificate(
                    lambda i: i**-s, lambda a, b: _PowerSums(s)(a, b - 1),
                    n, k, m, prof.l_index, prof.r_index,
                )
                flipped = [a for a, f in zip(array_side, free_side) if a[2] != f[2]]
                assert flipped and all(_near_tie(lhs, rhs) for lhs, rhs, _ in flipped), case
                ties += 1
            a = want.c_total
            if math.isclose(a, got, rel_tol=1e-12, abs_tol=0.0):
                continue
            # The array path sums its q prefix sequentially; where that is
            # off by more than 1e-12 (tau = 0, equal terms), the power sums
            # must be the ones that agree with math.fsum.
            ref = _fsum_capacity(n, k, m, tau, l, r)
            assert math.isclose(got, ref, rel_tol=1e-14), (case, a, got, ref)
            assert not math.isclose(a, ref, rel_tol=1e-12), (case, a, got, ref)
    # The two tie families: every density exactly 1/N (tau = 0, M = KN), and
    # 2 q_2 = q_1 deciding r at tau = 1.5, KN - M = 1.
    if nu in (1, 2, 3, 4):
        assert ties >= 1


def _split_both_ways(n, k, m, tau):
    """(l, r) and the probed files of the Zipf split search: with exact
    sums only, with the estimate filter, and with estimates that are off by
    err / 2, the most split_indices allows, to alternating sides.  The
    three runs are made without a start and again with _zipf_split's."""
    s = 2.0 * tau / 3.0
    sums = _PowerSums(s)

    def skewed(a, b):
        mass = sums(a, b)
        return mass * (1.0 + (-1) ** (b + 1) * 1e-4), 2e-4 * mass

    plain, started = [], []
    for start, runs in ((None, plain), (_zipf_start(n, k, m, sums), started)):
        for rough in (None, sums.estimate, skewed):
            probes = []

            def q_at(i):
                probes.append(i)
                return i**-s

            split = _split_indices(n, k, m, q_at, sums, rough=rough, start=start)
            runs.append((split, probes))
    return plain, started


def _check_split_both_ways(n, k, m, tau):
    (exact, filtered, skewed), started = _split_both_ways(n, k, m, tau)
    assert filtered == exact and skewed == exact, (tau, m)
    # With the start the probes move, but no run may part from the others,
    # and the split is the one the bisection finds.
    assert all(run == started[0] for run in started), (tau, m)
    assert started[0][0] == exact[0], (tau, m)


@pytest.mark.parametrize("nu", range(0, 10))
def test_filter_leaves_split_and_probes_unchanged_on_the_catalog_grid(nu):
    n, k = 4**nu, 2.0
    for tau in EQUIVALENCE_TAUS:
        for m in _catalog_sizes(n, k):
            if k < m:
                _check_split_both_ways(n, k, m, tau)


@settings(max_examples=150, deadline=None)
@given(
    nu=st.integers(0, 9),
    k=st.one_of(st.sampled_from([1.0, 2.0, 3.5, 55.25]), st.floats(1.0, 64.0)),
    tau=st.one_of(st.just(0.0), st.sampled_from(EQUIVALENCE_TAUS), st.floats(0.0, 4.0)),
    data=st.data(),
)
@example(nu=1, k=55.25, tau=0.0, data=None)  # K*N = M = 221: every density ties at 1/N
def test_filter_leaves_split_unchanged_at_ties(nu, k, tau, data):
    n = 4**nu
    kn = int(k * n)
    # M = K*N (rounded down) half the time: at tau = 0 the conditions tie in floats.
    m = kn if data is None else data.draw(st.one_of(st.just(kn), st.integers(1, kn)))
    if k < m:
        _check_split_both_ways(n, k, m, tau)


@st.composite
def _split_instances(draw):
    """(nu, K, tau, M) with K N <= 2^53: M = K N or just below it half the
    time, and tau from the whole range, from classify's exact path
    (tau < 0.05) and from the grid."""
    nu = draw(st.integers(0, 26))
    n = 4**nu
    k = min(draw(st.one_of(st.sampled_from([1.0, 2.0, 3.5]), st.floats(1.0, 64.0))), 2.0**53 / n)
    tau = draw(
        st.one_of(st.floats(0.0, 4.0), st.floats(0.0, 0.05), st.sampled_from(EQUIVALENCE_TAUS))
    )
    kn = int(k * n)
    m = draw(st.one_of(st.integers(max(1, kn - 3), kn), st.integers(1, kn)))
    return nu, k, tau, m


@settings(max_examples=300, deadline=None)
@given(_split_instances())
@example((1, 55.25, 0.0, 221))  # tau 0, M = K N: every condition ties
@example((9, 2.0, 0.0, 2 * 4**9))
@example((2, 2.0, 1.5, 31))  # tau 1.5, K N - M = 1: 2 q_2 = q_1 decides r
@example((3, 2.0, 1.5, 127))
@example((2, 8.0, 0.8, 5))  # K >= M: no search
@example((13, 2.0, 0.01, 4**13))  # classify's exact path
@example((26, 2.0, 0.01, 2 * 4**26 - 10**12))
@example((26, 2.0, 2.0, int(1.75 * 4**26)))
@example((23, 2.0, 0.01892995761310582, 139151539006004))  # the condition turns more than once
@example((24, 1.0000000000009095, 1.5331855919152903e-16, 281474976710912))  # c = 0, s ~ 1e-16
def test_started_split_matches_plain_bisection(case):
    nu, k, tau, m = case
    n = 4**nu
    s = 2.0 * tau / 3.0
    sums = _PowerSums(s)
    if k >= m:
        plain = (m + 1, m + 1)
    else:
        plain = _split_indices(n, k, m, lambda i: i**-s, sums, rough=sums.estimate)
    assert _zipf_split(n, k, m, tau) == plain


# (argv, exact power sums before the estimates filtered the split search,
# counted as calls of _power_sum, and the bound now: a third of that).
EXACT_SUM_COUNTS = [
    ("sweep --K 2 --M 0.5*N --tau 0.8 --nus 3,4,5,6,7,8,9,10", 48, 16),
    ("sweep --K 2 --M 1.75*N --tau 2 --nus 3,4,5,6,7,8,9,10", 184, 61),
]


@pytest.mark.parametrize("argv, before, bound", EXACT_SUM_COUNTS)
def test_sweep_makes_few_exact_power_sums(monkeypatch, argv, before, bound):
    calls = []
    exact = _PowerSums.__call__

    def counted(self, a, b=None):
        calls.append((self.s, a, b))
        return exact(self, a, b)

    monkeypatch.setattr(asymptotics._PowerSums, "__call__", counted)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv.split()) == 0
    # 16 and 27 when this test was written.
    assert 0 < len(calls) <= bound < before


# (argv, estimates before the split search had a start, counted as calls of
# _PowerSums.estimate, and the bound now: a third of that).
ESTIMATE_COUNTS = [
    ("sweep --K 2 --M 1.75*N --tau 2 --nus 3,4,5,6,7,8,9,10", 128, 42),
]


@pytest.mark.parametrize("argv, before, bound", ESTIMATE_COUNTS)
def test_sweep_makes_few_estimates(monkeypatch, argv, before, bound):
    calls = []
    estimate = _PowerSums.estimate

    def counted(self, a, b):
        calls.append((self.s, a, b))
        return estimate(self, a, b)

    monkeypatch.setattr(asymptotics._PowerSums, "estimate", counted)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv.split()) == 0
    # 32 when this test was written.
    assert 0 < len(calls) <= bound < before


def test_sweep_to_nu_20_builds_no_catalog():
    sweep(2.0, 2.0, lambda n: int(1.75 * n), range(3, 6))  # first-call imports
    tracemalloc.start()
    try:
        res = sweep(2.0, 2.0, lambda n: int(1.75 * n), range(3, 21))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.points[-1].m_count == int(1.75 * 4**20)
    assert peak < 1_000_000


def test_classify_at_small_tau_builds_no_catalog():
    n = 4**13
    tracemalloc.start()
    try:
        r_hat = classify_regime(0.01, 2.0, n, n).predicted_r_hat
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 1.0 <= r_hat <= n + 1
    assert peak < 1_000_000


def test_sweep_points_make_the_same_power_sum_calls(monkeypatch):
    """Every point of the benchmark's 21 sweeps makes the estimate, exact
    sum and crossing calls, with the same arguments in the same order, that
    it made when each probe went through per-point lambdas and nested
    condition functions (pinned by count and digest)."""
    log = []

    def counted(name):
        method = getattr(_PowerSums, name)

        def call(self, *args):
            log.append((name, self.s, *args))
            return method(self, *args)

        monkeypatch.setattr(_PowerSums, name, call)

    for name in ("estimate", "__call__", "crossing"):
        counted(name)
    split = asymptotics._zipf_split

    def point(n, capacity, m, tau, q_sums=None):
        log.append(("point", n, m))
        return split(n, capacity, m, tau, q_sums)

    monkeypatch.setattr(asymptotics, "_zipf_split", point)
    for tau in ("0.5", "0.8", "1", "1.2", "1.5", "2", "3"):
        for m in ("N^0.6", "0.5*N", "1.75*N"):
            argv = ["sweep", "--nus", "3,4,5,6,7,8,9,10", "--K", "2", "--M", m, "--tau", tau]
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == 0
    counts = {name: sum(1 for call in log if call[0] == name)
              for name in ("point", "estimate", "__call__", "crossing")}
    assert counts == {"point": 168, "estimate": 570, "__call__": 456, "crossing": 102}
    assert hashlib.sha256(repr(log).encode()).hexdigest() == (
        "bb97c429fed8eb2a8cbb940012db3d36d47501f24590f58aa844128fd1b6b10e"
    )
