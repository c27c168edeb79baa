import contextlib
import io
import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import zeta as scipy_zeta

from replicagrid import asymptotics, cli
from replicagrid.asymptotics import (
    SMALL_SLACK,
    _l_hat_scan,
    _PowerSums,
    _r_hat_small_slack,
    _regime,
    _slope,
    classify_regime,
    sweep,
    sweep_to_csv,
)
from replicagrid.density import COST_FACTOR, cd_cost, solve_cd
from replicagrid.errors import InfeasibleError, InvalidInputError
from replicagrid.popularity import Popularity, zipf
from test_bit_identity import _breakdown_reference


def _breakdown(n, k, pop):
    """The capacity breakdown at the solved profile, by the array reference."""
    prof = solve_cd(n, k, pop)
    return _breakdown_reference(prof.densities, pop.probs, prof.l_index, prof.r_index, n)


def test_breakdown_reference_value():
    pop = Popularity(np.array([0.7, 0.2, 0.1]))
    bd = _breakdown(4, 1.0, pop)
    expect = 0.7 * (math.sqrt(2) - 1) + 0.3 * 1.0
    assert math.isclose(bd.c_total, expect, rel_tol=1e-12)


def test_breakdown_trivial_cases():
    pop = Popularity(np.array([0.5, 0.3, 0.2]))
    bd = _breakdown(4, 3.0, pop)
    assert bd.c_total == 0.0 and bd.c_down == 0.0 and bd.tail == 0.0
    # Empty down-truncated set: c_down = 0.
    pop = zipf(64, 1.0)
    bd = _breakdown(1024, 2.0, pop)
    assert bd.c_down == 0.0


def test_breakdown_identity_random():
    rng = np.random.default_rng(2)
    for _ in range(40):
        nu = int(rng.integers(1, 6))
        n = 4 ** nu
        k = float(rng.integers(1, 4))
        m = int(rng.integers(1, int(k * n) + 1))
        tau = float(rng.uniform(0.0, 3.0))
        pop = zipf(m, tau)
        bd = _breakdown(n, k, pop)
        assert abs(bd.c_total - (bd.c_mid + bd.c_down - bd.tail)) <= 1e-9


def _l_hat(*instance):
    return classify_regime(*instance).predicted_l_hat


def _r_hat(*instance):
    return classify_regime(*instance).predicted_r_hat


def _head_scan(tau, k):
    """The head-size scan that _regime takes, as classify_regime and sweep make it."""
    return _l_hat_scan(tau, k) if tau > 1.5 + asymptotics._TAU_TOL else None


def test_estimate_l_hat_examples():
    assert _l_hat(1.0, 3.0, 100, 4 ** 6) == 1
    assert _l_hat(1.5, 7.0, 100, 4 ** 6) == 1
    # tau=3, K=10: approximately 1 + (2*3-3)/(2*3)*10 = 6.
    assert _l_hat(3.0, 10.0, 50, 4 ** 6) == 6
    assert _l_hat(2.0, 1.0, 30, 4 ** 6) == 1


def test_estimate_r_hat_examples():
    assert math.isclose(_r_hat(1.0, 1.0, 5000, 10 ** 4), 2500.0, rel_tol=1e-12)
    # Zero slack: a bounded tail-split index.
    r = _r_hat(0.5, 1.0, 4 ** 5, 4 ** 5)
    assert 1.0 <= r <= 10.0
    # Almost-empty: one past the catalog end.
    assert _r_hat(2.0, 2.0, 100, 4 ** 6) == 101.0


def test_estimate_r_hat_uniform_fallback_matches_solver():
    rng = np.random.default_rng(8)
    for _ in range(20):
        nu = int(rng.integers(2, 6))
        n = 4 ** nu
        k = float(rng.integers(1, 4))
        m = int(rng.integers(2, int(k * n)))
        tau = float(rng.uniform(0.0, 0.049))
        exact = solve_cd(n, k, zipf(m, tau)).r_index
        assert _r_hat(tau, k, m, n) == float(exact)


def test_estimators_validate_input():
    with pytest.raises(InfeasibleError):
        _r_hat(1.0, 1.0, 100, 16)
    with pytest.raises(InvalidInputError):
        _l_hat(-0.5, 1.0, 4, 16)


def test_classify_theta1_regime():
    report = classify_regime(2.0, 2.0, 100, 4 ** 6)
    assert report.predicted_law == "C = Theta(1)"
    assert report.truncation_state in ("empty", "almost_empty")
    assert report.predicted_l_hat == 1
    assert report.predicted_r_hat == 101.0


def test_classify_sqrt_m_regime():
    n = 4 ** 6
    report = classify_regime(0.5, 1.0, n // 2, n)
    assert report.truncation_state == "almost_empty"
    assert report.predicted_law == "C = Theta(M^0.5)"


def test_classify_zero_slack_column():
    n = 4 ** 6
    report = classify_regime(0.5, 1.0, n, n)
    assert report.truncation_state == "nonempty"
    assert report.regime_label == "M ~ KN, KN - M = O(1)"
    assert report.predicted_law == "C = Theta(M^0.5)"
    assert report.predicted_r_hat <= SMALL_SLACK + 2


@pytest.mark.parametrize(
    "tau, k, ms", [(0.8, 2.0, (1000, 3000, 6000, 8190)), (1.5, 2.0, (300, 900, 5000, 8000)),
                   (2.0, 5.0, (226, 604, 1133, 12288))],
)
def test_classify_works_out_each_regime_fact_once(monkeypatch, tau, k, ms):
    """One instance check and one truncation threshold per call, in each
    truncation state and the near-full column."""
    calls = []
    for name in ("_check_instance", "_almost_empty_threshold"):
        def counted(*args, _name=name, _function=getattr(asymptotics, name)):
            calls.append(_name)
            return _function(*args)

        monkeypatch.setattr(asymptotics, name, counted)
    states = []
    for m in ms:
        calls.clear()
        states.append(classify_regime(tau, k, m, 4 ** 6).truncation_state)
        assert sorted(calls) == ["_almost_empty_threshold", "_check_instance"]
    assert states == ["empty", "almost_empty", "nonempty", "nonempty"]


def test_classify_infeasible():
    with pytest.raises(InfeasibleError):
        classify_regime(1.0, 1.0, 100, 16)


def test_truncation_state_monotone_in_m():
    n = 4 ** 6
    order = {"empty": 0, "almost_empty": 1, "nonempty": 2}
    last = -1
    for m in (4, 64, 512, 1024, 1365, 2048, 3000, 4000, 4096):
        state = order[classify_regime(1.0, 1.0, m, n).truncation_state]
        assert state >= last
        last = state


def test_sweep_needs_three_points():
    with pytest.raises(InvalidInputError):
        sweep(0.5, 2.0, lambda n: n, [5, 6])


def test_sweep_sqrt_m_law():
    res = sweep(0.5, 2.0, lambda n: n, range(5, 10))
    assert abs(res.fitted_exponent - 0.5) <= 0.1
    assert res.predicted_exponent == 0.5
    csv_text = sweep_to_csv(res)
    lines = csv_text.strip().splitlines()
    assert lines[0].startswith("nu,N,M,K,tau,C,l,r,regime")
    assert len(lines) == 1 + 5


def test_sweep_theta1_law():
    res = sweep(2.0, 2.0, lambda n: int(n ** 0.6), range(5, 11))
    assert abs(res.fitted_exponent) <= 0.1
    assert res.predicted_exponent == 0.0


@pytest.mark.parametrize("tau", [1.5e6, 1e308])
def test_sweep_scans_the_head_before_any_power_sum(monkeypatch, tau):
    """Past the tau at which the head-size scan fails, the power sums'
    direct terms alone (about 2 tau / 3 of them) would be millions of
    floats, and at 1e308, 2 tau / 3 is inf: the scan must refuse first."""

    def refuse(s):
        raise AssertionError(f"power sums built at s = {s}")

    monkeypatch.setattr(asymptotics, "_PowerSums", refuse)
    with pytest.raises(InvalidInputError, match=r"^tau = .* underflows$"):
        sweep(tau, 2.0, lambda n: n, [3, 4, 5])
    with pytest.raises(InvalidInputError, match=r"^tau = .* underflows$"):
        classify_regime(tau, 2.0, 64, 64)


@pytest.mark.parametrize(
    "tau, m_expr", [(0.8, "0.5*N"), (1.25, "0.2*N"), (2.0, "1.75*N"), (0.0, "K*N - 1")]
)
def test_sweep_c_is_solve_cost_without_its_factor(tau, m_expr):
    """sweep's C is sum (d^(-1/2) - 1) p, solve's C_cd without its factor
    sqrt(2)/6 (COST_FACTOR), which would put C 76% off.  The worst gap over
    nu 3..9 is 1.3e-14 relative in the first three instances and 1.2e-12 at
    tau 0, where solve_cd's sequential sums round (ROADMAP item 10)."""
    res = sweep(tau, 2.0, lambda n: cli.parse_m_expression(m_expr, n, 2.0), range(3, 10))
    for pt in res.points:
        pop = zipf(pt.m_count, tau)
        want = cd_cost(solve_cd(pt.n_nodes, 2.0, pop), pop)
        assert pt.c_value * COST_FACTOR == pytest.approx(want, rel=1e-9, abs=0.0), pt


_U = Fraction(1, 2**53)


def _exact_slope(xs, ys) -> Fraction:
    """Least-squares slope of the floats xs, ys in rational arithmetic."""
    xs, ys = [Fraction(x) for x in xs], [Fraction(y) for y in ys]
    x_mean, y_mean = sum(xs) / len(xs), sum(ys) / len(ys)
    sxy = sum((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys))
    return sxy / sum((x - x_mean) ** 2 for x in xs)


# Zero or at least 1e-100 in size, so no deviation, product or sum of
# products that _slope forms underflows (the deviations are multiples of
# 2^-441, their products of 2^-934 when non-zero), and nothing overflows.
_moderate = st.one_of(st.just(0.0), st.floats(1e-100, 1e3), st.floats(-1e3, -1e-100))
_ADJACENT = math.nextafter(math.log(2.0**53), math.inf)


@settings(max_examples=400, deadline=None)
@given(
    st.lists(st.tuples(_moderate, _moderate), min_size=3, max_size=12).filter(
        lambda pts: len({x for x, _ in pts}) >= 2
    )
)
@example([(math.log(2.0**53), 0.0), (_ADJACENT, 1.0), (math.log(2.0**53), 0.5)])
@example([(math.log(64.0), 0.1), (math.log(256.0), 0.1), (math.log(1024.0), 0.1)])
def test_slope_is_within_its_bound_of_the_exact_slope(points):
    """_slope against the exact slope b of the same floats, u = 2^-53.

    The computed means are within ex = 3u |x_mean| and ey = 3u |y_mean| of
    the exact ones (fsum rounds once, the division once).  With a, c the
    computed means and dx, dy the deviations from them, sum dx dy = Sxy + n (x_mean - a)
    (y_mean - c) and sum dx^2 = Sxx + n (x_mean - a)^2 exactly, so the
    means move the slope by at most m = n ex (ey + ex |b|) / Sxx.  Each
    term dx dy is three roundings off, dx^2 also; each fsum adds one, the
    final division one more.  So the numerator is within 4u A of its exact
    value, A the sum of (|x - x_mean| + ex)(|y - y_mean| + ey), the
    denominator within a relative 4u, and |result - b| <= 1.01 (m +
    4u A / Sxx + 5u |b|), the 1.01 covering the second-order terms.  The
    bound is relative (5u) where the deviations do not cancel, and grows
    only with the inputs' own conditioning.
    """
    xs, ys = [x for x, _ in points], [y for _, y in points]
    exact = _exact_slope(xs, ys)
    fx, fy = [Fraction(x) for x in xs], [Fraction(y) for y in ys]
    n = len(fx)
    x_mean, y_mean = sum(fx) / n, sum(fy) / n
    sxx = sum((x - x_mean) ** 2 for x in fx)
    ex, ey = 3 * _U * abs(x_mean), 3 * _U * abs(y_mean)
    a = sum((abs(x - x_mean) + ex) * (abs(y - y_mean) + ey) for x, y in zip(fx, fy))
    m = n * ex * (ey + ex * abs(exact)) / sxx
    bound = Fraction(101, 100) * (m + 4 * _U * a / sxx + 5 * _U * abs(exact))
    assert abs(Fraction(_slope(xs, ys)) - exact) <= bound


# The benchmark's 21 sweeps, then the two pinned sweeps past them whose
# printed exponents moved when np.polyfit gave way to _slope (the third,
# tau 1.5 with M = 0.5 N, is one of the 21).
_FIT_CALLS = [
    (tau, 2.0, m, range(3, 11))
    for tau in (0.5, 0.8, 1.0, 1.2, 1.5, 2.0, 3.0)
    for m in ("N^0.6", "0.5*N", "1.75*N")
] + [(3.0, 2.0, "N^0.6", range(3, 12)), (4.0, 17.0, "1.75*N", range(3, 12))]


def _digits(value: Fraction) -> str:
    """value correctly rounded to 12 significant digits, as the CLI prints."""
    with localcontext() as ctx:
        ctx.prec = 60
        decimal = Decimal(value.numerator) / Decimal(value.denominator)
    return f"{float(f'{decimal:.12g}'):.12g}"


@pytest.mark.parametrize("tau, k, m_expr, nus", _FIT_CALLS)
def test_sweep_prints_the_exact_slope_to_12_digits(tau, k, m_expr, nus):
    out = io.StringIO()
    argv = ["sweep", "--K", f"{k:g}", "--M", m_expr, "--tau", f"{tau:g}",
            "--nus", ",".join(map(str, nus))]
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    printed = dict(line.split(" = ", 1) for line in out.getvalue().splitlines() if " = " in line)
    res = sweep(tau, k, lambda n: cli.parse_m_expression(m_expr, n, k), nus)
    ms = [pt.m_count for pt in res.points]
    top = [pt for pt in res.points if pt.m_count >= max(ms) / 10.0]
    top = top if len(top) >= 3 else res.points[-3:]
    xs = [math.log(pt.m_count) for pt in top]
    ys = [math.log(pt.c_value) for pt in top]
    # The sweep fits the log-M exponent of its last point's law.
    last = res.points[-1]
    log_expo = _regime(tau, k, last.m_count, last.n_nodes, _head_scan(tau, k))[4]
    corrected = [y - log_expo * math.log(x) for x, y in zip(xs, ys)]
    assert printed["fitted_exponent"] == _digits(_exact_slope(xs, ys))
    assert printed["fitted_exponent_corrected"] == _digits(_exact_slope(xs, corrected))


def test_estimators_match_solver_in_omega1_slack():
    rng = np.random.default_rng(14)
    for _ in range(15):
        tau = float(rng.uniform(0.3, 1.1))
        nu = int(rng.integers(5, 7))
        n = 4 ** nu
        k = float(rng.integers(1, 4))
        lo = max(1 - 2 * tau / 3 + 0.1, 0.2)
        m = int(rng.uniform(lo, 0.9) * k * n)
        prof = solve_cd(n, k, zipf(m, tau))
        report = classify_regime(tau, k, m, n)
        assert abs(prof.r_index - report.predicted_r_hat) / prof.r_index <= 0.25
        assert prof.l_index == report.predicted_l_hat == 1


# One instance per branch of the regime ladder at N = 4^6: each truncation
# state at five values of tau, the near-full column on each side of tau = 1
# and 3/2, and the small-slack column.
REGIME_TABLE = [
    (0.5, 2, 1000, "empty", "empty down-truncated set", "C = Theta(M^0.5)", 0.5, 0.0),
    (0.5, 2, 4000, "almost_empty", "almost-empty down-truncated set", "C = Theta(M^0.5)", 0.5, 0.0),
    (0.5, 2, 6000, "nonempty", "non-empty down-truncated set, KN - M = omega(1)",
     "C = Theta(M^0.5)", 0.5, 0.0),
    (0.5, 2, 8000, "nonempty", "M ~ KN, KN - M = omega(1)", "C = Theta(M^0.5)", 0.5, 0.0),
    (1.0, 2, 1000, "empty", "empty down-truncated set", "C = Theta(M^0.5 / log M)", 0.5, -1.0),
    (1.0, 2, 2000, "almost_empty", "almost-empty down-truncated set",
     "C = Theta(M^0.5 / log M)", 0.5, -1.0),
    (1.0, 2, 5000, "nonempty", "non-empty down-truncated set, KN - M = omega(1)",
     "C = Theta(M^0.5 / log M)", 0.5, -1.0),
    (1.0, 2, 8000, "nonempty", "M ~ KN, KN - M = omega(1)", "C = Theta(M^0.5)", 0.5, 0.0),
    (1.2, 2, 500, "empty", "empty down-truncated set", "C = Theta(M^0.3)", 0.3, 0.0),
    (1.2, 2, 1200, "almost_empty", "almost-empty down-truncated set", "C = Theta(M^0.3)", 0.3, 0.0),
    (1.2, 2, 5000, "nonempty", "non-empty down-truncated set, KN - M = omega(1)",
     "C = Theta(M^0.3)", 0.3, 0.0),
    (1.2, 2, 8000, "nonempty", "M ~ KN, KN - M = omega(1)",
     "C = Theta(M^0.5 / (KN - M)^0.2)", 0.5, 0.0),
    (1.5, 2, 300, "empty", "empty down-truncated set", "C = Theta(log^1.5 M)", 0.0, 1.5),
    (1.5, 2, 900, "almost_empty", "almost-empty down-truncated set",
     "C = Theta(log^1.5 M)", 0.0, 1.5),
    (1.5, 2, 5000, "nonempty", "non-empty down-truncated set, KN - M = omega(1)",
     "C = Theta(log^1.5 r)", 0.0, 1.5),
    (1.5, 2, 8000, "nonempty", "M ~ KN, KN - M = omega(1)",
     "C = Theta(sqrt(M / (KN - M)) log^1.5 r)", 0.5, 1.5),
    (2.0, 5, 226, "empty", "empty down-truncated set", "C = Theta(1)", 0.0, 0.0),
    (2.0, 5, 604, "almost_empty", "almost-empty down-truncated set", "C = Theta(1)", 0.0, 0.0),
    (2.0, 5, 1133, "nonempty", "non-empty down-truncated set, KN - M = omega(1)",
     "C = Theta(1)", 0.0, 0.0),
    (2.0, 5, 12288, "nonempty", "M ~ KN, KN - M = omega(1)",
     "C = Theta(M^0.5 / (KN - M)^0.75)", 0.5, 0.0),
    (0.8, 2, 8150, "nonempty", "M ~ KN, KN - M = O(1)", "C = Theta(M^0.5)", 0.5, 0.0),
]


@pytest.mark.parametrize("tau, k, m, state, label, law, expo, log_expo", REGIME_TABLE)
def test_regime_ladder(tau, k, m, state, label, law, expo, log_expo):
    n = 4 ** 6
    got = _regime(tau, k, m, n, _head_scan(tau, k))
    assert got[:3] == (state, label, law)
    assert got[3] == pytest.approx(expo, rel=1e-12) and got[4] == log_expo
    report = classify_regime(tau, k, m, n)
    assert (report.truncation_state, report.regime_label, report.predicted_law) == got[:3]


def _ulps(got: float, want: float) -> float:
    return abs(got - want) / math.ulp(want)


def test_zeta_matches_scipy():
    grid = np.concatenate([1.0 + np.geomspace(1e-9, 1.0, 400), np.linspace(2.0, 60.0, 2000)])
    worst = max(_ulps(_PowerSums(float(s))(1), float(scipy_zeta(float(s)))) for s in grid)
    assert worst <= 8.0


def test_zeta_closed_forms():
    assert _ulps(_PowerSums(2.0)(1), math.pi ** 2 / 6) <= 2.0
    assert _ulps(_PowerSums(4.0)(1), math.pi ** 4 / 90) <= 2.0
    assert _ulps(_PowerSums(6.0)(1), math.pi ** 6 / 945) <= 2.0


def test_zeta_tail_matches_scipy_hurwitz():
    ss = np.concatenate([1.0 + np.geomspace(1e-6, 1.0, 40), np.linspace(1.05, 7.0, 60)])
    aa = sorted(set(range(1, 30)) | set(np.geomspace(1, 1e12, 60).astype(np.int64).tolist()))
    worst = max(
        abs(_PowerSums(float(s))(a) - float(scipy_zeta(float(s), a))) / float(scipy_zeta(float(s), a))
        for s in ss
        for a in aa
    )
    assert worst <= 1e-15


@pytest.mark.parametrize(
    "k, want", [(2e5, 140001), (3e5, 210001), (1e6, 700001), (4e6, 2800001), (1e10, 7000000001)]
)
def test_l_hat_scan_at_large_k(k, want):
    # At tau = 5 the tails no longer cancel against zeta(s) - H_s(l - 1);
    # the answers are exact by scipy's Hurwitz zeta on both sides.
    assert _l_hat_scan(5.0, k) == want
    s = 10.0 / 3.0
    assert (k - want + 1) * want ** -s < float(scipy_zeta(s, want))
    assert (k - want + 2) * (want - 1) ** -s >= float(scipy_zeta(s, want - 1))


@pytest.mark.parametrize("tau, k", [(5.0, 2.0**53), (5.0, 1e300), (100.0, 1e5)])
def test_l_hat_scan_rejects_k_past_float_range(tau, k):
    with pytest.raises(InvalidInputError, match="too large for the head-size scan"):
        _l_hat_scan(tau, k)


@pytest.mark.parametrize("tau, k", [(2.0, 1.0), (2.0, 200.0), (3.7, 57.5), (5.0, 1e6)])
def test_l_hat_scan_builds_one_power_sums(monkeypatch, tau, k):
    # Every candidate's tail comes from one _PowerSums(2 tau / 3); its
    # caches are per call, so the answer is the one fresh sums give.
    expect = _l_hat_scan(tau, k)
    built = []
    real = asymptotics._PowerSums

    def counted(s):
        built.append(s)
        return real(s)

    monkeypatch.setattr(asymptotics, "_PowerSums", counted)
    assert _l_hat_scan(tau, k) == expect
    assert built == [2.0 * tau / 3.0]


def _l_hat_linear(tau: float, k_eff: float) -> int:
    """Reference: try every candidate head size in turn, with scipy's
    Hurwitz zeta for the tails."""
    s = 2.0 * tau / 3.0
    top = int(math.floor(k_eff + 1e-12)) + 1
    for cand in range(2, top + 1):
        upper = (k_eff - cand + 1) * cand ** (-s) < float(scipy_zeta(s, cand))
        lower = (k_eff - cand + 2) * (cand - 1) ** (-s) >= float(scipy_zeta(s, cand - 1))
        if upper and lower:
            return cand
    return 1


def test_l_hat_bisection_matches_linear_scan():
    rng = np.random.default_rng(21)
    ks = [1.0, 2.0, 3.0, 7.0, 50.0, 199.0, 200.0] + list(rng.uniform(0.5, 200.0, 20))
    for tau in np.linspace(1.5 + 1e-6, 5.0, 14):
        for k in ks:
            assert _l_hat_scan(float(tau), float(k)) == _l_hat_linear(float(tau), float(k)), (tau, k)


def _r_hat_linear(tau: float, slack: float) -> float:
    """Reference: the tail-split scan over r = 1, 2, ... as it was written."""
    s = 2.0 * tau / 3.0
    r = 1
    while not slack + r <= r ** s * math.fsum(j ** -s for j in range(1, r + 1)):
        r += 1
    return float(r)


# The scan costs O(r^2) with r about 1.5 slack / tau, so small taus take the
# smaller slacks.
_SLACK_GRID = [
    (tau, slack)
    for tau in (0.05, 0.06, 0.08, 0.1, 0.2, 0.3, 0.5, 0.8, 1.0, 1.2, 1.5, 2.0, 2.5, 3.0, 4.0, 6.0)
    for slack in (0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0, 7.5, 10.0, 20.0, 33.3, 50.0, 99.5, 100.0)
    if slack / tau <= 600.0
]


def test_r_hat_small_slack_bisection_matches_linear_scan():
    assert len(_SLACK_GRID) > 150
    for tau, slack in _SLACK_GRID:
        assert _r_hat_small_slack(tau, slack) == _r_hat_linear(tau, slack), (tau, slack)
    # Large answers, as given by the scan (0.3 s at tau 0.06, longer at 0.05).
    assert _r_hat_small_slack(0.06, 100.0) == 2406.0
    assert _r_hat_small_slack(0.05, 100.0) == 2906.0


def test_classify_same_with_scipy_zeta(monkeypatch):
    grid = [
        (tau, k, m, n)
        for tau in (1.2, 1.45, 1.5, 1.5 + 1e-9, 1.51, 1.6, 2.0, 2.5, 3.0, 4.0, 5.0)
        for k in (1.0, 2.0, 3.5, 7.0, 20.0)
        for n in (4 ** 3, 4 ** 6)
        for m in sorted({1, 5, n // 4, n, int(0.6 * k * n), int(k * n) - 3, int(k * n)})
        if 1 <= m <= k * n
    ]
    ours = [classify_regime(*case) for case in grid]
    calls = []

    class ScipyTails(asymptotics._PowerSums):
        # Tails (no end b) from scipy's Hurwitz zeta; finite sums as before.
        def __call__(self, a, b=None):
            if b is not None:
                return super().__call__(a, b)
            calls.append((self.s, a))
            return float(scipy_zeta(self.s, a))

    monkeypatch.setattr(asymptotics, "_PowerSums", ScipyTails)
    assert [classify_regime(*case) for case in grid] == ours
    # The head-size scan reads its tails from its power sums, so scipy's
    # were used.
    assert len(calls) > 0

