"""Closed-form estimators for the density-split indices, the analytic
capacity decomposition, scaling-regime classification, and a sweep harness
that fits empirical growth exponents against the predicted laws.

Everything here works on Zipf popularity with exponent tau.  The catalog
splits at two phase transitions, tau = 1 and tau = 3/2, and further by how
full the network is: whether the set of files stored only once (density
1/N, the "down-truncated" set) is empty, almost empty, or a constant
fraction of the catalog, and whether the spare capacity K*N - M stays
bounded or grows.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .density import _interior_cap, _split_indices
from .errors import InfeasibleError, InternalInvariantError, InvalidInputError

# Finite-scale proxy for "spare capacity K*N - M stays O(1)".
SMALL_SLACK = 100.0
# Finite-scale proxy separating "down-truncated set empty" from "almost
# empty": M below half the Theorem-16 threshold counts as empty.
_EMPTY_RATIO = 0.5
_TAU_TOL = 1e-12

STATE_EMPTY = "empty"
STATE_ALMOST_EMPTY = "almost_empty"
STATE_NONEMPTY = "nonempty"

# Euler-Maclaurin for zeta(s, a): direct terms below _ZETA_N + ceil(s), then
# the coefficients B_2k / (2k)! of the first 12 Bernoulli corrections, the
# floats nearest 1/6 / 2!, -1/30 / 4!, 1/42 / 6!, ..., -236364091/2730 / 24!.
_ZETA_N = 10
_ZETA_COEFFS = (
    0.08333333333333333,
    -0.001388888888888889,
    3.306878306878307e-05,
    -8.267195767195768e-07,
    2.08767569878681e-08,
    -5.284190138687493e-10,
    1.3382536530684679e-11,
    -3.3896802963225827e-13,
    8.586062056277845e-15,
    -2.174868698558062e-16,
    5.5090028283602295e-18,
    -1.3954464685812522e-19,
)


@dataclass(frozen=True)
class RegimeReport:
    """Predicted scaling regime of one (tau, K, M, N) instance."""

    tau: float
    capacity: float
    m_count: int
    n_nodes: int
    regime_label: str
    predicted_l_hat: int
    predicted_r_hat: float
    predicted_law: str
    truncation_state: str


class _PowerSums:
    """Sums of j^(-s) over j = a..b for one s, built afresh for each call
    that needs them, so that no cache outlives that call.

    Exact sums (calling the object) take direct terms below
    n = max(a, _ZETA_N + ceil(s)) and for short segments; from n on,
    Euler-Maclaurin: the integral, the end-point halves and the first 12
    Bernoulli corrections, all added by one math.fsum.  s = 0 is a count.
    Where b^(1-s) and n^(1-s) are close, the finite integral goes through
    log1p and expm1, so it keeps its digits at and near s = 1.  The terms
    that depend on one end only are kept per a and per b; since fsum
    rounds the exact sum of its terms once, the order in which they are
    gathered does not change a bit of the result.
    """

    def __init__(self, s: float) -> None:
        self.s = s
        self.n_min = _ZETA_N + math.ceil(s)
        # (B_2k / (2k)!) s (s + 1) ... (s + 2k - 2) and the exponent of the
        # k-th correction, -s - 2k + 1.
        self.corrections = []
        rising = s
        for k, coeff in enumerate(_ZETA_COEFFS, start=1):
            self.corrections.append((coeff * rising, -s - 2 * k + 1))
            rising *= (s + 2 * k - 1) * (s + 2 * k)
        self._starts: dict[int, list[float]] = {}
        self._ends: dict[int, list[float]] = {}
        self._heads: dict[int, float] = {}

    def _start(self, a: int, n: int) -> list[float]:
        """Direct terms a..n-1, n^(-s)/2 and the corrections at n."""
        terms = self._starts.get(a)
        if terms is None:
            s = self.s
            terms = [j ** -s for j in range(a, n)]
            terms.append(0.5 * n ** -s)
            terms += [c * n ** e for c, e in self.corrections]
            self._starts[a] = terms
        return terms

    def _end(self, b: int) -> list[float]:
        """b^(-s)/2 and the corrections at b."""
        terms = self._ends.get(b)
        if terms is None:
            terms = [0.5 * b ** -self.s]
            terms += [-c * b ** e for c, e in self.corrections]
            self._ends[b] = terms
        return terms

    def _integral(self, n: int, b: int) -> float:
        e = 1.0 - self.s
        ln_ratio = math.log1p((b - n) / n)
        if abs(e * ln_ratio) < 1.0:
            return n**e * math.expm1(e * ln_ratio) / e if e else ln_ratio
        return (b**e - n**e) / e

    def __call__(self, a: int, b: int | None = None) -> float:
        """Sum of j^(-s) over j = a..b, or over j >= a when b is None (s > 1)."""
        s = self.s
        if b is not None:
            if b < a:
                return 0.0
            if s == 0.0:
                return float(b - a + 1)
        n = max(a, self.n_min)
        if b is not None and b < n + _ZETA_N:
            return math.fsum(j ** -s for j in range(a, b + 1))
        start = self._start(a, n)
        if b is None:
            return math.fsum([*start, n ** (1.0 - s) / (s - 1.0)])
        return math.fsum([*start, self._integral(n, b), *self._end(b)])

    def estimate(self, a: int, b: int) -> tuple[float, float]:
        """(est, err) with the exact sum self(a, b) within err / 4 of est.

        From n = max(a, n_min) on, est keeps the start's terms (summed once
        per a), the integral, b^(-s)/2 and the first correction at b, and
        drops the other 11 corrections at b.  Those alternate in sign, as
        the B_2k do, and shrink from one to the next by a factor below
        (s + 22)^2 / (4 pi^2 (10 + s)^2) < 0.13, since b >= n >= 10 + s.  So
        their sum is at most the first of them, t_2, in size; for x^(-s),
        t_2 also bounds Euler-Maclaurin's remainder past the first
        correction at b, which covers short segments, summed directly.
        est adds positive terms but the small first correction, so it
        rounds by a few ulp.  err = 4 |t_2| + 1e-9 est, plus the least
        normal float for sums that underflow, covers |t_2| and the rounding
        four times over.  A segment that ends before n is summed from the
        start's direct terms, which is exact, and a count (s = 0) is exact.
        """
        s = self.s
        if b < a:
            return 0.0, 0.0
        if s == 0.0:
            return float(b - a + 1), 0.0
        n = max(a, self.n_min)
        if b < n:
            return math.fsum(self._start(a, n)[: b - a + 1]), 0.0
        (c1, e1), (c2, e2) = self.corrections[0], self.corrections[1]
        est = self._head(a, n) + self._integral(n, b) + 0.5 * b ** -s - c1 * b ** e1
        return est, 4.0 * abs(c2 * b ** e2) + 1e-9 * est + sys.float_info.min

    def crossing(self, a: int, c: float) -> float:
        """The x at which (c + x) x^(-s) falls to the sum over a..x, or nan
        at s = 0, where neither side singles out an x.

        From n = max(a, n_min) on, x is real and the sum is estimate(a, x):
        the start's terms h, the integral from n, x^(-s) / 2 and the first
        correction c_1 x^(-s-1).  Times x^s, the equation reads
        phi(x) = z x^s + s x / (1 - s) + 1/2 - c_1 / x - c = 0 with
        z = h - n^(1-s) / (1 - s), or x (z - 1 + ln x) + 1/2 - c_1 / x = c
        with z = h - ln n at s = 1.  Newton steps in ln x solve it from the
        root of its leading terms.  A step dt leaves x within about
        dt^2 x of the root, so they stop once dt^2 x < 1/20; they also stop
        where phi does not rise or x^s overflows, and after 16 steps, and
        the last x is returned.  Where the root lies below n, the sums are
        the start's direct terms, and the last integer x at which the sum
        still lies below is returned (a - 1 if there is none).
        """
        s = self.s
        if s == 0.0:
            return math.nan
        n = max(a, self.n_min)
        head, c1 = self._head(a, n), self.corrections[0][0]
        if s == 1.0:
            z = head - math.log(n)
            x = c / max(1.0, z - 1.0 + math.log(c)) if c > 1.0 else 0.0
        else:
            z = head - n ** (1.0 - s) / (1.0 - s)
            if s < 1.0:
                x = (c - 0.5) * (1.0 - s) / s
            else:
                x = ((c - 0.5) / z) ** (1.0 / s) if c > 0.5 and z > 0.0 else 0.0
        x = x if n < x < math.inf else float(n)
        try:
            for _ in range(16):
                if s == 1.0:
                    ln_x = math.log(x)
                    phi = x * (z - 1.0 + ln_x) + 0.5 - c1 / x - c
                    rise = x * (z + ln_x) + c1 / x  # d phi / d ln x
                else:
                    zx, lin = z * x**s, s * x / (1.0 - s)
                    phi = zx + lin + 0.5 - c1 / x - c
                    rise = s * zx + lin + c1 / x
                if not rise > 0.0:
                    break
                step = phi / rise
                if not abs(step) < 64.0 or (x == n and step > 0.0):
                    break
                x = max(x * math.exp(-step), float(n))
                if step * step * x < 0.05:
                    break
        except OverflowError:  # x^s past the float range: keep x
            pass
        if x > n:
            return x
        # The root lies below n, where the sums are direct.
        total = 0.0
        for j, term in zip(range(a, n), self._start(a, n)):
            total += term
            if not (c + j) * term > total:
                return j - 1.0
        return n - 1.0

    def _head(self, a: int, n: int) -> float:
        """The start's terms summed once per a."""
        head = self._heads.get(a)
        if head is None:
            head = self._heads[a] = math.fsum(self._start(a, n))
        return head


def _zipf_start(n_nodes: int, capacity: float, m_count: int, sums: _PowerSums):
    """start(l) for _split_indices on q_i = i^(-s), s = sums.s.

    The floor condition at r compares (c + x) x^(-s) with the mass of l..x,
    where x = r - 1 and c = (K - l + 1) N - M, so r is about one past where
    they cross (sums.crossing); the start adds 1/2 more, as a start one past
    r costs no more probes than r itself.  One more file moves the two
    sides apart by about s / x of themselves.  Where that is not far above
    their rounding (2^-50 of the mass, 2^-53 K N / (c + x) of the other
    side), the condition may turn more than once, so start(l) is nan and
    the bisection finds the turn it always found.
    """
    s = sums.s

    def start(l: int) -> float:
        k_n = (capacity - l + 1) * n_nodes
        c = k_n - m_count
        x = sums.crossing(l, c)
        return x + 1.5 if s * (c + x) > 2.0**-44 * x * (c + x + k_n) else math.nan

    return start


def _zipf_split(
    n_nodes: int, capacity: float, m_count: int, tau: float, q_sums: _PowerSums | None = None
) -> tuple[int, int]:
    """solve_cd's (l, r) for Zipf(tau) popularity, from power sums alone:
    q_i = i^(-2 tau / 3), left unnormalised.  q_sums, the sums at
    s = 2 tau / 3, may be shared with the caller's other points."""
    if capacity >= m_count:
        return m_count + 1, m_count + 1
    s = 2.0 * tau / 3.0
    sums = q_sums or _PowerSums(s)
    return _split_indices(
        n_nodes,
        capacity,
        m_count,
        lambda i: i ** -s,
        sums,
        rough=sums.estimate,
        start=_zipf_start(n_nodes, capacity, m_count, sums),
    )


def _zipf_breakdown(
    n_nodes: int,
    capacity: float,
    m_count: int,
    tau: float,
    l: int,
    r: int,
    q_sums: _PowerSums,
    p_sums: _PowerSums,
) -> float:
    """The capacity C = sum (d^(-1/2) - 1) p at the split (l, r) for
    Zipf(tau), in closed form: c_mid + c_down - tail.

    The interior files contribute p / sqrt(d) (c_mid), the down-truncated
    files sqrt(N) p (c_down), and every file from l on the -p correction
    (tail).  With U the interior's q-mass and cap its budget, every
    interior file has p / sqrt(d) = i^(-2 tau / 3) sqrt(U / cap) / H, so
    c_mid is U sqrt(U / cap) / H; c_down and the tail are Zipf tail
    masses.  H, c_down and the tail share the end b = M; at l = 1 the tail
    is H.
    q_sums and p_sums, the sums at s = 2 tau / 3 and s = tau, are shared
    with the caller's other points.
    """
    n, m = n_nodes, m_count
    h = p_sums(1, m)
    c_mid = 0.0
    if l < r:
        u = q_sums(l, r - 1)
        c_mid = u * math.sqrt(u / _interior_cap(n, capacity, m, l, r)) / h
    c_down = math.sqrt(n) * p_sums(r, m) / h if r <= m else 0.0
    tail = (h if l == 1 else p_sums(l, m)) / h
    return c_mid + c_down - tail


def _l_hat_scan(tau: float, k_eff: float) -> int:
    """Integer two-sided fixpoint for the fully-replicated head size.

    For tau > 3/2 only: the head size l-1 satisfies
      (K - l + 1) l^(-s)       <  zeta(s) - H_s(l - 1)
      (K - l + 2) (l-1)^(-s)  >=  zeta(s) - H_s(l - 2)
    with s = 2 tau / 3.  Returns the solution > 1, or 1 if none exists.
    The right-hand sides are the zeta tails from l and from l - 1,
    summed directly so they keep their relative precision at large l, all
    from one _PowerSums(s).

    The first condition is monotone in l for l <= K + 1 (false, then true),
    and the second is the first's negation at l - 1, so only the first l
    meeting the first condition can meet both; bisection finds it.
    """
    s = 2.0 * tau / 3.0

    def upper(cand: int) -> bool:
        return (k_eff - cand + 1) * cand ** (-s) < sums(cand)

    lo, hi = 2, int(math.floor(k_eff + 1e-12)) + 1
    # Candidates past 2^53 are not exact floats; past the underflow both
    # sides of the comparison lose their digits.
    if hi > 2**53:
        raise InvalidInputError(
            f"K = {k_eff:g} is too large for the head-size scan at tau = {tau:g}"
        )
    if hi ** -s < sys.float_info.min:
        raise InvalidInputError(
            f"tau = {tau:g} is too large for the head-size scan at K = {k_eff:g}: "
            f"the candidate power {hi}^(-2 tau / 3) underflows"
        )
    # One set of power sums serves every candidate's tail, built only once
    # the candidates are known to be usable.
    sums = _PowerSums(s)
    if hi < lo or not upper(hi):
        return 1
    while lo < hi:
        mid = (lo + hi) // 2
        if upper(mid):
            hi = mid
        else:
            lo = mid + 1
    lower = (k_eff - lo + 2) * (lo - 1) ** (-s) >= sums(lo - 1)
    return lo if lower else 1


def _x_log_x_root(c: float, hi: float) -> float:
    """The x in [2, hi] solving x ln x = c (monotone for x >= 2), by bisection."""
    if 2.0 * math.log(2.0) >= c:
        return 2.0
    lo = 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid * math.log(mid) <= c:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-9 * hi:
            break
    return lo


def _almost_empty_threshold(tau: float, capacity: float, n_nodes: int, l_hat: int | None) -> float:
    """Largest catalog size M for which the down-truncated set stays o(M).

    l_hat is _l_hat_scan(tau, capacity) for tau > 3/2 and None below: a
    caller that needs it at several points scans once."""
    kn = capacity * n_nodes
    if tau < 1.5 - _TAU_TOL:
        return (1.0 - 2.0 * tau / 3.0) * kn
    if abs(tau - 1.5) <= _TAU_TOL:
        return _x_log_x_root(kn, kn)
    h = ((capacity - l_hat + 1) * (2.0 * tau / 3.0 - 1.0) / l_hat ** (1.0 - 2.0 * tau / 3.0)) ** (
        3.0 / (2.0 * tau)
    )
    return h * n_nodes ** (3.0 / (2.0 * tau))


def _truncation_state(tau: float, capacity: float, m_count: int, n_nodes: int, l_hat: int | None) -> str:
    """Down-truncated set against its closed-form threshold (below half of
    it counts as empty at finite scale)."""
    threshold = _almost_empty_threshold(tau, capacity, n_nodes, l_hat)
    if m_count < _EMPTY_RATIO * threshold:
        return STATE_EMPTY
    if m_count <= threshold:
        return STATE_ALMOST_EMPTY
    return STATE_NONEMPTY


def _near_full(tau: float, capacity: float, m_count: int, n_nodes: int) -> bool:
    """M ~ KN: for tau > 3/2 past M = (K - beta) N, beta = 3 / (2 tau - 3),
    where the fully-replicated head shrinks to one file; else M >= 0.9 KN."""
    if tau > 1.5 + _TAU_TOL:
        beta = 3.0 / (2.0 * tau - 3.0)
        return m_count > (capacity - beta) * n_nodes
    return m_count >= 0.9 * capacity * n_nodes


def _check_instance(tau: float, capacity: float, m_count: int, n_nodes: int) -> None:
    if not (math.isfinite(tau) and tau >= 0):
        raise InvalidInputError(f"tau must be a finite number >= 0, got {tau}")
    if not (math.isfinite(capacity) and capacity >= 1):
        raise InvalidInputError(f"capacity must be a finite number >= 1, got {capacity}")
    if m_count < 1:
        raise InvalidInputError(f"m_count must be >= 1, got {m_count}")
    if n_nodes < 1:
        raise InvalidInputError(f"n_nodes must be >= 1, got {n_nodes}")
    if capacity * n_nodes < m_count:
        raise InfeasibleError(
            f"infeasible: KN < M ({capacity}*{n_nodes} < {m_count})"
        )


def _check_exact_indices(capacity: float, n_nodes: int, where: str = "") -> None:
    """File indices past 2^53 are not exact floats.  A feasible instance has
    M <= K*N and K >= 1, so bounding N and K*N bounds every index."""
    for name, size in (("N", n_nodes), ("K*N", capacity * n_nodes)):
        if size > 2**53:
            raise InvalidInputError(f"{where}{name} exceeds 2^53, past which indices are inexact")


def _predicted_l_hat(
    tau: float, capacity: float, m_count: int, n_nodes: int, l_hat: int | None, state: str
) -> int:
    """Predicted 1-based index of the first not-fully-replicated file, from
    l_hat and the truncation state, as _regime takes and gives them."""
    if l_hat is None:
        return 1
    if state != STATE_NONEMPTY:
        return l_hat
    # Non-empty down-truncated set: beyond M = (K - beta) N the head
    # collapses to one file; below it the tail occupies M/N capacity units,
    # so the head condition is evaluated at K - M/N.
    if _near_full(tau, capacity, m_count, n_nodes):
        return 1
    return _l_hat_scan(tau, capacity - m_count / n_nodes)


def _r_hat_small_slack(tau: float, slack: float) -> float:
    """Integer search for the tail split when K*N - M stays bounded.

    Finds the smallest r with slack + r <= r^s H_s(r), s = 2 tau / 3; the
    companion strict inequality at r - 1 then holds automatically.
    r^s H_s(r) - r = sum_j ((r/j)^s - 1) never decreases in r, so the
    condition is monotone: doubling brackets r and bisection finds it.
    """
    s = 2.0 * tau / 3.0
    sums = _PowerSums(s)

    def holds(r: int) -> bool:
        return slack + r <= r ** s * sums(1, r)

    lo, hi = 0, 1  # the condition fails at lo (or lo = 0) and holds at hi
    while not holds(hi):
        if hi > slack + 2 and hi > 10_000_000:
            raise InternalInvariantError("tail-split search failed to terminate")
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if holds(mid):
            hi = mid
        else:
            lo = mid
    return float(hi)


def _predicted_r_hat(tau: float, capacity: float, m_count: int, n_nodes: int, state: str) -> float:
    """Predicted 1-based index of the first down-truncated file, given the
    instance's truncation state."""
    kn = capacity * n_nodes
    slack = kn - m_count
    if tau < 0.05:
        # The closed forms blow up as 3/(2 tau); use the exact split.
        return float(_zipf_split(n_nodes, capacity, m_count, tau)[1])
    if state != STATE_NONEMPTY:
        return float(m_count + 1)
    if slack <= SMALL_SLACK:
        return _r_hat_small_slack(tau, slack)
    if tau < 1.5 - _TAU_TOL:
        return (3.0 - 2.0 * tau) / (2.0 * tau) * slack
    if abs(tau - 1.5) <= _TAU_TOL:
        # r ln r = K*N - M.
        return _x_log_x_root(slack, kn)
    expo = 3.0 / (2.0 * tau)
    if not _near_full(tau, capacity, m_count, n_nodes):
        alpha = (2.0 * tau - 3.0) / (2.0 * tau)
        return alpha * (capacity * n_nodes ** expo - m_count / n_nodes ** (1.0 - expo))
    return (2.0 * tau / 3.0 * slack) ** expo


def _regime(
    tau: float, capacity: float, m_count: int, n_nodes: int, l_hat: int | None
) -> tuple[str, str, str, float, float]:
    """Truncation state, regime label, symbolic law, M-exponent and log-M
    exponent of one instance, with l_hat as for _almost_empty_threshold.

    The law strings follow Table-of-regimes shorthand; the two exponents let
    the sweep harness fit ln C = a ln M + b ln ln M + const.
    """
    state = _truncation_state(tau, capacity, m_count, n_nodes, l_hat)
    if state == STATE_NONEMPTY and capacity * n_nodes - m_count <= SMALL_SLACK:
        return state, "M ~ KN, KN - M = O(1)", "C = Theta(M^0.5)", 0.5, 0.0
    if state == STATE_NONEMPTY and _near_full(tau, capacity, m_count, n_nodes):
        label = "M ~ KN, KN - M = omega(1)"
        if tau <= 1.0 + _TAU_TOL:
            return state, label, "C = Theta(M^0.5)", 0.5, 0.0
        if tau < 1.5 - _TAU_TOL:
            return state, label, f"C = Theta(M^0.5 / (KN - M)^{tau - 1.0:g})", 0.5, 0.0
        if abs(tau - 1.5) <= _TAU_TOL:
            return state, label, "C = Theta(sqrt(M / (KN - M)) log^1.5 r)", 0.5, 1.5
        law = f"C = Theta(M^0.5 / (KN - M)^{3.0 * (tau - 1.0) / (2.0 * tau):g})"
        return state, label, law, 0.5, 0.0
    label, log_of = {
        STATE_EMPTY: ("empty down-truncated set", "M"),
        STATE_ALMOST_EMPTY: ("almost-empty down-truncated set", "M"),
        STATE_NONEMPTY: ("non-empty down-truncated set, KN - M = omega(1)", "r"),
    }[state]
    if tau < 1.0 - _TAU_TOL:
        return state, label, "C = Theta(M^0.5)", 0.5, 0.0
    if abs(tau - 1.0) <= _TAU_TOL:
        return state, label, "C = Theta(M^0.5 / log M)", 0.5, -1.0
    if tau < 1.5 - _TAU_TOL:
        return state, label, f"C = Theta(M^{1.5 - tau:g})", 1.5 - tau, 0.0
    if abs(tau - 1.5) <= _TAU_TOL:
        return state, label, f"C = Theta(log^1.5 {log_of})", 0.0, 1.5
    return state, label, "C = Theta(1)", 0.0, 0.0


def classify_regime(tau: float, capacity: float, m_count: int, n_nodes: int) -> RegimeReport:
    """Match an instance to its scaling-regime column.

    The down-truncated-set state is decided against the closed-form
    threshold (below half of it counts as empty at finite scale); spare
    capacity up to SMALL_SLACK counts as O(1).  For tau > 3/2 the non-empty
    regime further splits at M = (K - beta) N with beta = 3 / (2 tau - 3):
    above it the fully-replicated head shrinks to a single file.

    Each regime fact is worked out once (the instance checked, the head
    scanned, the truncation state decided), and the index estimators, which
    have no public function, read them for predicted_l_hat and _r_hat.
    """
    _check_instance(tau, capacity, m_count, n_nodes)
    _check_exact_indices(capacity, n_nodes)
    l_hat = _l_hat_scan(tau, capacity) if tau > 1.5 + _TAU_TOL else None
    state, label, law, _, _ = _regime(tau, capacity, m_count, n_nodes, l_hat)
    return RegimeReport(
        tau=tau,
        capacity=capacity,
        m_count=m_count,
        n_nodes=n_nodes,
        regime_label=label,
        predicted_l_hat=_predicted_l_hat(tau, capacity, m_count, n_nodes, l_hat, state),
        predicted_r_hat=_predicted_r_hat(tau, capacity, m_count, n_nodes, state),
        predicted_law=law,
        truncation_state=state,
    )


@dataclass(frozen=True)
class SweepPoint:
    nu: int
    n_nodes: int
    m_count: int
    capacity: float
    tau: float
    c_value: float
    l_index: int
    r_index: int
    regime_label: str


@dataclass(frozen=True)
class SweepResult:
    points: tuple[SweepPoint, ...]
    predicted_exponent: float
    predicted_law: str
    fitted_exponent: float
    fitted_exponent_corrected: float


def _slope(xs: list[float], ys: list[float]) -> float:
    """Least-squares slope of ys on xs, centred on both means.  Each mean
    and each of the two sums is one math.fsum, which rounds the exact sum of
    its terms once; tests/test_asymptotics.py states the error bound and
    checks it against the exact rational slope of the same floats."""
    n = len(xs)
    x_mean, y_mean = math.fsum(xs) / n, math.fsum(ys) / n
    dx = [x - x_mean for x in xs]
    return math.fsum(d * (y - y_mean) for d, y in zip(dx, ys)) / math.fsum(d * d for d in dx)


def sweep(tau: float, capacity: float, m_of_n, nus) -> SweepResult:
    """Evaluate the exact capacity across grid sizes and fit its growth.

    ``m_of_n`` maps the node count N to the catalog size M.  The growth
    exponent of C in M is the exact centred least-squares slope of ln C on
    ln M (see _slope) over the largest decade of M (the last three points
    if fewer than three fall in it); the corrected exponent is the same
    slope after the predicted b ln ln M term is taken off ln C.  The fitted
    points need C > 0 and at least two distinct M (distinct ln M), else
    there is no slope to fit (InvalidInputError).
    """
    nus = list(nus)
    if len(nus) < 3:
        raise InvalidInputError(f"sweep needs at least 3 points, got {len(nus)}")
    sizes = []
    for nu in map(int, nus):
        # 4^27 is already past 2^53, so a larger 4^nu need not be formed.
        n = 4 ** min(nu, 27)
        m = int(m_of_n(n))
        if m < 1:
            raise InvalidInputError(f"catalog size must be >= 1, got {m} at N={n}")
        _check_instance(tau, capacity, m, n)
        _check_exact_indices(capacity, n, f"at nu = {nu}, ")
        sizes.append((nu, n, m))
    # One head-size scan and one set of power sums per exponent serve every
    # point of this call.  The scan comes first: past the tau at which it
    # fails, the power sums' direct terms alone would fill memory.
    l_hat = _l_hat_scan(tau, capacity) if tau > 1.5 + _TAU_TOL else None
    q_sums, p_sums = _PowerSums(2.0 * tau / 3.0), _PowerSums(tau)
    points = []
    for nu, n, m in sizes:
        l, r = _zipf_split(n, capacity, m, tau, q_sums)
        c_value = _zipf_breakdown(n, capacity, m, tau, l, r, q_sums, p_sums)
        if c_value > 3.0 * math.sqrt(n):
            raise InternalInvariantError(
                f"capacity {c_value} exceeds the O(sqrt(N)) guard at N={n}"
            )
        regime = _regime(tau, capacity, m, n, l_hat)
        points.append(
            SweepPoint(
                nu=nu,
                n_nodes=n,
                m_count=m,
                capacity=capacity,
                tau=tau,
                c_value=c_value,
                l_index=l,
                r_index=r,
                regime_label=regime[1],
            )
        )
    _, _, law, expo, log_expo = regime  # the law of the last point

    ms = [pt.m_count for pt in points]
    cut = max(ms) / 10.0
    top = [i for i, m in enumerate(ms) if m >= cut]
    if len(top) < 3:
        top = range(len(ms) - 3, len(ms))
    cs = [points[i].c_value for i in top]
    if any(c <= 0.0 for c in cs):
        raise InvalidInputError("cannot fit a growth exponent: C = 0 at a fitted point")
    # The fit sees ln M: catalog sizes whose logarithms round alike count as one.
    x = [math.log(ms[i]) for i in top]
    if len(set(x)) < 2:
        raise InvalidInputError(
            "cannot fit a growth exponent: the fitted points need two distinct M"
        )
    y = [math.log(c) for c in cs]
    raw = _slope(x, y)
    corrected = _slope(x, [v - log_expo * math.log(u) for u, v in zip(x, y)])
    return SweepResult(
        points=tuple(points),
        predicted_exponent=expo,
        predicted_law=law,
        fitted_exponent=raw,
        fitted_exponent_corrected=corrected,
    )


def sweep_to_csv(result: SweepResult) -> str:
    """One CSV row per point.  Its C is sum (d^(-1/2) - 1) p, solve's C_cd
    without the factor sqrt(2)/6: at nu = 10, tau 0.8, M = N/2, C reads
    341.247107047 where solve prints C_cd = 80.4327144845."""
    lines = ["nu,N,M,K,tau,C,l,r,regime,predicted_exponent,fitted_exponent"]
    for pt in result.points:
        lines.append(
            f"{pt.nu},{pt.n_nodes},{pt.m_count},{pt.capacity:.12g},{pt.tau:.12g},"
            f"{pt.c_value:.12g},{pt.l_index},{pt.r_index},{pt.regime_label},"
            f"{result.predicted_exponent:.12g},{result.fitted_exponent:.12g}"
        )
    return "\n".join(lines) + "\n"
