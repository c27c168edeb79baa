"""Exact continuous replication-density optimization and its power-of-4
truncation.

The optimization minimizes (sqrt(2)/6) * sum_m (d_m^(-1/2) - 1) p_m over
densities d_m in [1/N, 1] with sum d_m <= K.  Its unique optimum splits the
catalog into an up-truncated head (d = 1), an interior with d_m proportional
to p_m^(2/3), and a down-truncated tail (d = 1/N).  The split indices
(l, r) are located by an exact integer search; once fixed, the interior is
normalized in closed form.  Densities never rise along the file ids, so
their power-of-4 truncation is kept as its nu + 1 level counts alone.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleError, InternalInvariantError, InvalidInputError
from .popularity import Popularity, _frozen

COST_FACTOR = math.sqrt(2.0) / 6.0


@dataclass(frozen=True)
class DensityProfile:
    """The optimal density vector plus its partition certificate.

    Files with 1-based index < l_index have density 1, files >= r_index have
    density 1/N, the interior is proportional to p^(2/3).  mu is the
    multiplier of the sum-capacity constraint.
    """

    densities: np.ndarray
    l_index: int
    r_index: int
    mu: float
    n_nodes: int
    capacity: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "densities", _frozen(np.asarray(self.densities, dtype=float)))

    def to_json(self) -> str:
        return json.dumps(
            {
                "n_nodes": self.n_nodes,
                "capacity": self.capacity,
                "l": self.l_index,
                "r": self.r_index,
                "mu": self.mu,
                "densities": [float(v) for v in self.densities],
            }
        )


@dataclass(frozen=True)
class CanonicalProfile:
    """Densities rounded down to powers of 1/4, as level counts: the 0-based
    ids in [C_{k-1}, C_k) sit at level k (density 4^-k), C the running sum
    of counts.  Per-file levels and densities are made on each read.
    """

    counts: np.ndarray
    nu: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "counts", _level_counts(self.counts, self.nu))

    @property
    def m_count(self) -> int:
        return int(self.counts.sum())

    @property
    def densities(self) -> np.ndarray:
        return np.repeat(4.0 ** -np.arange(self.nu + 1), self.counts)

    @property
    def mass(self) -> float:
        """The sum of the densities, counts[k] 4^-k over k, rounded once."""
        return math.fsum(c * 4.0 ** -k for k, c in enumerate(self.counts.tolist()))


def _level_counts(counts, nu: int) -> np.ndarray:
    """counts as a read-only int64 array, once known to be nu + 1 integers >= 0."""
    given = np.asarray(counts)
    if given.shape != (nu + 1,):
        raise InvalidInputError(f"nu = {nu} needs {nu + 1} level counts, got shape {given.shape}")
    if given.dtype.kind not in "iu":
        raise InvalidInputError(f"level counts must be integers, got {given.dtype}")
    if given.min() < 0:
        raise InvalidInputError(f"level {given.argmin()} has a negative count, {given.min()}")
    return _frozen(given.astype(np.int64, copy=False))


def _interior_cap(n: int, k_cap: float, m_count: int, l: int, r: int) -> float:
    """Cache budget left for files l..r-1 once the head has 1 and the tail 1/N each."""
    return k_cap - (l - 1) - (m_count - r + 1) / n


def _split_indices(
    n: int, k_cap: float, m_count: int, q_at, mass, rough=None, start=None
) -> tuple[int, int]:
    """The optimal split (l, r) for K < M, from q_i = p_i^(2/3) alone.

    q_at(i) is q of 1-based file i and mass(a, b) the sum of q over files
    a..b.  The conditions are homogeneous in q, so q need not be
    normalised.  Raises InternalInvariantError when no pair satisfies them.

    Head sizes l = 1, 2, ... are tried in turn.  For each, r is the largest
    index in [l, M+1] whose interior l..r-1 stays above the 1/N floor, a
    condition that holds up to some r and fails past it.  It is checked at
    M+1 first.  Where it fails there, start(l), when given, is a guess of
    r: its integer part is checked, then the next index up or down,
    doubling the step until the condition turns, and r is bisected inside
    that bracket.  A start that is not finite or not inside (l, M+1), and
    no start at all, leave the whole bracket to bisection.  Each check is
    exact, so a start only moves the probes, never (l, r).

    rough(a, b), when given, returns (est, err) with mass(a, b) within
    err / 2 of est.  A condition compares some lhs with the mass; where
    |lhs - est| > err, est lies on the same side of lhs as the mass, so it
    decides the comparison and mass is not called.  Every probe is made in
    the same order either way, so neither (l, r) nor the probes depend on
    rough.
    """

    def above_floor(l: int, r: int) -> bool:
        # d_{r-1} > 1/N when files l..r-1 form the interior; vacuous at r == l.
        # Every probe of the r search comes here, so the interior's budget
        # and the estimate's test are written out, not called.
        if r == l:
            return True
        lhs = (k_cap - (l - 1) - (m_count - r + 1) / n) * n * q_at(r - 1)
        if rough is not None:
            est, err = rough(l, r - 1)
            if abs(lhs - est) > err:
                return lhs > est
        return lhs > mass(l, r - 1)

    def mass_against(lhs: float, a: int, b: int) -> float:
        # mass(a, b), or an estimate on the same side of lhs.
        if rough is not None:
            est, err = rough(a, b)
            if abs(lhs - est) > err:
                return est
        return mass(a, b)

    l_max = min(int(math.floor(k_cap + 1e-12)) + 1, m_count)
    for l in range(1, l_max + 1):
        # Largest r in [l, M+1] keeping the interior above the 1/N floor;
        # the predicate is monotone (true, ..., true, false, ..., false), so
        # every bracket around its turn gives the same r.
        lo, hi = l, m_count + 1
        if above_floor(l, hi):
            lo = hi
        elif start is not None and lo < (guess := start(l)) < hi:
            mid, step = int(guess), 1
            if above_floor(l, mid):
                lo = mid
                while lo + step < hi and above_floor(l, lo + step):
                    lo, step = lo + step, 2 * step
                hi = min(hi, lo + step)
            else:
                hi = mid
                while hi - step > lo and not above_floor(l, hi - step):
                    hi, step = hi - step, 2 * step
                lo = max(lo, hi - step)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if above_floor(l, mid):
                lo = mid
            else:
                hi = mid
        r = lo
        cap = _interior_cap(n, k_cap, m_count, l, r)
        if cap < -1e-12:
            continue
        if r > l:
            # d_l < 1; vacuous when the interior is empty.
            lhs = cap * q_at(l)
            if not lhs < mass_against(lhs, l, r - 1):
                continue
        if l > 1:
            # Un-truncating file l-1 would push its density to >= 1.
            lhs = _interior_cap(n, k_cap, m_count, l - 1, r) * q_at(l - 1)
            if not lhs >= mass_against(lhs, l - 1, r - 1):
                continue
        return l, r
    raise InternalInvariantError("no (l, r) pair satisfied the optimality conditions")


def solve_cd(n_nodes: int, capacity: float, pop: Popularity) -> DensityProfile:
    """Solve the continuous density problem exactly.

    Raises InfeasibleError when K*N < M (the catalog cannot be stored once).
    """
    n = int(n_nodes)
    k_cap = float(capacity)
    if n < 1:
        raise InvalidInputError(f"n_nodes must be >= 1, got {n_nodes}")
    if not (math.isfinite(k_cap) and k_cap > 0):
        raise InvalidInputError(f"capacity must be a finite positive number, got {capacity}")
    p = pop.probs
    m_count = pop.m_count
    if k_cap * n < m_count * (1.0 - 1e-15):
        raise InfeasibleError(f"infeasible: KN < M ({k_cap}*{n} < {m_count})")

    if k_cap >= m_count:
        # Slack capacity: everything cached everywhere, constraint inactive.
        densities = np.ones(m_count)
        densities.setflags(write=False)
        return DensityProfile(
            densities=densities,
            l_index=m_count + 1,
            r_index=m_count + 1,
            mu=0.0,
            n_nodes=n,
            capacity=k_cap,
        )

    q = p ** (2.0 / 3.0)
    # prefix[i] = sum of q over 1-based files 1..i
    prefix = np.empty(m_count + 1)
    prefix[0] = 0.0
    np.cumsum(q, out=prefix[1:])

    def mass(a: int, b: int) -> float:
        # Over n files the cumulative sum rounds by up to n half-ulps of
        # prefix[b], typically by about sqrt(n).  Where 2^32 sqrt(n) ulps
        # exceed the difference, that typical error passes 2^-33 of it, too
        # close to solve_cd's 1e-9 capacity check: the slice is summed
        # directly, as is a one-file slice.
        if a == b:
            return float(q[a - 1])
        diff = float(prefix[b] - prefix[a - 1])
        if diff < 2.0**32 * math.sqrt(b - a + 1) * math.ulp(prefix[b]):
            return float(q[a - 1 : b].sum())
        return diff

    l, r = _split_indices(n, k_cap, m_count, lambda i: q[i - 1], mass)

    d = np.empty(m_count)
    d[: l - 1] = 1.0
    d[r - 1 :] = 1.0 / n
    if l < r:
        scale = _interior_cap(n, k_cap, m_count, l, r) / mass(l, r - 1)
        np.multiply(scale, q[l - 1 : r - 1], out=d[l - 1 : r - 1])
        mu = 0.5 * p[l - 1] * d[l - 1] ** (-1.5)
    else:
        # Empty interior: any multiplier between the boundary marginals works.
        lo_mu = 0.5 * p[r - 1] * n ** 1.5 if r <= m_count else 0.0
        hi_mu = 0.5 * p[l - 2] if l > 1 else math.inf
        mu = lo_mu if math.isinf(hi_mu) else 0.5 * (lo_mu + hi_mu)
    del q, prefix
    d.setflags(write=False)  # read-only and owned, so DensityProfile keeps it

    total = float(d.sum())
    tol = 1e-9 * max(1.0, k_cap)  # the prefix sums and d.sum() round relative to K
    if total > k_cap + tol or (k_cap < m_count and abs(total - k_cap) > tol):
        raise InternalInvariantError(
            f"density sum {total!r} violates capacity {k_cap!r}"
        )
    return DensityProfile(
        densities=d, l_index=l, r_index=r, mu=mu, n_nodes=n, capacity=k_cap
    )


def cd_cost(profile: DensityProfile, pop: Popularity) -> float:
    """Objective value (sqrt(2)/6) * sum (d^(-1/2) - 1) p at the profile."""
    return lower_bound(profile.densities, pop)


def lower_bound(densities: np.ndarray, pop: Popularity) -> float:
    """Average-link capacity lower bound for arbitrary measured densities.

    Same formula as cd_cost but applicable to any density vector, e.g. one
    measured from an actual placement.
    """
    d = np.asarray(densities, dtype=float)
    if d.size != pop.m_count:
        raise InvalidInputError("densities and popularity sizes differ")
    if not np.all(d > 0.0):  # NaN compares false
        raise InvalidInputError("densities must be positive")
    terms = d ** -0.5
    terms -= 1.0
    terms *= pop.probs
    return COST_FACTOR * float(np.sum(terms))


def canonical_truncate(profile: DensityProfile) -> CanonicalProfile:
    """Count the files at each level k, the least in 0..nu with 4^-k <= d
    (nu below 4^-nu); the densities d must never rise along the ids, as
    solved ones do."""
    n = profile.n_nodes
    nu = round(math.log(n, 4)) if n >= 1 else 0
    if 4 ** nu != n:
        raise InvalidInputError(f"n_nodes={n} is not a power of 4")
    d = profile.densities
    bad = np.flatnonzero(~(d > 0.0))  # NaN compares false
    if bad.size:
        m = int(bad[0])
        raise InvalidInputError(f"density {float(d[m])!r} of file {m} is not positive")
    rise = np.flatnonzero(d[1:] > d[:-1])
    if rise.size:
        m = int(rise[0]) + 1
        raise InvalidInputError(f"density {d[m]} of file {m} rises above {d[m - 1]}")
    # The files at levels <= k < nu, those with 4^-k <= d, are a prefix: all
    # but the d < 4^-k, found by one binary search on the ascending view
    # d[::-1] (not copied).  Exact float comparisons lift no file above its d.
    ends = d.size - np.searchsorted(d[::-1], 4.0 ** -np.arange(nu))
    counts = np.diff([0, *ends.tolist(), d.size])
    canon = CanonicalProfile(counts=counts, nu=nu)
    if canon.mass > profile.capacity + 1e-9:
        raise InternalInvariantError("canonical truncation exceeded capacity")
    return canon
