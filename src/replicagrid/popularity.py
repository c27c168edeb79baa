"""Popularity models: Zipf laws and probability vectors read from a file."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

_SUM_TOL = 1e-12


def _frozen(a: np.ndarray) -> np.ndarray:
    """The array a value type holds for a: a itself when it is read-only
    and owns its memory, else a read-only copy, so no caller can write it."""
    if a.flags.writeable or not a.flags.owndata:
        a = a.copy()
        a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Popularity:
    """A nonincreasing, strictly positive probability vector over M files."""

    probs: np.ndarray

    def __post_init__(self) -> None:
        p = np.asarray(self.probs, dtype=float)
        if p.ndim != 1 or p.size < 1:
            raise InvalidInputError("popularity must be a nonempty 1-d vector")
        with np.errstate(over="ignore", invalid="ignore"):  # judged below
            total = float(p.sum())
        # A finite sum rules out NaN and +-inf, and a nonincreasing vector
        # whose last entry is positive is positive throughout; only a vector
        # failing this runs the per-element checks that choose the message.
        if not (math.isfinite(total) and p[-1] > 0.0) or np.any(p[1:] > p[:-1]):
            if not np.all(np.isfinite(p) & (p > 0.0)):
                raise InvalidInputError("all popularities must be finite and strictly positive")
            if np.any(p[1:] > p[:-1]):
                raise InvalidInputError("popularities must be nonincreasing")
        if abs(total - 1.0) > _SUM_TOL:
            raise InvalidInputError(f"popularities must sum to 1, got {total!r}")
        object.__setattr__(self, "probs", _frozen(p))

    @property
    def m_count(self) -> int:
        return int(self.probs.size)


def zipf(m_count: int, tau: float) -> Popularity:
    """Zipf popularity: p_m proportional to m^(-tau), m = 1..M."""
    if m_count < 1:
        raise InvalidInputError(f"m_count must be >= 1, got {m_count}")
    if not (math.isfinite(tau) and tau >= 0):
        raise InvalidInputError(f"tau must be a finite number >= 0, got {tau}")
    try:
        probs = np.arange(1, m_count + 1, dtype=float)  # the ranks, until powered
    except (MemoryError, ValueError) as exc:
        raise InvalidInputError(f"M = {m_count} files is too many to allocate") from exc
    probs **= -float(tau)  # in place; keeps numpy's fast paths (tau = 1: reciprocal)
    probs /= probs.sum()
    if probs[-1] == 0.0:
        first = np.count_nonzero(probs) + 1
        raise InvalidInputError(
            f"tau = {tau:g} is too large for M = {m_count} files: "
            f"the Zipf popularity of file {first} underflows to 0"
        )
    probs.setflags(write=False)  # read-only and owned, so Popularity keeps it
    return Popularity(probs=probs)


def load_popularity(path: str) -> Popularity:
    """Read one probability per line; blank lines and '#' comments skipped."""
    values = []
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                try:
                    values.append(float(line))
                except ValueError as exc:
                    raise InvalidInputError(f"{path}:{lineno}: not a number: {line!r}") from exc
    except UnicodeDecodeError as exc:
        raise InvalidInputError(f"{path}: {exc}") from exc
    if not values:
        raise InvalidInputError(f"{path}: no probabilities found")
    return Popularity(probs=np.array(values, dtype=float))
