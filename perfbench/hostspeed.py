"""Program time at a reference core speed, measured beside a host-speed probe.

On a shared host the core this process runs on is slowed by other tenants
in episodes of a fraction of a second to tens of seconds; while a neighbour
is busy, the same Python code runs about 1.5 times slower, in wall time and
in CPU time alike.  A run of tens of seconds may fall wholly inside such an
episode, so neither the median nor the fastest pass repeats from run to
run.  The other vCPU does not help: its slowdowns are unrelated to this
one's.

So the host's speed is sampled in the same process, during the measured
work: a timer signal every ``PERIOD`` seconds runs a fixed piece of
interpreter work (``_probe``) and records how long it took.  The program
time between two probes is scaled by ``REF_PROBE_S`` over the duration of
the probe that ends the interval, and the scaled intervals are summed.  The
result is the program's time on a core that runs the probe in
``REF_PROBE_S``; the time spent in probes (under 1% of the run) is not
counted as program time.

A signal is handled between bytecodes, so during one long native call the
probe runs once, at its end, and that probe scales the whole interval.
"""

from __future__ import annotations

import signal
import time
from typing import NamedTuple

PERIOD = 0.02
# The probe's duration on an unloaded core of the machine in baseline.json
# (the fast mode of its bimodal distribution; a busy neighbour gives ~145 us).
REF_PROBE_S = 85e-6


def _probe() -> None:
    """Fixed interpreter work: integer arithmetic, tuples and a dict."""
    table: dict = {}
    x = 1
    for i in range(300):
        x = (x * 1103515245 + 12345) & 0xFFFFFF
        key = (x & 31, i & 7)
        table[key] = table.get(key, 0) + 1


class Timing(NamedTuple):
    wall_s: float  # program wall time, probes excluded
    cpu_s: float  # program CPU time, probes excluded
    ref_wall_s: float  # wall_s at the reference core speed
    ref_cpu_s: float  # cpu_s scaled by the same factor
    probe_s: float  # time spent in probes inside the interval


class SpeedProbe:
    """Times one interval of program work and the host's speed during it."""

    def __init__(self) -> None:
        for _ in range(20):  # let the interpreter specialise the probe's bytecode
            _probe()
        self._samples: list[tuple[float, float]] = []
        self._start = self._cpu_start = 0.0
        self._previous_handler = None

    def _sample(self, *_signal_args) -> None:
        t0 = time.perf_counter()
        _probe()
        self._samples.append((t0, time.perf_counter() - t0))

    def start(self) -> None:
        self._samples = []
        self._previous_handler = signal.signal(signal.SIGALRM, self._sample)
        self._start, self._cpu_start = time.perf_counter(), time.process_time()
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self) -> Timing:
        # A signal already raised is handled when setitimer returns, so every
        # sample taken so far starts before ``end``.
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        end, cpu_end = time.perf_counter(), time.process_time()
        signal.signal(signal.SIGALRM, self._previous_handler)
        probe_s = sum(d for _, d in self._samples)
        self._sample()  # the speed over the last interval
        scaled, t = 0.0, self._start
        for t0, d in self._samples:
            scaled += (min(t0, end) - t) / d
            t = t0 + d
        wall = end - self._start - probe_s
        cpu = cpu_end - self._cpu_start - probe_s
        # The intervals add up to wall, so this is their time-weighted mean.
        factor = REF_PROBE_S * scaled / wall
        return Timing(wall, cpu, wall * factor, cpu * factor, probe_s)
