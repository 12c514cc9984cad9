"""A reference for the host's speed, measured while the benchmark runs.

The benchmark shares a few cores of a host with other work, and the
speed of those cores drifts by tens of percent within a minute: every
instruction runs slower, not only a few stalled ones, so neither the
median nor the minimum of a run's timings stays put from one run to the
next.  The meter measures that drift and takes it out.

While a timed block runs, a SIGALRM interval timer fires every
`INTERVAL_S` seconds and the handler runs `probe_work`, a fixed piece of
interpreter, small-array, gather and stencil work in the style of
gvflow's own loops, and records how long it took.  Probe time that falls
inside a timed call into gvflow is subtracted from that call's time.
The block's time is then scaled by the mean of `NOMINAL_S / probe time`
over its probes, which expresses it in seconds at the speed where one
probe takes `NOMINAL_S`.  The probe is the benchmark's own code and
calls nothing in gvflow, so a change to gvflow moves the scaled time as
it moves the raw time on a host of steady speed.

The correction is partial: contention from other work slows some kinds
of code more than others, and the probe is one fixed mix.  On a 2-core
Xeon VM whose raw pass times spread by 20-30 % between runs, the scaled
times spread by about 5-10 %.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.02
# About the median probe time between gvflow calls on a quiet 2-core Xeon
# VM, so that scaled and raw seconds roughly agree there; a fixed unit.
NOMINAL_S = 0.00035

_rng = np.random.default_rng(20050204)
_SMALL = _rng.random(300)
_BIG = _rng.random(160 * 160)
_IDX = _rng.permutation(_BIG.size)


def probe_work() -> float:
    """About 0.2 ms of work of the four kinds gvflow's loops do."""
    s = 0
    for i in range(600):              # interpreter work
        s += (i * i) % 7
    x = _SMALL
    for _ in range(50):               # small-array calls, like a snake step
        x = 0.5 * x + _SMALL
    y = _BIG[_IDX] * 0.25 + _BIG[_IDX[::-1]]                 # a gather
    z = np.roll(_BIG, 1) + np.roll(_BIG, -1) - 2.0 * _BIG     # a stencil
    return s + float(x[0]) + float(y[0]) + float(z[0])


class Window:
    """The probes of one timed block."""

    def __init__(self, meter: "SpeedMeter"):
        self.meter = meter
        self.first = len(meter.samples)
        self.busy0 = meter.busy

    def factor(self) -> float:
        """Scales raw seconds of the block to seconds at nominal speed."""
        # the mean speed over probes evenly spread in time, so a block that
        # ran half at one speed and half at another is scaled by the average
        return statistics.fmean(NOMINAL_S / p for p in self.meter.samples[self.first:])

    def probe_s(self) -> float:
        """Probe time spent inside the block so far."""
        return self.meter.busy - self.busy0


class SpeedMeter:
    """Probe times, and the probe time spent so far (`busy`)."""

    def __init__(self):
        self.samples: list[float] = []
        self.busy = 0.0

    def probe(self) -> None:
        t0 = time.perf_counter()
        probe_work()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.busy += dt

    def _on_alarm(self, signum, frame) -> None:
        self.probe()

    @contextlib.contextmanager
    def sampling(self):
        """Probe on a timer for the duration of the block, which is
        bracketed by a probe on each side, so even a block shorter than the
        interval has two samples.  Yields the block's `Window`; time the
        block inside the `with`, and read its factor after it."""
        window = Window(self)
        self.probe()
        window.busy0 = self.busy
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield window
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)
            self.probe()

    def factor_now(self, n: int = 50) -> float:
        """Scale factor from `n` back-to-back probes."""
        window = Window(self)
        for _ in range(n):
            self.probe()
        return window.factor()


meter = SpeedMeter()
for _ in range(5):   # first calls pay for allocation and caches
    probe_work()
