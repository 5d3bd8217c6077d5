"""A machine-speed probe, so that pass times compare across the speed phases
of a shared machine.

On a shared VM the same pass can take 1.8 s in one phase and 3.5 s in the
next, for tens of seconds at a time, and process CPU time moves with wall
time, so neither measures the program. While passes run, :class:`Probe`
interrupts the main thread every ``PERIOD_S`` seconds of wall time (SIGALRM)
and times :func:`kernel`, a fixed mix of interpreter work, numpy calls on
tiny arrays and small SVDs, the kinds of work dnclab spends its time on. The
work done between two probes is scaled by ``REFERENCE_S`` over the nearest
probes' median time, so a pass's normalised time is the time it would take
where the kernel takes ``REFERENCE_S``. The probes' own time is left out.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.025
# A fixed scale: about the kernel's time between a pass's calls on the quiet
# phase of a shared 2-vCPU Xeon VM (Python 3.11, numpy 2.4, OpenBLAS on one
# thread), so that normalised pass times read close to wall seconds there.
REFERENCE_S = 2.4e-4
# Each stretch of work is scaled by the median of this many probes around it.
SMOOTH = 5

_RNG = np.random.default_rng(0)
_MATS = [_RNG.standard_normal((6, 6)) for _ in range(6)]
_VECS = [_RNG.standard_normal(3) for _ in range(6)]


def kernel() -> float:
    """Seconds taken by one fixed piece of work. Its three parts, in equal
    shares, slow down on a busy machine by different factors, and their sum
    tracked every workload's passes more closely than any one part did."""
    t0 = time.perf_counter()
    acc = 0.0
    for m, v in zip(_MATS, _VECS):
        # interpreter work
        acc += sum(i * 0.5 for i in range(100))
        acc += len({i: i for i in range(20)})
        # numpy calls on tiny arrays
        w = v * 2.0 + 1.0
        acc += float(np.dot(w, v)) + float(np.linalg.norm(w))
        acc += float(np.concatenate([v, w]).sum())
        # small LAPACK and BLAS calls
        acc += float(np.linalg.svd(m, compute_uv=False)[0])
        acc += float((m @ m.T).trace())
    return time.perf_counter() - t0


def kernel_median() -> float:
    """The kernel's median time over a few runs, for a measurement too short
    to probe while it runs."""
    return statistics.median(kernel() for _ in range(15))


class Probe:
    """Times :func:`kernel` every ``PERIOD_S`` while in a ``with`` block.

    ``on_sample(seconds)`` is called after each probe, from the interrupted
    thread; a tracer uses it to keep probe time out of the layer it lands in.
    """

    def __init__(self, on_sample=None):
        self.ends = []  # perf_counter at the end of each probe
        self.costs = []  # seconds each probe took
        self.on_sample = on_sample
        self._previous = None

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum, frame):
        d = kernel()
        self.ends.append(time.perf_counter())
        self.costs.append(d)
        if self.on_sample is not None:
            self.on_sample(d)

    def normalised(self, t0: float, t1: float) -> float:
        """Seconds of the interval [t0, t1] without the probes in it, scaled
        stretch by stretch to the reference speed."""
        if not self.ends:
            return t1 - t0
        lo = bisect.bisect_left(self.ends, t0)
        hi = bisect.bisect_right(self.ends, t1)
        norm, start = 0.0, t0
        for k in range(lo, hi + 1):
            # Work from ``start`` to the beginning of probe k (or to t1).
            end = self.ends[k] - self.costs[k] if k < hi else t1
            near = self.costs[max(0, k - SMOOTH // 2): k + SMOOTH // 2 + 1] or self.costs[-SMOOTH:]
            norm += max(0.0, end - start) * REFERENCE_S / statistics.median(near)
            if k < hi:
                start = self.ends[k]
        return norm
