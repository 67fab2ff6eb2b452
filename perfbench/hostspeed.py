"""The host's speed while a span runs, from a fixed reference loop.

On a shared virtual machine the same instructions run at full speed or up to
about 1.8 times slower.  The speed changes within a fraction of a second and
also drifts in phases that can last minutes; process CPU time slows with it.
A time measured in one phase cannot be compared with one measured in
another.  The benchmark therefore samples the host's speed while it times a
span and reports the span in *reference seconds*:

    reference seconds = measured seconds * mean over samples of (REFERENCE_S / sample seconds)

A sample is one run of ``_chunk``, a short fixed loop; ``REFERENCE_S`` is its
time on a calm host, so on a calm host the two read alike.  ``Sampler`` takes
a sample every ``INTERVAL_S`` of the span from a timer signal, which Python
runs between bytecodes of the timed code, and takes the samples' own time
out of the span.  The loop does the kind of work the package does (Python
float arithmetic around small numpy calls, and a small BLAS product) and uses
none of the package's code, so a change to the package moves the reported
time and leaves the loop alone.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# Least time of ``_chunk`` on a calm host: 2 vCPUs, Python 3.11.7,
# numpy 2.4.6, scipy-openblas 0.3.31 with one thread.
REFERENCE_S = 0.0004
INTERVAL_S = 0.025

_A = np.linspace(0.0, 1.0, 2)
_M = np.linspace(0.0, 1.0, 16 * 16).reshape(16, 16)


def _chunk() -> float:
    acc = 0.0
    for i in range(200):
        v = np.cos(_A * (i * 1e-3))
        acc += float(v @ v) ** 2 * 0.5
    return acc + float((_M @ _M)[0, 0])


def sample_s() -> float:
    """Seconds of one run of the reference loop."""
    start = time.perf_counter()
    _chunk()
    return time.perf_counter() - start


def speed(samples) -> float:
    """Mean host speed over equally spaced samples, 1 on a calm host."""
    return statistics.fmean(REFERENCE_S / s for s in samples)


class Sampler:
    """Samples the host's speed every ``INTERVAL_S`` while a span runs.

    ``wall_s`` and ``cpu_s`` are the span's seconds without the samples'
    own; ``speed`` is the mean speed over the span, including one sample
    just before and one just after it; ``overhead_s`` is the wall time the
    sampling added, from entering the block to leaving it.
    """

    def __enter__(self) -> "Sampler":
        self._start = time.perf_counter()
        self.samples = [sample_s()]
        self._spent_wall = self._spent_cpu = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._wall0, self._cpu0 = time.perf_counter(), time.process_time()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def _sample(self, signum, frame) -> None:
        w0, c0 = time.perf_counter(), time.process_time()
        self.samples.append(sample_s())
        self._spent_wall += time.perf_counter() - w0
        self._spent_cpu += time.process_time() - c0

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        wall, cpu = time.perf_counter(), time.process_time()
        signal.signal(signal.SIGALRM, self._previous)
        self.wall_s = wall - self._wall0 - self._spent_wall
        self.cpu_s = cpu - self._cpu0 - self._spent_cpu
        self.samples.append(sample_s())
        self.speed = speed(self.samples)
        self.overhead_s = time.perf_counter() - self._start - self.wall_s
