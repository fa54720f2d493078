"""Host-speed sampling for the timed passes.

On a shared virtual machine a single-threaded loop runs at two or more
speeds, up to about 1.7x apart, in spells from a fraction of a second to
over a minute; the process's CPU time slows with its wall time, so neither
longer runs nor CPU time average it out. While a pass runs, ``HostSpeed``
times a fixed reference computation every SAMPLE_INTERVAL_S of wall time,
from a SIGALRM handler on the benchmark's own thread. A pass's *cost* is
its wall time (the samples taken out) weighted by the host speed the
samples saw, in units of one reference computation:

    cost = net wall time * mean(1 / reference time of each sample)

Cost does not depend on how fast the host was. Times are reported at the
reference speed, REFERENCE_S per reference computation: a pass's time is
its median cost times REFERENCE_S. The reference is pure-Python complex
2x2 arithmetic on a frozen slots dataclass, the same kind of work as
``charvar.mat2``, and it calls nothing of the library, so a change to the
library leaves it alone. ``timed_import`` does the same for an import in a
fresh interpreter, the benchmark's set-up time.
"""

from __future__ import annotations

import signal
import statistics
import time
from dataclasses import dataclass

SAMPLE_INTERVAL_S = 0.02
IMPORT_SAMPLE_INTERVAL_S = 0.005  # an import of charvar takes about 40 ms
REFERENCE_STEPS = 100
#: the reference speed: one reference computation in 200 us, about its
#: fastest time on a shared 2-vCPU Xeon VM (Python 3.11.7), where it read
#: 165 to 210 us as the host's speed drifted over an hour
REFERENCE_S = 200e-6


@dataclass(frozen=True, slots=True)
class _Mat:
    a: complex
    b: complex
    c: complex
    d: complex

    def __matmul__(self, o: "_Mat") -> "_Mat":
        return _Mat(self.a * o.a + self.b * o.c, self.a * o.b + self.b * o.d,
                    self.c * o.a + self.d * o.c, self.c * o.b + self.d * o.d)


def reference(steps: int = REFERENCE_STEPS) -> _Mat:
    """The fixed reference computation: a damped product of 2x2 matrices."""
    x = y = _Mat(0.6 + 0.1j, 0.8j, 0.3, 0.7 - 0.2j)
    for _ in range(steps):
        y = x @ y
        y = _Mat(y.a / abs(y.a + 1), y.b, y.c, y.d)
    return y


class HostSpeed:
    """Context manager that samples the reference while a pass runs.

    ``clock()`` is ``time.perf_counter()`` less the time spent sampling, so
    time read from it excludes the samples. ``on_sample(duration)`` is
    called after each sample, from the signal handler.
    """

    def __init__(self, on_sample=None, interval_s: float = SAMPLE_INTERVAL_S):
        self.on_sample = on_sample
        self.interval_s = interval_s
        self.samples: list[float] = []  # every reference time, in s
        self._pass: list[float] = []    # those of the current pass
        self._sampled_s = 0.0
        self._previous = None

    def clock(self) -> float:
        return time.perf_counter() - self._sampled_s

    def _sample(self, *_) -> None:
        start = time.perf_counter()
        reference()
        duration = time.perf_counter() - start
        self.samples.append(duration)
        self._pass.append(duration)
        self._sampled_s += duration
        if self.on_sample is not None:
            self.on_sample(duration)

    def __enter__(self):
        self._pass = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()  # a pass shorter than the interval still has one
        signal.setitimer(signal.ITIMER_REAL, self.interval_s,
                         self.interval_s)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def rate(self) -> float:
        """Reference computations per second during the last activation."""
        return statistics.fmean(1 / d for d in self._pass)

    def cost(self, net_s: float) -> float:
        """Cost, in reference computations, of work that took net_s seconds
        of `clock()` time during the last activation."""
        return net_s * self.rate()

    @property
    def fastest_s(self) -> float:
        """The fastest reference time seen so far, in s."""
        return min(self.samples)


def timed_import(module: str, warmup: int = 20) -> float:
    """Import `module`, sampling the host's speed every
    IMPORT_SAMPLE_INTERVAL_S meanwhile; returns the import's time at the
    reference speed, in s. The reference runs `warmup` times first, so the
    samples do not pay for its first, cold runs in a fresh interpreter."""
    for _ in range(warmup):
        reference()
    speed = HostSpeed(interval_s=IMPORT_SAMPLE_INTERVAL_S)
    with speed:
        start = speed.clock()
        __import__(module)
        net_s = speed.clock() - start
    return speed.cost(net_s) * REFERENCE_S
