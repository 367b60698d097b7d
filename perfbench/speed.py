"""Host speed sampling, to take the host's speed swings out of timed figures.

On a virtual machine whose cores are shared with other guests, a core can
alternate within seconds between full speed and about half of it,
independently of the other cores, while ``process_time`` slows down with
wall time, so a process cannot see the slow-down.  A run that happens to
fall in slow stretches then reads up to twice as long as one that does not.

:class:`SpeedSampler` measures the speed where the work runs: a ``SIGALRM``
interval timer interrupts the main thread every ``INTERVAL_S`` seconds of
wall time and times a fixed reference kernel (small numpy steps driven by
the interpreter, like the solvers' inner loops) in the handler.  Sampled
uniformly in time, the mean of ``REFERENCE_S / sample`` over an interval is
the share of that interval's wall time the work would have taken at full
speed, so ``Window.normalized`` reports a wall time as full-speed seconds.
The handler's own time is taken out first; it is about 2 % of the wall.
"""

from __future__ import annotations

import signal
import time
from typing import List

import numpy as np

#: Seconds between samples.
INTERVAL_S = 0.05
#: The reference kernel's time at full speed: the lower end of its times
#: on an uncontended core of a 2-vCPU x86-64 virtual machine with
#: Python 3.11 and numpy 2.  Normalized figures are in seconds at that speed.
REFERENCE_S = 0.00100

_A = np.array([[-0.5, 0.1, 0.0, 0.0], [0.1, -0.4, 0.05, 0.0],
               [0.0, 0.05, -0.3, 0.1], [0.0, 0.0, 0.1, -0.2]])


def reference_kernel() -> float:
    """90 classic-rk4 steps of a 4-state linear system."""
    x = np.ones(4)
    h = 0.01
    total = 0.0
    for _ in range(90):
        k1 = _A @ x
        k2 = _A @ (x + 0.5 * h * k1)
        k3 = _A @ (x + 0.5 * h * k2)
        k4 = _A @ (x + h * k3)
        x = x + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        total += float(x[0])
    return total


class SpeedSampler:
    """Samples the speed of the calling (main) thread's core while started."""

    def __init__(self):
        #: Each sample's kernel time, seconds.
        self.samples: List[float] = []
        #: Wall time spent in the handler, seconds.
        self.spent = 0.0
        self._previous = None

    def _handler(self, signum, frame) -> None:
        entered = time.perf_counter()
        reference_kernel()
        left = time.perf_counter()
        self.samples.append(left - entered)
        self.spent += left - entered

    def start(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def __enter__(self) -> "SpeedSampler":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def window(self) -> "Window":
        """A window opened now; close it with ``Window.close()``."""
        return Window(self)

    def full_speed_share(self, first: int = 0, last: int = None) -> float:
        """Mean of ``REFERENCE_S / sample`` over samples ``first:last``."""
        chosen = self.samples[first:last]
        if not chosen:
            return float("nan")
        return sum(REFERENCE_S / s for s in chosen) / len(chosen)


class Window:
    """Wall time of a stretch of work, and its full-speed equivalent."""

    def __init__(self, sampler: SpeedSampler):
        self.sampler = sampler
        self.first = len(sampler.samples)
        self.spent = sampler.spent
        self.started = time.perf_counter()
        self.wall = float("nan")
        self.share = float("nan")

    def close(self) -> "Window":
        self.wall = time.perf_counter() - self.started - (self.sampler.spent - self.spent)
        self.share = self.sampler.full_speed_share(self.first, len(self.sampler.samples))
        return self

    @property
    def normalized(self) -> float:
        return self.wall * self.share
