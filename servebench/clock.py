"""A host-speed-corrected clock for the benchmark's timings.

The shared 2-core hosts this benchmark was tuned on switch between a fast
and a slow state (a fixed pure-Python loop takes about 40 % longer in the
slow one), and a state can last from a second to over half a minute.  A
20-second run therefore measures whatever mix of states it happened to get,
and raw wall-clock timings of the same program spread by more than the
benchmark's bounds across runs (README.md, "Noise").

:class:`HostClock` times a short fixed loop (the *probe*) every
``PROBE_EVERY`` seconds of measured time and advances its reading at
``NOMINAL_PROBE_MS`` over the recent probe time: the rate at which wall time
would pass on a host where the probe takes exactly ``NOMINAL_PROBE_MS``.
The stretch between two probes is charged at the mean of the rates the
probes on either side of it give.  Time spent inside probes is left out, so
probing adds nothing to what is measured.  Every timing metric of the benchmark is read from this clock;
the raw wall-clock readings are kept beside it.
"""

from __future__ import annotations

import statistics
import time
from collections import deque

# Iterations of the probe loop, and the time in ms the probe is scaled to.
# On the tuning host the probe took about 0.75 ms in the fast state and
# about 1.05 ms in the slow one.
PROBE_LOOPS = 10_000
NOMINAL_PROBE_MS = 1.0
# Seconds of measured time between probes, and how many recent probes the
# speed estimate is the median of (a probe hit by an interrupt is outvoted).
PROBE_EVERY = 0.05
PROBE_WINDOW = 5


def probe_ms() -> float:
    """Time the fixed probe loop once, in ms of this thread's CPU time.

    CPU time, not wall time: the host's slow states slow the CPU itself, so
    they show in it, while waiting for the interpreter lock or for a core
    does not.  Other threads of the program therefore cannot stretch a
    probe and make the clock run slow.
    """
    started = time.thread_time()
    total = 0
    for value in range(PROBE_LOOPS):
        total += value * value % 7
    return (time.thread_time() - started) * 1e3


class HostClock:
    """Seconds at nominal host speed, plus the raw wall seconds measured.

    Call :meth:`poll` between units of work: it probes when ``PROBE_EVERY``
    seconds have passed since the last probe.  :meth:`now` reads the
    corrected time, :meth:`wall` the raw measured time; neither counts the
    time spent probing.  A reading taken between probes charges the time
    since the last probe at that probe's rate; the next probe revises that
    stretch to the mean of both rates.
    """

    def __init__(self) -> None:
        self._probes: deque[float] = deque(maxlen=PROBE_WINDOW)
        self._corrected = 0.0
        self._wall = 0.0
        self._since = 0.0
        self._factor = 1.0
        self.probe_ms: list[float] = []
        self._probe()

    def _probe(self) -> None:
        # The first call fills the window, so the first estimate is a median.
        for _ in range(PROBE_WINDOW if not self._probes else 1):
            self._probes.append(probe_ms())
            self.probe_ms.append(self._probes[-1])
        self._factor = NOMINAL_PROBE_MS / statistics.median(self._probes)
        self._since = time.perf_counter()

    def _elapsed(self) -> float:
        return time.perf_counter() - self._since

    def now(self) -> float:
        """Corrected seconds measured so far."""
        return self._corrected + self._elapsed() * self._factor

    def wall(self) -> float:
        """Raw wall seconds measured so far."""
        return self._wall + self._elapsed()

    def poll(self) -> None:
        """Probe the host speed if ``PROBE_EVERY`` seconds have passed."""
        elapsed = self._elapsed()
        if elapsed < PROBE_EVERY:
            return
        before = self._factor
        self._probe()
        self._corrected += elapsed * (before + self._factor) / 2
        self._wall += elapsed
