"""Virtual time.

Every latency in the reproduction — instruction execution, stable-memory
access, disk transfers — is *simulated* time on this clock.  Nothing in the
library reads the wall clock, which keeps runs deterministic and lets the
benchmarks report 1987-scale seconds regardless of host speed.

This module is also the one sanctioned bridge between simulated time and
*host* time (lint rule RC03 allows wall-clock imports here and nowhere
else): :func:`host_pause` maps simulated device seconds onto real
``time.sleep`` so the threaded engine's concurrency is measurable.  The
bridge is inert unless a component opts in with a positive scale, so the
deterministic cooperative schedule never touches it.
"""

from __future__ import annotations

import threading
import time as _host_time


def host_pause(seconds: float) -> None:
    """Sleep ``seconds`` of *host* wall time (non-positive is a no-op).

    Used by :class:`~repro.sim.disk.SimulatedDisk` when a realtime scale
    is configured, so device waits in the threaded engine cost host time
    in which its threads can reorder (the torture rig's latency
    injection).  Never called on the purely simulated path.
    """
    if seconds > 0.0:
        _host_time.sleep(seconds)


def host_now() -> float:
    """Monotonic *host* seconds (``time.perf_counter``).

    The concurrent transaction scheduler uses this for retry-backoff
    deadlines and per-worker utilisation accounting — quantities that are
    about the host threads themselves, not the simulated machine.  Like
    :func:`host_pause` this lives here because RC03 sanctions wall-clock
    imports only in this module.
    """
    return _host_time.perf_counter()


class VirtualClock:
    """A monotonically advancing simulated clock, in seconds.

    Advances are atomic: processors, disks, and the threaded engine's
    recovery/restore threads share one clock, and each advance is a
    read-modify-write that must not be torn.  Total elapsed time is the
    sum of all advances and therefore independent of thread interleaving.
    """

    def __init__(self, start: float = 0.0):
        if start < 0.0:
            raise ValueError("clock cannot start before time zero")
        self._now = float(start)
        self._lock = threading.Lock()

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def advance(self, seconds: float) -> float:
        """Move time forward by ``seconds`` and return the new time.

        Negative advances are rejected: simulated time never runs backwards.
        """
        if seconds < 0.0:
            raise ValueError(f"cannot advance clock by {seconds!r} seconds")
        with self._lock:
            self._now += seconds
            return self._now

    def advance_to(self, when: float) -> float:
        """Move time forward to the absolute instant ``when``.

        A ``when`` in the past is a no-op — this models waiting for an event
        that already happened.
        """
        with self._lock:
            if when > self._now:
                self._now = when
            return self._now

    def __repr__(self) -> str:
        return f"VirtualClock(now={self._now:.6f})"
