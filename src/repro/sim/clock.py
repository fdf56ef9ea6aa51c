"""Virtual time.

Every latency in the reproduction — instruction execution, stable-memory
access, disk transfers — is *simulated* time on this clock.  Nothing in the
library reads the wall clock, which keeps runs deterministic and lets the
benchmarks report 1987-scale seconds regardless of host speed.

The one reading of *host* time, :func:`host_now`, also lives here (lint
rule RC03 allows wall-clock imports here and nowhere else); it measures
the host and never feeds the simulation.
"""

from __future__ import annotations

import time as _host_time


def host_now() -> float:
    """Monotonic *host* seconds (``time.perf_counter``).

    The torture rig and the media restore time themselves with it — a
    quantity about the host, not the simulated machine.  It lives here
    because RC03 sanctions wall-clock imports only in this module.
    """
    return _host_time.perf_counter()


class VirtualClock:
    """A monotonically advancing simulated clock, in seconds, shared by
    the processors and the disks."""

    def __init__(self, start: float = 0.0):
        if start < 0.0:
            raise ValueError("clock cannot start before time zero")
        self._now = float(start)

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
        self._now += seconds
        return self._now

    def advance_to(self, when: float) -> float:
        """Move time forward to the absolute instant ``when``.

        A ``when`` in the past is a no-op — this models waiting for an event
        that already happened.
        """
        if when > self._now:
            self._now = when
        return self._now

    def __repr__(self) -> str:
        return f"VirtualClock(now={self._now:.6f})"
