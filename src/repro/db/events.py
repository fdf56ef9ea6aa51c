"""A bounded ring of operator events, stamped with both clocks.

The events are the moments an operator asks about after the fact, and
none of them happens per transaction or per record: a checkpoint
requested (with its trigger), deferred, its image written (slot and
bytes) and acknowledged, and each log page the recovery CPU writes
while a request is queued (``log.page-written``: LSN and bytes); a
restart begun, each partition rebuilt (the restart record of
``stats()["restart"]["partitions"]``) or whose rebuild failed
(``restart.rebuild-failed``: address, trigger, error type and message)
and the database fully recovered; a 2PC branch prepared, and the verdict.  Each carries
simulated seconds (``sim_s``, the machine's clock) and host seconds
(``host_s``, :func:`host_now`).  Emitting charges no simulated instruction.

The ring is the observer's, not the simulated machine's: it lives
outside stable and main memory alike, so :meth:`Database.crash` keeps it
and a restart's events follow the ones before the crash.  It holds the
newest :data:`EVENT_RING_SIZE` events; :meth:`EventRing.write_jsonl`
writes them out (:meth:`EventRing.write_chrome` for a trace viewer), and
:mod:`repro.db.backlog` reads that file.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Iterator

from repro.sim.clock import VirtualClock, host_now

#: Events the ring keeps; the oldest falls off the front.
EVENT_RING_SIZE = 1024


class EventRing:
    """The newest :data:`EVENT_RING_SIZE` events, oldest first."""

    def __init__(self, clock: VirtualClock):
        self._clock = clock
        self._events: deque[dict] = deque(maxlen=EVENT_RING_SIZE)

    def emit(self, event: str, **fields) -> None:
        """Record ``event`` now, with its ``fields``."""
        self._events.append(
            {"event": event, "sim_s": self._clock.now, "host_s": host_now(), **fields}
        )

    def __iter__(self) -> Iterator[dict]:
        return iter(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def write_jsonl(self, path) -> int:
        """Write the ring, oldest first, one JSON object per line; returns
        how many events it wrote."""
        with open(path, "w", encoding="utf-8") as handle:
            for entry in self._events:
                handle.write(json.dumps(entry, sort_keys=True) + "\n")
        return len(self._events)

    def write_chrome(self, path) -> int:
        """Write the ring in Chrome Trace Event Format: one instant event per
        entry at its host time, ``sim_s`` and its fields as ``args``; returns
        how many."""
        trace = [
            {"name": e["event"], "ph": "i", "s": "g", "ts": e["host_s"] * 1e6, "pid": 0, "tid": 0,
             "args": {k: v for k, v in e.items() if k not in ("event", "host_s")}}
            for e in self._events
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": trace, "displayTimeUnit": "ms"}, handle, sort_keys=True)
        return len(trace)
