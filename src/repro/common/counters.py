"""Thread-safe named counters: ``counters.inc("in_doubt_found")``.

One device's transient-fault history and one node's 2PC traffic are each
a :class:`Counters` over a fixed set of names, declared up front so a
snapshot has the same keys before the first event as after it.  The
mutex is a leaf: held for one update or one copy, never while calling
into any other component.
"""

from __future__ import annotations

import threading


class Counters:
    """A fixed set of named integer counters, safe to bump from any thread."""

    def __init__(self, *names: str):
        self._mutex = threading.Lock()
        self._counts = dict.fromkeys(names, 0)  # guarded-by: _mutex

    def inc(self, name: str, by: int = 1) -> None:
        """Add ``by`` to ``name``; an undeclared name raises ``KeyError``."""
        with self._mutex:
            self._counts[name] += by

    def snapshot(self) -> dict[str, int]:
        with self._mutex:
            return dict(self._counts)
