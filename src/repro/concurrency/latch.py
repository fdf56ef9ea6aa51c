"""Short-duration latches.

Latches protect physical structures (the SLB block free list, the disk
allocation map) for the duration of one operation — they are not
two-phase.  Section 2.3.1 notes critical sections are needed *only* for
block allocation, and section 2.4 requires a write latch on the disk
allocation map because several checkpoint transactions may run at once.

A latch can never actually block here (its holder always releases
before yielding), so acquisition failure indicates a bug — it raises
immediately rather than waiting.  Section 2.5's rule that a transaction
must not hold a latch across a recovery wait is enforced by
:meth:`Latch.assert_unheld`; its twin for crash points — a holder that
dies leaves the structure wedged for every later owner — is
:func:`assert_no_latch_held`, which the test suite installs as the
crash-point observer.
"""

from __future__ import annotations

import weakref
from contextlib import contextmanager
from typing import Iterator

from repro.common.errors import ReproError


class LatchViolationError(ReproError):
    """A latch protocol rule was broken (double acquire, foreign release)."""


#: Every latch currently held; weak, so a latch dropped while held does
#: not outlive its structure.
_held: "weakref.WeakSet[Latch]" = weakref.WeakSet()


def assert_no_latch_held(point: str) -> None:
    """Crash-point observer for section 2.5: raise if any latch is held
    while execution passes the crash point ``point``."""
    latch = next(iter(_held), None)
    if latch is not None:
        raise LatchViolationError(
            f"latch {latch.name!r} held by {latch.owner} across "
            f"crash_point({point!r}) (paper section 2.5)"
        )


class Latch:
    """A non-reentrant mutual-exclusion latch with owner tracking."""

    def __init__(self, name: str):
        self.name = name
        self._owner: int | None = None
        self.acquisitions = 0

    def acquire(self, owner: int) -> None:
        if self._owner is not None:
            raise LatchViolationError(
                f"latch {self.name!r} already held by {self._owner} "
                f"(requested by {owner})"
            )
        self._owner = owner
        self.acquisitions += 1
        _held.add(self)

    def release(self, owner: int) -> None:
        if self._owner != owner:
            raise LatchViolationError(
                f"latch {self.name!r} released by {owner} but held by {self._owner}"
            )
        self._owner = None
        _held.discard(self)

    @property
    def held(self) -> bool:
        return self._owner is not None

    @property
    def owner(self) -> int | None:
        return self._owner

    def assert_unheld(self, context: str) -> None:
        """Enforce the no-latch-across-recovery-wait rule of section 2.5."""
        if self._owner is not None:
            raise LatchViolationError(
                f"latch {self.name!r} held by {self._owner} across {context}; "
                f"the holder must release it or abort (paper section 2.5)"
            )

    @contextmanager
    def held_by(self, owner: int) -> Iterator["Latch"]:
        """Context manager: ``with latch.held_by(txn_id): ...``."""
        self.acquire(owner)
        try:
            yield self
        finally:
            self.release(owner)
