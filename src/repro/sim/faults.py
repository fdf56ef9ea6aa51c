"""Fault injection for the crash experiments.

The paper motivates recovery with power loss, chip burnout, and runaway
software (section 1).  All of them share one observable effect in our
model: *volatile state is gone, stable state survives*.
:class:`SimulatedCrash` is that effect as an exception, raised at a
deterministic point by :mod:`repro.sim.chaos` so crash scenarios are
reproducible.

Beyond whole-system crashes, real devices also fail *transiently*: a
controller hiccup or bus timeout makes one operation fail while the
media underneath is fine.  :class:`TransientIOError` models that class,
:func:`run_with_retry` retries it within a budget before escalating to a
hard :class:`~repro.common.errors.MediaFailure`, and
each device counts what happened under :data:`IO_COUNTERS` so
``Database.stats()["transient_io"]`` can surface it.
"""

from __future__ import annotations

from typing import Callable, TypeVar

from repro.common.counters import Counters
from repro.common.errors import MediaFailure, ReproError


class TornWriteError(ReproError):
    """A disk block was only partially written when the system crashed."""


class SimulatedCrash(ReproError):
    """Raised at the injected crash point; the harness catches it and calls
    ``Database.crash()``."""


class TransientIOError(ReproError):
    """A device operation failed transiently (controller hiccup, dropped
    interrupt, bus timeout): the same operation, retried, may well
    succeed.  Distinct from :class:`~repro.common.errors.MediaFailure`,
    which means the data is genuinely gone on every copy."""


#: Retries allowed per duplexed I/O operation when no budget is given
#: (``SystemConfig.io_retry_budget``'s default).
DEFAULT_RETRY_BUDGET = 4


#: A device's transient-fault counters (:class:`~repro.common.counters.Counters`
#: names): ``faults`` every transient error observed, ``retries`` the ones
#: absorbed within the budget, ``escalations`` the ones that became a hard
#: :class:`~repro.common.errors.MediaFailure` — split by read/write side
#: so tests can pin exactly which path escalated.
IO_COUNTERS = tuple(
    f"{kind}_{what}"
    for kind in ("read", "write")
    for what in ("faults", "retries", "escalations")
)


_T = TypeVar("_T")


def run_with_retry(
    operation: Callable[[], _T],
    budget: int,
    stats: Counters,
    kind: str,
    context: str,
) -> _T:
    """Run ``operation``, absorbing transient faults within the budget.

    Each :class:`TransientIOError` is counted; faults within ``budget``
    retry at once, the one past it escalates to
    :class:`~repro.common.errors.MediaFailure` (counted separately).
    Every other exception — including a hard ``MediaFailure`` from the
    device itself — passes through untouched.
    """
    attempt = 0
    while True:
        try:
            return operation()
        except TransientIOError as exc:
            attempt += 1
            stats.inc(f"{kind}_faults")
            if attempt > budget:
                stats.inc(f"{kind}_escalations")
                raise MediaFailure(
                    f"{context}: transient I/O fault persisted past the "
                    f"retry budget ({budget}): {exc}"
                ) from exc
            stats.inc(f"{kind}_retries")
