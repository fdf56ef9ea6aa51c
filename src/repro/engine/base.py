"""The execution-engine interface.

An engine decides *where* the recovery component's duties run — inline on
the caller (deterministic simulation) or on dedicated host threads (the
paper's genuinely concurrent two-processor hardware).  The database and
its services call only this interface; everything engine-specific stays
behind it.

What runs between transactions, and in which order, is fixed once by
:data:`DUTIES`; how many restores run at once is fixed by ``workers``
and :func:`~repro.engine.pool.run_pool`.  A concrete engine supplies
only :meth:`ExecutionEngine._dispatch`.
"""

from __future__ import annotations

import abc
from operator import attrgetter
from typing import TYPE_CHECKING, Callable

from repro.common.types import PartitionAddress
from repro.engine.pool import run_pool
from repro.sim.chaos import crash_point, register_crash_point

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.db.database import Database

register_crash_point(
    "engine.restore.before-partition",
    "restart phase 2: a restore worker claimed a partition, rebuild not "
    "yet started (fires on every engine's restore path)",
)

#: Paper sections 2.2/2.4: the recovery CPU sorts, flushes, requests and
#: acknowledges checkpoints; the main CPU runs the checkpoint (and
#: recovery) transactions themselves.
RECOVERY_CPU = "recovery-cpu"
MAIN_CPU = "main-cpu"

#: The between-transactions duty sequence, in the paper's order: sort,
#: acknowledge, checkpoint, acknowledge, one background restore step,
#: one idle-time condense slice.  Each entry resolves the duty on the
#: database at pump time and names the processor that owns it.
DUTIES = tuple(
    (attrgetter(duty), processor)
    for duty, processor in (
        ("recovery_processor.run_until_drained", RECOVERY_CPU),
        ("recovery_processor.acknowledge_finished", RECOVERY_CPU),
        ("checkpoints.process_pending", MAIN_CPU),
        ("recovery_processor.acknowledge_finished", RECOVERY_CPU),
        ("background_restore", MAIN_CPU),
        ("condenser.step", RECOVERY_CPU),
    )
)


class ExecutionEngine(abc.ABC):
    """Scheduling policy for the recovery processor and restart work."""

    #: Short identifier used by monitoring and benchmarks.
    name: str = "abstract"
    #: Size of the restore worker pool; one means every fan-out runs
    #: inline on the caller, in input order.
    workers: int = 1
    #: Host-thread name prefix of the engine's threads.
    thread_prefix: str = "repro"

    def __init__(self) -> None:
        self.db: "Database | None" = None

    def attach(self, db: "Database") -> None:
        """Bind this engine to its database (called once from wiring)."""
        if self.db is not None and self.db is not db:
            raise RuntimeError("engine is already attached to a database")
        self.db = db

    def _require_db(self) -> "Database":
        if self.db is None:
            raise RuntimeError("engine is not attached to a database")
        return self.db

    # -- scheduling hooks -----------------------------------------------------

    @abc.abstractmethod
    def _dispatch(self, duty: Callable[[], object], processor: str):
        """Run one duty where this engine hosts ``processor``; return its
        result or re-raise its exception on the caller."""

    def drain_log(self) -> int:
        """Run the recovery processor until the committed SLB is empty.

        Used at commit barriers, during restart phase 1, and by the main
        CPU's back-pressure stall when the SLB fills.  Returns the number
        of records sorted.
        """
        processor = self._require_db().recovery_processor
        return self._dispatch(processor.run_until_drained, RECOVERY_CPU)

    def pump(self) -> None:
        """Run the between-transactions duties of both processors, one
        at a time in :data:`DUTIES` order."""
        db = self._require_db()
        for duty, processor in DUTIES:
            self._dispatch(duty(db), processor)

    def restore_partitions(self, addresses: list[PartitionAddress]) -> int:
        """Restore the given partitions (restart phase 2 bulk path).

        Returns how many were actually rebuilt now (already-resident ones
        count zero).  On failure every address not completed is requeued
        on the restart coordinator before the first error propagates.
        """
        coordinator = self._require_db().restart_coordinator
        if coordinator is None:
            return 0
        completed = [False] * len(addresses)

        def restore(index: int) -> bool:
            crash_point("engine.restore.before-partition")
            rebuilt = coordinator.recover_partition(addresses[index]) is not None
            completed[index] = True
            return rebuilt

        try:
            return sum(
                run_pool(
                    restore,
                    range(len(addresses)),
                    workers=self.workers,
                    name=f"{self.thread_prefix}-restore",
                )
            )
        except BaseException:
            coordinator.requeue(
                [a for a, done in zip(addresses, completed) if not done]
            )
            raise

    def restore_map(self, fn, items: list) -> list:
        """Apply ``fn`` to every item of a restore fan-out, returning the
        results in input order.

        Command replay uses this seam to recover independent closures
        on the worker pool, the way restart phase 2 restores missing
        partitions.  The first error stops the pool and propagates; items
        not yet started are abandoned (the caller owns any retry policy).
        """
        return run_pool(
            fn,
            items,
            workers=self.workers,
            name=f"{self.thread_prefix}-replay",
        )

    def shutdown(self) -> None:
        """Release engine resources (threads).  Idempotent."""
