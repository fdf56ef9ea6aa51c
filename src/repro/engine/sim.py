"""The deterministic cooperative engine.

Both processors' duties run inline on the caller's thread in a fixed
order.  This keeps the CPU instruction metering — and therefore
``benchmarks/bench_sim_vs_model.py``'s comparison against the
closed-form model of paper section 3.2 — bit-for-bit reproducible from
run to run.
"""

from __future__ import annotations

from operator import attrgetter
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.db.database import Database

#: The between-transactions duty sequence, in the paper's order (sections
#: 2.2/2.4): the recovery CPU sorts (acknowledging any finished checkpoint
#: first), the main CPU runs the checkpoint transactions, the recovery CPU
#: acknowledges them, the main CPU takes one background restore step.
#: Each entry resolves the duty on the database at pump time.
DUTIES = tuple(
    attrgetter(duty)
    for duty in (
        "recovery_processor.run_until_drained",
        "checkpoints.process_pending",
        "recovery_processor.acknowledge_finished",
        "background_restore",
    )
)


class SimEngine:
    """Cooperative single-threaded scheduling of both processors."""

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

    def drain_log(self) -> int:
        """Run the recovery processor until the committed SLB is empty.

        Used at commit barriers, during restart phase 1, and by the main
        CPU's back-pressure stall when the SLB fills.  Returns the number
        of records sorted.
        """
        return self._require_db().recovery_processor.run_until_drained()

    def pump(self) -> None:
        """Run the between-transactions duties of both processors, one
        at a time in :data:`DUTIES` order."""
        db = self.db or self._require_db()  # _require_db only to refuse
        for duty in DUTIES:
            duty(db)()
