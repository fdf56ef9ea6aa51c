"""Interleaved transaction execution.

The simulation is single-threaded, but real contention still matters:
two transactions interleaved at operation granularity hit each other's
two-phase locks.  :class:`InterleavedScheduler` round-robins *transaction
scripts* — generator functions that yield between operations — so lock
conflicts actually occur, and resolves them the way the no-wait policy
dictates: the losing transaction is rolled back (UNDO) and its script is
restarted from the beginning with a fresh transaction.

Scripts must therefore be **replayable**: all their effects go through
the transaction (which rollback reverses), and any Python-side state
they mutate is rebuilt on re-execution.

    def transfer(txn):
        a = accounts.lookup(txn, 1); yield
        accounts.update(txn, a.address, {"balance": a["balance"] - 10}); yield
        b = accounts.lookup(txn, 2); yield
        accounts.update(txn, b.address, {"balance": b["balance"] + 10})

    scheduler = InterleavedScheduler(db)
    scheduler.submit(transfer)
    scheduler.submit(transfer)
    results = scheduler.run()
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Generator, Iterator

from repro.common.errors import ReproError, TransactionAborted
from repro.txn.manager import settle
from repro.txn.transaction import Transaction

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.db.database import Database

Script = Callable[[Transaction], Generator[None, None, None]]


class SchedulerError(ReproError):
    """A script exceeded its retry budget or misbehaved."""


@dataclass
class ScriptResult:
    name: str
    committed: bool
    attempts: int
    txn_ids: list[int] = field(default_factory=list)


class _RunningScript:
    def __init__(self, name: str, script: Script, max_attempts: int, slot: int):
        self.name = name
        self.script = script
        self.max_attempts = max_attempts
        self.slot = slot
        self.attempts = 0
        self.txn_ids: list[int] = []
        self.generator: Iterator[None] | None = None
        self.txn: Transaction | None = None
        #: Scheduling slots to sit out after losing a conflict; staggered
        #: by attempts and slot so retrying scripts de-synchronise instead
        #: of colliding in lockstep (livelock avoidance).
        self.backoff = 0

    def next_backoff(self) -> int:
        return min(2 * self.attempts + self.slot % 5, 24)

    def start(self, db: "Database") -> None:
        self.attempts += 1
        self.txn = db.transactions.begin(user_data=f"script:{self.name}")
        self.txn_ids.append(self.txn.txn_id)
        self.generator = iter(self.script(self.txn))


class InterleavedScheduler:
    """Round-robin executor for transaction scripts with retry."""

    def __init__(self, db: "Database", max_attempts: int = 20):
        if max_attempts < 1:
            raise SchedulerError("max_attempts must be at least 1")
        self.db = db
        self.max_attempts = max_attempts
        self._scripts: list[_RunningScript] = []
        self.conflicts = 0

    def submit(self, script: Script, name: str | None = None) -> None:
        label = name if name is not None else f"script-{len(self._scripts)}"
        self._scripts.append(
            _RunningScript(label, script, self.max_attempts, len(self._scripts))
        )

    def run(self) -> list[ScriptResult]:
        """Interleave all submitted scripts to completion, then pump.
        Returns per-script results in submission order.

        Each scheduling slot advances one script by one :meth:`_step` (up
        to its next ``yield``), which reports ``"running"``,
        ``"committed"`` or ``"retry"`` — the step lost a lock conflict and
        its transaction is already rolled back.  A retry requeues the
        script from the beginning after a staggered backoff, or fails it
        once its retry budget is spent.
        """
        pending = list(self._scripts)
        results: dict[str, ScriptResult] = {}
        while pending:
            still_running: list[_RunningScript] = []
            for running in pending:
                if running.backoff > 0:
                    running.backoff -= 1
                    still_running.append(running)
                    continue
                outcome = self._step(running)
                if outcome == "running":
                    still_running.append(running)
                elif outcome == "retry":
                    self.conflicts += 1
                    if running.attempts >= running.max_attempts:
                        results[running.name] = ScriptResult(
                            running.name, False, running.attempts, running.txn_ids
                        )
                    else:
                        running.generator = None
                        running.txn = None
                        running.backoff = running.next_backoff()
                        still_running.append(running)
                else:  # committed
                    results[running.name] = ScriptResult(
                        running.name, True, running.attempts, running.txn_ids
                    )
            pending = still_running
        ordered = [results[s.name] for s in self._scripts]
        self.db.pump()
        self._scripts.clear()
        return ordered

    def _step(self, running: _RunningScript) -> str:
        """Advance one script to its next ``yield``; when its body ends,
        :func:`~repro.txn.manager.settle` ends its transaction — local or
        distributed alike."""
        if running.generator is None:
            running.start(self.db)
        try:
            next(running.generator)  # type: ignore[arg-type]
            return "running"
        except StopIteration:
            settle(running.txn)
            return "committed"
        except BaseException as error:
            # a no-wait loser already rolled itself back; a distributed
            # one still has its other branches to settle (presumed abort)
            settle(running.txn, error)
            if isinstance(error, TransactionAborted):
                return "retry"
            raise
