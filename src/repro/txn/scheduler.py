"""Transaction scripts: interleaved execution under no-wait retry.

The paper's per-transaction SLB chains (section 2.3.1) and no-wait
two-phase locking (section 2.3.2) exist so transactions can run
interleaved: committers never serialise on a log tail, and the loser of
a lock conflict is rolled back (UNDO) and restarted from the beginning
with a fresh transaction.  :class:`Scheduler` states that rule once.

A *script* is a generator function that yields between operations:

    def transfer(txn):
        a = accounts.lookup(txn, 1); yield
        accounts.update(txn, a.address, {"balance": a["balance"] - 10}); yield
        b = accounts.lookup(txn, 2); yield
        accounts.update(txn, b.address, {"balance": b["balance"] + 10})

    scheduler = Scheduler(db)
    scheduler.submit(transfer)
    scheduler.submit(transfer)
    results = scheduler.run()

Scripts must be **replayable**: all their effects go through the
transaction (which rollback reverses), and any Python-side state they
mutate is rebuilt on re-execution.

A batch runs as a cooperative round-robin on the calling thread, one
:meth:`Scheduler.advance` per script per pass (docs/API.md has the full
contract).  Results, attempts, transaction ids and every metered total
are a pure function of the batch: one run replays another exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Generator, Iterator

from repro.common.errors import ReproError, TransactionAborted
from repro.txn.manager import settle

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.db.database import Database
    from repro.shard import ShardedDatabase

#: A script body: drives the transaction ``begin()`` returned, yielding
#: between operations.
Script = Callable[[Any], Generator[None, None, None]]


class SchedulerError(ReproError):
    """A scheduler was set up in a way it cannot run."""


@dataclass
class ScriptResult:
    name: str
    committed: bool
    attempts: int
    txn_ids: list[int] = field(default_factory=list)


class _Script:
    """One submission — ``(slot, name, body, begin)`` — and the state of
    its current attempt."""

    def __init__(self, slot: int, name: str, body: Script, begin: Callable[..., Any]):
        self.slot = slot
        self.name = name
        self.body = body
        self.begin = begin
        self.attempts = 0
        self.txn_ids: list[int] = []
        self.txn: Any = None
        self.generator: Iterator[None] | None = None
        #: Slots still to sit out after losing a conflict.
        self.sit_out = 0
        self.result: ScriptResult


class Scheduler:
    """Runs batches of transaction scripts with no-wait retry.

    ``db`` — a :class:`~repro.db.database.Database` or a
    :class:`~repro.shard.ShardedDatabase` — is pumped after each batch.
    A database's scripts begin with ``db.transactions.begin`` by default;
    a cluster's pass ``begin=partial(cluster.begin, relations)``, so one
    batch interleaves local and distributed transactions alike.

    Counters accumulate across runs; a database reports its most recent
    scheduler's through ``Database.stats()["scheduler"]``.
    """

    def __init__(self, db: "Database | ShardedDatabase", max_attempts: int = 20):
        if max_attempts < 1:
            raise SchedulerError("max_attempts must be at least 1")
        self.db = db
        self.max_attempts = max_attempts
        self._batch: list[_Script] = []
        self.committed = 0
        self.failed = 0
        self.conflicts = 0
        self.retries = 0
        self.max_attempts_seen = 0
        self.runs = 0
        db.register_scheduler(self)

    def submit(
        self,
        script: Script,
        name: str | None = None,
        begin: Callable[..., Any] | None = None,
    ) -> None:
        """Queue ``script`` for the next :meth:`run`.

        ``begin(user_data="script:<name>")`` starts each attempt's
        transaction — anything :func:`~repro.txn.manager.settle` can end
        that carries a ``txn_id``; by default ``db.transactions.begin``.
        """
        slot = len(self._batch)
        label = name if name is not None else f"script-{slot}"
        if begin is None:
            begin = self.db.transactions.begin
        self._batch.append(_Script(slot, label, script, begin))

    # -- running ----------------------------------------------------------------

    def run(self) -> list[ScriptResult]:
        """Run every submitted script to a result, then pump ``db``.

        Returns one :class:`ScriptResult` per submission, in submission
        order.  The batch is consumed whether this returns or raises.
        """
        batch, self._batch = self._batch, []
        try:
            self._interleave(batch)
        finally:
            self.runs += 1
        self.db.pump()
        return [script.result for script in batch]

    def advance(self, script: _Script) -> str:
        """Advance one script to its next ``yield``, beginning a fresh
        attempt first if it has none.  Reports ``"running"``,
        ``"committed"`` — its body ended and
        :func:`~repro.txn.manager.settle` committed the transaction,
        local or distributed alike — or ``"retry"``: the step lost a
        lock conflict and the transaction is already rolled back."""
        generator = script.generator
        if generator is None:
            script.attempts += 1
            script.txn = script.begin(user_data=f"script:{script.name}")
            script.txn_ids.append(script.txn.txn_id)
            generator = script.generator = iter(script.body(script.txn))
        try:
            next(generator)
            return "running"
        except StopIteration:
            settle(script.txn)
            return "committed"
        except BaseException as error:
            # a no-wait loser already rolled itself back; a distributed
            # one still has its other branches to settle (presumed abort)
            settle(script.txn, error)
            if isinstance(error, TransactionAborted):
                return "retry"
            raise

    def finish(self, script: _Script, outcome: str) -> bool:
        """Record how an attempt ended (``"committed"`` or ``"retry"``)
        on the tallies.  True when the script is done and its result
        stands; False when it goes round again after sitting out slots
        staggered by attempts and slot, so retrying scripts de-synchronise
        instead of colliding in lockstep (livelock avoidance)."""
        self.max_attempts_seen = max(self.max_attempts_seen, script.attempts)
        if outcome == "retry":
            self.conflicts += 1
            if script.attempts < self.max_attempts:
                self.retries += 1
                script.generator = script.txn = None
                script.sit_out = min(2 * script.attempts + script.slot % 5, 24)
                return False
            self.failed += 1
        else:
            self.committed += 1
        script.result = ScriptResult(
            script.name, outcome == "committed", script.attempts, script.txn_ids
        )
        return True

    def _interleave(self, batch: list[_Script]) -> None:
        """The cooperative driver: each pass over the batch is one slot,
        in which every script not sitting out advances a step."""
        pending = batch
        while pending:
            still_running = []
            for script in pending:
                if script.sit_out > 0:
                    script.sit_out -= 1
                    still_running.append(script)
                    continue
                outcome = self.advance(script)
                if outcome == "running" or not self.finish(script, outcome):
                    still_running.append(script)
            pending = still_running

    # -- observability ----------------------------------------------------------

    def stats(self) -> dict:
        """Counter snapshot for ``Database.stats()["scheduler"]``."""
        return {
            "runs": self.runs,
            "committed": self.committed,
            "failed": self.failed,
            "conflicts": self.conflicts,
            "retries": self.retries,
            "max_attempts_seen": self.max_attempts_seen,
        }
