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

Two drivers advance a batch, chosen by what the database's engine can
do (docs/API.md has the full contract):

* ``db.engine.workers == 1`` — a cooperative round-robin on the calling
  thread, one :meth:`Scheduler.advance` per script per pass.  This is
  the **determinism contract**: results, attempts, transaction ids and
  every metered total are a pure function of the batch.
* otherwise — that many host worker threads each drive one script at a
  time; a backoff slot is :data:`BACKOFF_SLOT_SECONDS` of host time, and
  the first error (a simulated crash included) stops the peers and is
  re-raised on the caller.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Generator, Iterator

from repro.common.errors import ReproError, TransactionAborted
from repro.engine import run_pool
from repro.sim.clock import host_now, host_pause
from repro.txn.manager import settle

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.db.database import Database

#: A script body: drives the transaction ``begin()`` returned, yielding
#: between operations.
Script = Callable[[Any], Generator[None, None, None]]

#: Host seconds per backoff slot on the worker pool (the cooperative
#: driver's slot is one scheduling pass), so the livelock-avoidance
#: stagger survives across threads without a sleeper occupying a worker.
BACKOFF_SLOT_SECONDS = 0.0005

#: Idle poll while the run queue is empty but peers may still requeue.
_IDLE_POLL_SECONDS = 0.0002


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

    def __init__(self, slot: int, name: str, body: Script, begin: Callable[[], Any]):
        self.slot = slot
        self.name = name
        self.body = body
        self.begin = begin
        self.attempts = 0
        self.txn_ids: list[int] = []
        self.txn: Any = None
        self.generator: Iterator[None] | None = None
        #: Slots still to sit out after losing a conflict.
        self.backoff = 0
        self.result: ScriptResult


class Scheduler:
    """Runs batches of transaction scripts with no-wait retry.

    ``db`` supplies the default ``begin``, the driver (see the module
    docstring) and the pump that follows a batch.  A lane that belongs
    to no one database — the shard router's cross-shard lane — passes
    ``None`` and a ``begin`` with every script: with no engine to lend a
    pool its batch interleaves on the caller, who pumps.

    Counters accumulate across runs (the per-worker rows describe the
    last run only); a database reports its most recent scheduler's
    through ``Database.stats()["scheduler"]``.
    """

    def __init__(self, db: "Database | None", max_attempts: int = 20):
        if max_attempts < 1:
            raise SchedulerError("max_attempts must be at least 1")
        self.db = db
        self.max_attempts = max_attempts
        self._batch: list[_Script] = []
        self._tally_mutex = threading.Lock()
        self.committed = 0  # guarded-by: _tally_mutex
        self.failed = 0  # guarded-by: _tally_mutex
        self.conflicts = 0  # guarded-by: _tally_mutex
        self.retries = 0  # guarded-by: _tally_mutex
        self.max_attempts_seen = 0  # guarded-by: _tally_mutex
        self.runs = 0  # guarded-by: _tally_mutex
        self._rows: list[dict] = []  # guarded-by: _tally_mutex
        self._last_elapsed = 0.0  # guarded-by: _tally_mutex
        if db is not None:
            db.register_scheduler(self)

    @property
    def workers(self) -> int:
        """Threads the next :meth:`run` drives scripts on."""
        return 1 if self.db is None else self.db.engine.workers

    def submit(
        self,
        script: Script,
        name: str | None = None,
        begin: Callable[[], Any] | None = None,
    ) -> None:
        """Queue ``script`` for the next :meth:`run`.

        ``begin()`` starts each attempt's transaction — anything
        :func:`~repro.txn.manager.settle` can end that carries a
        ``txn_id``; by default a transaction of ``db``.
        """
        slot = len(self._batch)
        label = name if name is not None else f"script-{slot}"
        if begin is None:
            if self.db is None:
                raise SchedulerError("a scheduler without a database needs begin=")
            begin = partial(self.db.transactions.begin, user_data=f"script:{label}")
        self._batch.append(_Script(slot, label, script, begin))

    # -- running ----------------------------------------------------------------

    def run(self) -> list[ScriptResult]:
        """Run every submitted script to a result, then pump ``db``.

        Returns one :class:`ScriptResult` per submission, in submission
        order.  The batch is consumed whether this returns or raises.
        """
        batch, self._batch = self._batch, []
        rows = [
            {"worker": i, "scripts": 0, "committed": 0, "conflicts": 0,
             "busy_seconds": 0.0}
            for i in range(self.workers)
        ]
        started = host_now()
        try:
            if len(rows) == 1:
                self._interleave(batch, rows[0])
            else:
                self._pool(batch, rows)
        finally:
            with self._tally_mutex:
                self.runs += 1
                self._rows = rows
                self._last_elapsed = host_now() - started
        if self.db is not None:
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
            script.txn = script.begin()
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

    def finish(self, script: _Script, outcome: str, row: dict) -> bool:
        """Record how an attempt ended (``"committed"`` or ``"retry"``)
        on the tallies and the driving worker's ``row``.  True when the
        script is done and its result stands; False when it goes round
        again after a backoff staggered by attempts and slot, so
        retrying scripts de-synchronise instead of colliding in lockstep
        (livelock avoidance)."""
        with self._tally_mutex:
            self.max_attempts_seen = max(self.max_attempts_seen, script.attempts)
            if outcome == "retry":
                self.conflicts += 1
                row["conflicts"] += 1
                if script.attempts < self.max_attempts:
                    self.retries += 1
                    script.generator = script.txn = None
                    script.backoff = min(2 * script.attempts + script.slot % 5, 24)
                    return False
                self.failed += 1
            else:
                self.committed += 1
                row["committed"] += 1
            row["scripts"] += 1
        script.result = ScriptResult(
            script.name, outcome == "committed", script.attempts, script.txn_ids
        )
        return True

    def _interleave(self, batch: list[_Script], row: dict) -> None:
        """The cooperative driver: each pass over the batch is one slot,
        in which every script not sitting out a backoff advances a step."""
        started = host_now()
        try:
            pending = batch
            while pending:
                still_running = []
                for script in pending:
                    if script.backoff > 0:
                        script.backoff -= 1
                        still_running.append(script)
                        continue
                    outcome = self.advance(script)
                    if outcome == "running" or not self.finish(script, outcome, row):
                        still_running.append(script)
                pending = still_running
        finally:
            row["busy_seconds"] = host_now() - started

    def _pool(self, batch: list[_Script], rows: list[dict]) -> None:
        """The worker-pool driver: one thread per row, each driving one
        script attempt at a time to its outcome."""
        queue = deque((0.0, script) for script in batch)  # (ready at, script)
        queue_mutex = threading.Lock()
        outstanding = len(batch)
        stop = threading.Event()
        failures: list[BaseException] = []  # what set ``stop``, first one first

        def take() -> tuple[_Script | None, float]:
            """Pop the first ready script, else (None, seconds-to-sleep);
            ``(None, 0.0)`` when the run is over for this worker."""
            with queue_mutex:
                if stop.is_set() or outstanding == 0:
                    return None, 0.0
                now = host_now()
                wake = None
                for _ in range(len(queue)):
                    when, candidate = queue.popleft()
                    if when <= now:
                        return candidate, 0.0
                    queue.append((when, candidate))
                    wake = when if wake is None else min(wake, when)
                if wake is None:
                    # queue drained but peers still executing: they may
                    # requeue on conflict, so poll briefly
                    return None, _IDLE_POLL_SECONDS
                return None, min(max(wake - now, _IDLE_POLL_SECONDS), 0.05)

        def worker(row: dict) -> None:
            nonlocal outstanding
            while not stop.is_set():
                script, sleep_for = take()
                if script is None:
                    if sleep_for <= 0.0:
                        return
                    host_pause(sleep_for)
                    continue
                busy_start = host_now()
                try:
                    outcome = self._drive(script, stop, failures)
                except BaseException as error:
                    # the pool ferries it to the caller, simulated
                    # crashes included — first error wins, peers just stop
                    failures.append(error)
                    stop.set()
                    raise
                finally:
                    row["busy_seconds"] += host_now() - busy_start
                if outcome == "stopped":
                    continue  # a peer failed; _drive settled the transaction
                done = self.finish(script, outcome, row)
                with queue_mutex:
                    if done:
                        outstanding -= 1
                    else:
                        pause = script.backoff * BACKOFF_SLOT_SECONDS
                        queue.append((host_now() + pause, script))

        run_pool(worker, rows, workers=len(rows), name="repro-txn-worker")

    def _drive(
        self, script: _Script, stop: threading.Event, failures: list[BaseException]
    ) -> str:
        """Run one script attempt to a terminal outcome on this thread.

        Steps yield-by-yield so a stop requested by a failing peer is
        honoured between operations and chaos crash points can
        interleave mid-script.  A stopped script's transaction ends as
        if its own body had raised the peer's error: rolled back — or,
        after a simulated crash, left untouched.
        """
        while True:
            if stop.is_set():
                if script.txn is not None:
                    try:
                        settle(script.txn, failures[0])
                    except Exception:  # repro-check: ignore[RC04]
                        pass  # best-effort cleanup while unwinding a peer failure
                return "stopped"
            outcome = self.advance(script)
            if outcome != "running":
                return outcome

    # -- observability ----------------------------------------------------------

    def stats(self) -> dict:
        """Counter snapshot for ``Database.stats()["scheduler"]``, taken
        under the tally mutex so it is consistent against a concurrent
        :meth:`run`."""
        with self._tally_mutex:
            elapsed = self._last_elapsed
            return {
                "workers": self.workers,
                "runs": self.runs,
                "committed": self.committed,
                "failed": self.failed,
                "conflicts": self.conflicts,
                "retries": self.retries,
                "max_attempts_seen": self.max_attempts_seen,
                "per_worker": [
                    dict(
                        row,
                        utilisation=(
                            min(1.0, row["busy_seconds"] / elapsed) if elapsed > 0 else 0.0
                        ),
                    )
                    for row in self._rows
                ],
            }
