"""The Stable Log Buffer (SLB).

Section 2.3.1: REDO log records are placed in stable memory so that
transactions commit *instantly* — they never wait for a log-disk flush.
The SLB is managed as a set of fixed-size blocks handed to transactions on
demand; a block belongs to one transaction for its lifetime, so critical
sections are needed only for block allocation, never for log writing —
this removes the classical log-tail hot spot.

Chains of blocks live on one of two lists: the *uncommitted* transaction
list and the *committed* transaction list, the latter kept in commit order
so the recovery CPU can drain records to the Stable Log Tail in that
order.  After a crash the committed list (stable) is drained normally and
the uncommitted list is discarded — those transactions never committed.

The SLB also hosts the system's well-known communication areas (the
checkpoint request queue of section 2.4 and the catalog partition address
list of section 2.5), exposed through :meth:`put_well_known` /
:meth:`get_well_known`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Iterator

from repro.common.errors import StableMemoryFullError, TransactionStateError
from repro.concurrency.latch import Latch
from repro.sim.stable_memory import StableMemory
from repro.wal.records import RedoRecord

#: Stable bytes reserved for the well-known communication areas.
WELL_KNOWN_RESERVE = 64 * 1024

#: Well-known key of the stable command log: encoded TxnCommand records
#: keyed by command sequence number, plus the sequence counter itself.
#: Lives beside the checkpoint queue and catalog locations — command
#: records never enter the bin-sort pipeline (docs/LOGGING.md).
COMMAND_LOG_KEY = "command-log"


@dataclass
class _LogBlock:
    """One fixed-size block of the SLB, dedicated to a single transaction."""

    block_id: int
    records: list[RedoRecord] = field(default_factory=list)
    used_bytes: int = 0


class TransactionLogChain:
    """The chain of SLB blocks belonging to one transaction."""

    def __init__(self, txn_id: int):
        self.txn_id = txn_id
        self.blocks: list[_LogBlock] = []
        self.record_count = 0

    @property
    def logged_bytes(self) -> int:
        return sum(block.used_bytes for block in self.blocks)

    def records(self) -> Iterator[RedoRecord]:
        for block in self.blocks:
            yield from block.records


class StableLogBuffer:
    """Stable RAM region holding per-transaction REDO chains."""

    def __init__(self, stable: StableMemory, block_size: int):
        if block_size <= 0:
            raise ValueError("block_size must be positive")
        self.stable = stable
        self.block_size = block_size
        self.block_latch = Latch("slb-block-free-list")
        self._next_block_id = 1  # guarded-by: _mutex
        self._uncommitted: dict[int, TransactionLogChain] = {}  # guarded-by: _mutex
        #: Committed chains in commit order, awaiting the recovery CPU.
        self._committed: list[TransactionLogChain] = []  # guarded-by: _mutex
        #: Prepared chains (2PC participants awaiting the coordinator's
        #: verdict), keyed by txn id with the encoded TxnPrepare record.
        #: Stable like the committed list: a crash keeps these chains and
        #: restart resolves them from the coordinator's decision table.
        self._prepared: dict[int, tuple[TransactionLogChain, bytes]] = {}  # guarded-by: _mutex
        self._well_known: dict[str, object] = {}  # guarded-by: _mutex
        self.stable.allocate("slb-well-known", WELL_KNOWN_RESERVE, self._well_known)
        #: Serialises the chain lists and statistics between the main
        #: CPU's transaction threads and the recovery thread's drain.
        #: Lock order: ``_mutex`` → ``block_latch`` → stable-memory lock;
        #: the block latch is only ever taken under the mutex, so its
        #: raise-on-contention semantics stay meaningful (a contended
        #: latch would indicate a hole in the mutex discipline).
        self._mutex = threading.RLock()
        # statistics: each ending is counted once, at the stable
        # transition that makes it so (stable, so they survive a crash)
        self.records_written = 0
        self.bytes_written = 0
        self.aborts = 0
        self.prepares = 0
        #: Per-logging-mode commit counts and stable log bytes, keyed by
        #: the mode a transaction committed under ("value", "command");
        #: the commit tally is their sum (:attr:`commits`).
        self.mode_commits: dict[str, int] = {}  # guarded-by: _mutex
        self.mode_bytes: dict[str, int] = {}  # guarded-by: _mutex

    # -- transaction chains ------------------------------------------------------

    def open_chain(self, txn_id: int) -> TransactionLogChain:
        with self._mutex:
            if txn_id in self._uncommitted:
                raise TransactionStateError(f"txn {txn_id} already has an open chain")
            chain = TransactionLogChain(txn_id)
            self._uncommitted[txn_id] = chain
            return chain

    def append(self, txn_id: int, record: RedoRecord) -> None:
        """Write one REDO record into the transaction's chain.

        Raises :class:`StableMemoryFullError` when no block can be
        allocated — the main CPU must let the recovery CPU drain the
        committed list and retry (back-pressure).
        """
        with self._mutex:
            self._fill(self._require_open(txn_id), (record,))
            self.records_written += 1
            self.bytes_written += record.size_bytes

    def _fill(self, chain: TransactionLogChain, records) -> None:  # caller-holds: _mutex
        """Append ``records`` to the chain's last block, allocating a
        fresh block whenever the next record does not fit."""
        block = chain.blocks[-1] if chain.blocks else None
        for record in records:
            size = record.size_bytes
            if block is None or block.used_bytes + size > self.block_size:
                block = self._allocate_block(chain)
            block.records.append(record)
            block.used_bytes += size
            chain.record_count += 1

    def _repack(self, chain: TransactionLogChain, kept, unwritten=()) -> int:  # caller-holds: _mutex
        """Rebuild the chain to hold exactly ``kept``: free its blocks and
        refill (never needs more blocks than it freed).  ``unwritten``
        names records an open chain lost for good — rolled back or
        converted away, they never reach the log, so they leave the
        written counters too; drained records do not.  Returns how many."""
        self._free_chain(chain)
        chain.blocks = []
        chain.record_count = 0
        self._fill(chain, kept)
        self.records_written -= len(unwritten)
        self.bytes_written -= sum(record.size_bytes for record in unwritten)
        return len(unwritten)

    def _allocate_block(self, chain: TransactionLogChain) -> _LogBlock:  # caller-holds: _mutex
        # Block allocation is the one critical section of the log path.
        with self.block_latch.held_by(chain.txn_id):
            block_id = self._next_block_id
            try:
                self.stable.allocate(f"slb-block-{block_id}", self.block_size)
            except StableMemoryFullError:
                raise StableMemoryFullError(
                    "Stable Log Buffer exhausted; drain committed records"
                ) from None
            self._next_block_id += 1
            block = _LogBlock(block_id)
            chain.blocks.append(block)
            return block

    def _require_open(self, txn_id: int) -> TransactionLogChain:  # caller-holds: _mutex
        try:
            return self._uncommitted[txn_id]
        except KeyError:
            raise TransactionStateError(
                f"txn {txn_id} has no open log chain"
            ) from None

    # -- commit / abort --------------------------------------------------------------

    def commit(self, txn_id: int) -> None:
        """Move the chain to the committed list (in commit order).

        This is the *entire* commit-time log work: the records are already
        in stable memory, so the transaction is durable the moment the
        chain changes lists.
        """
        with self._mutex:
            chain = self._require_open(txn_id)
            del self._uncommitted[txn_id]
            self._join_committed(chain, "value")

    def _join_committed(  # caller-holds: _mutex
        self, chain: TransactionLogChain, mode: str, extra_bytes: int = 0
    ) -> None:
        """The commit point of every mode: the chain is on the committed
        list, in commit order, for the recovery CPU to drain — and the
        commit is counted, with its stable log bytes, under ``mode``."""
        self._committed.append(chain)
        self.mode_commits[mode] = self.mode_commits.get(mode, 0) + 1
        self.mode_bytes[mode] = (
            self.mode_bytes.get(mode, 0) + chain.logged_bytes + extra_bytes
        )

    @property
    def commits(self) -> int:
        """Transactions committed since the SLB was created."""
        with self._mutex:
            return sum(self.mode_commits.values())

    def abort(self, txn_id: int) -> None:
        """Discard the chain of an aborting transaction and free its blocks."""
        with self._mutex:
            chain = self._uncommitted.pop(txn_id, None)
            if chain is None:
                return
            self._free_chain(chain)
            self.aborts += 1

    # -- command logging (docs/LOGGING.md) ----------------------------------------------

    def _command_log(self) -> dict:  # caller-holds: _mutex
        log = self._well_known.get(COMMAND_LOG_KEY)
        if log is None:
            log = {"seq": 0, "entries": {}}
            self._well_known[COMMAND_LOG_KEY] = log
        return log

    @property
    def command_seq(self) -> int:
        """Highest command sequence number assigned so far (stable)."""
        with self._mutex:
            return self._command_log()["seq"]

    def commit_command(self, txn_id: int, build) -> int:
        """Commit a command-logged transaction atomically.

        ``build(csn)`` returns ``(payload, barriers)`` — the encoded
        :class:`~repro.wal.records.TxnCommand` for the freshly assigned
        sequence number and the :class:`~repro.wal.records.CommandBarrier`
        records to append to the chain.  Under one mutex hold: the csn is
        assigned, the command record lands in the stable command log, the
        barriers join the chain, and the chain moves to the committed
        list — so the commit point is exactly the same stable-memory
        transition value mode uses, just with a different record mix.

        Raises :class:`StableMemoryFullError` with the chain intact (the
        caller drains and retries) if the barriers need a block the SLB
        cannot allocate.
        """
        with self._mutex:
            chain = self._require_open(txn_id)
            log = self._command_log()
            csn = log["seq"] + 1
            payload, barriers = build(csn)
            mark = chain.record_count
            try:
                self._fill(chain, barriers)
            except StableMemoryFullError:
                # Unwind the partial barrier append; the chain must look
                # exactly as it did so the caller can drain and retry.
                if chain.record_count > mark:
                    self._repack(chain, list(chain.records())[:mark])
                raise
            self.records_written += len(barriers)
            self.bytes_written += sum(b.size_bytes for b in barriers) + len(payload)
            log["seq"] = csn
            log["entries"][csn] = bytes(payload)
            del self._uncommitted[txn_id]
            self._join_committed(chain, "command", len(payload))
            return csn

    def live_commands(self) -> list[tuple[int, bytes]]:
        """``(csn, encoded TxnCommand)`` for every unsettled command."""
        with self._mutex:
            entries = self._command_log()["entries"]
            return sorted(entries.items())

    def discard_commands(self, csns) -> int:
        """Drop settled commands (their effects are in checkpoint images)."""
        with self._mutex:
            entries = self._command_log()["entries"]
            removed = 0
            for csn in list(csns):
                if entries.pop(csn, None) is not None:
                    removed += 1
            return removed

    def mode_stats(self) -> tuple[dict[str, int], dict[str, int]]:
        """A consistent snapshot of the per-mode commit/byte counters."""
        with self._mutex:
            return dict(self.mode_commits), dict(self.mode_bytes)

    # -- two-phase commit (repro.shard) ------------------------------------------------

    def prepare(self, txn_id: int, prepare_record: bytes) -> None:
        """Move the chain to the prepared list with its PREPARE record.

        The chain's blocks are already stable, so — exactly like commit —
        the prepare is durable the moment the chain changes lists.  The
        encoded :class:`~repro.wal.records.TxnPrepare` travels with the
        chain so restart can resolve the branch without the coordinator
        process (it names the coordinator shard to consult).
        """
        with self._mutex:
            chain = self._require_open(txn_id)
            del self._uncommitted[txn_id]
            self._prepared[txn_id] = (chain, bytes(prepare_record))
            self.prepares += 1

    def _take_prepared(self, txn_id: int) -> TransactionLogChain:  # caller-holds: _mutex
        try:
            return self._prepared.pop(txn_id)[0]
        except KeyError:
            raise TransactionStateError(f"txn {txn_id} has no prepared chain") from None

    def commit_prepared(self, txn_id: int) -> None:
        """Phase-2 COMMIT: append the prepared chain to the committed list."""
        with self._mutex:
            self._join_committed(self._take_prepared(txn_id), "value")

    def abort_prepared(self, txn_id: int) -> None:
        """Phase-2 ABORT (or presumed abort at restart): free the chain."""
        with self._mutex:
            self._free_chain(self._take_prepared(txn_id))
            self.aborts += 1

    def prepared_txns(self) -> list[tuple[int, bytes]]:
        """``(txn_id, encoded TxnPrepare)`` for every in-doubt chain."""
        with self._mutex:
            return [
                (txn_id, payload)
                for txn_id, (_, payload) in sorted(self._prepared.items())
            ]

    @property
    def prepared_txn_ids(self) -> list[int]:
        with self._mutex:
            return sorted(self._prepared)

    def _free_chain(self, chain: TransactionLogChain) -> None:
        for block in chain.blocks:
            self.stable.release(f"slb-block-{block.block_id}")

    def truncate_chain(self, txn_id: int, keep_records: int) -> int:
        """Discard a chain's records beyond the first ``keep_records``.

        Used by statement-level rollback: a failed operation's REDO
        records must leave the stable chain, or replay after a later
        commit would reapply work the statement rolled back.  Returns the
        number of records removed.
        """
        with self._mutex:
            chain = self._require_open(txn_id)
            if keep_records < 0:
                raise ValueError("keep_records cannot be negative")
            records = list(chain.records())
            removed = records[keep_records:]
            return self._repack(chain, records[:keep_records], removed) if removed else 0

    # -- recovery-CPU drain ------------------------------------------------------------

    def committed_record_count(self) -> int:
        with self._mutex:
            return sum(chain.record_count for chain in self._committed)

    def drain_committed(self, max_records: int | None = None) -> list[RedoRecord]:
        """Remove and return committed records in commit order.

        The recovery CPU calls this to feed the Stable Log Tail.  Blocks
        are freed as their chains are fully consumed.  ``max_records``
        bounds one drain step so the simulation can interleave work.
        """
        drained: list[RedoRecord] = []
        with self._mutex:
            while self._committed:
                chain = self._committed[0]
                remaining = None if max_records is None else max_records - len(drained)
                if remaining is not None and remaining <= 0:
                    break
                records = list(chain.records())
                if remaining is not None and len(records) > remaining:
                    # Partially drain the head chain: keep the tail records.
                    drained.extend(records[:remaining])
                    self._repack(chain, records[remaining:])
                    break
                drained.extend(records)
                self._committed.pop(0)
                self._free_chain(chain)
        return drained

    def requeue_committed(self, records: list[RedoRecord]) -> None:
        """Return drained-but-unsorted records to the head of the
        committed list.

        The recovery CPU's SLB → SLT move is a stable-to-stable transfer:
        when a crash interrupts its sorting loop, records it drained but
        never deposited must reappear for the post-restart drain, in their
        original commit order, or committed work would be lost.
        """
        if not records:
            return
        with self._mutex:
            chain = TransactionLogChain(-1)
            self._fill(chain, records)
            self._committed.insert(0, chain)

    # -- crash behaviour -----------------------------------------------------------------

    def discard_uncommitted(self) -> int:
        """Post-crash policy: drop chains of transactions that never
        committed.  Returns the number of chains discarded.

        Prepared chains are *kept*: a prepared branch promised the
        coordinator it could still commit, so only in-doubt resolution
        (restart consulting the decision table) may settle its fate.
        """
        with self._mutex:
            count = len(self._uncommitted)
            for chain in self._uncommitted.values():
                self._free_chain(chain)
            self._uncommitted.clear()
            return count

    # -- well-known communication areas -----------------------------------------------------

    def put_well_known(self, key: str, value: object) -> None:
        """Store a value in the SLB's well-known area (survives crashes)."""
        with self._mutex:
            self._well_known[key] = value

    def get_well_known(self, key: str, default: object = None) -> object:
        with self._mutex:
            return self._well_known.get(key, default)

    # -- inspection ---------------------------------------------------------------------------

    @property
    def uncommitted_txn_ids(self) -> list[int]:
        with self._mutex:
            return sorted(self._uncommitted)

    @property
    def committed_chain_count(self) -> int:
        with self._mutex:
            return len(self._committed)

    def used_blocks(self) -> int:
        with self._mutex:
            return (
                sum(len(chain.blocks) for chain in self._uncommitted.values())
                + sum(len(chain.blocks) for chain, _ in self._prepared.values())
                + sum(len(chain.blocks) for chain in self._committed)
            )
