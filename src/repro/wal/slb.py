"""The Stable Log Buffer (SLB).

Section 2.3.1: REDO log records are placed in stable memory so that
transactions commit *instantly* — they never wait for a log-disk flush.
The SLB is managed as a set of fixed-size blocks handed to transactions on
demand (a record longer than a block gets one block of its own length);
a block belongs to one transaction for its lifetime, so critical
sections are needed only for block allocation, never for log writing —
this removes the classical log-tail hot spot.

A block holds its records as the ``bytes`` objects their classes'
``pack`` made, full form, in order, with a tally of their bytes that
decides when it is full; nothing is copied or re-parsed on the way to
the recovery CPU, which gets the records themselves.  Chains of blocks
live on one of two lists: the *uncommitted* transaction list and
the *committed* transaction list, the latter kept in commit order so the
recovery CPU can drain records to the Stable Log Tail in that order.
After a crash the committed list (stable) is drained normally and the
uncommitted list is discarded — those transactions never committed.

The SLB also hosts the system's well-known communication areas (the
checkpoint request queue of section 2.4 and the catalog partition address
list of section 2.5), exposed through :meth:`put_well_known` /
:meth:`get_well_known`, and the two records that are no REDO: each
prepared chain's :class:`~repro.wal.records.TxnPrepare` and the stable
command log of :class:`~repro.wal.records.TxnCommand` objects.  Stable
memory holds live structures, so both are kept as the objects they are.
"""

from __future__ import annotations

from typing import Iterator

from repro.common.errors import StableMemoryFullError, TransactionStateError
from repro.concurrency.latch import Latch
from repro.sim.stable_memory import StableMemory
from repro.wal.records import TxnCommand, TxnPrepare

#: Stable bytes reserved for the well-known communication areas.
WELL_KNOWN_RESERVE = 64 * 1024

#: Well-known key of the stable command log: TxnCommand records keyed
#: by command sequence number, plus the sequence counter itself.
#: Lives beside the checkpoint queue and catalog locations — command
#: records never enter the bin-sort pipeline (docs/LOGGING.md).
COMMAND_LOG_KEY = "command-log"


class _LogBlock:
    """One fixed-size block of the SLB, dedicated to a single transaction:
    its records, full form, in order, and their byte total."""

    __slots__ = ("block_id", "records", "nbytes")

    def __init__(self, block_id: int):
        self.block_id = block_id
        self.records: list[bytes] = []
        self.nbytes = 0


class TransactionLogChain:
    """The chain of SLB blocks belonging to one transaction, with its
    record and byte tallies."""

    def __init__(self, txn_id: int):
        self.txn_id = txn_id
        self.blocks: list[_LogBlock] = []
        self.record_count = 0
        self.nbytes = 0

    def records(self) -> Iterator[bytes]:
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
        self._next_block_id = 1
        self._uncommitted: dict[int, TransactionLogChain] = {}
        #: Committed chains in commit order, awaiting the recovery CPU.
        self._committed: list[TransactionLogChain] = []
        #: Prepared chains (2PC participants awaiting the coordinator's
        #: verdict), keyed by txn id with the branch's TxnPrepare.
        #: Stable like the committed list: a crash keeps these chains and
        #: restart resolves them from the coordinator's decision table.
        self._prepared: dict[int, tuple[TransactionLogChain, TxnPrepare]] = {}
        self._well_known: dict[str, object] = {}
        self.stable.allocate("slb-well-known", WELL_KNOWN_RESERVE, self._well_known)
        # statistics: each ending is counted once, at the stable
        # transition that makes it so (stable, so they survive a crash)
        self.records_written = 0
        self.bytes_written = 0
        self.aborts = 0
        self.prepares = 0
        self.next_txn_id = 1  # stable: after a restart no id names two transactions
        #: Per-logging-mode commit counts and stable log bytes, keyed by
        #: the mode a transaction committed under ("value", "command");
        #: the commit tally is their sum (:attr:`commits`).
        self.mode_commits: dict[str, int] = {}
        self.mode_bytes: dict[str, int] = {}

    # -- transaction chains ------------------------------------------------------

    def open_chain(self, txn_id: int) -> TransactionLogChain:
        if txn_id in self._uncommitted:
            raise TransactionStateError(f"txn {txn_id} already has an open chain")
        chain = TransactionLogChain(txn_id)
        self._uncommitted[txn_id] = chain
        return chain

    def append(self, txn_id: int, record: bytes) -> None:
        """Write one encoded REDO record into the transaction's chain.

        Raises :class:`StableMemoryFullError` when no block can be
        allocated — the main CPU must let the recovery CPU drain the
        committed list and retry (back-pressure).
        """
        # one frame per record: _require_open only to refuse, _fill's step inline
        chain = self._uncommitted.get(txn_id) or self._require_open(txn_id)
        size = len(record)
        blocks = chain.blocks
        if not blocks or blocks[-1].nbytes + size > self.block_size:
            block = self._allocate_block(chain, size)
        else:
            block = blocks[-1]
        block.records.append(record)
        block.nbytes += size
        chain.record_count += 1
        chain.nbytes += size
        self.bytes_written += size
        self.records_written += 1

    def _fill(self, chain: TransactionLogChain, records) -> int:
        """Append ``records`` in order, each to the chain's last block or to
        a fresh one when it does not fit; returns the bytes appended."""
        appended = 0
        for record in records:
            size = len(record)
            blocks = chain.blocks
            if not blocks or blocks[-1].nbytes + size > self.block_size:
                block = self._allocate_block(chain, size)
            else:
                block = blocks[-1]
            block.records.append(record)
            block.nbytes += size
            chain.record_count += 1
            chain.nbytes += size
            appended += size
        return appended

    def _repack(self, chain: TransactionLogChain, kept, unwritten=()) -> int:
        """Rebuild the chain to hold exactly ``kept``: free its blocks and
        refill (never needs more blocks than it freed).  ``unwritten``
        names records an open chain lost for good — rolled back or
        converted away, they never reach the log, so they leave the
        written counters too.  Returns how many."""
        self._free_chain(chain)
        chain.blocks = []
        chain.record_count = chain.nbytes = 0
        self._fill(chain, kept)
        self.records_written -= len(unwritten)
        self.bytes_written -= sum(map(len, unwritten))
        return len(unwritten)

    def _allocate_block(self, chain: TransactionLogChain, record_size: int) -> _LogBlock:
        """A fresh block for the chain, its first record ``record_size``
        bytes long: a record longer than a block goes whole into one
        block of its own length, and stable memory is charged for that."""
        # Block allocation is the one critical section of the log path.
        latch, owner = self.block_latch, chain.txn_id
        latch.acquire(owner)
        try:
            block_id = self._next_block_id
            try:
                self.stable.allocate(
                    f"slb-block-{block_id}", max(self.block_size, record_size)
                )
            except StableMemoryFullError:
                raise StableMemoryFullError(
                    "Stable Log Buffer exhausted; drain committed records"
                ) from None
            self._next_block_id += 1
            block = _LogBlock(block_id)
            chain.blocks.append(block)
            return block
        finally:
            latch.release(owner)

    def _require_open(self, txn_id: int) -> TransactionLogChain:
        try:
            return self._uncommitted[txn_id]
        except KeyError:
            raise TransactionStateError(
                f"txn {txn_id} has no open log chain"
            ) from None

    # -- commit / abort --------------------------------------------------------------

    def commit(self, txn_id: int, mode: str = "value", extra_bytes: int = 0) -> None:
        """Move the chain to the committed list (in commit order).

        This is the *entire* commit-time log work: the records are already
        in stable memory, so the transaction is durable the moment the
        chain changes lists.  It is the commit point of every mode: the
        commit is counted, with its stable log bytes, under ``mode``.
        """
        # _require_open only to refuse
        chain = self._uncommitted.pop(txn_id, None) or self._require_open(txn_id)
        self._committed.append(chain)
        self.mode_commits[mode] = self.mode_commits.get(mode, 0) + 1
        self.mode_bytes[mode] = self.mode_bytes.get(mode, 0) + chain.nbytes + extra_bytes

    @property
    def commits(self) -> int:
        """Transactions committed since the SLB was created."""
        return sum(self.mode_commits.values())

    def abort(self, txn_id: int) -> None:
        """Discard the chain of an aborting transaction and free its blocks."""
        chain = self._uncommitted.pop(txn_id, None)
        if chain is None:
            return
        self._free_chain(chain)
        self.aborts += 1

    # -- command logging (docs/LOGGING.md) ----------------------------------------------

    def _command_log(self) -> dict:
        log = self._well_known.get(COMMAND_LOG_KEY)
        if log is None:
            log = {"seq": 0, "entries": {}}
            self._well_known[COMMAND_LOG_KEY] = log
        return log

    @property
    def command_seq(self) -> int:
        """Highest command sequence number assigned so far (stable)."""
        return self._command_log()["seq"]

    def commit_command(self, txn_id: int, build) -> int:
        """Commit a command-logged transaction atomically.

        ``build(csn)`` returns ``(command, barriers)`` — the
        :class:`~repro.wal.records.TxnCommand` for the freshly assigned
        sequence number and the encoded
        :class:`~repro.wal.records.CommandBarrier` records to append to
        the chain.  In one step: the csn is assigned, the command lands
        in the stable command log, the barriers join the chain, and the
        chain moves to the committed list — so the commit point is
        exactly the same stable-memory transition value mode uses, just
        with a different record mix.  The command counts its
        :attr:`~repro.wal.records.TxnCommand.size_bytes` as logged bytes.

        Raises :class:`StableMemoryFullError` with the chain intact (the
        caller drains and retries) if the barriers need a block the SLB
        cannot allocate.
        """
        chain = self._require_open(txn_id)
        log = self._command_log()
        csn = log["seq"] + 1
        command, barriers = build(csn)
        mark = chain.record_count
        try:
            filled = self._fill(chain, barriers)
        except StableMemoryFullError:
            # Unwind the partial barrier append; the chain must look
            # exactly as it did so the caller can drain and retry.
            if chain.record_count > mark:
                self._repack(chain, list(chain.records())[:mark])
            raise
        size = command.size_bytes
        self.records_written += len(barriers)
        self.bytes_written += filled + size
        log["seq"] = csn
        log["entries"][csn] = command
        self.commit(txn_id, "command", size)
        return csn

    def live_commands(self) -> list[TxnCommand]:
        """Every unsettled command, in csn order (the order they joined)."""
        return list(self._command_log()["entries"].values())

    def discard_commands(self, csns) -> int:
        """Drop settled commands (their effects are in checkpoint images)."""
        entries = self._command_log()["entries"]
        removed = 0
        for csn in list(csns):
            if entries.pop(csn, None) is not None:
                removed += 1
        return removed

    def mode_stats(self) -> tuple[dict[str, int], dict[str, int]]:
        """A snapshot of the per-mode commit/byte counters."""
        return dict(self.mode_commits), dict(self.mode_bytes)

    # -- two-phase commit (repro.shard) ------------------------------------------------

    def prepare(self, txn_id: int, record: TxnPrepare) -> None:
        """Move the chain to the prepared list with its PREPARE record.

        The chain's blocks are already stable, so — exactly like commit —
        the prepare is durable the moment the chain changes lists.  The
        :class:`~repro.wal.records.TxnPrepare` travels with the chain so
        restart can resolve the branch without the coordinator process
        (it names the coordinator shard to consult).
        """
        chain = self._require_open(txn_id)
        del self._uncommitted[txn_id]
        self._prepared[txn_id] = (chain, record)
        self.prepares += 1

    def _take_prepared(self, txn_id: int) -> TransactionLogChain:
        try:
            return self._prepared.pop(txn_id)[0]
        except KeyError:
            raise TransactionStateError(f"txn {txn_id} has no prepared chain") from None

    def commit_prepared(self, txn_id: int) -> None:
        """Phase-2 COMMIT: append the prepared chain to the committed list,
        through the one commit point."""
        self._uncommitted[txn_id] = self._take_prepared(txn_id)
        self.commit(txn_id)

    def abort_prepared(self, txn_id: int) -> None:
        """Phase-2 ABORT (or presumed abort at restart): free the chain."""
        self._free_chain(self._take_prepared(txn_id))
        self.aborts += 1

    def prepared_txns(self) -> list[tuple[int, TxnPrepare]]:
        """``(txn_id, TxnPrepare)`` for every in-doubt chain."""
        return [(txn_id, record) for txn_id, (_, record) in sorted(self._prepared.items())]

    @property
    def prepared_txn_ids(self) -> list[int]:
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
        chain = self._require_open(txn_id)
        if keep_records < 0:
            raise ValueError("keep_records cannot be negative")
        records = list(chain.records())
        removed = records[keep_records:]
        return self._repack(chain, records[:keep_records], removed) if removed else 0

    # -- recovery-CPU drain ------------------------------------------------------------

    def committed_record_count(self) -> int:
        return sum(chain.record_count for chain in self._committed)

    def drain_committed(self) -> list[bytes]:
        """Remove and return the committed records in commit order, each
        the full-form ``bytes`` its chain holds.

        The recovery CPU calls this to feed the Stable Log Tail.  Blocks
        are freed as their chains are consumed.
        """
        drained: list[bytes] = []
        committed = self._committed
        for chain in committed:
            if chain.blocks:  # a read-only chain holds none to free
                for block in chain.blocks:
                    drained += block.records
                self._free_chain(chain)
        committed.clear()
        return drained

    def requeue_committed(self, records: list[bytes]) -> None:
        """Return drained-but-unsorted records to the head of the
        committed list.

        The recovery CPU's SLB → SLT move is a stable-to-stable transfer:
        when a crash interrupts its sorting loop, records it drained but
        never deposited must reappear for the post-restart drain, in their
        original commit order, or committed work would be lost.
        """
        if not records:
            return
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
        count = len(self._uncommitted)
        for chain in self._uncommitted.values():
            self._free_chain(chain)
        self._uncommitted.clear()
        return count

    # -- well-known communication areas -----------------------------------------------------

    def put_well_known(self, key: str, value: object) -> None:
        """Store a value in the SLB's well-known area (survives crashes)."""
        self._well_known[key] = value

    def get_well_known(self, key: str, default: object = None) -> object:
        return self._well_known.get(key, default)

    # -- inspection ---------------------------------------------------------------------------

    @property
    def uncommitted_txn_ids(self) -> list[int]:
        return sorted(self._uncommitted)

    @property
    def committed_chain_count(self) -> int:
        return len(self._committed)

    def used_blocks(self) -> int:
        return (
            sum(len(chain.blocks) for chain in self._uncommitted.values())
            + sum(len(chain.blocks) for chain, _ in self._prepared.values())
            + sum(len(chain.blocks) for chain in self._committed)
        )
