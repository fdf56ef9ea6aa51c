"""The recovery oracle: a logical digest of committed state.

Recovery is only *proved* correct when post-restart state is compared
against what was committed before the crash.  :func:`logical_digest`
hashes everything a transaction can observe — catalog descriptors, every
entity of every resident partition, every string-heap value — while
excluding allocation counters (``next_offset`` / ``next_handle``), which
aborted transactions advance but REDO replay legitimately does not, and
*empty partitions* (the partition and its descriptor entry): growing a
segment is structural, and the empty partition an aborted insert leaves
behind is nothing a transaction can observe.

:func:`committed_digests` reads, at the crash and before ``crash()``,
the digest each database must recover to; after restart and full
recovery the recovered digest must be byte-identical to it
(:func:`repro.sim.chaos.crash_restart_verify` is the one place that
compares).

:func:`log_order_violations` checks what the digest cannot see: that
each partition's REDO stream holds its transactions in commit order, and
:func:`serialization_violations` that the conflicts behind it do too.
"""

from __future__ import annotations

import dataclasses
import hashlib
from collections import Counter
from itertools import combinations, groupby
from typing import TYPE_CHECKING

from repro.common.errors import RecoveryError
from repro.concurrency.locks import LockMode, join
from repro.recovery.redo import partition_record_stream
from repro.wal.records import txn_ids

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.db.database import Database


def logical_digest(db: "Database", slots: bool = True) -> str:
    """SHA-256 over the database's committed logical state.

    Deterministic: descriptors in name order, each followed by its
    segment's occupied partitions, entities, and heap strings in address
    order (the catalog's own entities *are* the descriptors).  Requires
    every partition to be memory-resident (run full recovery first).
    ``slots=False`` leaves each partition's checkpoint slot out: a media
    restore images everything afresh, so across one only the rest can
    match.
    """
    h = hashlib.sha256()
    for descriptor in [*db.catalog.relations(), *db.catalog.indexes()]:
        segment = db.memory.segment(descriptor.segment_id)
        missing = segment.missing_partitions()
        if missing:
            raise RecoveryError(
                f"digest needs full residency; segment {segment.segment_id} "
                f"is missing partitions {missing}"
            )
        occupied = [p for p in segment.resident_partitions() if len(p) or len(p.heap)]
        listed = {
            number: descriptor.partitions[number] if slots else None
            for number in (p.address.partition for p in occupied)
        }
        h.update(b"D")
        h.update(dataclasses.replace(descriptor, partitions=listed).encode())
        for partition in occupied:
            h.update(
                f"P{partition.address.segment}:{partition.address.partition}".encode()
            )
            for offset, data in partition.entities():
                h.update(f"E{offset}:{len(data)}".encode())
                h.update(data)
            heap = partition.heap
            for handle in heap.handles():
                data = heap.get(handle)
                h.update(f"H{handle}:{len(data)}".encode())
                h.update(data)
    return h.hexdigest()


def committed_digests(databases: "list[Database]", slots: bool = True) -> list[str]:
    """The digest each of ``databases`` must recover to, read at the crash.

    A crash loses only volatile memory, and only committed REDO is stable
    (§2.3), so recovery must produce memory as it stood at the crash with
    every uncommitted transaction's UNDO applied.  This applies it, newest
    transaction first, with :meth:`Transaction._rollback` — never
    ``abort()``, which would also free the SLB chain restart reads — and
    leaves stable storage alone: a bin or checkpoint block an unfinished
    transaction claimed is restart's to find.  A
    prepared 2PC branch stays when its coordinator's verdict is commit
    (:func:`~repro.recovery.restart.in_doubt_verdicts`) and is rolled back
    otherwise (presumed abort).  Memory is left rolled back: call each
    database's ``crash()`` next.  ``slots`` is :func:`logical_digest`'s.
    """
    from repro.recovery.restart import in_doubt_verdicts
    from repro.txn.transaction import TxnState

    digests = []
    for db in databases:
        decided = {
            txn_id for txn_id, _, verdict in in_doubt_verdicts(db) if verdict == "commit"
        }
        for txn in reversed(db.transactions.active_transactions()):
            if txn.state is TxnState.ACTIVE or (
                txn.state is TxnState.PREPARED and txn.txn_id not in decided
            ):
                txn._rollback(crashing=True)
        digests.append(logical_digest(db, slots))
    return digests


def log_order_violations(db: "Database") -> list[str]:
    """Where a partition's REDO stream breaks commit order.

    The recovery CPU deposits each committed chain whole, in commit order,
    so in every stream :func:`~repro.recovery.redo.plan_rebuild` starts
    from (Zhou et al.'s constraint):

    * (a) each transaction's records form one run;
    * (b) runs of transactions the audit trail saw commit follow the
      order of their ``commit`` entries;
    * (c) no two partitions order a pair of transactions oppositely;
    * (d) no id begins twice in the audit trail: the SLB keeps the id
      sequence across a crash, so an id names one transaction.

    (b) skips a transaction with no ``commit`` entry: one the crash
    caught between its SLB commit and its audit entry, or an in-doubt
    branch restart committed.  An empty list means none found.
    """
    trail = db.audit.trail()
    begun = Counter(entry.txn_id for entry in trail if entry.event == "begin")
    commit_at = {entry.txn_id: at for at, entry in enumerate(trail) if entry.event == "commit"}
    problems = [f"txn {txn} began {count} times" for txn, count in begun.items() if count > 1]
    ranks = {}
    for bin_ in db.slt.bins():
        pages, _ = partition_record_stream(bin_, db.log_disk)
        ids = [txn for page in pages for txn in txn_ids(page.body)]
        runs = [txn for txn, _ in groupby(ids)]
        where = bin_.partition
        problems += [
            f"{where}: txn {txn}'s records are split into {count} runs"
            for txn, count in Counter(runs).items()
            if count > 1
        ]
        committed = [txn for txn in runs if txn in commit_at]
        problems += [
            f"{where}: txn {later} is logged after txn {earlier} but committed first"
            for earlier, later in zip(committed, committed[1:])
            if commit_at[earlier] > commit_at[later]
        ]
        ranks[where] = {txn: rank for rank, txn in enumerate(runs)}
    for (one, rank_one), (other, rank_other) in combinations(ranks.items(), 2):
        shared = sorted(rank_one.keys() & rank_other.keys(), key=rank_one.__getitem__)
        problems += [
            f"{one} logs txn {first} before txn {second}, {other} after it"
            for first, second in zip(shared, shared[1:])
            if rank_other[first] > rank_other[second]
        ]
    return problems


#: The modes a writer takes: a conflict's kind is ``"rw"[mode in _WRITES]`` per side.
_WRITES = frozenset({LockMode.INTENT_EXCLUSIVE, LockMode.EXCLUSIVE})


def serialization_violations(grants, commits) -> list[str]:
    """Where a conflict between committed transactions runs against commit order.

    ``grants`` is a database's lock grants in order, ``(txn id, resource,
    mode)``, and ``commits`` its ids in commit order.  A grant (as the join of
    its transaction's modes there) incompatible with an earlier one is a wr, ww
    or rw edge; strict 2PL held the earlier lock to its commit, so every edge
    between committed transactions follows commit order, and the graph is
    acyclic."""
    rank = {txn: at for at, txn in enumerate(commits)}
    granted: dict = {}  # resource -> mode -> committed txns granted it, in order
    held: dict = {}
    problems: dict[str, None] = {}
    for txn, resource, mode in grants:
        if txn not in rank:
            continue
        wanted = held[txn, resource] = join(held.get((txn, resource), mode), mode)
        by_mode = granted.setdefault(resource, {})
        for earlier, others in by_mode.items():
            if wanted.compatible_with(earlier):
                continue
            kind = "rw"[earlier in _WRITES] + "rw"[wanted in _WRITES]
            for other in others:
                if rank[other] > rank[txn]:
                    problems[f"txn {other} -> txn {txn} ({kind} on {resource!r}), "
                             f"but txn {txn} committed first"] = None
        by_mode.setdefault(wanted, {})[txn] = None
    return list(problems)
