"""The live command suffix and its dependency-tracked replay (docs/LOGGING.md).

Value logging recovers a partition by re-applying after-images; command
logging recovers a *transaction* by re-executing its registered script.
:class:`LiveCommands` is the one owner of the live command-log suffix:
it reads it from stable memory and groups it into closures by the
commands' declared relation access lists (union-find over relation sets
— the dependency oracle of the predeclaration router, after Wu et al.'s
dependency tracking, PAPERS.md).  Two commands that share no relation — directly or
transitively — commute, so each closure replays with no regard for the
others: after restart phase 1 recovers the catalog (always value-logged),
:func:`plan_replay` hands the closures to the restart coordinator, which
keeps them pending and replays one whole when any of its partitions is
first touched.

Inside a closure, ordering is exact.  Every partition of the closure is
planned like any other rebuild (:func:`~repro.recovery.redo.plan_rebuild`:
a base image plus its log pages, still bytes), and one position per
stream — (page, offset) — is advanced by the REDO cursor every restart
path walks a log with (:meth:`~repro.wal.log_disk.LogPage.replay`).  A
:class:`~repro.wal.records.CommandBarrier` carrying command ``m``'s csn
marks, in every involved stream, exactly where ``m`` committed relative
to the surrounding value REDO: the cursor halts just past it,
:func:`replay_live_commands` re-executes ``m``'s script inside a
:class:`ReplayTransaction` (which never writes the stable log — replay is
idempotent across repeated crashes), and continues.  Each finished stream
is tallied by the restart coordinator like a rebuild of its own.  The
whole plan is digest-identical to value-mode recovery.
"""

from __future__ import annotations

import json
from operator import attrgetter
from typing import TYPE_CHECKING, Iterable

from repro.common.errors import RecoveryError
from repro.common.types import PartitionAddress
from repro.recovery.redo import plan_rebuild
from repro.sim.chaos import crash_point, register_crash_point
from repro.sim.faults import SimulatedCrash
from repro.storage.partition import Partition
from repro.txn.manager import TransactionScope
from repro.txn.transaction import Transaction, TxnState
from repro.wal.records import CommandBarrier, TxnCommand

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.db.database import Database
    from repro.wal.log_disk import LogPage

register_crash_point(
    "replay.batch.before-command",
    "replay: stream cursors at a command's barriers, script not yet re-run",
)
register_crash_point(
    "replay.batch.command-executed",
    "replay: a command's script re-executed, tail records not yet applied",
)

#: A replay transaction's id is this plus its command's csn: far above the
#: user range, so audit trails and lock tables can never confuse the two.
REPLAY_TXN_BASE = 1_000_000_000


class LiveCommands:
    """The three questions asked of the stable command log's live suffix
    — the closures, the closure covering a segment, and the partitions a
    set of relations covers — answered from the log itself, which keeps
    no copy of it: :meth:`settle` is the one way a command leaves the
    log, and the next read no longer sees it.
    """

    def __init__(self, db: "Database"):
        self.db = db

    def settle(self, csns: Iterable[int]) -> None:
        """Prune settled commands — their effects live in the checkpoint
        images — from the stable command log."""
        self.db.slb.discard_commands(csns)

    def live(self) -> list[TxnCommand]:
        """The live suffix, in csn order."""
        return self.db.slb.live_commands()

    def closures(self) -> list[tuple[set[str], list[TxnCommand]]]:
        """Union-find over the live commands' declared relation sets.

        Returns ``(relations, commands)`` per connected component, commands
        in csn order, components ordered by their earliest csn.
        """
        commands = self.live()
        parent: dict[str, str] = {}

        def find(name: str) -> str:
            root = name
            while parent[root] != root:
                root = parent[root]
            while parent[name] != root:  # path compression
                parent[name], name = root, parent[name]
            return root

        for command in commands:
            for name in command.relations:
                parent.setdefault(name, name)
            first = find(command.relations[0])
            for name in command.relations[1:]:
                parent[find(name)] = first
        groups: dict[str, tuple[set[str], list[TxnCommand]]] = {}
        for name in parent:
            groups.setdefault(find(name), (set(), []))[0].add(name)
        for command in commands:
            groups[find(command.relations[0])][1].append(command)
        return [
            groups[root]
            for root in sorted(
                (root for root, (_, batch) in groups.items() if batch),
                key=lambda root: groups[root][1][0].csn,
            )
        ]

    def closure_of(self, segment_id: int) -> tuple[set[str], list[TxnCommand]]:
        """The live closure covering ``segment_id`` — a relation's own or
        one of its indexes' — as ``(relations, commands)``; ``(set(), [])``
        when no live command declares that relation, or for the catalog's
        segment, which is always value-logged.  A checkpoint of any of its
        partitions must settle the closure whole, and so must the DDL
        fence (docs/LOGGING.md)."""
        closures = self.closures()
        catalog = self.db.catalog
        if closures and segment_id != catalog.segment.segment_id:
            name = catalog.relation_of_segment(segment_id).name
            for relations, commands in closures:
                if name in relations:
                    return relations, commands
        return set(), []

    def partitions(self, relations: Iterable[str]) -> list[PartitionAddress]:
        """Every partition of ``relations`` and of their indexes, relations
        by segment id: the cut a settlement copies, and what a closure's
        replay restores."""
        catalog = self.db.catalog
        ordered = sorted(map(catalog.relation, relations), key=attrgetter("segment_id"))
        return [
            address
            for member in catalog.with_indexes(relation.name for relation in ordered)
            for address in member.partition_addresses()
        ]


def plan_replay(db: "Database") -> list[tuple[set[str], list[TxnCommand]]]:
    """The closures of the live commands still to replay, replaying none.

    Commands whose effects the checkpoint images already hold are pruned
    from the stable command log first.  The plan statistics go on the
    database as ``last_command_replay`` (``None`` with no live command),
    whose ``commands_replayed`` each :func:`replay_live_commands` adds to.
    """
    commands = db.commands.live()
    db.last_command_replay = None
    if not commands:
        return []
    settled: list[int] = []
    for command in commands:
        watermarks = []
        for name in command.relations:
            if not db.catalog.has_relation(name):
                raise RecoveryError(
                    f"command {command.csn} ({command.name!r}) declares "
                    f"relation {name!r}, which no longer exists; live "
                    f"commands must be settled before dropping their "
                    f"relations"
                )
            watermarks.append(db.catalog.relation(name).command_watermark)
        if min(watermarks) >= command.csn:
            settled.append(command.csn)
        elif max(watermarks) >= command.csn:
            # Sweeps advance a whole closure's watermark atomically
            # under held locks; a half-settled command means the
            # stable state is inconsistent, not merely stale.
            raise RecoveryError(
                f"command {command.csn} ({command.name!r}) is settled in "
                f"some declared relations but not others; refusing to "
                f"replay against a torn settlement"
            )
    db.commands.settle(settled)
    closures = db.commands.closures()
    db.last_command_replay = {
        "live_commands": len(commands),
        "commands_replayed": 0,
        "commands_skipped": len(settled),
        "batches": len(closures),
        "max_batch": max((len(batch) for _, batch in closures), default=0),
    }
    return closures


class ReplayTransaction(Transaction):
    """The transaction a script re-executes under at replay.

    Same locking, UNDO, rollback and epilogue as a live transaction, but
    it never touches stable memory — only those steps are replaced here;
    like any command-logged transaction it appends no REDO record.  A
    crash during replay therefore leaves the stable state
    byte-identical, and the next restart re-runs the same plan from the
    same inputs — replay is idempotent by construction.
    """

    def _open(self, user_data: str) -> None:
        """No SLB chain, no ``begin`` audit entry."""

    def _commit_as_command(self) -> None:
        # The command is already in the stable command log: nothing is
        # emitted and nothing becomes durable, so no observer either.
        self._end(TxnState.COMMITTED)

    def _discard_chain(self) -> None:
        """No chain to free."""

    def _record_end(self, event: str) -> None:
        """No audit entry, and the manager never tracked this transaction."""


def _advance(
    partition: Partition,
    pages: list[LogPage],
    position: tuple[int, int],
    until: tuple[int, int] | None,
) -> tuple[tuple[int, int], int]:
    """Walk one stream from ``position`` — (page, cursor offset) — until
    the REDO cursor halts at ``until`` (``None``: the end); returns the
    new position and the records applied."""
    page, offset = position
    applied = 0
    while page < len(pages):
        count, halt = pages[page].replay(partition, offset, until)
        applied += count
        if halt is not None:
            return (page, halt), applied
        page, offset = page + 1, 0
    return (page, 0), applied


def replay_live_commands(db: "Database", batch: list[TxnCommand]) -> int:
    """Replay one planned closure whole, on its first touch: plan its
    partition streams, then alternate cursor advances and script
    re-executions; every stream's rebuild is tallied by the restart
    coordinator.  Returns the commands re-executed."""
    coordinator = db.restart_coordinator
    if coordinator is None:
        raise RecoveryError("command replay runs during a restart")
    relations = {name for command in batch for name in command.relations}
    index_segments = {
        index.segment_id for name in relations for index in db.catalog.indexes_of(name)
    }
    streams: list[tuple[Partition, list[LogPage], dict]] = []
    start = db.clock.now
    for address in db.commands.partitions(relations):
        partition, pages, stats = plan_rebuild(**coordinator._sources(address))
        stats["records_applied"] = 0
        streams.append((partition, pages, stats))
    for partition, _, _ in streams:
        db.memory.segment(partition.address.segment).install(partition)
    positions = [(0, 0)] * len(streams)
    for command in batch:
        crash_point("replay.batch.before-command")
        # Each stream stops just past the command's own barrier, or in
        # front of a later command's: that partition joined the
        # relation after this one committed.  A stream that runs dry
        # had its bin reset by a checkpoint acknowledgement; the
        # re-execution regenerates its effects.  Only the index
        # segments a record was applied to have stale hash counts.
        touched: set[int] = set()
        for number, (partition, pages, stats) in enumerate(streams):
            positions[number], applied = _advance(
                partition, pages, positions[number], (CommandBarrier.TAG, command.csn)
            )
            stats["records_applied"] += applied
            if applied and partition.address.segment in index_segments:
                touched.add(partition.address.segment)
        db.forget_index_counts(touched)
        reexecute(db, command)
        crash_point("replay.batch.command-executed")
    for (partition, pages, stats), position in zip(streams, positions):
        stats["records_applied"] += _advance(partition, pages, position, None)[1]
    # The streams replay interleaved, so the closure is timed once, on its
    # first partition's record.
    seconds = db.clock.now - start
    for partition, _, stats in streams:
        coordinator._note(partition.address, stats, seconds, "closure")
        seconds = 0.0
    db.forget_index_counts(index_segments)
    db.last_command_replay["commands_replayed"] += len(batch)
    return len(batch)


def reexecute(db: "Database", command: TxnCommand) -> None:
    """Re-run ``command``'s registered script in a :class:`ReplayTransaction`."""
    info = db.scripts.get_for_replay(command.name, command.version)
    if tuple(info.relations) != tuple(command.relations):
        raise RecoveryError(
            f"script {command.name!r} was logged declaring "
            f"{list(command.relations)} but now declares "
            f"{list(info.relations)}; the replay plan's dependency "
            f"batches would be unsound"
        )
    try:
        args = json.loads(command.args.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise RecoveryError(
            f"command {command.csn} ({command.name!r}) carries "
            f"undecodable arguments: {exc}"
        ) from exc
    try:
        with TransactionScope(
            ReplayTransaction,
            db=db,
            txn_id=REPLAY_TXN_BASE + command.csn,
            command=(command.name, command.version, command.args),
            declared_relations=command.relations,
        ) as txn:
            # The same exclusive declared-set locks the original commit
            # held; batches are relation-disjoint, and no transaction
            # locks a closure before it replays, so these always grant.
            txn.lock_declared()
            info.fn(txn, *args)
    except (RecoveryError, SimulatedCrash):
        raise  # neither is the script failing
    except Exception as exc:
        raise RecoveryError(
            f"re-executing command {command.csn} ({command.name!r}) "
            f"failed: {exc}"
        ) from exc
