"""Dependency-tracked replay of the command log (docs/LOGGING.md).

Value logging recovers a partition by re-applying after-images; command
logging recovers a *transaction* by re-executing its registered script.
The two interleave in one pipeline: restart phase 1 recovers the catalog
(always value-logged), then this planner takes the live command-log
suffix and partitions it into conflict-free batches by the commands'
declared relation access lists (union-find over relation sets — the
dependency oracle of the predeclaration router, after Wu et al.'s
dependency tracking, PAPERS.md).  Two commands that share no relation —
directly or transitively — commute, so each closure replays with no
regard for the others: the restart coordinator keeps the batches pending
and replays one whole when any of its partitions is first touched.

Inside a batch, ordering is exact.  Every partition of the closure is
planned like any other rebuild (:func:`~repro.recovery.redo.plan_rebuild`:
a base image plus its log pages, still bytes), and one position per
stream — (page, offset) — is advanced by the REDO cursor every restart
path walks a log with (:meth:`~repro.wal.log_disk.LogPage.replay`).  A
:class:`~repro.wal.records.CommandBarrier` carrying command ``m``'s csn
marks, in every involved stream, exactly where ``m`` committed relative
to the surrounding value REDO: the cursor halts just past it, the
planner re-executes ``m``'s script inside a :class:`ReplayTransaction`
(which never writes the stable log — replay is idempotent across
repeated crashes), and continues.  Each finished stream is tallied by the
restart coordinator like a rebuild of its own.  The whole plan is
digest-identical to value-mode recovery.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

from repro.catalog.catalog import IndexDescriptor, RelationDescriptor
from repro.common.errors import RecoveryError
from repro.recovery.redo import plan_rebuild
from repro.sim.chaos import crash_point, register_crash_point
from repro.sim.faults import SimulatedCrash
from repro.storage.partition import Partition
from repro.txn.manager import transaction_scope
from repro.txn.transaction import Transaction, TxnState
from repro.wal.records import CommandBarrier, TxnCommand, decode_control

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


def decode_live_commands(db: "Database") -> list[TxnCommand]:
    """The live command-log suffix, decoded, in csn order.

    A csn's payload never changes, so each is decoded once: the result
    replaces ``db.decoded_commands``, which therefore forgets settled
    commands."""
    known = db.decoded_commands
    live: dict[int, TxnCommand] = {}
    for csn, payload in db.slb.live_commands():
        record = known.get(csn)
        if record is None:
            record = _decode_command(csn, payload)
        live[csn] = record
    db.decoded_commands = live
    return list(live.values())


def _decode_command(csn: int, payload: bytes) -> TxnCommand:
    record, _ = decode_control(payload)
    if not isinstance(record, TxnCommand):
        raise RecoveryError(
            f"command log entry {csn} decoded to "
            f"{type(record).__name__}, not TxnCommand"
        )
    if record.csn != csn:
        raise RecoveryError(f"command log entry keyed {csn} carries csn {record.csn}")
    return record


def _closures(commands: list[TxnCommand]) -> list[tuple[set[str], list[TxnCommand]]]:
    """Union-find over declared relation sets.

    Returns ``(relations, commands)`` per connected component, commands
    in csn order, components ordered by their earliest csn.
    """
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


def relation_closure(
    commands: list[TxnCommand], relation_name: str
) -> tuple[set[str], list[TxnCommand]]:
    """The declared closure containing ``relation_name``.

    Returns the component's relation set and its commands (csn order);
    ``(set(), [])`` when no live command declares the relation.  The
    checkpoint manager uses this to decide when a plain checkpoint must
    escalate to a group settlement sweep, and DDL uses it to settle a
    relation before changing its shape.
    """
    for relations, batch in _closures(commands):
        if relation_name in relations:
            return relations, batch
    return set(), []


def closure_members(
    db: "Database", batch: list[TxnCommand]
) -> list[RelationDescriptor | IndexDescriptor]:
    """The relations ``batch`` declares, by name, each followed by its
    indexes: every segment the batch's replay restores."""
    catalog = db.catalog
    members: list[RelationDescriptor | IndexDescriptor] = []
    for name in sorted({name for command in batch for name in command.relations}):
        descriptor = catalog.relation(name)
        members += [descriptor, *map(catalog.index, descriptor.index_names)]
    return members


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


class CommandReplayPlanner:
    """Plans the command replay at restart, and replays one batch."""

    def __init__(self, db: "Database"):
        self.db = db

    # -- planning ---------------------------------------------------------------

    def plan(self) -> list[list[TxnCommand]]:
        """The conflict-free batches of the live commands still to
        replay, replaying none; the plan statistics go on the database as
        ``last_command_replay``, whose ``commands_replayed`` each
        :meth:`replay_batch` adds to."""
        db = self.db
        commands = decode_live_commands(db)
        stats = {
            "live_commands": len(commands),
            "commands_replayed": 0,
            "commands_skipped": 0,
            "batches": 0,
            "max_batch": 0,
        }
        batches = [batch for _, batch in _closures(self._drop_settled(commands, stats))]
        if batches:
            stats["batches"] = len(batches)
            stats["max_batch"] = max(len(batch) for batch in batches)
        db.last_command_replay = stats
        return batches

    def _drop_settled(
        self, commands: list[TxnCommand], stats: dict
    ) -> list[TxnCommand]:
        """Filter out commands whose effects the checkpoint images already
        hold, and prune them from the stable command log."""
        db = self.db
        pending: list[TxnCommand] = []
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
            elif max(watermarks) < command.csn:
                pending.append(command)
            else:
                # Sweeps advance a whole closure's watermark atomically
                # under held locks; a half-settled command means the
                # stable state is inconsistent, not merely stale.
                raise RecoveryError(
                    f"command {command.csn} ({command.name!r}) is settled in "
                    f"some declared relations but not others; refusing to "
                    f"replay against a torn settlement"
                )
        if settled:
            db.slb.discard_commands(settled)
            stats["commands_skipped"] = len(settled)
        return pending

    # -- batch execution ---------------------------------------------------------

    def replay_batch(self, batch: list[TxnCommand]) -> int:
        """Recover one conflict-free closure: plan its partition streams,
        then alternate cursor advances and script re-executions; every
        stream's rebuild is tallied by the restart coordinator."""
        db = self.db
        coordinator = db.restart_coordinator
        if coordinator is None:
            raise RecoveryError("command replay runs during a restart")
        members = closure_members(db, batch)
        index_segments = {
            member.segment_id for member in members if isinstance(member, IndexDescriptor)
        }
        streams: list[tuple[Partition, list[LogPage], dict]] = []
        for member in members:
            for address in member.partition_addresses():
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
            # segments a record was applied to have stale cached mirrors.
            touched: set[int] = set()
            for number, (partition, pages, stats) in enumerate(streams):
                positions[number], applied = _advance(
                    partition, pages, positions[number], (CommandBarrier.TAG, command.csn)
                )
                stats["records_applied"] += applied
                if applied and partition.address.segment in index_segments:
                    touched.add(partition.address.segment)
            db.reload_index_mirrors(touched)
            self._execute(command)
            crash_point("replay.batch.command-executed")
        for (partition, pages, stats), position in zip(streams, positions):
            stats["records_applied"] += _advance(partition, pages, position, None)[1]
            coordinator._note(stats)
        db.reload_index_mirrors(index_segments)
        db.last_command_replay["commands_replayed"] += len(batch)
        return len(batch)

    def _execute(self, command: TxnCommand) -> None:
        db = self.db
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
            with transaction_scope(
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


def replay_live_commands(db: "Database", batch: list[TxnCommand]) -> int:
    """Replay one planned batch — a whole pending closure — on its first
    touch; returns the commands re-executed."""
    return CommandReplayPlanner(db).replay_batch(batch)
