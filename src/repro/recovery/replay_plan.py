"""Dependency-tracked parallel replay of the command log (docs/LOGGING.md).

Value logging recovers a partition by re-applying after-images; command
logging recovers a *transaction* by re-executing its registered script.
The two interleave in one pipeline: restart phase 1 recovers the catalog
(always value-logged), then this planner takes the live command-log
suffix, partitions it into conflict-free batches by the commands'
declared relation access lists (union-find over relation sets — the
dependency oracle of the predeclaration router), and fans the batches
out on the engine's ``restore_map``.  Two commands that share no
relation — directly or transitively — commute, so their closures replay
on different workers with no coordination.

Inside a batch, ordering is exact.  Every partition of the closure is
loaded as a record *stream* (a base image plus the ordered REDO still to
apply, both chosen by
:meth:`~repro.recovery.restart.RestartCoordinator.plan`), and a cursor
per stream advances through the value records.  A
:class:`~repro.wal.records.CommandBarrier` carrying command ``m``'s csn
marks, in every involved stream, exactly where ``m`` committed relative
to the surrounding value REDO: the planner applies records up to the
barriers, re-executes ``m``'s script inside a :class:`ReplayTransaction`
(which never writes the stable log — replay is idempotent across
repeated crashes), and continues.  With one worker, or under the
simulation engine, the whole plan degenerates to serial replay that is
digest-identical to value-mode recovery.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.common.errors import RecoveryError
from repro.common.types import PartitionAddress
from repro.sim.chaos import crash_point, register_crash_point
from repro.sim.faults import SimulatedCrash
from repro.storage.partition import Partition
from repro.txn.manager import transaction_scope
from repro.txn.transaction import Transaction, TxnState
from repro.wal.records import CommandBarrier, RedoRecord, TxnCommand, decode_control

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.db.database import Database

register_crash_point(
    "replay.batch.before-command",
    "replay: stream cursors at a command's barriers, script not yet re-run",
)
register_crash_point(
    "replay.batch.command-executed",
    "replay: a command's script re-executed, tail records not yet applied",
)

#: Replay transaction ids live far above the user range so audit trails
#: and lock tables can never confuse the two.
REPLAY_TXN_BASE = 1_000_000_000


def decode_live_commands(db: "Database") -> list[TxnCommand]:
    """The live command-log suffix, decoded, in csn order."""
    commands: list[TxnCommand] = []
    for csn, payload in db.slb.live_commands():
        record, _ = decode_control(payload)
        if not isinstance(record, TxnCommand):
            raise RecoveryError(
                f"command log entry {csn} decoded to "
                f"{type(record).__name__}, not TxnCommand"
            )
        if record.csn != csn:
            raise RecoveryError(
                f"command log entry keyed {csn} carries csn {record.csn}"
            )
        commands.append(record)
    return commands


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


class ReplayTransaction(Transaction):
    """The transaction a script re-executes under at replay.

    Same locking, UNDO, rollback and epilogue as a live transaction, but
    it never touches stable memory — only those steps are replaced here.
    A crash during replay therefore leaves the stable state
    byte-identical, and the next restart re-runs the same plan from the
    same inputs — replay is idempotent by construction.
    """

    def _open(self, user_data: str) -> None:
        """No SLB chain, no ``begin`` audit entry."""

    def _log(self, record: RedoRecord, inverse: RedoRecord) -> None:
        # UNDO only: nothing is appended
        self._undo.append(inverse)

    def _commit_as_command(self) -> None:
        # The command is already in the stable command log: nothing is
        # emitted and nothing becomes durable, so no observer either.
        self._end(TxnState.COMMITTED)

    def _discard_chain(self) -> None:
        """No chain to free."""

    def _record_end(self, event: str) -> None:
        """No audit entry, and the manager never tracked this transaction."""


@dataclass
class _PartitionStream:
    """One partition's recovery state inside a batch: the base image with
    the cut REDO suffix still to be applied, and a cursor into it."""

    address: PartitionAddress
    partition: Partition
    records: list[RedoRecord]
    position: int = 0
    is_index: bool = field(default=False)


class CommandReplayPlanner:
    """Builds and runs the parallel command-replay plan at restart."""

    def __init__(self, db: "Database"):
        self.db = db
        self._txn_ids = itertools.count(REPLAY_TXN_BASE)

    # -- planning ---------------------------------------------------------------

    def run(self) -> dict:
        """Replay every live command; returns (and stores on the database
        as ``last_command_replay``) the plan statistics."""
        db = self.db
        commands = decode_live_commands(db)
        stats = {
            "live_commands": len(commands),
            "commands_replayed": 0,
            "commands_skipped": 0,
            "batches": 0,
            "max_batch": 0,
            "replay_workers": 1,
        }
        pending = self._drop_settled(commands, stats)
        if pending:
            batches = [batch for _, batch in _closures(pending)]
            stats["batches"] = len(batches)
            stats["max_batch"] = max(len(batch) for batch in batches)
            stats["replay_workers"] = min(db.engine.workers, len(batches))
            replayed = db.engine.restore_map(self.replay_batch, batches)
            stats["commands_replayed"] = sum(replayed)
        db.last_command_replay = stats
        return stats

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

    # -- batch execution (public: runs on restore_map workers) ------------------

    def replay_batch(self, batch: list[TxnCommand]) -> int:
        """Recover one conflict-free closure: load its partition streams,
        then alternate cursor advances and script re-executions."""
        db = self.db
        coordinator = db.restart_coordinator
        if coordinator is None:
            raise RecoveryError("command replay runs between the phases of a restart")
        relation_names = sorted({name for cmd in batch for name in cmd.relations})
        streams: list[_PartitionStream] = []
        index_segments: set[int] = set()
        for name in relation_names:
            descriptor = db.catalog.relation(name)
            watermark = descriptor.command_watermark
            members = [(descriptor, False)] + [
                (db.catalog.index(index_name), True)
                for index_name in descriptor.index_names
            ]
            for member, is_index in members:
                if is_index:
                    index_segments.add(member.segment_id)
                for number in sorted(member.partitions):
                    address = PartitionAddress(member.segment_id, number)
                    partition, pages, _ = coordinator.plan(
                        address, member.partitions[number].checkpoint_slot, watermark
                    )
                    # The cursor stops at barrier records, so it walks
                    # records, not pages; what replay costs here is the
                    # scripts' re-execution.
                    records = [record for page in pages for record in page.records]
                    streams.append(
                        _PartitionStream(address, partition, records, is_index=is_index)
                    )
        self._install_bases(streams)
        replayed = 0
        for command in batch:
            crash_point("replay.batch.before-command")
            db.reload_index_mirrors(self._advance_to_barriers(streams, command.csn))
            self._execute(command)
            crash_point("replay.batch.command-executed")
            replayed += 1
        for stream in streams:
            self._apply_through(stream, len(stream.records))
        db.reload_index_mirrors(index_segments)
        return replayed

    def _install_bases(self, streams: list[_PartitionStream]) -> None:
        db = self.db
        for stream in streams:
            segment = db.memory.segment(stream.address.segment)
            with db.view_lock:
                segment.install(stream.partition)

    def _advance_to_barriers(
        self, streams: list[_PartitionStream], csn: int
    ) -> set[int]:
        """Apply value records up to command ``csn``'s barriers; returns
        the index segments a record was applied to (their cached index
        objects' mirrors are stale, everyone else's are not).

        A barrier with a *higher* csn stops the cursor without being
        consumed: that partition joined the relation after ``csn``
        committed, so nothing in it precedes the command.  A stream that
        runs dry is fine too — its bin was reset by a checkpoint
        acknowledgement and re-execution regenerates the effects.
        """
        touched: set[int] = set()
        for stream in streams:
            records = stream.records
            position = stream.position
            while position < len(records):
                record = records[position]
                if isinstance(record, CommandBarrier) and record.csn >= csn:
                    if record.csn == csn:
                        position += 1  # consume this command's own barrier
                    break
                record.apply(stream.partition)
                if stream.is_index:
                    touched.add(stream.address.segment)
                position += 1
            stream.position = position
        return touched

    def _apply_through(self, stream: _PartitionStream, end: int) -> None:
        while stream.position < end:
            stream.records[stream.position].apply(stream.partition)
            stream.position += 1

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
                txn_id=next(self._txn_ids),
                command=(command.name, command.version, command.args),
                declared_relations=command.relations,
            ) as txn:
                # The same exclusive declared-set locks the original commit
                # held; batches are relation-disjoint so these always grant.
                txn.lock_declared()
                info.fn(txn, *args)
        except (RecoveryError, SimulatedCrash):
            raise  # neither is the script failing
        except Exception as exc:
            raise RecoveryError(
                f"re-executing command {command.csn} ({command.name!r}) "
                f"failed: {exc}"
            ) from exc


def replay_live_commands(db: "Database") -> dict:
    """Restart hook: build and run the command replay plan."""
    return CommandReplayPlanner(db).run()
