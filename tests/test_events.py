"""The operator event ring: checkpoint and restart events, both clocks,
bounded, and the one command that reads a checkpoint-queue backlog."""

import json

import pytest

from repro import Database, RecoveryMode, SystemConfig
from repro.common.errors import MediaFailure
from repro.common.types import PartitionAddress
from repro.db import events as events_module
from repro.db.backlog import backlog, main
from repro.recovery.redo import enumerate_log_pages
from repro.shard import ShardedDatabase
from repro.sim.chaos import ChaosEngine, ChaosPlan, chaos
from repro.sim.faults import SimulatedCrash


def bank(**overrides):
    config = dict(
        log_page_size=512,
        update_count_threshold=16,
        log_window_pages=256,
        log_window_grace_pages=16,
    )
    config.update(overrides)
    db = Database(SystemConfig(**config))
    rel = db.create_relation("acct", [("id", "int"), ("bal", "int")], primary_key="id")
    with db.transaction() as txn:
        addrs = [rel.insert(txn, {"id": i, "bal": 0}) for i in range(40)]
    return db, rel, addrs


def run_updates(db, rel, addrs, count, start=0):
    for n in range(start, start + count):
        with db.transaction() as txn:
            rel.update(txn, addrs[n % len(addrs)], {"bal": n})


def held_lock_backlog():
    """A writer holds the relation's IX lock while 60 updates run, so the
    checkpoint transactions' S locks are refused and the queue backs up;
    then it commits and a pump drains the queue."""
    db, rel, addrs = bank()
    settled = len(db.events)
    holder = db.transactions.begin()
    rel.update(holder, addrs[0], {"bal": -1})
    run_updates(db, rel, addrs[1:], 60)
    deferred = [e for e in db.events if e["event"] == "checkpoint.deferred"]
    holder.commit()
    db.pump()
    return db, addrs, settled, deferred


def read_back(db, tmp_path) -> list[dict]:
    path = tmp_path / "events.jsonl"
    assert db.events.write_jsonl(path) == len(db.events)
    return [json.loads(line) for line in path.read_text().splitlines()]


class TestCheckpointEvents:
    def test_each_request_is_written_then_acknowledged(self, tmp_path):
        db, rel, addrs = bank()
        run_updates(db, rel, addrs, 120)
        events = read_back(db, tmp_path)
        assert all({"event", "sim_s", "host_s"} <= set(entry) for entry in events)
        requested = [e for e in events if e["event"] == "checkpoint.requested"]
        assert "update-count" in {e["reason"] for e in requested} <= {"update-count", "age"}
        for request in requested:
            later = events[events.index(request) + 1 :]
            mine = [
                e["event"]
                for e in later
                if e.get("partition") == request["partition"] and e["event"] != "log.page-written"
            ]
            assert mine[:2] == ["checkpoint.written", "checkpoint.acknowledged"]
        written = [e for e in events if e["event"] == "checkpoint.written"]
        assert all(e["bytes"] > 0 and e["slot"] is not None for e in written)
        assert [e["sim_s"] for e in events] == sorted(e["sim_s"] for e in events)

    def test_a_transaction_without_a_checkpoint_emits_nothing(self):
        db, rel, addrs = bank(update_count_threshold=10_000)
        before = len(db.events)
        pages = db.recovery_processor.pages_flushed
        run_updates(db, rel, addrs, 50)
        assert db.recovery_processor.pages_flushed > pages
        assert len(db.events) == before

    def test_a_held_relation_lock_defers_and_the_command_shows_it(self, tmp_path, capsys):
        """A writer holding the relation's IX lock refuses the checkpoint
        transaction its S lock: the request waits, deferred on every pump,
        and the backlog command prints the window with the deferral."""
        db, addrs, settled, deferred = held_lock_backlog()
        assert deferred and {e["cause"] for e in deferred} == {"TransactionAborted"}
        events = read_back(db, tmp_path)
        data = str(addrs[0].partition_address)
        mine = [e["event"] for e in events[settled:] if e.get("partition") == data]
        assert mine.index("checkpoint.requested") < mine.index("checkpoint.deferred")
        assert mine.index("checkpoint.deferred") < mine.index("checkpoint.written")
        assert main([str(tmp_path / "events.jsonl")]) == 0
        printed = capsys.readouterr().out
        assert printed.startswith("checkpoint queue peaked at ")
        assert "checkpoint.deferred" in printed and "checkpoint.acknowledged" in printed
        window = backlog(events)
        assert window[0]["event"] == "checkpoint.requested"
        assert window[-1]["event"] == "checkpoint.acknowledged"
        assert window[-1]["queue_depth"] == 0
        assert "log.page-written" in printed
        assert "last restart" not in printed  # the file holds none

    def test_a_backlog_shows_each_log_page_the_recovery_cpu_wrote(self):
        """Between the request and its acknowledgement each page the
        recovery CPU writes is an event, in LSN order; outside a backlog
        none is (the test above)."""
        db, *_ = held_lock_backlog()
        events = list(db.events)
        kinds = [e["event"] for e in events]
        start = kinds.index("checkpoint.requested")
        end = len(kinds) - kinds[::-1].index("checkpoint.acknowledged")
        pages = [e for e in events if e["event"] == "log.page-written"]
        assert pages and pages == [e for e in events[start:end] if e in pages]
        assert all(e["queue_depth"] > 0 and e["bytes"] > 0 for e in pages)
        assert [e["lsn"] for e in pages] == sorted({e["lsn"] for e in pages})

    def test_page_events_move_neither_the_clock_nor_a_cpu(self, monkeypatch):
        def totals(db):
            return db.clock.now, db.main_cpu.total_instructions, db.recovery_cpu.total_instructions

        db, *_ = held_lock_backlog()
        monkeypatch.setattr(events_module.EventRing, "emit", lambda self, event, **fields: None)
        quiet, *_ = held_lock_backlog()
        assert len(quiet.events) == 0
        assert totals(quiet) == totals(db)


class TestRestartEvents:
    def test_begin_each_rebuild_then_recovered_and_the_ring_survives_the_crash(self):
        db, rel, addrs = bank()
        run_updates(db, rel, addrs, 60)
        before = list(db.events)
        db.crash()
        db.restart(RecoveryMode.ON_DEMAND)
        db.restart_coordinator.recover_everything()
        events = list(db.events)
        assert events[: len(before)] == before
        after = events[len(before) :]
        kinds = [e["event"] for e in after]
        assert kinds[0] == "restart.begin" and after[0]["mode"] == "on-demand"
        assert kinds[-1] == "restart.recovered" and kinds.count("restart.recovered") == 1
        rebuilt = [
            {k: v for k, v in e.items() if k not in ("event", "sim_s", "host_s")}
            for e in after
            if e["event"] == "restart.rebuilt"
        ]
        assert rebuilt == db.stats()["restart"]["partitions"]

    def test_an_eager_restart_is_recovered_when_restart_returns(self):
        db, rel, addrs = bank()
        run_updates(db, rel, addrs, 20)
        db.crash()
        db.restart(RecoveryMode.EAGER)
        assert [e["event"] for e in db.events][-1] == "restart.recovered"

    def test_the_command_names_a_partition_rebuilt_from_history(self, tmp_path, capsys):
        """The backlog command ends with the last restart: an eager one
        that met a torn image rebuilt that partition from the log history,
        and the command names it there with its pages and records."""
        db, rel, addrs = bank()
        run_updates(db, rel, addrs, 120)
        descriptor = db.catalog.relation("acct")
        [(number, slot)] = descriptor.partitions.items()
        db.crash()
        db.checkpoint_disk.disk.corrupt_block(slot, "torn")
        db.restart(RecoveryMode.EAGER)
        [record] = [e for e in db.stats()["restart"]["partitions"] if e["source"] == "history"]
        assert record["address"] == str(PartitionAddress(descriptor.segment_id, number))
        db.events.write_jsonl(tmp_path / "events.jsonl")
        assert main([str(tmp_path / "events.jsonl")]) == 0
        last = capsys.readouterr().out.split("last restart ")[1]
        assert last.startswith("(eager): ") and "simulated ms to recovered" in last
        assert (
            f"  from history: {record['address']} ({record['pages_read']} pages, "
            f"{record['records_applied']} records)\n"
        ) in last

    def test_the_command_lists_what_the_first_transaction_waited_for(self, tmp_path, capsys):
        """After an on-demand restart and one lookup, the command counts
        the rebuilds of each trigger beside their seconds, and lists each
        partition the lookup's touch rebuilt with its pages and records."""
        db, rel, addrs = bank(partition_size=4096)
        with db.transaction() as txn:
            for i in range(40, 600):
                rel.insert(txn, {"id": i, "bal": 0})
        run_updates(db, rel, addrs, 60)
        db.crash()
        db.restart(RecoveryMode.ON_DEMAND)
        with db.transaction() as txn:
            assert rel.lookup(txn, 7)["bal"] == 47
        assert db.restart_coordinator.pending_partitions()
        restart = db.stats()["restart"]
        touched = [e for e in restart["partitions"] if e["trigger"] == "touch"]
        assert touched
        db.events.write_jsonl(tmp_path / "events.jsonl")
        assert main([str(tmp_path / "events.jsonl")]) == 0
        last = capsys.readouterr().out.split("last restart ")[1]
        header, *lines = last.splitlines()
        assert header.startswith("(on-demand): ") and " simulated ms to " in header
        assert header.endswith("; rebuilds by trigger: " + ", ".join(
            f"{trigger} {sum(e['trigger'] == trigger for e in restart['partitions'])} "
            f"in {seconds:.6f} s"
            for trigger, seconds in restart["phases"].items()
        ))
        assert lines == [
            f"  touch: {e['address']} ({e['pages_read']} pages, {e['records_applied']} records)"
            for e in touched
        ]

    def test_a_lost_log_page_names_the_partition_that_stopped_the_restart(
        self, tmp_path, capsys
    ):
        """A partition whose log page is lost on both mirrors stops the
        restart: one ``restart.rebuild-failed`` names it, its trigger and
        the error, and the backlog command prints it under the restart."""
        db, rel, addrs = bank(
            update_count_threshold=10_000, log_window_pages=4096, log_window_grace_pages=64
        )
        run_updates(db, rel, addrs, 120)
        db.recovery_processor.run_until_drained()
        segment = db.catalog.relation("acct").segment_id
        [bin_] = [b for b in db.slt.bins() if b.partition.segment == segment]
        lost = enumerate_log_pages(bin_, db.log_disk)[0][-1]
        db.crash()
        for spindle in (db.log_disk.disks.primary, db.log_disk.disks.mirror):
            spindle.corrupt_block(lost, "bit-flip")
        with pytest.raises(MediaFailure) as raised:
            db.restart(RecoveryMode.EAGER)
        [failed] = [e for e in db.events if e["event"] == "restart.rebuild-failed"]
        assert failed["address"] == str(bin_.partition)
        assert (failed["error"], failed["message"]) == ("MediaFailure", str(raised.value))
        db.events.write_jsonl(tmp_path / "events.jsonl")
        assert main([str(tmp_path / "events.jsonl")]) == 0
        last = capsys.readouterr().out.split("last restart ")[1]
        assert (
            f"  rebuild failed: {failed['address']} ({failed['trigger']}): "
            f"MediaFailure: {raised.value}\n"
        ) in last

    def test_a_crash_inside_a_rebuild_is_no_failed_rebuild(self):
        """A crash injected in a rebuild (the history scan behind a torn
        image) is the crash the next restart recovers from, not a failed
        rebuild: no ``restart.rebuild-failed``."""
        db, rel, addrs = bank()
        run_updates(db, rel, addrs, 120)
        [slot] = db.catalog.relation("acct").partitions.values()
        db.crash()
        db.checkpoint_disk.disk.corrupt_block(slot, "torn")
        with chaos(ChaosEngine(ChaosPlan.crash_at(0, "media.scan.page-routed"))) as engine:
            with pytest.raises(SimulatedCrash):
                db.restart(RecoveryMode.EAGER)
            assert engine.fired
            db.crash()
            db.restart(RecoveryMode.EAGER)
        assert [e["event"] for e in db.events][-1] == "restart.recovered"
        assert not [e for e in db.events if e["event"] == "restart.rebuild-failed"]


def test_the_ring_never_exceeds_its_bound(monkeypatch):
    monkeypatch.setattr(events_module, "EVENT_RING_SIZE", 6)
    db, rel, addrs = bank()
    sizes = []
    for round_ in range(3):
        run_updates(db, rel, addrs, 40, start=40 * round_)
        sizes.append(len(db.events))
        db.crash()
        db.restart(RecoveryMode.EAGER)
        sizes.append(len(db.events))
    assert max(sizes) == 6
    assert [e["event"] for e in db.events][-1] == "restart.recovered"


def twopc_events(db) -> list[dict]:
    return [dict(e) for e in db.events if e["event"].startswith("twopc.")]


class TestTwoPhaseCommitEvents:
    def cluster(self):
        cluster = ShardedDatabase(
            shards=2, config=SystemConfig(log_page_size=1024, update_count_threshold=10_000)
        )
        schema = [("id", "int"), ("bal", "int")]
        accounts = cluster.create_relation("accounts", schema, "id", shard=0)
        ledger = cluster.create_relation("ledger", schema, "id", shard=1)
        with cluster.transaction(relations=["accounts"]) as txn:
            source = accounts.insert(txn, {"id": 0, "bal": 100})
        with cluster.transaction(relations=["ledger"]) as txn:
            target = ledger.insert(txn, {"id": 0, "bal": 0})
        assert twopc_events(cluster.nodes[0]) == twopc_events(cluster.nodes[1]) == []
        return cluster, accounts, ledger, source, target

    def test_a_transfer_prepares_each_branch_then_decides(self, tmp_path):
        cluster, accounts, ledger, source, target = self.cluster()
        with cluster.transaction(relations=["accounts", "ledger"]) as txn:
            accounts.update(txn, source, {"bal": 90})
            ledger.update(txn, target, {"bal": 10})
            gtid = txn.gtid
        coordinator, participant = (twopc_events(node) for node in cluster.nodes)
        assert [e["event"] for e in coordinator] == ["twopc.prepare", "twopc.decision"]
        assert [e["event"] for e in participant] == ["twopc.prepare"]
        prepares = [coordinator[0], participant[0]]
        assert [(e["gtid"], e["shard"], e["coordinator"]) for e in prepares] == [
            (gtid, 0, 0),
            (gtid, 1, 0),
        ]
        assert [e["txn_id"] for e in prepares] == [txn.branches[0].txn_id, txn.branches[1].txn_id]
        decision = coordinator[1]
        assert (decision["gtid"], decision["verdict"], decision["shards"]) == (
            gtid, "commit", [0, 1],
        )

        path = tmp_path / "trace.json"
        ring = [dict(e) for e in cluster.nodes[0].events]
        assert cluster.nodes[0].events.write_chrome(path) == len(ring)
        trace = json.loads(path.read_text())["traceEvents"]
        assert [e["name"] for e in trace] == [e["event"] for e in ring]
        assert [e["name"] for e in trace][-2:] == ["twopc.prepare", "twopc.decision"]
        for entry, event in zip(ring, trace):
            assert (event["ph"], event["s"]) == ("i", "g")
            assert event["ts"] == entry["host_s"] * 1e6
            assert event["args"] == {
                k: v for k, v in entry.items() if k not in ("event", "host_s")
            }
            assert event["args"]["sim_s"] == entry["sim_s"]
        assert trace[-1]["args"]["gtid"] == gtid

    def test_an_aborted_transfer_decides_abort(self):
        cluster, accounts, ledger, source, target = self.cluster()
        with pytest.raises(RuntimeError):
            with cluster.transaction(relations=["accounts", "ledger"]) as txn:
                accounts.update(txn, source, {"bal": 90})
                raise RuntimeError("client gives up")
        decided = twopc_events(cluster.nodes[0])
        assert [(e["event"], e["verdict"]) for e in decided] == [("twopc.decision", "abort")]
        assert twopc_events(cluster.nodes[1]) == []
