"""Unit tests for the recovery processor's normal-operation duties."""

import pytest

from repro import Database, RecoveryMode, SystemConfig
from repro.recovery.processor import RecoveryProcessor
from repro.common import EntityAddress, LogError
from repro.common.errors import MediaFailure
from repro.sim.chaos import ChaosEngine, ChaosPlan, chaos
from repro.sim.faults import SimulatedCrash
from repro.wal.log_disk import ARCHIVE_SEGMENT
from repro.wal.records import FieldPatch, split_by_owner
from repro.workloads.debit_credit import DebitCreditWorkload


def small_db(**kwargs):
    defaults = dict(
        log_page_size=512,
        update_count_threshold=30,
        log_window_pages=256,
        log_window_grace_pages=16,
    )
    defaults.update(kwargs)
    db = Database(SystemConfig(**defaults))
    rel = db.create_relation("t", [("id", "int"), ("v", "int")], primary_key="id")
    addrs = {}
    with db.transaction() as txn:
        for i in range(30):
            addrs[i] = rel.insert(txn, {"id": i, "v": 0})
    return db, rel, addrs


class TestSortingStep:
    def test_run_until_drained_empties_slb(self):
        db, rel, addrs = small_db()
        with db.transaction(pump=False) as txn:
            for i in range(30):
                rel.update(txn, addrs[i], {"v": 1})
        db.recovery_processor.run_until_drained()
        assert db.slb.committed_record_count() == 0
        assert db.slb.committed_chain_count == 0

    def test_records_land_in_correct_bins(self):
        db, rel, addrs = small_db()
        with db.transaction(pump=False) as txn:
            for i in range(10):
                rel.update(txn, addrs[i], {"v": 2})
        db.recovery_processor.run_until_drained()
        seg = db.catalog.relation("t").segment_id
        data_bins = [b for b in db.slt.bins() if b.partition.segment == seg]
        assert sum(b.update_count for b in data_bins) >= 10

    def test_one_step_drains_and_nothing_in_it_commits(self, monkeypatch):
        """``run_until_drained`` makes one step: the drain takes the whole
        committed list, and a step that flushes pages, writes an archive
        page and requests checkpoints commits nothing to the SLB."""
        db, rel, addrs = small_db()
        for value in range(6):  # three pumped, so checkpoints finish; three not
            with db.transaction(pump=value < 3) as txn:
                for i in range(30):
                    rel.update(txn, addrs[i], {"v": value})
        processor = db.recovery_processor
        counters = ("pages_flushed", "archive_pages_written", "checkpoints_requested")
        before = [getattr(processor, name) for name in counters]
        commits = []
        monkeypatch.setattr(db.slb, "commit", lambda *args: commits.append(args))
        steps = []
        step = processor.step
        monkeypatch.setattr(processor, "step", lambda: steps.append(1) or step())
        assert processor.run_until_drained() > 0
        after = [getattr(processor, name) for name in counters]
        assert all(now > then for now, then in zip(after, before)), (before, after)
        assert commits == [] and len(steps) == 1
        assert db.slb.committed_chain_count == 0


def thirty_committed_updates():
    """30 committed single-field updates of the small relation, not yet
    drained (``pump=False``): the records the tests below drain."""
    db, rel, addrs = small_db()
    with db.transaction(pump=False) as txn:
        for i in range(30):
            rel.update(txn, addrs[i], {"v": 1})
    return db, rel, addrs


class TestDrainIsRecordAtomic:
    """Whatever stops the sorting loop, every drained record is either in
    its bin or back on the committed list, in commit order, and the next
    drain deposits the rest."""

    @staticmethod
    def committed(db) -> list[bytes]:
        return [record for chain in db.slb._committed for record in chain.records()]

    def test_a_failed_page_write_requeues_the_undeposited_records(self, monkeypatch):
        db, _, _ = thirty_committed_updates()
        records = self.committed(db)
        binned_before = db.slt.records_binned
        append_page = db.log_disk.append_page
        failures = []

        def fail_once(page):
            if not failures:
                failures.append(page)
                raise MediaFailure("log disk write failed")
            return append_page(page)

        monkeypatch.setattr(db.log_disk, "append_page", fail_once)
        with pytest.raises(MediaFailure):
            db.recovery_processor.run_until_drained()
        deposited = db.slt.records_binned - binned_before
        assert 0 < deposited < len(records)
        assert self.committed(db) == records[deposited:]
        db.recovery_processor.run_until_drained()
        assert db.slt.records_binned - binned_before == len(records)
        assert db.slb.committed_chain_count == 0

    def test_a_crash_after_a_deposit_requeues_exactly_the_rest(self):
        db, _, _ = thirty_committed_updates()
        records = self.committed(db)
        binned_before = db.slt.records_binned
        engine = ChaosEngine(
            ChaosPlan.crash_at(0, "recovery.sort.after-deposit", after_visits=4)
        )
        with chaos(engine), pytest.raises(SimulatedCrash):
            db.recovery_processor.run_until_drained()
        assert db.slt.records_binned - binned_before == 5
        assert self.committed(db) == records[5:]
        db.recovery_processor.run_until_drained()
        assert db.slt.records_binned - binned_before == len(records)


class TestRefusedAtTheSortingStep:
    """The drain hands over the records as appended, unparsed: the
    deposit refuses a malformed one with ``LogError`` and it goes back
    to the committed list with everything after it."""

    @staticmethod
    def refused(db, record: bytes) -> None:
        db.recovery_processor.run_until_drained()
        binned = db.slt.records_binned
        with db.transaction(pump=False) as txn:
            db.slb.append(txn.txn_id, record)  # past _redo, which packs its own
        with pytest.raises(LogError):
            db.recovery_processor.run_until_drained()
        assert db.slt.records_binned == binned
        assert [list(chain.records()) for chain in db.slb._committed] == [[record]]

    def test_an_unknown_tag(self):
        db, _, addrs = small_db()
        bin_index = db.slt.bin_index_of(addrs[0].partition_address)
        record = FieldPatch.pack(99, bin_index, addrs[0], 0, b"\x01")
        self.refused(db, bytes([255]) + record[1:])

    def test_an_unknown_bin(self):
        db, _, addrs = small_db()
        self.refused(db, FieldPatch.pack(99, 10_000, addrs[0], 0, b"\x01"))

    def test_a_record_naming_another_partition(self):
        db, _, addrs = small_db()
        bin_index = db.slt.bin_index_of(addrs[0].partition_address)
        other = EntityAddress(addrs[0].segment, addrs[0].partition + 7, 0)
        self.refused(db, FieldPatch.pack(99, bin_index, other, 0, b"\x01"))


def scanned_update_count_candidates(slt) -> list:
    """The update-count trigger's candidates by a scan of every bin — how
    the SLT found them before it kept them as a set — kept here as the
    oracle for that set."""
    threshold = slt.config.update_count_threshold
    return [
        bin_
        for bin_ in slt.bins()
        if not bin_.marked_for_checkpoint and bin_.update_count >= threshold
    ]


class TestUpdateCountCandidates:
    def test_the_kept_set_is_the_scan_at_every_drain(self, monkeypatch):
        """Through a seeded debit/credit run with three crashes and
        on-demand restarts — partly drained with no checkpoint between
        drains, so marked bins wait unreset — the candidates the SLT keeps
        are, at every drain that sorted anything, the bins the scan finds,
        in bin index order, and the trigger did fire."""
        compared = []
        check = RecoveryProcessor._check_update_count_triggers

        def compare_then_check(processor):
            kept = processor.slt.update_count_candidates()
            assert kept == scanned_update_count_candidates(processor.slt)
            compared.append(len(kept))
            check(processor)

        monkeypatch.setattr(
            RecoveryProcessor, "_check_update_count_triggers", compare_then_check
        )
        db = Database(
            SystemConfig(
                log_page_size=512,
                update_count_threshold=16,
                log_window_pages=64,
                log_window_grace_pages=8,
            )
        )
        workload = DebitCreditWorkload(db, accounts_per_branch=20, seed=1987)
        workload.load()
        for _ in range(3):
            for _ in range(6):
                # drained with no checkpoint run between: marks persist
                workload.run(5, pump=False)
                db.recovery_processor.run_until_drained()
            workload.run(30)
            db.crash()
            db.restart(RecoveryMode.ON_DEMAND)
        workload.run(30)
        workload.check_invariants()
        assert len(compared) > 100 and sum(compared) > 0


class TestArchiveOrderInvariant:
    def test_leftovers_flush_before_new_dedicated_page(self):
        """If a partition has leftover records in the archive buffer, they
        must reach the log disk before any newer dedicated page of that
        partition (full-history replay depends on LSN order)."""
        db, rel, addrs = small_db()
        with db.transaction(pump=False) as txn:
            for i in range(10):
                rel.update(txn, addrs[i], {"v": 3})
        db.recovery_processor.run_until_drained()
        seg = db.catalog.relation("t").segment_id
        target = next(
            b for b in db.slt.bins() if b.partition.segment == seg and b.active
        )
        # checkpoint it: leftovers land in the archive buffer
        db.slt.mark_for_checkpoint(target.bin_index, "test")
        db.checkpoint_queue.submit(target.partition, target.bin_index, "test")
        assert db.checkpoints.process_pending() >= 1
        db.recovery_processor.acknowledge_finished()
        backlog = db.recovery_processor.pending_archive_records(target.partition)
        if not backlog:
            pytest.skip("no leftovers this configuration")
        # now write enough NEW records for that partition to flush a page
        with db.transaction(pump=False) as txn:
            for i in range(30):
                rel.update(txn, addrs[i], {"v": 7})
        db.recovery_processor.run_until_drained()
        # scan the log: the mixed page holding the leftovers must precede
        # every dedicated page of the partition written after it
        archive_lsns = []
        dedicated_after_ckpt = []
        for lsn in db.log_disk.all_lsns():
            owner = db.log_disk.read_page(lsn).partition
            if owner.segment == ARCHIVE_SEGMENT:
                page = db.log_disk.read_page(lsn)
                if target.partition in split_by_owner(page.body):
                    archive_lsns.append(lsn)
            elif owner == target.partition:
                dedicated_after_ckpt.append(lsn)
        new_dedicated = [
            lsn for lsn in dedicated_after_ckpt
            if archive_lsns and lsn > min(archive_lsns)
        ]
        if archive_lsns and new_dedicated:
            assert max(archive_lsns) < min(new_dedicated) or all(
                a < min(new_dedicated) for a in archive_lsns
            )

    def test_full_archive_pages_emitted(self):
        db, rel, addrs = small_db()
        # many checkpoint cycles to accumulate > one page of leftovers
        for round_ in range(6):
            with db.transaction(pump=False) as txn:
                for i in range(30):
                    rel.update(txn, addrs[i], {"v": round_})
            db.recovery_processor.run_until_drained()
            for bin_ in db.slt.active_bins():
                db.slt.mark_for_checkpoint(bin_.bin_index, "t")
                db.checkpoint_queue.submit(bin_.partition, bin_.bin_index, "t")
            db.checkpoints.process_pending()
            db.recovery_processor.acknowledge_finished()
        assert db.recovery_processor.archive_pages_written > 0


class TestCheckpointSignalling:
    def test_update_count_crossing_enqueues_request(self):
        db, rel, addrs = small_db()
        with db.transaction(pump=False) as txn:
            for i in range(30):
                rel.update(txn, addrs[i], {"v": 1})
        before = db.recovery_processor.checkpoints_requested
        db.recovery_processor.run_until_drained()
        assert db.recovery_processor.checkpoints_requested > before
        assert len(db.checkpoint_queue.pending()) > 0

    def test_signal_cost_charged(self):
        db, rel, addrs = small_db()
        with db.transaction(pump=False) as txn:
            for i in range(30):
                rel.update(txn, addrs[i], {"v": 1})
        db.recovery_processor.run_until_drained()
        charged = db.recovery_cpu.instructions_in("checkpoint-signal")
        # Table 2: I_checkpoint = 40 instructions per signalled checkpoint
        assert charged == 40.0 * db.recovery_processor.checkpoints_requested
        assert db.recovery_processor.checkpoints_requested > 0


class TestAgeTriggerEndToEnd:
    def test_cold_partition_caught_by_window(self):
        db, rel, addrs = small_db(
            update_count_threshold=10_000,
            log_window_pages=20,
            log_window_grace_pages=10,
        )
        cold = db.create_relation("cold", [("id", "int"), ("v", "int")], primary_key="id")
        with db.transaction() as txn:
            cold_addr = cold.insert(txn, {"id": 1, "v": 0})
        with db.transaction() as txn:
            cold.update(txn, cold_addr, {"v": 1})
        # hammer the hot relation until the cold one's first page ages out
        for round_ in range(40):
            with db.transaction() as txn:
                for i in range(30):
                    rel.update(txn, addrs[i], {"v": round_})
        reasons = [
            bin_.checkpoint_reason
            for bin_ in db.slt.bins()
            if bin_.checkpoint_reason is not None
        ]
        taken = db.checkpoints.checkpoints_taken
        assert taken > 0 or "age" in reasons
