"""Tests for checkpoint triggering, the request protocol, and the disk queue."""

import pytest

from repro import Database, SystemConfig
from repro.catalog.catalog import CATALOG_LOCATIONS_KEY
from repro.checkpoint.disk_queue import CheckpointDiskQueue
from repro.checkpoint.protocol import RequestState
from repro.common import CheckpointError, PartitionAddress
from repro.common.errors import MediaFailure
from repro.common.config import DiskParameters
from repro.db.integrity import verify_integrity
from repro.sim import SimulatedDisk, VirtualClock
from repro.sim.chaos import FAULT, ChaosEngine, ChaosPlan, ChaosRule, chaos
from repro.wal.slt import CheckpointReason


def config(**kwargs):
    defaults = dict(
        log_page_size=1024,
        update_count_threshold=30,
        log_window_pages=64,
        log_window_grace_pages=8,
    )
    defaults.update(kwargs)
    return SystemConfig(**defaults)


def loaded_db(cfg=None):
    db = Database(cfg or config())
    rel = db.create_relation("items", [("id", "int"), ("v", "int")], primary_key="id")
    addrs = {}
    with db.transaction() as txn:
        for i in range(30):
            addrs[i] = rel.insert(txn, {"id": i, "v": 0})
    return db, rel, addrs


class TestUpdateCountTrigger:
    def test_threshold_fires_checkpoint(self):
        db, rel, addrs = loaded_db()
        for round_ in range(5):
            with db.transaction() as txn:
                for i in range(30):
                    rel.update(txn, addrs[i], {"v": round_})
        assert db.checkpoints.checkpoints_taken > 0

    def test_checkpoint_resets_update_count(self):
        db, rel, addrs = loaded_db()
        for round_ in range(5):
            with db.transaction() as txn:
                for i in range(30):
                    rel.update(txn, addrs[i], {"v": round_})
        seg = db.catalog.relation("items").segment_id
        for bin_ in db.slt.bins():
            if bin_.partition.segment == seg:
                assert bin_.update_count < 2 * db.config.update_count_threshold

    def test_checkpoint_installs_disk_slot(self):
        db, rel, addrs = loaded_db()
        for round_ in range(6):
            with db.transaction() as txn:
                for i in range(30):
                    rel.update(txn, addrs[i], {"v": round_})
        descriptor = db.catalog.relation("items")
        slots = [info.checkpoint_slot for info in descriptor.partitions.values()]
        assert any(slot is not None for slot in slots)


class TestAgeTrigger:
    def test_aged_partition_checkpointed(self):
        # tiny window: pages age out fast; cold partition gets caught
        cfg = config(
            update_count_threshold=100000,  # never by update count
            log_window_pages=12,
            log_window_grace_pages=6,
        )
        db, rel, addrs = loaded_db(cfg)
        # one early write to the cold row, then hammer the others
        with db.transaction() as txn:
            rel.update(txn, addrs[0], {"v": -1})
        for round_ in range(40):
            with db.transaction() as txn:
                for i in range(1, 30):
                    rel.update(txn, addrs[i], {"v": round_})
        reasons = {
            req.reason for req in db.checkpoint_queue._entries()
        } | ({CheckpointReason.AGE} if db.checkpoints.checkpoints_taken else set())
        assert db.checkpoints.checkpoints_taken > 0 or CheckpointReason.AGE in reasons


class TestRequestProtocol:
    def test_duplicate_requests_coalesce(self):
        db, rel, addrs = loaded_db()
        db.recovery_processor.run_until_drained()
        bin_ = next(b for b in db.slt.bins() if b.active)
        db.checkpoint_queue.submit(bin_.partition, bin_.bin_index, "t")
        db.checkpoint_queue.submit(bin_.partition, bin_.bin_index, "t")
        assert len(db.checkpoint_queue) == 1

    def test_state_transitions(self):
        db, rel, addrs = loaded_db()
        db.recovery_processor.run_until_drained()
        bin_ = next(b for b in db.slt.bins() if b.active)
        db.slt.mark_for_checkpoint(bin_.bin_index, "t")
        db.checkpoint_queue.submit(bin_.partition, bin_.bin_index, "t")
        request = db.checkpoint_queue.pending()[0]
        assert request.state is RequestState.REQUEST
        db.checkpoints.process_pending()
        assert request.state is RequestState.FINISHED
        db.recovery_processor.acknowledge_finished()
        assert len(db.checkpoint_queue) == 0

    def test_revert_in_progress(self):
        db, rel, addrs = loaded_db()
        db.recovery_processor.run_until_drained()
        bin_ = next(b for b in db.slt.bins() if b.active)
        db.checkpoint_queue.submit(bin_.partition, bin_.bin_index, "t")
        request = db.checkpoint_queue.pending()[0]
        request.state = RequestState.IN_PROGRESS
        assert db.checkpoint_queue.revert_in_progress() == 1
        assert request.state is RequestState.REQUEST

    def test_leftover_records_flushed_to_archive(self):
        db, rel, addrs = loaded_db()
        # produce partial-page leftovers, then checkpoint everything
        with db.transaction(pump=False) as txn:
            for i in range(10):
                rel.update(txn, addrs[i], {"v": 99})
        db.recovery_processor.run_until_drained()
        for bin_ in db.slt.active_bins():
            db.slt.mark_for_checkpoint(bin_.bin_index, "t")
            db.checkpoint_queue.submit(bin_.partition, bin_.bin_index, "t")
        db.checkpoints.process_pending()
        db.recovery_processor.acknowledge_finished()
        # leftovers wait in the archive buffer until a full page exists
        assert (
            db.recovery_processor.archive_backlog_records > 0
            or db.recovery_processor.archive_pages_written > 0
        )


class TestDiskQueue:
    def _queue(self, slots=8):
        return CheckpointDiskQueue(
            SimulatedDisk("ckpt", DiskParameters(), VirtualClock()), slots
        )

    def test_allocate_advances_head(self):
        queue = self._queue()
        first = queue.allocate(owner=1)
        second = queue.allocate(owner=1)
        assert first != second

    def test_never_reuses_occupied(self):
        queue = self._queue(slots=4)
        slots = [queue.allocate(1) for _ in range(4)]
        assert len(set(slots)) == 4
        with pytest.raises(CheckpointError):
            queue.allocate(1)

    def test_pseudo_circular_skips_stationary(self):
        queue = self._queue(slots=4)
        stationary = queue.allocate(1)
        for _ in range(6):  # wraps past the stationary slot repeatedly
            slot = queue.allocate(1)
            assert slot != stationary
            queue.free(slot)

    def test_free_makes_slot_reusable(self):
        queue = self._queue(slots=2)
        a = queue.allocate(1)
        queue.allocate(1)
        queue.free(a)
        assert queue.allocate(1) == a

    def test_write_requires_allocation(self):
        queue = self._queue()
        with pytest.raises(CheckpointError):
            queue.write_image(3, b"img")

    def test_image_roundtrip(self):
        queue = self._queue()
        slot = queue.allocate(1)
        queue.write_image(slot, b"partition-image")
        assert queue.read_image(slot) == b"partition-image"

    def test_rebuild_map(self):
        queue = self._queue(slots=4)
        queue.rebuild_map({1, 3})
        assert 1 in queue.allocated_slots()
        assert queue.allocate(9) == 0
        assert queue.allocate(9) == 2

    def test_old_image_freed_after_ack(self):
        db, rel, addrs = loaded_db()
        # two checkpoint cycles of the same partition
        for _ in range(2):
            db.recovery_processor.run_until_drained()
            with db.transaction(pump=False) as txn:
                for i in range(30):
                    rel.update(txn, addrs[i], {"v": 1})
            db.recovery_processor.run_until_drained()
            for bin_ in db.slt.active_bins():
                db.slt.mark_for_checkpoint(bin_.bin_index, "t")
                db.checkpoint_queue.submit(bin_.partition, bin_.bin_index, "t")
            db.checkpoints.process_pending()
            db.recovery_processor.acknowledge_finished()
        # occupied slots equal the catalogued ones (no leaks)
        assert db.checkpoint_disk.occupied_count == len(
            db.checkpoints.occupied_slots()
        )


class TestFailedCheckpointLeavesNoZombie:
    """An error that is not a deferral (here: the checkpoint disk running
    out of slots) aborts the system transaction, returns the request to
    REQUEST and surfaces — nothing stays active, chained or locked."""

    @staticmethod
    def exhaust(run, slots=3, **overrides):
        db = Database(
            config(
                checkpoint_slots=slots,
                update_count_threshold=8,
                condense_enabled=False,
                **overrides,
            )
        )
        rel = db.create_relation("items", [("id", "int"), ("v", "int")], primary_key="id")
        with pytest.raises(CheckpointError, match="checkpoint disk is full"):
            for i in range(400):
                run(db, rel, i)
        assert db.transactions.active_count == 0
        assert db.slb.uncommitted_txn_ids == []
        # no request is stuck IN_PROGRESS
        assert db.checkpoint_queue.in_flight() == db.checkpoint_queue.finished()
        # and the catalogs still point at written images only
        for slot in db.checkpoints.occupied_slots():
            assert db.checkpoint_disk.read_image(slot)
        return db, rel

    def test_single_partition_checkpoint(self):
        def insert(db, rel, i):
            with db.transaction() as txn:
                rel.insert(txn, {"id": i, "v": 0})

        db, rel = self.exhaust(insert)
        (request,) = db.checkpoint_queue.pending()
        taken = db.checkpoints.checkpoints_taken
        # The pump's first acknowledgement frees a superseded slot, so the
        # retried request now finds room and completes.
        db.pump()
        assert request not in db.checkpoint_queue.pending()
        assert db.checkpoints.checkpoints_taken == taken + 1
        assert db.transactions.active_count == 0

    @pytest.mark.parametrize("slots", [3, 4])  # none free / one short mid-sweep
    def test_group_settlement_sweep(self, slots):
        def run(db, rel, i):
            if i == 0:
                db.register_script(
                    "put",
                    lambda txn, key: rel.insert(txn, {"id": key, "v": 0}),
                    relations=["items"],
                )
            db.run_script("put", i)

        db, rel = self.exhaust(run, slots, logging_mode="command")
        assert db.checkpoint_queue.pending()
        system_txn = db.audit.trail()[-1].txn_id
        assert db.locks.locks_held(system_txn) == set()
        # the closure relation is usable again: no stranded SHARED lock
        before = db.stats()["transactions_committed"]
        db.run_script("put", 1000, pump=False)
        assert db.stats()["transactions_committed"] == before + 1


class TestFailedAttemptLeavesNothingAheadOfTheBytes:
    """A checkpoint attempt that rolls back *after* installing its slots
    (here: the image write escalating to ``MediaFailure`` on its first
    fault) must leave the decoded catalog, the catalog's own slot list
    and the volatile allocation map exactly where the bytes are."""

    @staticmethod
    def failing_write(after_visits=0):
        rule = ChaosRule("checkpoint.image.write", FAULT, after_visits=after_visits)
        return chaos(ChaosEngine(ChaosPlan(1, (rule,))))

    @staticmethod
    def assert_mirrors_match_bytes(db):
        catalog = db.catalog
        for descriptor in (*catalog.relations(), *catalog.indexes()):
            assert descriptor.encode() == db.memory.read_entity(descriptor.entity)
        published = catalog.well_known_entry()
        assert db.slb.get_well_known(CATALOG_LOCATIONS_KEY) == published
        assert db.slt.get_well_known(CATALOG_LOCATIONS_KEY) == published
        awaiting_ack = {r.previous_slot for r in db.checkpoint_queue.finished()} - {None}
        assert db.checkpoint_disk.occupied_count == len(
            db.checkpoints.occupied_slots() | awaiting_ack
        )
        assert verify_integrity(db) == []

    def retry_completes(self, db, request):
        assert request.state is RequestState.REQUEST
        assert request.previous_slot is None
        taken = db.checkpoints.checkpoints_taken
        db.pump()
        assert request not in db.checkpoint_queue.pending()
        assert db.checkpoints.checkpoints_taken > taken
        assert db.transactions.active_count == 0
        self.assert_mirrors_match_bytes(db)

    @pytest.mark.parametrize("after_visits", range(4))
    def test_data_and_index_partitions(self, after_visits):
        db = Database(
            config(update_count_threshold=50, io_retry_budget=0, condense_enabled=False)
        )
        rel = db.create_relation("a", [("k", "int"), ("v", "int")], primary_key="k")
        taken = db.checkpoints.checkpoints_taken
        with self.failing_write(after_visits):
            with pytest.raises(MediaFailure, match="checkpoint-image write"):
                for key in range(400):
                    with db.transaction() as txn:
                        rel.insert(txn, {"k": key, "v": key})
        assert db.checkpoints.checkpoints_taken == taken + after_visits
        self.assert_mirrors_match_bytes(db)
        self.retry_completes(db, db.checkpoint_queue.pending()[0])

    def test_catalog_partition(self):
        db = Database(config(io_retry_budget=0, condense_enabled=False))
        db.create_relation("a", [("k", "int")], primary_key="k")
        address = PartitionAddress(db.catalog.segment.segment_id, 1)
        bin_index = db.slt.bin_index_of(address)
        db.checkpoint_queue.submit(address, bin_index, "t")
        db.pump()
        slots = dict(db.catalog.own_partition_slots)
        assert slots[1] is not None
        db.checkpoint_queue.submit(address, bin_index, "t")
        (request,) = db.checkpoint_queue.pending()
        with self.failing_write():
            with pytest.raises(MediaFailure, match="checkpoint-image write"):
                db.pump()
        assert db.catalog.own_partition_slots == slots
        self.assert_mirrors_match_bytes(db)
        self.retry_completes(db, request)
        assert db.catalog.own_partition_slots != slots

    def test_group_settlement_sweep_failing_on_its_second_image(self):
        db = Database(
            config(io_retry_budget=0, condense_enabled=False, logging_mode="command")
        )
        rel = db.create_relation("items", [("id", "int"), ("v", "int")], primary_key="id")
        db.register_script(
            "put", lambda txn, key: rel.insert(txn, {"id": key, "v": 0}), relations=["items"]
        )
        for key in range(5):
            db.run_script("put", key)  # live commands: a checkpoint must sweep
        assert len(db.checkpoint_queue) == 0
        address = PartitionAddress(rel.descriptor.segment_id, 1)
        db.checkpoint_queue.submit(address, db.slt.bin_index_of(address), "t")
        (request,) = db.checkpoint_queue.pending()
        occupied = db.checkpoint_disk.occupied_count
        with self.failing_write(after_visits=1):
            with pytest.raises(MediaFailure, match="checkpoint-image write"):
                db.pump()
        assert db.checkpoints.sweeps_taken == 0
        assert db.checkpoint_disk.occupied_count == occupied  # the first image's slot too
        assert rel.descriptor.command_watermark == 0
        assert db.transactions.active_count == 0
        self.assert_mirrors_match_bytes(db)
        self.retry_completes(db, request)
        assert db.checkpoints.sweeps_taken == 1
        assert rel.descriptor.command_watermark == 5
