"""What the forward path's folded entry points must keep checking.

The value-logged commit path checks the transaction's state, the lock
table and the open chain inline rather than through helper calls, and
the transaction's frame (scope, commit, idle pump) and the point read
do their work in fewer frames; these tests pin each check where it now
lives.
"""

from collections import Counter
from itertools import product

import pytest

from repro import Database, RecoveryMode, SystemConfig
from repro.checkpoint.protocol import RequestState
from repro.common.errors import LogError, TransactionAborted, TransactionStateError
from repro.common.types import EntityAddress, PartitionAddress
from repro.concurrency.latch import assert_no_latch_held
from repro.concurrency.locks import _COVERS, _JOIN, LockMode, covers, join
from repro.recovery.replay_plan import ReplayTransaction
from repro.sim.chaos import set_crash_point_observer
from repro.sim.clock import VirtualClock
from repro.sim.cpu import CpuMeter
from repro.sim.faults import SimulatedCrash
from repro.txn.transaction import TxnState


def bank(**overrides):
    config = dict(log_page_size=1024, update_count_threshold=10_000)
    config.update(overrides)
    db = Database(SystemConfig(**config))
    rel = db.create_relation("acct", [("id", "int"), ("bal", "int")], primary_key="id")
    with db.transaction() as txn:
        addrs = [rel.insert(txn, {"id": i, "bal": 0}) for i in range(8)]
    return db, rel, addrs


def lock_table(db) -> dict:
    return {resource: dict(holders) for resource, holders in db.locks._holders.items()}


class TestAnAbortedTransactionRefusesEverything:
    """Each folded entry point checks the state before anything else."""

    @pytest.fixture()
    def aborted(self):
        db, rel, addrs = bank()
        txn = db.transactions.begin()
        rel.update(txn, addrs[0], {"bal": 1})  # holds IX on the relation, X on the row
        txn.abort()
        return txn, addrs[0]

    def test_locks(self, aborted):
        txn, address = aborted
        with pytest.raises(TransactionStateError):
            txn.lock_entity(address, LockMode.SHARED)
        with pytest.raises(TransactionStateError):
            txn.lock_relation(address.segment, LockMode.INTENT_SHARED)
        with pytest.raises(TransactionStateError):
            txn.lock_component(address)
        with pytest.raises(TransactionStateError):
            txn.lock(address, LockMode.SHARED)

    def test_a_covering_relation_lock_does_not_skip_the_check(self):
        db, rel, addrs = bank()
        txn = db.transactions.begin()
        txn.lock_relation(addrs[0].segment, LockMode.EXCLUSIVE)
        txn.state = TxnState.ABORTED  # as if ended, coverage still in place
        with pytest.raises(TransactionStateError):
            txn.lock_entity(addrs[0], LockMode.EXCLUSIVE)
        with pytest.raises(TransactionStateError):
            txn.lock_relation(addrs[0].segment, LockMode.INTENT_EXCLUSIVE)

    def test_every_change_sink(self, aborted):
        txn, address = aborted
        partition = address.partition_address
        sinks = [
            lambda: txn.entity_inserted(address, b"x"),
            lambda: txn.entity_updated(address, b"x", b"y"),
            lambda: txn.entity_patched(address, 0, b"x", b"y"),
            lambda: txn.entity_deleted(address, b"x"),
            lambda: txn.heap_put(partition, 1, b"x"),
            lambda: txn.heap_delete(partition, 1, b"x"),
            lambda: txn.index_node_written(address, None, b"x"),
            lambda: txn.index_node_freed(address, b"x"),
        ]
        for sink in sinks:
            with pytest.raises(TransactionStateError):
                sink()
        assert txn.undo_record_count == 0 and txn.redo_records == 1

    def test_statement_rollback_registration_and_commit(self, aborted):
        txn, _ = aborted
        with pytest.raises(TransactionStateError):
            txn.statement()
        with pytest.raises(TransactionStateError):
            txn.on_rollback(lambda: None)
        with pytest.raises(TransactionStateError):
            txn.commit()


class TestARefusedLock:
    def test_aborts_raises_and_leaves_the_table_as_it_was(self):
        db, rel, addrs = bank()
        writer = db.transactions.begin()
        rel.update(writer, addrs[0], {"bal": 5})
        reader = db.transactions.begin()
        before = lock_table(db)
        with pytest.raises(TransactionAborted):
            rel.read(reader, addrs[0])  # IS granted, then S refused
        assert reader.state is TxnState.ABORTED
        assert lock_table(db) == before
        assert db.locks.locks_held(reader.txn_id) == set()
        writer.commit()

    def test_a_refused_relation_lock_as_well(self):
        db, rel, addrs = bank()
        writer = db.transactions.begin()
        rel.update(writer, addrs[0], {"bal": 5})
        other = db.transactions.begin()
        before = lock_table(db)
        with pytest.raises(TransactionAborted):
            other.lock_relation(addrs[0].segment, LockMode.SHARED)  # S against IX
        assert lock_table(db) == before
        writer.commit()

    def test_the_public_lock_refuses_the_same_way(self):
        db, rel, addrs = bank()
        writer = db.transactions.begin()
        rel.update(writer, addrs[0], {"bal": 5})
        other = db.transactions.begin()
        other.lock(("app", 1), LockMode.EXCLUSIVE)  # any hashable resource
        before = lock_table(db)
        with pytest.raises(TransactionAborted):
            other.lock(addrs[0], LockMode.SHARED)
        assert other.state is TxnState.ABORTED
        assert ("app", 1) not in lock_table(db)  # the abort released it
        del before[("app", 1)]
        assert lock_table(db) == before
        writer.commit()


def test_the_lock_tables_agree_with_the_functions():
    pairs = list(product(LockMode, LockMode))
    assert len(pairs) == len(_JOIN) == 16
    for held, wanted in pairs:
        assert ((held, wanted) in _COVERS) == covers(held, wanted), (held, wanted)
        assert _JOIN[held, wanted] is join(held, wanted), (held, wanted)


class TestTheStableLogBuffer:
    def test_a_change_to_a_partition_with_no_bin_names_it(self):
        db, rel, addrs = bank()
        txn = db.transactions.begin()
        with pytest.raises(LogError, match=r"S99\.P1 has no bin"):
            txn.entity_updated(EntityAddress(99, 1, 0), b"x", b"y")
        txn.abort()

    def test_append_to_a_chain_that_is_not_open_is_refused(self):
        db, rel, addrs = bank()
        with pytest.raises(TransactionStateError):
            db.slb.append(10_000, b"\x00" * 16)
        txn = db.transactions.begin()
        rel.update(txn, addrs[1], {"bal": 2})
        txn.commit()
        written = db.slb.records_written
        with pytest.raises(TransactionStateError):
            db.slb.append(txn.txn_id, b"\x00" * 16)
        assert db.slb.records_written == written


class TestTheSortingLoop:
    def drained(self, db, rel, addrs, transactions=5):
        for n in range(transactions):
            with db.transaction(pump=False) as txn:
                rel.update(txn, addrs[n % len(addrs)], {"bal": n})

    def test_a_hook_installed_before_a_drain_sees_every_deposit(self):
        db, rel, addrs = bank()
        self.drained(db, rel, addrs)
        seen = []

        def observer(point):
            assert_no_latch_held(point)
            seen.append(point)

        set_crash_point_observer(observer)
        try:
            deposited = db.recovery_processor.step()
        finally:
            set_crash_point_observer(assert_no_latch_held)
        assert deposited == 5
        assert seen.count("recovery.sort.after-deposit") == deposited

    def test_its_charges_are_table_2s_four_charges_bit_for_bit(self):
        db, rel, addrs = bank(log_page_size=8192)
        self.drained(db, rel, addrs, transactions=12)
        cpu = db.recovery_cpu
        sizes = [len(record) for chain in db.slb._committed for record in chain.records()]
        reference = CpuMeter("reference", cpu.mips, VirtualClock(db.clock.now), cpu.params)
        reference._total_instructions = cpu.total_instructions
        reference._by_category = Counter(cpu.category_breakdown())
        for size in sizes:
            reference.charge(cpu.params.i_record_lookup, "record-lookup")
            reference.charge(cpu.params.i_page_check, "page-check")
            reference.charge_stable_bytes(size, "record-copy")
            reference.charge(cpu.params.i_page_update, "page-update")
        assert db.recovery_processor.step() == len(sizes) > 0
        assert db.recovery_processor.pages_flushed == 0  # nothing but the sort charged
        assert cpu.total_instructions == reference.total_instructions
        assert cpu.category_breakdown() == reference.category_breakdown()
        assert db.clock.now == reference.clock.now


class TheRecoveryCpuAsItWas:
    """The sorting step's charges as they were made before the sorting
    loop charged a run at a time: Table 2's four (``charge`` ×3 and
    ``charge_stable_bytes``) per record, just before its deposit is
    tried.  Installed on ``db``'s instances, it checks the recovery CPU
    against that reference at every page flush and on :meth:`check`."""

    def __init__(self, db):
        self.db, self.cpu = db, db.recovery_cpu
        self.reference = CpuMeter("reference", self.cpu.mips, VirtualClock(), self.cpu.params)
        self.flushes = 0
        self.sync()
        deposit, flush = db.slt.deposit, db.recovery_processor._flush_bin
        params = self.cpu.params

        def charged_deposit(record):
            self.reference.charge(params.i_record_lookup, "record-lookup")
            self.reference.charge(params.i_page_check, "page-check")
            self.reference.charge_stable_bytes(len(record), "record-copy")
            self.reference.charge(params.i_page_update, "page-update")
            return deposit(record)

        def checked_flush(bin_index):
            self.check()
            self.flushes += 1
            flush(bin_index)
            self.sync()  # the flush's own charges and disk time

        db.slt.deposit = charged_deposit
        db.recovery_processor._flush_bin = checked_flush

    def sync(self) -> None:
        self.reference._total_instructions = self.cpu.total_instructions
        self.reference._by_category = Counter(self.cpu.category_breakdown())
        self.reference.clock._now = self.db.clock.now

    def check(self) -> None:
        assert self.cpu.total_instructions == self.reference.total_instructions
        assert self.cpu.category_breakdown() == self.reference.category_breakdown()
        assert list(self.cpu.category_breakdown()) == list(self.reference.category_breakdown())
        assert self.db.clock.now == self.reference.clock.now


def committed_records(db) -> list[bytes]:
    return [record for chain in db.slb._committed for record in chain.records()]


class TestTheSortingLoopChargesAsItDidPerRecord:
    """``charge_sort`` takes a run of records: before a page flush, at the
    end of the drain, and for every record whose deposit was tried when
    the loop stops — so every figure read there is what per-record
    charging gave."""

    def test_a_drain_that_fills_a_page_mid_run(self):
        db, rel, addrs = bank(log_page_size=512)
        TestTheSortingLoop().drained(db, rel, addrs, transactions=40)
        records = committed_records(db)
        referee = TheRecoveryCpuAsItWas(db)
        assert db.recovery_processor.step() == len(records)
        referee.check()
        assert referee.flushes >= 2  # pages filled mid-run, not at its end only
        assert db.slt.records_binned and committed_records(db) == []

    @pytest.mark.parametrize("stop", ["crash", "refused"])
    def test_a_drain_stopped_at_the_kth_deposit(self, stop):
        db, rel, addrs = bank(log_page_size=512)
        TestTheSortingLoop().drained(db, rel, addrs, transactions=20)
        k = 11
        if stop == "refused":  # the k-th record's deposit refuses it
            records = committed_records(db)
            bad = bytes([255]) + records[k][1:]
            db.slb._committed.clear()
            db.slb.requeue_committed(records[:k] + [bad] + records[k + 1 :])
            records = committed_records(db)
            error = LogError
        else:  # a crash just after the k-th deposit
            records = committed_records(db)
            error = SimulatedCrash
        referee = TheRecoveryCpuAsItWas(db)
        passages = []

        def observer(point):
            assert_no_latch_held(point)
            if point == "recovery.sort.after-deposit":
                passages.append(point)
                if len(passages) == k:
                    raise SimulatedCrash(point)

        set_crash_point_observer(observer if stop == "crash" else assert_no_latch_held)
        try:
            with pytest.raises(error):
                db.recovery_processor.step()
        finally:
            set_crash_point_observer(assert_no_latch_held)
        referee.check()
        assert referee.flushes >= 1  # a page flushed before the stop
        assert committed_records(db) == records[k:]


class TestTheMainCpuChargesTheStableCopyAsItDid:
    """``Transaction._redo`` charges the SLB copy itself, with
    ``charge_stable_bytes``' float additions in its order."""

    def test_records_of_every_size_up_to_2000_data_bytes(self):
        """Each record appended through the real sinks is charged, before
        its append, what ``charge_stable_bytes`` charges a reference meter
        whose clock also takes every other advance the database's does
        (the audit trail's page writes), in the same order."""
        db = Database(SystemConfig(slb_capacity=16 * 1024 * 1024))
        rel = db.create_relation("doc", [("id", "int"), ("body", "bytes")], primary_key="id")
        cpu, recovered = db.main_cpu, db.recovery_cpu.total_instructions
        reference = CpuMeter("reference", cpu.mips, VirtualClock(db.clock.now), cpu.params)
        reference._total_instructions = cpu.total_instructions
        reference._by_category = Counter(cpu.category_breakdown())
        sizes, differed = [], []
        append, advance = db.slb.append, db.clock.advance

        def charged_then_appended(txn_id, record):
            reference.charge_stable_bytes(len(record), "slb-write")
            sizes.append(len(record))
            if (cpu.total_instructions, db.clock.now) != (
                reference.total_instructions, reference.clock.now
            ):
                differed.append(len(sizes) - 1)  # asserted outside _redo's abort
            append(txn_id, record)

        def mirrored(seconds):
            reference.clock.advance(seconds)
            advance(seconds)

        db.slb.append, db.clock.advance = charged_then_appended, mirrored
        for n in range(2001):
            with db.transaction(pump=False) as txn:
                rel.insert(txn, {"id": n, "body": bytes(n % 251 for _ in range(n))})
        assert db.recovery_cpu.total_instructions == recovered  # no drain ran
        assert max(sizes) >= 2000 and len(sizes) > 2 * 2001
        assert differed == []
        assert cpu.total_instructions == reference.total_instructions
        assert cpu.category_breakdown() == reference.category_breakdown()
        assert db.clock.now == reference.clock.now


class TestTheTransactionScope:
    """``Database.transaction``'s scope commits itself when the body
    returned and settles every other ending: its three rules, and the
    pump after a commit only."""

    @pytest.fixture()
    def pumped(self):
        db, rel, addrs = bank()
        states = []
        pump = db.engine.pump

        def recording():
            states.append(db.transactions._active.copy())
            pump()

        db.engine.pump = recording
        return db, rel, addrs, states

    def test_a_body_that_returns_commits_then_pumps(self, pumped):
        db, rel, addrs, states = pumped
        with db.transaction() as txn:
            rel.update(txn, addrs[0], {"bal": 5})
        assert txn.state is TxnState.COMMITTED
        assert states == [{}]  # the pump ran once, after the commit ended it

    def test_a_body_that_raises_aborts_reraises_and_does_not_pump(self, pumped):
        db, rel, addrs, states = pumped
        with pytest.raises(ZeroDivisionError):
            with db.transaction() as txn:
                rel.update(txn, addrs[0], {"bal": 5})
                1 / 0
        assert txn.state is TxnState.ABORTED and states == []
        with db.transaction() as check:
            assert rel.read(check, addrs[0])["bal"] == 0

    def test_a_crash_leaves_the_transaction_alone(self, pumped):
        db, rel, addrs, states = pumped
        with pytest.raises(SimulatedCrash):
            with db.transaction() as txn:
                rel.update(txn, addrs[0], {"bal": 5})
                raise SimulatedCrash("power")
        assert txn.state is TxnState.ACTIVE and states == []
        assert db.slb.uncommitted_txn_ids == [txn.txn_id]

    def test_aborting_inside_the_body_without_raising_is_refused(self, pumped):
        db, rel, addrs, states = pumped
        with pytest.raises(TransactionStateError, match="without an exception"):
            with db.transaction() as txn:
                txn.abort()
        assert states == []

    def test_pump_false_never_pumps(self, pumped):
        db, rel, addrs, states = pumped
        with db.transaction(pump=False) as txn:
            rel.update(txn, addrs[0], {"bal": 5})
        assert txn.state is TxnState.COMMITTED and states == []


def test_a_read_only_commit_counts_and_adds_no_log_bytes():
    db, rel, addrs = bank()
    before = db.stats()
    written = db.slb.bytes_written
    with db.transaction() as txn:
        rel.read(txn, addrs[0])
    after = db.stats()
    assert after["transactions_committed"] == before["transactions_committed"] + 1
    assert after["logging"]["mode_bytes"] == before["logging"]["mode_bytes"]
    assert db.slb.bytes_written == written


class TestTheCheckpointQueue:
    """The queue keeps the SLB's well-known list: its answers are a
    fresh scan's, and the list is the one stable memory holds."""

    @staticmethod
    def agrees(db):
        queue = db.checkpoint_queue
        entries = db.slb.get_well_known("checkpoint-requests")
        assert queue.entries is entries
        assert queue.pending() == [e for e in entries if e.state is RequestState.REQUEST]
        assert queue.finished() == [e for e in entries if e.state is RequestState.FINISHED]

    def test_after_every_change_and_across_a_restart(self):
        db, rel, addrs = bank()
        queue = db.checkpoint_queue
        self.agrees(db)
        assert queue.pending() == queue.finished() == []
        one, two, three = (PartitionAddress(seg, 1) for seg in (91, 92, 93))
        queue.submit(one, 0, "test")
        queue.submit(two, 1, "test")
        self.agrees(db)
        queue.finish_for(two, 1, None)
        queue.finish_for(three, 2, None)
        self.agrees(db)
        queue.pending()[0].state = RequestState.IN_PROGRESS
        assert queue.revert_in_progress() == 1
        self.agrees(db)
        queue.remove(queue.finished()[0])
        self.agrees(db)
        listed = queue.entries
        db.crash()
        queue.revert_in_progress()
        db.slb.discard_uncommitted()
        assert db.checkpoint_queue is queue and queue.entries is listed
        self.agrees(db)

    def test_a_restarted_database_keeps_the_list(self):
        db, rel, addrs = bank(update_count_threshold=4)
        for n in range(12):
            with db.transaction() as txn:
                rel.update(txn, addrs[n % 3], {"bal": n})
        listed = db.checkpoint_queue.entries
        db.crash()
        db.restart(RecoveryMode.EAGER)
        assert db.checkpoint_queue.entries is listed
        self.agrees(db)


class TestAReadOfAPartitionNotYetRecovered:
    @pytest.fixture()
    def restarted(self):
        db, rel, addrs = bank()
        with db.transaction() as txn:
            rel.update(txn, addrs[3], {"bal": 33})
        db.crash()
        db.restart(RecoveryMode.ON_DEMAND)
        segment = db.memory.segment(addrs[3].segment)
        assert segment.resident(addrs[3].partition) is None
        return db, rel, addrs, segment

    def test_read_recovers_it_on_demand(self, restarted):
        db, rel, addrs, segment = restarted
        with db.transaction() as txn:
            row = rel.read(txn, addrs[3])
        assert row["bal"] == 33 and row.address == addrs[3]
        assert segment.resident(addrs[3].partition) is not None

    def test_lookup_recovers_it_on_demand(self, restarted):
        db, rel, addrs, segment = restarted
        with db.transaction() as txn:
            row = rel.lookup(txn, 3)
        assert row.values == {"id": 3, "bal": 33} and row.address == addrs[3]
        assert segment.resident(addrs[3].partition) is not None


def test_a_replayed_command_opens_no_chain_and_writes_no_audit_entry():
    db, rel, addrs = bank()
    entries, chains = db.audit.entries_written, db.slb.committed_chain_count
    txn = ReplayTransaction(db, 10_000, command=("s", "1", b"[]"), declared_relations=("acct",))
    assert db.slb.uncommitted_txn_ids == []
    txn.lock_relation(addrs[0].segment, LockMode.EXCLUSIVE)
    txn.commit()
    assert txn.state is TxnState.COMMITTED
    assert db.slb.uncommitted_txn_ids == [] and db.slb.committed_chain_count == chains
    assert db.audit.entries_written == entries
    assert db.locks.locks_held(10_000) == set()

