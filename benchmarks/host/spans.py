"""Run-time span tracing for the host-time benchmark.

The benchmark measures every layer *from outside*: nothing under ``src/``
knows about spans.  :func:`install` replaces the public callables named in
:data:`SPAN_TARGETS` with timing wrappers — class attributes in place, and
module-level functions in every ``repro`` module that imported them by
name — and each wrapper records ``(name, start_ns, end_ns, parent, op_id)``
into a preallocated in-memory list.  Nothing is written until the run ends.

A span's *self time* is its duration minus the durations of its direct
children, so the self times of everything under one root add up to the
root's duration exactly.  Generator callables are timed from their first
``next()`` to exhaustion; work the consumer does between two yields is
therefore nested inside the generator's span, which keeps the intervals
properly nested.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from time import perf_counter_ns

#: The timed operation itself; its self time is what no layer span covers.
ROOT_SPAN = "db.txn_scope"

#: span name -> [(module, class name or None, attribute names)].
SPAN_TARGETS: dict[str, list[tuple[str, str | None, tuple[str, ...]]]] = {
    "db.relation_read": [
        ("repro.db.relation", "Relation", ("lookup", "lookup_by", "range_by", "read")),
    ],
    "db.relation_write": [
        ("repro.db.relation", "Relation", ("insert", "update", "delete")),
    ],
    "txn.begin": [("repro.txn.manager", "TransactionManager", ("begin",))],
    "txn.commit": [("repro.txn.transaction", "Transaction", ("commit",))],
    "txn.abort": [("repro.txn.transaction", "Transaction", ("abort",))],
    "concurrency.lock_acquire": [("repro.concurrency.locks", "LockManager", ("acquire",))],
    "concurrency.lock_release_all": [
        ("repro.concurrency.locks", "LockManager", ("release_all",)),
    ],
    "wal.record_encode": [("repro.wal.records", "RedoRecord", ("encode", "size_bytes"))],
    "wal.slb_append": [("repro.wal.slb", "StableLogBuffer", ("append",))],
    "wal.slb_commit": [("repro.wal.slb", "StableLogBuffer", ("commit", "commit_command"))],
    "wal.slb_drain": [("repro.wal.slb", "StableLogBuffer", ("drain_committed",))],
    "wal.slt_deposit": [("repro.wal.slt", "StableLogTail", ("deposit",))],
    "wal.slt_seal_page": [("repro.wal.slt", "StableLogTail", ("seal_page",))],
    "wal.log_append_page": [("repro.wal.log_disk", "LogDisk", ("append_page",))],
    "wal.audit_record": [("repro.wal.audit", "AuditLog", ("record", "flush"))],
    "common.frame_crc": [("repro.common.checksum", None, ("seal_frame", "open_frame"))],
    "engine.pump": [("repro.engine.sim", "SimEngine", ("pump",))],
    "recovery.processor_drain": [
        (
            "repro.recovery.processor",
            "RecoveryProcessor",
            ("step", "run_until_drained", "acknowledge_finished"),
        ),
    ],
    "recovery.condense_step": [("repro.recovery.condenser", "Condenser", ("step",))],
    "checkpoint.process_pending": [
        ("repro.checkpoint.manager", "CheckpointManager", ("process_pending",)),
    ],
    "checkpoint.write_image": [
        ("repro.checkpoint.disk_queue", "CheckpointDiskQueue", ("write_image",)),
    ],
    "storage.partition_image": [
        ("repro.storage.partition", "Partition", ("to_bytes", "from_bytes")),
    ],
    "index.hash_search": [("repro.index.linear_hash", "LinearHashIndex", ("search",))],
    "index.hash_write": [("repro.index.linear_hash", "LinearHashIndex", ("insert", "delete"))],
    "index.ttree_search": [("repro.index.ttree", "TTreeIndex", ("search", "range_scan"))],
    "index.ttree_write": [("repro.index.ttree", "TTreeIndex", ("insert", "delete"))],
    "index.node_read": [("repro.index.node_store", "NodeStore", ("read",))],
    "index.node_write": [("repro.index.node_store", "NodeStore", ("write", "allocate", "free"))],
    "storage.partition_read": [("repro.storage.partition", "Partition", ("read",))],
    "storage.partition_write": [
        ("repro.storage.partition", "Partition", ("insert", "insert_at", "update", "delete")),
    ],
    "storage.heap_ops": [
        ("repro.storage.heap", "StringHeap", ("put", "put_at", "get", "replace", "delete")),
    ],
    "catalog.lookup": [
        (
            "repro.catalog.catalog",
            "Catalog",
            ("relation", "index", "indexes_of", "descriptor_for_segment"),
        ),
    ],
    "recovery.restore_system_state": [
        ("repro.recovery.restart", "RestartCoordinator", ("restore_system_state",)),
    ],
    "recovery.recover_partition": [
        ("repro.recovery.restart", "RestartCoordinator", ("recover_partition",)),
    ],
    "recovery.rebuild_partition": [
        ("repro.recovery.redo", None, ("rebuild_partition_resilient",)),
    ],
    # every RedoRecord subclass's own apply(); resolved in install()
    "recovery.redo_apply": [],
    "wal.log_read_page": [
        ("repro.wal.log_disk", "LogDisk", ("read_page", "fetch_blob", "decode_blob")),
    ],
    "checkpoint.read_image": [
        ("repro.checkpoint.disk_queue", "CheckpointDiskQueue", ("read_image",)),
    ],
    "catalog.rebuild": [
        ("repro.catalog.catalog", "Catalog", ("rebuild", "from_well_known_entry")),
    ],
    "recovery.command_replay": [
        ("repro.recovery.replay_plan", None, ("replay_live_commands",)),
    ],
    "sim.cpu_charge": [("repro.sim.cpu", "CpuMeter", ("charge",))],
    "sim.disk_io": [
        (
            "repro.sim.disk",
            "SimulatedDisk",
            ("read_page", "read_track", "write_page", "write_track"),
        ),
    ],
}

#: Spans that only do work between ``crash()`` and full residency; they are
#: reported per restart, every other span per measured transaction.
RESTART_SPANS = (
    "recovery.restore_system_state",
    "recovery.recover_partition",
    "recovery.rebuild_partition",
    "recovery.redo_apply",
    "wal.log_read_page",
    "checkpoint.read_image",
    "catalog.rebuild",
    "recovery.command_replay",
)

SPAN_NAMES = (ROOT_SPAN, *SPAN_TARGETS)
FORWARD_SPANS = tuple(name for name in SPAN_NAMES if name not in RESTART_SPANS)


class Tracer:
    """Preallocated span store plus the current-span cursor.

    ``op`` is ``None`` while tracing is off (set-up, verification); the
    wrappers then cost one attribute read and call straight through.
    Measured operations carry their index (``>= 0``) as op id, restart
    windows carry ``-(restart index + 1)``.
    """

    def __init__(self, capacity: int = 1 << 20):
        self.records: list[tuple[int, int, int, int, int] | None] = [None] * capacity
        self.count = 0
        self.current = -1
        self.op: int | None = None
        self.name_ids = {name: index for index, name in enumerate(SPAN_NAMES)}

    def _open(self) -> tuple[int, int]:
        """Claim the next record slot and make it the current span."""
        index = self.count
        if index == len(self.records):
            self.records.extend([None] * index)
        self.count = index + 1
        parent = self.current
        self.current = index
        return index, parent

    def wrap(self, name: str, fn):
        """A timing wrapper around ``fn`` recording spans called ``name``."""
        tracer = self
        name_id = self.name_ids[name]
        records = self.records  # grown in place, so the binding stays valid

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def generator_wrapper(*args, **kwargs):
                if tracer.op is None:
                    yield from fn(*args, **kwargs)
                    return
                index, parent = tracer._open()
                start = perf_counter_ns()
                try:
                    yield from fn(*args, **kwargs)
                finally:
                    end = perf_counter_ns()
                    tracer.current = parent
                    records[index] = (name_id, start, end, parent, tracer.op)

            return generator_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            index, parent = tracer._open()
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                tracer.current = parent
                records[index] = (name_id, start, end, parent, tracer.op)

        return wrapper

    # -- windows opened by the harness ------------------------------------------

    def open_root(self) -> tuple[int, int]:
        """Open the root span of one timed operation (``op`` already set)."""
        index, _ = self._open()
        return index, perf_counter_ns()

    def close_root(self, handle: tuple[int, int]) -> int:
        """Close a root span; returns its duration in ns."""
        end = perf_counter_ns()
        index, start = handle
        self.records[index] = (self.name_ids[ROOT_SPAN], start, end, -1, self.op)
        self.current = -1
        return end - start

    # -- results -------------------------------------------------------------------

    def aggregate(self) -> dict:
        """Calls and self time per span name, split into the measured
        phase (op id >= 0) and the restart windows (op id < 0), the summed
        duration of the timed operations, and the inclusive time of
        ``recovery.command_replay`` (never nested in itself; context for
        reading the restart split, not a metric)."""
        records = self.records
        count = self.count
        self_ns = [0] * count
        for index in range(count):
            _, start, end, parent, _ = records[index]
            duration = end - start
            self_ns[index] += duration
            if parent >= 0:
                self_ns[parent] -= duration
        phases = {
            "measured": {name: [0, 0] for name in SPAN_NAMES},
            "restart": {name: [0, 0] for name in SPAN_NAMES},
        }
        root_id = self.name_ids[ROOT_SPAN]
        replay_id = self.name_ids["recovery.command_replay"]
        root_ns = replay_ns = 0
        for index in range(count):
            name_id, start, end, _, op = records[index]
            cell = phases["measured" if op >= 0 else "restart"][SPAN_NAMES[name_id]]
            cell[0] += 1
            cell[1] += self_ns[index]
            if name_id == root_id and op >= 0:
                root_ns += end - start
            elif name_id == replay_id:
                replay_ns += end - start
        return {
            "phases": phases,
            "command_replay_ns": replay_ns,
            "measured_root_ns": root_ns,
            "spans": count,
        }

    def write_jsonl(self, path, header: dict) -> None:
        """One header line, then one ``[name, start_ns, end_ns, parent,
        op_id]`` line per span; times are relative to the first span and
        ``parent`` is the zero-based index of the parent's line (-1: none)."""
        origin = self.records[0][1] if self.count else 0
        header = dict(header, fields=["name", "start_ns", "end_ns", "parent", "op_id"])
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps(header) + "\n")
            out.writelines(
                f'["{SPAN_NAMES[name_id]}",{start - origin},{end - origin},{parent},{op}]\n'
                for name_id, start, end, parent, op in self.records[: self.count]
            )


def _wrap_attribute(tracer: Tracer, name: str, owner, attribute: str) -> None:
    """Replace ``owner.attribute`` (a class attribute) with a wrapper,
    preserving its descriptor kind."""
    raw = owner.__dict__[attribute]
    if isinstance(raw, property):
        wrapped = property(tracer.wrap(name, raw.fget), raw.fset, raw.fdel, raw.__doc__)
    elif isinstance(raw, classmethod):
        wrapped = classmethod(tracer.wrap(name, raw.__func__))
    elif isinstance(raw, staticmethod):
        wrapped = staticmethod(tracer.wrap(name, raw.__func__))
    else:
        wrapped = tracer.wrap(name, raw)
    setattr(owner, attribute, wrapped)


def _wrap_function(tracer: Tracer, name: str, module, attribute: str) -> None:
    """Replace a module-level function everywhere it is bound by name."""
    original = getattr(module, attribute)
    wrapped = tracer.wrap(name, original)
    for loaded_name, loaded in list(sys.modules.items()):
        if loaded is None or not loaded_name.startswith("repro"):
            continue
        for bound_name, value in list(vars(loaded).items()):
            if value is original:
                setattr(loaded, bound_name, wrapped)


def install(tracer: Tracer) -> None:
    """Wrap every target; call once, after ``repro`` is fully imported and
    before the database is built."""
    import repro.wal.records as records_module

    for name, targets in SPAN_TARGETS.items():
        for module_name, class_name, attributes in targets:
            module = importlib.import_module(module_name)
            for attribute in attributes:
                if class_name is None:
                    _wrap_function(tracer, name, module, attribute)
                else:
                    _wrap_attribute(tracer, name, getattr(module, class_name), attribute)
    for record_class in _all_subclasses(records_module.RedoRecord):
        if "apply" in record_class.__dict__:
            _wrap_attribute(tracer, "recovery.redo_apply", record_class, "apply")


def _all_subclasses(cls) -> list:
    found = []
    for subclass in cls.__subclasses__():
        found.append(subclass)
        found.extend(_all_subclasses(subclass))
    return found
