"""The main CPU's side of the log path.

Section 2.2: the only logging work the main processor does is copy REDO
records into the Stable Log Buffer; everything downstream (sorting,
flushing, checkpoint signalling) belongs to the recovery CPU.  This
service owns that narrow surface — the SLB append with back-pressure and
the well-known catalog address duplication — so the database object is
pure wiring.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.catalog.catalog import CATALOG_LOCATIONS_KEY
from repro.common.errors import StableMemoryFullError
from repro.wal.records import RedoRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.db.database import Database


class LoggingService:
    """SLB appends with back-pressure, charged to the main CPU."""

    def __init__(self, db: "Database"):
        self.db = db

    def append_log(self, txn_id: int, record: RedoRecord) -> None:
        """Write a REDO record to the SLB, draining on back-pressure.

        The main CPU pays the stable-memory copy for its own log writes
        (the only logging work it does, section 2.2).
        """
        db = self.db
        db.main_cpu.charge_stable_bytes(record.size_bytes, "slb-write")
        try:
            db.slb.append(txn_id, record)
        except StableMemoryFullError:
            # The main CPU stalls while the recovery CPU frees blocks.
            db.engine.drain_log()
            db.slb.append(txn_id, record)

    def publish_catalog_locations(self) -> None:
        """Duplicate the catalog partition address list into both stable
        areas (section 2.5: 'stored twice, in the Stable Log Buffer and in
        the Stable Log Tail')."""
        db = self.db
        entry = db.catalog.well_known_entry()
        db.slb.put_well_known(CATALOG_LOCATIONS_KEY, entry)
        db.slt.put_well_known(CATALOG_LOCATIONS_KEY, entry)
