"""The checkpoint disks as a pseudo-circular queue of partition slots.

Section 2.4: checkpoint images are written to the first available location
at the head of the queue rather than to per-partition home slots (which
would cost a seek to a fixed location every time).  Rarely-checkpointed
partitions keep their old slot and are skipped as the head passes by —
hence *pseudo*-circular.  New images never overwrite old ones; the old
slot is freed only after the checkpoint transaction commits.

The allocation map is volatile here (it is rebuilt from the catalogs at
restart, where the paper also keeps it); concurrent checkpoint
transactions serialise on a write latch exactly as the paper requires.
"""

from __future__ import annotations

from repro.common.checksum import open_frame, seal_frame
from repro.common.counters import Counters
from repro.common.errors import CheckpointError, MediaFailure
from repro.concurrency.latch import Latch
from repro.sim.chaos import (
    crash_point,
    fault_point,
    register_crash_point,
    register_fault_point,
)
from repro.sim.disk import SimulatedDisk
from repro.sim.faults import DEFAULT_RETRY_BUDGET, IO_COUNTERS, run_with_retry

register_crash_point(
    "checkpoint.image.before-write",
    "slot allocated and installed, image not yet on the checkpoint disk",
)
register_crash_point(
    "checkpoint.image.after-write",
    "image durable in its slot, checkpoint transaction not yet committed",
)
register_fault_point(
    "checkpoint.image.write",
    "transient controller fault on a checkpoint-image track write",
)
register_fault_point(
    "checkpoint.image.read",
    "transient controller fault on a checkpoint-image track read",
)


class CheckpointDiskQueue:
    """Slot allocator plus image I/O on the checkpoint disk."""

    def __init__(
        self,
        disk: SimulatedDisk,
        slots: int,
        retry_budget: int = DEFAULT_RETRY_BUDGET,
    ):
        if slots <= 0:
            raise CheckpointError("checkpoint disk needs at least one slot")
        self.disk = disk
        self.slots = slots
        #: Transient device faults are retried within this budget and
        #: escalate to ``MediaFailure`` past it; counters land in
        #: ``Database.stats()["transient_io"]["checkpoint"]``.
        self.retry_budget = retry_budget
        self.io_stats = Counters(*IO_COUNTERS)
        self.map_latch = Latch("checkpoint-disk-map")
        self._occupied: set[int] = set()
        self._head = 0

    # -- allocation --------------------------------------------------------------

    def allocate(self, owner: int) -> int:
        """Claim the next free slot at the head of the queue.

        ``owner`` identifies the checkpoint transaction for the map latch.
        """
        with self.map_latch.held_by(owner):
            for _ in range(self.slots):
                slot = self._head
                self._head = (self._head + 1) % self.slots
                if slot not in self._occupied:
                    self._occupied.add(slot)
                    return slot
        raise CheckpointError("checkpoint disk is full: no free slots")

    def free(self, slot: int) -> None:
        self._occupied.discard(slot)
        self.disk.free(slot)

    def rebuild_map(self, occupied: set[int]) -> None:
        """Post-crash: reconstruct the allocation map from the catalogs."""
        self._occupied = set(occupied)
        self._head = 0

    # -- image I/O -----------------------------------------------------------------

    def write_image(self, slot: int, image: bytes) -> None:
        """Partitions are written in whole tracks (double transfer rate).

        Images are CRC32-framed so corruption is detected at read time
        and recovery can fall back to full-history log replay.
        """
        if slot not in self._occupied:
            raise CheckpointError(f"slot {slot} was not allocated")
        framed = seal_frame(image)
        # Fault hook and primitive write share one lambda so the retry
        # wrapper re-runs both; past-budget faults escalate to
        # MediaFailure and the media-rescue paths take over.
        crash_point("checkpoint.image.before-write")
        run_with_retry(
            lambda: (
                fault_point("checkpoint.image.write"),
                self.disk.write_track(slot, framed),
            ),
            self.retry_budget,
            self.io_stats,
            "write",
            f"checkpoint-image write to slot {slot}",
        )
        crash_point("checkpoint.image.after-write")

    def read_image(self, slot: int) -> bytes:
        """Read and verify one image; raises
        :class:`~repro.common.errors.ChecksumError` on corruption and
        :class:`~repro.common.errors.MediaFailure` when the disk no longer
        holds the slot at all (a lost image, like a torn one, sends
        recovery to the log history)."""

        def read_track() -> bytes:
            fault_point("checkpoint.image.read")
            try:
                return self.disk.read_track(slot)
            except KeyError as exc:
                raise MediaFailure(
                    f"checkpoint slot {slot} is not on the checkpoint disk"
                ) from exc

        blob = run_with_retry(
            read_track,
            self.retry_budget,
            self.io_stats,
            "read",
            f"checkpoint-image read from slot {slot}",
        )
        return open_frame(blob, context=f"checkpoint slot {slot}")

    # -- inspection -------------------------------------------------------------------

    @property
    def occupied_count(self) -> int:
        return len(self._occupied)

    def allocated_slots(self) -> set[int]:
        """A copy of the allocation map (for the integrity audit)."""
        return set(self._occupied)
