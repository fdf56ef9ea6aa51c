"""Simulated disks.

A :class:`SimulatedDisk` is a block-addressed, durable byte store with the
paper's timing model: seeks, rotational latency, and separate page-rate /
track-rate transfers (section 3.1 — partitions are written in whole tracks
at double the individual-page rate; log-disk sectors are interleaved so
back-to-back page writes do not lose a revolution).

Contents survive simulated crashes — the crash controller clears volatile
state only.  Media failure is out of scope here, exactly as in the paper
(section 2.6 defers it to classical archive recovery), but torn page writes
*are* modelled so the duplexed log-disk pair of section 2.2 has something
to protect against: see :class:`DuplexedDisk`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.common.checksum import open_frame, seal_frame
from repro.common.config import DiskParameters
from repro.common.errors import ChecksumError, MediaFailure
from repro.sim.clock import VirtualClock, host_pause
from repro.sim.faults import TornWriteError

#: Corruption kinds accepted by :meth:`SimulatedDisk.corrupt_block`.
CORRUPTION_KINDS = ("torn", "bit-flip", "zero-fill", "stale-version")


@dataclass
class DiskStats:
    """Operation counters for one simulated disk."""

    page_reads: int = 0
    page_writes: int = 0
    track_reads: int = 0
    track_writes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    busy_seconds: float = 0.0

    def snapshot(self) -> dict[str, float]:
        return {
            "page_reads": self.page_reads,
            "page_writes": self.page_writes,
            "track_reads": self.track_reads,
            "track_writes": self.track_writes,
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
            "busy_seconds": self.busy_seconds,
        }


@dataclass
class _Block:
    data: bytes
    #: False when the block was the target of an injected torn write.
    intact: bool = True
    #: The block's previous contents, kept so a "stale-version" corruption
    #: can resurrect them (a write the drive acknowledged but never made
    #: durable, leaving the old sector image in place).
    previous: bytes | None = None


class SimulatedDisk:
    """One durable, block-addressed disk with simulated timing."""

    def __init__(
        self,
        name: str,
        params: DiskParameters,
        clock: VirtualClock,
    ):
        self.name = name
        self.params = params
        self.clock = clock
        self.stats = DiskStats()
        self._blocks: dict[int, _Block] = {}
        #: When set, the next write is torn: the block is left unreadable.
        self._tear_next_write = False
        #: Host seconds slept per simulated device second (0.0 = purely
        #: simulated).  The torture rig raises this so device waits cost
        #: host time in which threads reorder; the sleep happens outside
        #: the block mutex, so concurrent readers overlap.
        self.realtime_scale = 0.0
        #: Optional host-pause perturbation (chaos latency injection).
        #: Receives the pause computed from ``realtime_scale`` and returns
        #: the pause to actually take; seeded jitter here makes threaded
        #: workers reorder reproducibly (see ``repro.sim.chaos.install_latency``).
        self.latency_injector = None
        #: Guards the block table and stats — the recovery thread flushes
        #: log pages while restore workers read checkpoint tracks.
        self._mutex = threading.RLock()

    # -- fault injection ------------------------------------------------------

    def inject_torn_write(self) -> None:
        """Arrange for the next write to be torn (half-written)."""
        self._tear_next_write = True

    def corrupt_block(self, block_id: int, kind: str = "bit-flip") -> None:
        """Damage a stored block in place.

        Kinds (:data:`CORRUPTION_KINDS`):

        * ``"torn"`` — mark the block half-written (self-reporting read).
        * ``"bit-flip"`` — flip one bit in the middle of the data; only a
          checksum can catch this.
        * ``"zero-fill"`` — replace the contents with zeros (a remapped
          or never-written sector).
        * ``"stale-version"`` — resurrect the block's previous contents
          (a lost write); falls back to zero-fill when the block was
          never overwritten.
        """
        with self._mutex:
            try:
                block = self._blocks[block_id]
            except KeyError:
                raise KeyError(
                    f"disk {self.name!r} has no block {block_id}"
                ) from None
        if kind == "torn":
            block.intact = False
        elif kind == "bit-flip":
            data = bytearray(block.data)
            if not data:
                raise ValueError(f"block {block_id} is empty; nothing to flip")
            data[len(data) // 2] ^= 0x40
            block.data = bytes(data)
        elif kind == "zero-fill":
            block.data = b"\x00" * len(block.data)
        elif kind == "stale-version":
            if block.previous is not None:
                block.data = block.previous
            else:
                block.data = b"\x00" * len(block.data)
        else:
            raise ValueError(
                f"unknown corruption kind {kind!r}; expected one of {CORRUPTION_KINDS}"
            )

    # -- writes ---------------------------------------------------------------

    def write_page(self, block_id: int, data: bytes, *, sibling: bool = False) -> None:
        """Write one individually addressed page."""
        seconds = self.params.page_write_time(len(data), sibling=sibling)
        with self._mutex:
            self.stats.page_writes += 1
            self._store(block_id, data)
        self._account_write(seconds)

    def write_track(self, block_id: int, data: bytes) -> None:
        """Write whole tracks (used for partition checkpoint images)."""
        seconds = self.params.track_write_time(len(data))
        with self._mutex:
            self.stats.track_writes += 1
            self._store(block_id, data)
        self._account_write(seconds)

    def mirror_store(self, block_id: int, data: bytes) -> None:
        """Store bytes as the mirror half of a duplexed write.

        The mirror's transfer overlaps the primary's in real hardware, so
        the shared clock is not advanced a second time — only this disk's
        own stats record the write.
        """
        with self._mutex:
            self.stats.page_writes += 1
            self._store(block_id, data)

    def _store(self, block_id: int, data: bytes) -> None:
        # caller holds self._mutex
        intact = not self._tear_next_write
        self._tear_next_write = False
        old = self._blocks.get(block_id)
        previous = old.data if old is not None and old.intact else None
        self._blocks[block_id] = _Block(bytes(data), intact=intact, previous=previous)
        self.stats.bytes_written += len(data)

    def _account_write(self, seconds: float) -> None:
        with self._mutex:
            self.stats.busy_seconds += seconds
        self.clock.advance(seconds)
        self._bridge_pause(seconds)

    # -- reads ----------------------------------------------------------------

    def read_page(self, block_id: int, *, sibling: bool = False) -> bytes:
        with self._mutex:
            block = self._fetch(block_id)
            self.stats.page_reads += 1
        seconds = self.params.page_read_time(len(block.data), sibling=sibling)
        self._account_read(seconds, len(block.data))
        return block.data

    def read_track(self, block_id: int) -> bytes:
        with self._mutex:
            block = self._fetch(block_id)
            self.stats.track_reads += 1
        seconds = self.params.track_read_time(len(block.data))
        self._account_read(seconds, len(block.data))
        return block.data

    def _fetch(self, block_id: int) -> _Block:
        # caller holds self._mutex
        try:
            block = self._blocks[block_id]
        except KeyError:
            raise KeyError(f"disk {self.name!r} has no block {block_id}") from None
        if not block.intact:
            raise TornWriteError(
                f"disk {self.name!r} block {block_id} was torn by a crash"
            )
        return block

    def _account_read(self, seconds: float, nbytes: int) -> None:
        with self._mutex:
            self.stats.busy_seconds += seconds
            self.stats.bytes_read += nbytes
        self.clock.advance(seconds)
        self._bridge_pause(seconds)

    def _bridge_pause(self, seconds: float) -> None:
        # Host-time bridge: near-free (two attribute loads) when neither
        # realtime scaling nor chaos latency is installed.
        scale = self.realtime_scale
        injector = self.latency_injector
        if scale or injector is not None:
            pause = seconds * scale
            if injector is not None:
                pause = injector(pause)
            host_pause(pause)

    # -- inspection -----------------------------------------------------------

    def contains(self, block_id: int) -> bool:
        return block_id in self._blocks

    def free(self, block_id: int) -> None:
        """Release a block (space reclamation; no timing charged)."""
        with self._mutex:
            self._blocks.pop(block_id, None)

    def destroy(self) -> int:
        """Media failure: every block on this spindle is lost.

        Returns the number of blocks destroyed.  Recovery from this is
        the archive-recovery problem of paper section 2.6.
        """
        with self._mutex:
            lost = len(self._blocks)
            self._blocks.clear()
            return lost

    def block_ids(self) -> list[int]:
        with self._mutex:
            return sorted(self._blocks)

    def __len__(self) -> int:
        return len(self._blocks)

    def __repr__(self) -> str:
        return f"SimulatedDisk(name={self.name!r}, blocks={len(self._blocks)})"


class DuplexedDisk:
    """A mirrored pair of log disks (paper section 2.2).

    Writes are CRC32-framed and go to both spindles; reads verify the
    frame and are served from the primary, failing over to the mirror on
    a torn write *or* a checksum mismatch.  When both copies are bad the
    data is genuinely lost and :class:`~repro.common.errors.MediaFailure`
    escalates to archive recovery.  Timing charges both writes (the
    drives operate in parallel in the paper, but the simulation is
    single-threaded, so we charge the slower — identical — of the two
    once and track the second on the mirror's own stats only).
    """

    def __init__(self, primary: SimulatedDisk, mirror: SimulatedDisk):
        if primary is mirror:
            raise ValueError("a duplexed pair needs two distinct disks")
        self.primary = primary
        self.mirror = mirror
        #: Reads served from the mirror after the primary copy was bad.
        self.failovers = 0

    def write_page(self, block_id: int, data: bytes, *, sibling: bool = False) -> None:
        framed = seal_frame(data)
        self.primary.write_page(block_id, framed, sibling=sibling)
        self.mirror.mirror_store(block_id, framed)

    def read_page(self, block_id: int, *, sibling: bool = False) -> bytes:
        try:
            blob = self.primary.read_page(block_id, sibling=sibling)
            return open_frame(blob, context=f"{self.primary.name} block {block_id}")
        except (TornWriteError, ChecksumError, KeyError) as primary_error:
            try:
                blob = self.mirror.read_page(block_id, sibling=sibling)
                payload = open_frame(
                    blob, context=f"{self.mirror.name} block {block_id}"
                )
            except (TornWriteError, ChecksumError, KeyError) as mirror_error:
                if isinstance(primary_error, KeyError) and isinstance(
                    mirror_error, KeyError
                ):
                    # Never written anywhere: keep the "no such block" shape.
                    raise KeyError(
                        f"duplexed pair has no block {block_id}"
                    ) from mirror_error
                raise MediaFailure(
                    f"both copies of block {block_id} are unreadable "
                    f"(primary: {primary_error}; mirror: {mirror_error})"
                ) from mirror_error
            self.failovers += 1
            return payload

    def contains(self, block_id: int) -> bool:
        return self.primary.contains(block_id) or self.mirror.contains(block_id)

    def free(self, block_id: int) -> None:
        self.primary.free(block_id)
        self.mirror.free(block_id)

    def block_ids(self) -> list[int]:
        return sorted(set(self.primary.block_ids()) | set(self.mirror.block_ids()))
