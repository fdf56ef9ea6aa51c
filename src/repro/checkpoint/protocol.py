"""The checkpoint request queue: the processors' communication buffer.

Section 2.4: the recovery manager enters a partition address plus a status
flag in the Stable Log Buffer; the flag starts in the *request* state,
moves to *in-progress* while the checkpoint transaction runs, and reaches
*finished* after that transaction commits.  A finished entry tells the
recovery CPU to flush the partition's remaining log information and reset
its bin.

The queue lives in the SLB's well-known area, so it survives crashes.
After a crash, in-progress entries revert to request (their checkpoint
transaction died uncommitted) and finished entries are completed by the
recovery CPU as usual.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.common.types import PartitionAddress
from repro.wal.slb import StableLogBuffer

_QUEUE_KEY = "checkpoint-requests"


class RequestState(enum.Enum):
    REQUEST = "request"
    IN_PROGRESS = "in-progress"
    FINISHED = "finished"


@dataclass
class CheckpointRequest:
    partition: PartitionAddress
    bin_index: int
    reason: str
    state: RequestState = RequestState.REQUEST
    #: Slot holding the superseded image, freed once the checkpoint is
    #: fully acknowledged (new copies never overwrite old ones).
    previous_slot: int | None = None


class CheckpointQueue:
    """FIFO of checkpoint requests stored in stable memory."""

    def __init__(self, slb: StableLogBuffer):
        if slb.get_well_known(_QUEUE_KEY) is None:
            slb.put_well_known(_QUEUE_KEY, [])
        #: The well-known list, kept: only this constructor puts the key,
        #: and the list survives a crash with the SLB that holds it.  Read
        #: it to ask "is anything queued?" with no call; change it only
        #: through the methods below.
        self.entries: list[CheckpointRequest] = slb.get_well_known(_QUEUE_KEY)  # type: ignore

    def submit(self, partition: PartitionAddress, bin_index: int, reason: str) -> None:
        """Recovery CPU: enter a checkpoint request (deduplicated)."""
        if any(entry.partition == partition for entry in self.entries):
            return
        self.entries.append(CheckpointRequest(partition, bin_index, reason))

    # every pump asks both, of a queue that is nearly always empty
    def pending(self) -> list[CheckpointRequest]:
        entries = self.entries
        return [e for e in entries if e.state is RequestState.REQUEST] if entries else []

    def finished(self) -> list[CheckpointRequest]:
        entries = self.entries
        return [e for e in entries if e.state is RequestState.FINISHED] if entries else []

    def in_flight(self) -> list[CheckpointRequest]:
        """Entries whose checkpoint has started (in-progress or awaiting
        acknowledgement)."""
        return [
            e for e in self.entries if e.state is not RequestState.REQUEST
        ]

    def remove(self, request: CheckpointRequest) -> None:
        self.entries.remove(request)

    def finish_for(
        self, partition: PartitionAddress, bin_index: int, previous_slot: int | None
    ) -> None:
        """Mark the entry for ``partition`` FINISHED, creating one if none
        exists: a settlement sweep or a whole-database checkpoint copies
        partitions that never requested it, and each copied partition
        needs a FINISHED entry so the recovery CPU flushes its leftovers,
        resets its bin and frees ``previous_slot``."""
        for entry in self.entries:
            if entry.partition == partition:
                entry.state = RequestState.FINISHED
                entry.previous_slot = previous_slot
                return
        self.entries.append(
            CheckpointRequest(
                partition, bin_index, "sweep", RequestState.FINISHED, previous_slot
            )
        )

    def revert_in_progress(self) -> int:
        """Post-crash: in-progress checkpoints died with the main CPU."""
        reverted = 0
        for entry in self.entries:
            if entry.state is RequestState.IN_PROGRESS:
                entry.state = RequestState.REQUEST
                entry.previous_slot = None
                reverted += 1
        return reverted

    def __len__(self) -> int:
        return len(self.entries)
