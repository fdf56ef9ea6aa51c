"""Section 1.2: the commit protocols the stable-RAM design replaces.

Section 1.2 reviews how disk-based designs pay for commit:

* **Synchronous WAL** (Lindsay et al.): every transaction forces its log
  page to disk before releasing locks — commit latency includes a disk
  write and throughput is bounded by the log device.
* **Group commit** (IMS FASTPATH): transactions precommit (locks
  released, log still volatile) and officially commit when the shared log
  buffer flushes — log I/O amortised over the group, at the price of
  commit latency up to a full buffer-fill period.
* **Stable-RAM instant commit** (DeWitt et al. / this paper): the REDO
  records are durable the moment they reach the Stable Log Buffer, so
  commit adds no I/O latency at all.

These closed-form models drive ``bench_ablation_commit``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.config import DiskParameters


@dataclass(frozen=True)
class CommitProtocolModel:
    """Commit latency / sustainable commit rate under the three protocols."""

    disk: DiskParameters = field(default_factory=DiskParameters)
    log_page_size: int = 8 * 1024
    log_record_size: int = 24
    records_per_transaction: int = 4
    #: Stable-memory write time per byte (4x-slowed RAM at ~1 us per
    #: reference, 8-byte references).
    stable_write_seconds_per_byte: float = 4e-6 / 8

    # -- per-transaction log volume -------------------------------------------------

    @property
    def log_bytes_per_transaction(self) -> int:
        return self.records_per_transaction * self.log_record_size

    # -- synchronous WAL ---------------------------------------------------------------

    def sync_wal_commit_latency(self) -> float:
        """One log force (sequential page write) per transaction."""
        return self.disk.page_write_time(self.log_page_size, sibling=True)

    def sync_wal_commit_rate(self) -> float:
        """The log device bounds commits to one force per transaction."""
        return 1.0 / self.sync_wal_commit_latency()

    # -- group commit ----------------------------------------------------------------------

    def group_size(self) -> int:
        """Transactions whose records fill one log page."""
        return max(1, self.log_page_size // self.log_bytes_per_transaction)

    def group_commit_rate(self) -> float:
        """One force commits a whole group."""
        return self.group_size() / self.sync_wal_commit_latency()

    def group_commit_latency(self, arrival_rate: float) -> float:
        """Expected commit latency at a given transaction arrival rate.

        A transaction waits on average half the buffer-fill period, then
        the force itself.  At low arrival rates the fill period dominates
        (the classical group-commit latency penalty).
        """
        if arrival_rate <= 0:
            raise ValueError("arrival_rate must be positive")
        fill_seconds = self.group_size() / arrival_rate
        return fill_seconds / 2.0 + self.sync_wal_commit_latency()

    # -- stable-RAM instant commit ------------------------------------------------------------

    def stable_ram_commit_latency(self) -> float:
        """Commit is the stable-memory write of the records themselves."""
        return self.log_bytes_per_transaction * self.stable_write_seconds_per_byte

    def stable_ram_commit_rate(self) -> float:
        """Bounded by stable-memory bandwidth, not the disk."""
        return 1.0 / self.stable_ram_commit_latency()

    # -- comparison table ------------------------------------------------------------------------

    def comparison(self, arrival_rate: float = 1000.0) -> list[dict]:
        """Rows for the ablation bench: protocol, latency, max rate."""
        return [
            {
                "protocol": "stable-ram-instant",
                "commit_latency_s": self.stable_ram_commit_latency(),
                "max_commit_rate": self.stable_ram_commit_rate(),
            },
            {
                "protocol": "group-commit",
                "commit_latency_s": self.group_commit_latency(arrival_rate),
                "max_commit_rate": self.group_commit_rate(),
            },
            {
                "protocol": "sync-wal",
                "commit_latency_s": self.sync_wal_commit_latency(),
                "max_commit_rate": self.sync_wal_commit_rate(),
            },
        ]
