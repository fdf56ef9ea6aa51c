"""Configuration dataclasses sizing the simulated MM-DBMS.

Two kinds of knobs live here:

* :class:`SystemConfig` — functional sizes (partition size, log page size,
  checkpoint trigger threshold, ...) used by the running system.
* :class:`AnalysisParameters` / :class:`DiskParameters` — the cost-model
  constants of the paper's Table 2, shared by the analytic model
  (``repro.analysis``) and the instruction-accounting simulator
  (``repro.sim.cpu``).

Default values follow Table 2 of the paper: 24-byte log records, 8 KB log
pages, 48 KB partitions, a checkpoint threshold of 1000 updates, and a
1-MIPS recovery processor whose stable memory is four times slower than
regular memory.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.common.errors import ConfigurationError
from repro.common.units import KILOBYTE, MEGABYTE

#: The four environment variables (docs/ENGINES.md has the table): the
#: default engine, its worker pool size, and the defaults of
#: ``SystemConfig.logging_mode`` and ``SystemConfig.condense_enabled``.
ENGINE_ENV_VAR = "REPRO_ENGINE"
WORKERS_ENV_VAR = "REPRO_ENGINE_WORKERS"
LOGGING_MODE_ENV_VAR = "REPRO_LOGGING_MODE"
CONDENSE_ENV_VAR = "REPRO_CONDENSE"

LOGGING_MODES = ("value", "command")
_TRUE = ("1", "true", "yes", "on")
_FALSE = ("0", "false", "no", "off")


def expect_one_of(name: str, value: str, accepted: tuple[str, ...]) -> str:
    """``value`` if it is one of ``accepted``; otherwise the one refusal
    every enumerated setting (environment, config field, call argument)
    raises, naming what is accepted."""
    if value not in accepted:
        raise ConfigurationError(
            f"{name}={value!r}: expected one of {', '.join(accepted)}"
        )
    return value


class EnvSettings(NamedTuple):
    engine: str
    workers: int
    logging_mode: str
    condense: bool


def env_settings() -> EnvSettings:
    """Parse and validate every ``REPRO_*`` variable — the only place
    the environment enters the library (the :class:`SystemConfig`
    default factories and :func:`repro.engine.engine_from_env` read it
    from here).  Unset or empty takes the default; anything unrecognised
    raises :class:`ConfigurationError`."""

    def choice(name: str, default: str, accepted: tuple[str, ...]) -> str:
        value = os.environ.get(name, "").strip().lower() or default
        return expect_one_of(name, value, accepted)

    workers = os.environ.get(WORKERS_ENV_VAR, "").strip() or "4"
    if not workers.isdecimal() or int(workers) < 1:
        raise ConfigurationError(
            f"{WORKERS_ENV_VAR}={workers!r}: expected a positive integer"
        )
    return EnvSettings(
        engine=choice(ENGINE_ENV_VAR, "sim", ("sim", "threaded")),
        workers=int(workers),
        logging_mode=choice(LOGGING_MODE_ENV_VAR, "value", LOGGING_MODES),
        condense=choice(CONDENSE_ENV_VAR, "0", _TRUE + _FALSE) in _TRUE,
    )


@dataclass(frozen=True, slots=True)
class DiskParameters:
    """Timing model for one disk, loosely a 1987 two-head-per-surface drive.

    The paper's Table 2 lists disk rows that are unreadable in the scanned
    text; these values are reconstructed from the prose (two heads per
    surface hence low seeks, interleaved log sectors, track-rate partition
    transfers at double the page rate) and period-typical hardware.  The
    substitution is recorded in DESIGN.md.
    """

    #: Average seek time for a random access (seconds).
    avg_seek_s: float = 0.016
    #: Seek between neighbouring log pages of one partition (seconds).
    #: Log pages of a partition cluster inside the log window, so this is
    #: well below the average seek (paper section 3.1).
    sibling_seek_s: float = 0.008
    #: Average rotational latency (seconds); half a revolution at 3600 rpm.
    rotational_latency_s: float = 0.00833
    #: Sustained transfer rate for single-page I/O (bytes / second).
    page_transfer_rate: float = 2.5 * MEGABYTE
    #: Transfer rate for whole-track I/O — double the page rate (paper
    #: section 3.1: "the transfer rate for a track of data is double the
    #: transfer rate for individual pages").
    track_transfer_rate: float = 5.0 * MEGABYTE

    def page_read_time(self, nbytes: int, *, sibling: bool = False) -> float:
        """Seconds to read ``nbytes`` as an individually addressed page."""
        seek = self.sibling_seek_s if sibling else self.avg_seek_s
        return seek + self.rotational_latency_s + nbytes / self.page_transfer_rate

    def track_read_time(self, nbytes: int) -> float:
        """Seconds to read ``nbytes`` written as whole tracks."""
        return (
            self.avg_seek_s
            + self.rotational_latency_s
            + nbytes / self.track_transfer_rate
        )

    def page_write_time(self, nbytes: int, *, sibling: bool = False) -> float:
        """Seconds to write ``nbytes`` as an individually addressed page.

        Log-disk sectors are interleaved so consecutive page writes do not
        pay a full rotation (paper section 3.1); the ordinary page timing
        already reflects that.
        """
        return self.page_read_time(nbytes, sibling=sibling)

    def track_write_time(self, nbytes: int) -> float:
        """Seconds to write ``nbytes`` as whole tracks (checkpoint images)."""
        return self.track_read_time(nbytes)


@dataclass(frozen=True, slots=True)
class AnalysisParameters:
    """Instruction-count constants of the paper's Table 2.

    Units are noted per field.  The ``(Calculated)`` rows of Table 2 —
    ``I_record_sort``, ``I_page_write``, the logging rates and the
    checkpoint rate — are *derived* from these by
    :mod:`repro.analysis.logging_model`.
    """

    #: Read one log record and determine the index of its log bin
    #: (instructions / record).
    i_record_lookup: float = 20.0
    #: Fixed start-up cost of copying a string of bytes (instructions / copy).
    i_copy_fixed: float = 3.0
    #: Additional per-byte cost of copying a string of bytes
    #: (instructions / byte), before the stable-memory slowdown.
    i_copy_add: float = 0.125
    #: Cost of initiating a disk write of a full log-bin page
    #: (instructions / page write).
    i_write_init: float = 500.0
    #: Cost of allocating a new log-bin page and releasing the old one
    #: (instructions / page write).
    i_page_alloc: float = 100.0
    #: Cost of updating the log-bin page information (instructions / record).
    i_page_update: float = 10.0
    #: Cost of checking the existence of a log-bin page
    #: (instructions / log record).
    i_page_check: float = 10.0
    #: Cost of maintaining the LSN count and checking for possible
    #: checkpoints (instructions / page write).
    i_process_lsn: float = 40.0
    #: Cost of signalling the main CPU to start a checkpoint transaction
    #: (instructions / checkpoint).
    i_checkpoint: float = 40.0
    #: MIPS power of the recovery CPU (million instructions / second).
    p_recovery_mips: float = 1.0
    #: Stable reliable memory is this many times slower than regular memory
    #: (paper section 1: "two to four times slower"; section 3.1 uses four).
    #: Applied to the per-byte copy cost, which touches stable memory on
    #: both the read (SLB) and the write (SLT) side.
    stable_memory_slowdown: float = 4.0

    @property
    def instructions_per_second(self) -> float:
        return self.p_recovery_mips * 1_000_000.0


@dataclass(frozen=True, slots=True)
class SystemConfig:
    """Functional sizing of the simulated system.

    Defaults mirror Table 2 where the paper gives a value; the remaining
    sizes (stable memory capacity, log window, directory size) follow the
    prose of sections 2.3.3 and 3.3.
    """

    #: Size of one partition in bytes (Table 2: 48 KB).
    partition_size: int = 48 * KILOBYTE
    #: Size of one log page in bytes (Table 2: 8 KB).
    log_page_size: int = 8 * KILOBYTE
    #: Average log record size in bytes (Table 2: 24 B). Actual records
    #: vary; this enters sizing heuristics only.
    log_record_size: int = 24
    #: Number of log records a partition may accumulate before a checkpoint
    #: is triggered by update count (Table 2: 1000).
    update_count_threshold: int = 1000
    #: Log page directory size N: pointers kept per directory node
    #: (section 2.3.3 — chosen near the median page count of an active
    #: partition so recovery reads pages in write order).
    log_directory_size: int = 8
    #: Fixed SLB / UNDO block size in bytes (section 2.3.1: both spaces are
    #: managed as sets of fixed-size blocks handed to transactions).
    log_block_size: int = 1 * KILOBYTE
    #: Capacity of the Stable Log Buffer in bytes.
    slb_capacity: int = 2 * MEGABYTE
    #: Capacity of the Stable Log Tail in bytes (holds partition bins).
    slt_capacity: int = 8 * MEGABYTE
    #: Number of log pages in the log window (the reusable active portion
    #: of the log disk, section 2.3.3).
    log_window_pages: int = 4096
    #: Grace period, in log pages, between the age trigger firing and the
    #: page actually falling off the window (section 2.3.3).
    log_window_grace_pages: int = 64
    #: Number of partition-sized slots on the checkpoint disk's
    #: pseudo-circular queue (section 2.4).
    checkpoint_slots: int = 4096
    #: Retries allowed per duplexed I/O operation before a transient
    #: device fault escalates to a hard ``MediaFailure`` (0 = escalate on
    #: the first fault).  Shared by the log and checkpoint disks.
    io_retry_budget: int = 4
    #: How :meth:`Database.run_script` logs a registered script unless the
    #: call says otherwise: ``"value"`` (after-images, the paper's
    #: scheme) or ``"command"`` (one TxnCommand record, docs/LOGGING.md).
    #: The ``REPRO_LOGGING_MODE`` environment variable sets the default
    #: for configs that do not pass it explicitly (a CI matrix axis,
    #: mirroring ``REPRO_ENGINE``).
    logging_mode: str = field(default_factory=lambda: env_settings().logging_mode)
    #: Run the background condenser (docs/CONDENSING.md): the recovery
    #: CPU, when idle, folds flushed log pages into shadow checkpoint
    #: images so restart replays only the short uncondensed suffix.  Off
    #: by default; the ``REPRO_CONDENSE`` environment variable turns it
    #: on for configs that do not pass the flag explicitly (a CI matrix
    #: axis, mirroring ``REPRO_LOGGING_MODE``).
    condense_enabled: bool = field(default_factory=lambda: env_settings().condense)
    #: Disk model used for the log disks.
    log_disk: DiskParameters = field(default_factory=DiskParameters)
    #: Disk model used for the checkpoint disks.
    checkpoint_disk: DiskParameters = field(default_factory=DiskParameters)
    #: Cost-model constants (Table 2).
    analysis: AnalysisParameters = field(default_factory=AnalysisParameters)

    def __post_init__(self) -> None:
        if self.partition_size <= 0:
            raise ConfigurationError("partition_size must be positive")
        if self.log_page_size <= 0:
            raise ConfigurationError("log_page_size must be positive")
        if self.log_record_size <= 0:
            raise ConfigurationError("log_record_size must be positive")
        if self.update_count_threshold <= 0:
            raise ConfigurationError("update_count_threshold must be positive")
        if self.log_directory_size <= 0:
            raise ConfigurationError("log_directory_size must be positive")
        if self.log_block_size <= 0:
            raise ConfigurationError("log_block_size must be positive")
        if self.log_window_pages <= self.log_window_grace_pages:
            raise ConfigurationError(
                "log_window_pages must exceed log_window_grace_pages"
            )
        if self.checkpoint_slots <= 0:
            raise ConfigurationError("checkpoint_slots must be positive")
        if self.io_retry_budget < 0:
            raise ConfigurationError("io_retry_budget cannot be negative")
        expect_one_of("logging_mode", self.logging_mode, LOGGING_MODES)

    @property
    def records_per_page(self) -> int:
        """Average-size log records that fit in one log page."""
        return max(1, self.log_page_size // self.log_record_size)

    @property
    def pages_per_checkpoint(self) -> float:
        """Average log pages accumulated before an update-count checkpoint."""
        return (
            self.update_count_threshold * self.log_record_size / self.log_page_size
        )
