"""The recovery component.

* :mod:`repro.recovery.processor` — the recovery CPU's normal-operation
  loop: drain committed records from the SLB, sort them into SLT bins,
  flush full pages, trigger checkpoints, acknowledge finished checkpoints.
* :mod:`repro.recovery.redo` — the one partition-rebuild pipeline: a base
  image (shadow, catalog slot, or empty) plus an ordered record source
  (chained log pages or full history, then pending SLT records).
* :mod:`repro.recovery.restart` — post-crash orchestration: catalogs
  first, then on-demand and background partition recovery.
* :mod:`repro.recovery.media` — whole-database rescue after a media
  failure of the checkpoint disk or the duplexed log disks.
* :mod:`repro.recovery.oracle` — the logical digest of committed state
  and the verifier that proves recovery restored it exactly.
"""

from repro.recovery.media import (
    restore_after_checkpoint_media_failure,
    restore_after_log_media_failure,
    scrub_log_disk,
)
from repro.recovery.oracle import RecoveryVerifier, logical_digest
from repro.recovery.processor import RecoveryProcessor
from repro.recovery.redo import (
    demultiplex_log_history,
    enumerate_log_pages,
    plan_rebuild,
    rebuild_partition_resilient,
)
from repro.recovery.restart import RestartCoordinator

__all__ = [
    "RecoveryProcessor",
    "RecoveryVerifier",
    "RestartCoordinator",
    "demultiplex_log_history",
    "enumerate_log_pages",
    "logical_digest",
    "plan_rebuild",
    "rebuild_partition_resilient",
    "restore_after_checkpoint_media_failure",
    "restore_after_log_media_failure",
    "scrub_log_disk",
]
