"""The paper's performance analysis (section 3, and section 1.2's commit
protocols), as executable models.

* :mod:`repro.analysis.params` — Table 1/2: variable conventions and
  parameter values, including the derived "(Calculated)" rows.
* :mod:`repro.analysis.logging_model` — section 3.2: logging capacity
  (Graphs 1 and 2).
* :mod:`repro.analysis.checkpoint_model` — section 3.3: checkpoint
  frequency and overhead (Graph 3).
* :mod:`repro.analysis.recovery_model` — section 3.4: partition-level vs
  database-level post-crash recovery.
* :mod:`repro.analysis.commit_model` — section 1.2: commit latency and
  rate under synchronous WAL, group commit and stable-RAM instant commit.
"""

from repro.analysis.logging_model import LoggingModel
from repro.analysis.checkpoint_model import CheckpointModel
from repro.analysis.commit_model import CommitProtocolModel
from repro.analysis.recovery_model import RecoveryModel
from repro.analysis.params import table1_rows, table2_rows

__all__ = [
    "CheckpointModel",
    "CommitProtocolModel",
    "LoggingModel",
    "RecoveryModel",
    "table1_rows",
    "table2_rows",
]
