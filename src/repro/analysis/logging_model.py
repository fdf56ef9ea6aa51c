"""Section 3.2 — logging capacity of the recovery component.

The recovery CPU's time splits three ways: sorting records from the
Stable Log Buffer into Stable Log Tail bins, initiating disk writes for
full bin pages, and signalling checkpoints.  The paper folds these into
two derived quantities:

``I_page_write`` — instructions per bin-page write::

    I_page_write = I_write_init + I_page_alloc + I_process_LSN
                   + I_checkpoint / (N_update * S_log_record / S_log_page)

(the checkpoint signal is amortised over the pages a partition
accumulates before its update-count checkpoint), and

``I_record_sort`` — instructions per record sorted::

    I_record_sort = I_record_lookup + I_page_check
                    + I_copy_fixed + I_copy_add' * S_log_record
                    + I_page_update
                    + I_page_write * S_log_record / S_log_page

where ``I_copy_add'`` is the per-byte copy cost scaled by the stable-RAM
slowdown (the copy reads the SLB and writes the SLT, both stable; the
scan of the paper is unreadable at exactly this point, and this
reconstruction reproduces the headline "approximately 4,000
transactions per second at four log records per transaction").

Throughput follows directly::

    R_records_logged = P_recovery / I_record_sort
    R_bytes_logged   = R_records_logged * S_log_record
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.config import AnalysisParameters


@dataclass(frozen=True)
class LoggingModel:
    """Closed-form logging-capacity model (defaults = Table 2)."""

    params: AnalysisParameters = field(default_factory=AnalysisParameters)
    log_record_size: int = 24
    log_page_size: int = 8 * 1024
    update_count: int = 1000

    # -- derived instruction counts (the "(Calculated)" rows) ----------------------

    @property
    def pages_per_checkpoint(self) -> float:
        """Bin pages a partition fills before its update-count checkpoint."""
        return self.update_count * self.log_record_size / self.log_page_size

    @property
    def instructions_per_page_write(self) -> float:
        """``I_page_write``: cost of writing one SLT page to the log disk."""
        p = self.params
        return (
            p.i_write_init
            + p.i_page_alloc
            + p.i_process_lsn
            + p.i_checkpoint / self.pages_per_checkpoint
        )

    @property
    def instructions_per_record(self) -> float:
        """``I_record_sort``: cost of sorting one record into its bin."""
        p = self.params
        per_byte_copy = p.i_copy_add * p.stable_memory_slowdown
        return (
            p.i_record_lookup
            + p.i_page_check
            + p.i_copy_fixed
            + per_byte_copy * self.log_record_size
            + p.i_page_update
            + self.instructions_per_page_write
            * self.log_record_size
            / self.log_page_size
        )

    # -- throughput -------------------------------------------------------------------

    @property
    def records_per_second(self) -> float:
        """``R_records_logged``: maximum sorting rate."""
        return self.params.instructions_per_second / self.instructions_per_record

    @property
    def bytes_per_second(self) -> float:
        """``R_bytes_logged``."""
        return self.records_per_second * self.log_record_size

    def transactions_per_second(self, records_per_transaction: float) -> float:
        """Graph 2: the transaction rate the logging component sustains."""
        if records_per_transaction <= 0:
            raise ValueError("records_per_transaction must be positive")
        return self.records_per_second / records_per_transaction

    # -- sweeps (the graphs) ---------------------------------------------------------------

    @staticmethod
    def graph1_series(
        record_sizes: list[int],
        page_sizes: list[int],
        params: AnalysisParameters | None = None,
    ) -> dict[int, list[tuple[int, float]]]:
        """Graph 1: records/second vs record size, one series per page size."""
        params = params if params is not None else AnalysisParameters()
        series: dict[int, list[tuple[int, float]]] = {}
        for page_size in page_sizes:
            points = []
            for record_size in record_sizes:
                model = LoggingModel(params, record_size, page_size)
                points.append((record_size, model.records_per_second))
            series[page_size] = points
        return series

    @staticmethod
    def graph2_series(
        record_sizes: list[int],
        records_per_transaction: list[int],
        params: AnalysisParameters | None = None,
    ) -> dict[int, list[tuple[int, float]]]:
        """Graph 2: transactions/second vs record size, one series per
        log-records-per-transaction value."""
        params = params if params is not None else AnalysisParameters()
        series: dict[int, list[tuple[int, float]]] = {}
        for rpt in records_per_transaction:
            points = []
            for record_size in record_sizes:
                model = LoggingModel(params, record_size)
                points.append((record_size, model.transactions_per_second(rpt)))
            series[rpt] = points
        return series
