"""Execution engines: how the two-processor architecture is scheduled.

The paper's hardware has a main CPU and a recovery CPU running
concurrently against shared stable memory.  The repository offers two
interchangeable schedulings of that design behind one interface:

* :class:`~repro.engine.sim.SimEngine` — the deterministic cooperative
  scheduler.  Both processors' duties run inline on the caller's thread
  in a fixed order, so instruction metering and the Table 2 / section 3.2
  model comparison are bit-for-bit reproducible.
* :class:`~repro.engine.threaded.ThreadedEngine` — the recovery
  processor on its own host thread, plus a worker pool that restores
  missing partitions concurrently during restart phase 2 (a
  whole-database media restore included) and fans out command replay
  batches (:meth:`~repro.engine.base.ExecutionEngine.restore_map`).

Both run the one duty list (:data:`~repro.engine.base.DUTIES`) and the
one worker pool (:func:`~repro.engine.pool.run_pool`); they differ only
in where a duty is dispatched.

Select per database (``Database(engine=...)``) or process-wide with the
``REPRO_ENGINE`` environment variable (``sim`` | ``threaded``, parsed by
:func:`repro.common.config.env_settings`), which CI uses to run the
whole suite under the threaded engine.
"""

from __future__ import annotations

from repro.common.config import env_settings
from repro.engine.base import ExecutionEngine
from repro.engine.pool import run_pool
from repro.engine.sim import SimEngine
from repro.engine.threaded import ThreadedEngine

__all__ = [
    "ExecutionEngine",
    "SimEngine",
    "ThreadedEngine",
    "engine_from_env",
    "run_pool",
]


def engine_from_env() -> ExecutionEngine:
    """Build the engine selected by ``REPRO_ENGINE`` (default: sim)."""
    settings = env_settings()
    if settings.engine == "threaded":
        return ThreadedEngine(workers=settings.workers)
    return SimEngine()
