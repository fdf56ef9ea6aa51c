"""The deterministic cooperative engine.

Everything runs inline on the caller's thread in a fixed order, exactly
as the pre-engine ``Database.pump`` did.  This keeps the CPU instruction
metering — and therefore ``benchmarks/bench_sim_vs_model.py``'s
comparison against the closed-form model of paper section 3.2 —
bit-for-bit reproducible from run to run.
"""

from __future__ import annotations

from repro.engine.base import ExecutionEngine


class SimEngine(ExecutionEngine):
    """Cooperative single-threaded scheduling (the default)."""

    name = "sim"

    def _dispatch(self, duty, processor):
        return duty()

    # The host benchmark's tracer patches ``SimEngine.__dict__["pump"]``,
    # so the name has to live in this class body, not only in the base.
    pump = ExecutionEngine.pump
