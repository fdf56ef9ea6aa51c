"""Instruction-count accounting for the simulated processors.

The paper's performance analysis (section 3) is entirely in instructions:
each recovery-CPU operation has a Table 2 cost, and throughput is MIPS
divided by instructions per unit of work.  :class:`CpuMeter` charges those
costs against a :class:`~repro.sim.clock.VirtualClock` and keeps per-category
totals so benchmarks can compare the *measured* simulated instruction stream
against the closed-form model.

A generic instruction costs ``1 / MIPS`` seconds.  Accesses to stable
reliable memory are slower by ``AnalysisParameters.stable_memory_slowdown``;
callers charge those through :meth:`CpuMeter.charge_stable_bytes`.
"""

from __future__ import annotations

import threading
from collections import Counter

from repro.common.config import AnalysisParameters
from repro.sim.clock import VirtualClock, host_pause


class CpuMeter:
    """Accounts simulated instructions (and time) for one processor.

    Counter updates are atomic: under the threaded engine a meter may be
    charged from the recovery thread while the main thread reads it
    (``Database.stats()``, the benchmarks), so each charge is one locked
    read-modify-write and the totals are interleaving-independent.
    """

    def __init__(
        self,
        name: str,
        mips: float,
        clock: VirtualClock,
        params: AnalysisParameters | None = None,
    ):
        if mips <= 0.0:
            raise ValueError("mips must be positive")
        self.name = name
        self.mips = mips
        self.clock = clock
        self.params = params if params is not None else AnalysisParameters()
        self._by_category: Counter[str] = Counter()
        self._total_instructions = 0.0
        self._lock = threading.Lock()
        #: Host seconds slept per simulated second charged (0.0 = purely
        #: simulated).  Mirrors ``SimulatedDisk.realtime_scale``: with a
        #: positive scale, concurrent transaction workers pay their
        #: instruction costs in *host* time, which widens the windows in
        #: which they interleave (contention tests, the torture rig).  The
        #: sleep happens outside ``_lock`` so meter readers never block on it.
        self.realtime_scale = 0.0
        #: Optional host-pause perturbation (chaos latency injection);
        #: mirrors ``SimulatedDisk.latency_injector``.
        self.latency_injector = None

    # -- charging -----------------------------------------------------------

    def charge(self, instructions: float, category: str = "other") -> float:
        """Execute ``instructions`` generic instructions.

        Returns the simulated seconds consumed.  Time is also advanced on
        the shared clock, which models the (single-threaded, cooperative)
        interleaving used throughout the simulation.
        """
        if instructions < 0.0:
            raise ValueError("cannot charge a negative instruction count")
        with self._lock:
            self._by_category[category] += instructions
            self._total_instructions += instructions
        seconds = instructions / (self.mips * 1_000_000.0)
        self.clock.advance(seconds)
        scale = self.realtime_scale
        injector = self.latency_injector
        if scale or injector is not None:
            pause = seconds * scale
            if injector is not None:
                pause = injector(pause)
            host_pause(pause)
        return seconds

    def charge_stable_bytes(self, nbytes: int, category: str = "stable-copy") -> float:
        """Charge a byte copy that touches stable reliable memory.

        The per-byte cost is Table 2's ``I_copy_add`` scaled by the stable
        memory slowdown, plus the fixed ``I_copy_fixed`` start-up cost.
        """
        if nbytes < 0:
            raise ValueError("cannot copy a negative number of bytes")
        cost = (
            self.params.i_copy_fixed
            + self.params.i_copy_add * self.params.stable_memory_slowdown * nbytes
        )
        return self.charge(cost, category)

    # -- inspection ----------------------------------------------------------

    @property
    def total_instructions(self) -> float:
        return self._total_instructions

    def instructions_in(self, category: str) -> float:
        return float(self._by_category.get(category, 0.0))

    def category_breakdown(self) -> dict[str, float]:
        """Instruction totals keyed by charge category."""
        with self._lock:
            return dict(self._by_category)

    def busy_seconds(self) -> float:
        """Simulated seconds this processor has spent executing."""
        return self._total_instructions / (self.mips * 1_000_000.0)

    def reset(self) -> None:
        """Zero the counters (the clock is left untouched)."""
        with self._lock:
            self._by_category.clear()
            self._total_instructions = 0.0

    def __repr__(self) -> str:
        return (
            f"CpuMeter(name={self.name!r}, mips={self.mips}, "
            f"total={self._total_instructions:.0f} instr)"
        )
