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

from collections import Counter
from typing import Iterable

from repro.common.config import AnalysisParameters
from repro.sim.clock import VirtualClock


class CpuMeter:
    """Accounts simulated instructions (and time) for one processor."""

    #: Always 0.0: read only by ``benchmarks/host/repeat.py`` (ROADMAP item 1 (b)).
    realtime_scale = 0.0

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
        #: Instructions per simulated second, and a stable-memory copy's
        #: fixed and per-byte costs, worked out once for every charge.
        self._rate = mips * 1_000_000.0
        self._copy_fixed = self.params.i_copy_fixed
        self._copy_per_byte = self.params.i_copy_add * self.params.stable_memory_slowdown
        self._by_category: Counter[str] = Counter()
        self._total_instructions = 0.0

    # -- charging -----------------------------------------------------------

    def charge(self, instructions: float, category: str = "other") -> float:
        """Execute ``instructions`` generic instructions.

        Returns the simulated seconds consumed.  Time is also advanced on
        the shared clock, which models the cooperative interleaving used
        throughout the simulation.
        """
        if instructions < 0.0:
            raise ValueError("cannot charge a negative instruction count")
        self._by_category[category] += instructions
        self._total_instructions += instructions
        seconds = instructions / self._rate
        self.clock.advance(seconds)
        return seconds

    def charge_stable_bytes(self, nbytes: int, category: str = "stable-copy") -> float:
        """Charge a byte copy that touches stable reliable memory.

        The per-byte cost is Table 2's ``I_copy_add`` scaled by the stable
        memory slowdown, plus the fixed ``I_copy_fixed`` start-up cost,
        accounted as :meth:`charge` does, in this one frame."""
        if nbytes < 0:
            raise ValueError("cannot copy a negative number of bytes")
        instructions = self._copy_fixed + self._copy_per_byte * nbytes
        self._by_category[category] += instructions
        self._total_instructions += instructions
        self.clock._now += instructions / self._rate  # what clock.advance adds
        return instructions / self._rate

    def charge_sort(self, sizes: Iterable[int]) -> None:
        """Charge the sorting step (section 2.3) for a run of records of
        ``sizes`` bytes, one after another: per record, record lookup, page
        check, the record's copy into stable memory, page update — what
        four :meth:`charge` calls in that order charge, the same additions
        to the categories, the total and the clock in the same order, so
        every simulated figure stays bit for bit.  A negative size refuses
        the whole run, with nothing charged."""
        params = self.params
        lookup, check, update = params.i_record_lookup, params.i_page_check, params.i_page_update
        fixed, per_byte, rate = self._copy_fixed, self._copy_per_byte, self._rate
        lookup_s, check_s, update_s = lookup / rate, check / rate, update / rate
        by_category = self._by_category
        lookups, checks = by_category["record-lookup"], by_category["page-check"]
        copies, updates = by_category["record-copy"], by_category["page-update"]
        total, now = self._total_instructions, self.clock._now
        charged = False
        for nbytes in sizes:
            if nbytes < 0:
                raise ValueError("cannot copy a negative number of bytes")
            copy = fixed + per_byte * nbytes
            lookups += lookup
            checks += check
            copies += copy
            updates += update
            # four additions each, left to right: the four charges' order
            total = total + lookup + check + copy + update
            now = now + lookup_s + check_s + copy / rate + update_s
            charged = True
        if charged:
            by_category["record-lookup"], by_category["page-check"] = lookups, checks
            by_category["record-copy"], by_category["page-update"] = copies, updates
            self._total_instructions = total
            self.clock._now = now  # every addition is positive: advance_to's move

    # -- inspection ----------------------------------------------------------

    @property
    def total_instructions(self) -> float:
        return self._total_instructions

    def instructions_in(self, category: str) -> float:
        return float(self._by_category.get(category, 0.0))

    def category_breakdown(self) -> dict[str, float]:
        """Instruction totals keyed by charge category."""
        return dict(self._by_category)

    def busy_seconds(self) -> float:
        """Simulated seconds this processor has spent executing."""
        return self._total_instructions / self._rate

    def reset(self) -> None:
        """Zero the counters (the clock is left untouched)."""
        self._by_category.clear()
        self._total_instructions = 0.0

    def __repr__(self) -> str:
        return (
            f"CpuMeter(name={self.name!r}, mips={self.mips}, "
            f"total={self._total_instructions:.0f} instr)"
        )
