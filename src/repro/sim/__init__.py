"""Simulated hardware substrate.

The paper assumes hardware that does not exist on a laptop: a dedicated
1-MIPS recovery processor, tens of megabytes of stable *and* reliable RAM,
and duplexed two-head log disks.  This package simulates each of them:

* :mod:`repro.sim.clock` — a virtual clock; all timing in the system is
  simulated time, never wall-clock time.
* :mod:`repro.sim.cpu` — instruction-count accounting per processor,
  parameterised by the paper's Table 2 costs.
* :mod:`repro.sim.disk` — a durable, block-addressed disk with the paper's
  seek/rotate/transfer timing, surviving simulated crashes.
* :mod:`repro.sim.stable_memory` — capacity-tracked stable reliable RAM.
* :mod:`repro.sim.faults` — crash and torn-write injection.
* :mod:`repro.sim.chaos` — the named crash-point registry and the sweep
  harness that crashes a workload at every point and verifies recovery.
"""

from repro.sim.chaos import (
    ChaosHarness,
    CrashPointRun,
    chaos,
    crash_point,
    register_crash_point,
    registered_crash_points,
)
from repro.sim.clock import VirtualClock
from repro.sim.cpu import CpuMeter
from repro.sim.disk import CORRUPTION_KINDS, DuplexedDisk, SimulatedDisk
from repro.sim.faults import SimulatedCrash, TornWriteError
from repro.sim.stable_memory import StableMemory

__all__ = [
    "CORRUPTION_KINDS",
    "ChaosHarness",
    "CpuMeter",
    "CrashPointRun",
    "DuplexedDisk",
    "SimulatedCrash",
    "SimulatedDisk",
    "StableMemory",
    "TornWriteError",
    "VirtualClock",
    "chaos",
    "crash_point",
    "register_crash_point",
    "registered_crash_points",
]
