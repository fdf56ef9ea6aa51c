"""Crash/fault-point registries and the chaos engine.

The paper's claim is that recovery is *exact* no matter when the system
dies — mid-commit, in any of the seven checkpoint steps (section 2.4),
mid-flush, or even mid-restart.  This module makes that claim mechanically
checkable:

* Instrumented modules call :func:`register_crash_point` at import time
  and :func:`crash_point` at each interesting transition; the duplex I/O
  layers additionally declare :func:`register_fault_point` sites where a
  *transient* device fault can be injected into their retry loops.  With
  no injector active a hook is one global read and a ``None`` check, so
  the hooks stay on the hot path permanently
  (``benchmarks/bench_chaos_overhead.py`` enforces the budget).
* :class:`ChaosEngine` is the one injector.  It evaluates a seeded,
  multi-action :class:`ChaosPlan`: any registered point may crash, inject
  host-time latency (so threaded-engine workers genuinely reorder), or
  raise a :class:`~repro.sim.faults.TransientIOError` — with per-point
  probability, nth-visit, and thread-name filters, all driven by one
  seeded RNG so any failure reproduces from its printed seed.  The
  simplest plan, :meth:`ChaosPlan.crash_at`, arms exactly one named
  point: the first time execution passes it a
  :class:`~repro.sim.faults.SimulatedCrash` is raised and the rule
  latches, so recovery can run through the very same code path without
  re-firing.
* :class:`ChaosHarness` enumerates every registered point and, for each
  one and each recovery mode, replays a workload, crashes at the point,
  restarts (retrying when the crash lands *inside* restart), and checks
  the recovered state against the :class:`~repro.recovery.oracle.RecoveryVerifier`
  digest.  :mod:`repro.sim.torture` builds the randomized counterpart on
  top of :class:`ChaosEngine`.

Thread safety: :func:`activate` / :func:`deactivate` /
:func:`set_crash_point_observer` serialise on a module lock and publish
by a single attribute store, while the hooks read the global exactly
once — atomic publication, so worker threads mid-``crash_point`` either
see the old injector or the new one, never a torn state.
"""

from __future__ import annotations

import contextlib
import random
import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterator

from repro.common.errors import RecoveryError
from repro.sim.clock import host_pause
from repro.sim.faults import SimulatedCrash, TransientIOError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.db.database import Database

#: name -> human description of every crash point threaded into the system.
_REGISTRY: dict[str, str] = {}

#: name -> description of every transient-fault injection site (the
#: retry-wrapped duplex I/O operations).
_FAULT_REGISTRY: dict[str, str] = {}

#: The injector currently observing crash/fault points (None = all hooks
#: free).
_active: "ChaosEngine | None" = None

#: Passive observer of crash-point passages (the --lock-audit recorder
#: uses this to flag latches held across crash boundaries).  Unlike the
#: injector it never raises; like the injector it costs one global read
#: and a ``None`` check when unset.
_observer: "Callable[[str], None] | None" = None

#: Serialises every mutation of the two globals above (and the
#: registries).  The hooks themselves stay lock-free: they read the
#: global once, which CPython guarantees is an atomic load of whatever
#: was last published.
_mutation_lock = threading.Lock()


def register_crash_point(name: str, description: str) -> str:
    """Declare a crash point (idempotent; called at module import)."""
    with _mutation_lock:
        existing = _REGISTRY.get(name)
        if existing is not None and existing != description:
            raise ValueError(
                f"crash point {name!r} registered twice with different text"
            )
        _REGISTRY[name] = description
    return name


def register_fault_point(name: str, description: str) -> str:
    """Declare a transient-fault injection site (idempotent)."""
    with _mutation_lock:
        existing = _FAULT_REGISTRY.get(name)
        if existing is not None and existing != description:
            raise ValueError(
                f"fault point {name!r} registered twice with different text"
            )
        _FAULT_REGISTRY[name] = description
    return name


def registered_crash_points() -> dict[str, str]:
    """Every known crash point, name -> description."""
    return dict(_REGISTRY)


def registered_fault_points() -> dict[str, str]:
    """Every known transient-fault site, name -> description."""
    return dict(_FAULT_REGISTRY)


def crash_point(name: str) -> None:
    """Hook threaded through hot transitions.  Near-free when disabled."""
    observer = _observer
    if observer is not None:
        observer(name)
    injector = _active
    if injector is not None:
        injector.visit(name)


def fault_point(name: str) -> None:
    """Hook inside a retry-wrapped duplex I/O operation.

    An active :class:`ChaosEngine` may raise a
    :class:`~repro.sim.faults.TransientIOError` here, which the
    surrounding retry loop absorbs (or escalates past its budget).
    Near-free when disabled, exactly like :func:`crash_point`.
    """
    injector = _active
    if injector is not None:
        injector.visit_fault(name)


def set_crash_point_observer(observer: "Callable[[str], None] | None") -> None:
    """Install (or, with None, remove) the passive crash-point observer.

    Published atomically under the module lock; hooks already past their
    global read finish against the previous observer.
    """
    global _observer
    with _mutation_lock:
        _observer = observer


def activate(injector: "ChaosEngine") -> None:
    global _active
    with _mutation_lock:
        if _active is not None:
            raise RuntimeError("another chaos injector is already active")
        _active = injector


def deactivate() -> None:
    global _active
    with _mutation_lock:
        _active = None


@contextlib.contextmanager
def chaos(injector: "ChaosEngine") -> Iterator["ChaosEngine"]:
    """``with chaos(engine):`` — scope the active injector."""
    activate(injector)
    try:
        yield injector
    finally:
        deactivate()


# ---------------------------------------------------------------------------
# Seeded multi-action plans
# ---------------------------------------------------------------------------

#: Actions a :class:`ChaosRule` may take when it fires.
CRASH, LATENCY, FAULT = "crash", "latency", "fault"
ACTIONS = (CRASH, LATENCY, FAULT)


@dataclass(frozen=True)
class ChaosRule:
    """One injection rule of a :class:`ChaosPlan`.

    ``point`` names a crash point (crash/latency actions) or a fault
    point (fault/latency actions).  A rule becomes eligible after the
    point's first ``after_visits`` passages, then fires with
    ``probability`` per passage — restricted to threads whose name
    starts with ``thread_prefix`` when one is given — until it has fired
    ``max_fires`` times (``None`` = unlimited, the latency default).
    """

    point: str
    action: str
    probability: float = 1.0
    after_visits: int = 0
    thread_prefix: str | None = None
    max_fires: int | None = 1
    #: Host-seconds jitter range for LATENCY fires.
    latency_range: tuple[float, float] = (0.0002, 0.002)

    def __post_init__(self) -> None:
        if self.action not in ACTIONS:
            raise ValueError(f"unknown chaos action {self.action!r}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be within [0, 1]")
        if self.after_visits < 0:
            raise ValueError("after_visits cannot be negative")
        if self.max_fires is not None and self.max_fires < 1:
            raise ValueError("max_fires must be at least 1 (or None)")
        lo, hi = self.latency_range
        if lo < 0.0 or hi < lo:
            raise ValueError("latency_range must be 0 <= lo <= hi")

    def describe(self) -> str:
        parts = [f"{self.action}@{self.point}"]
        if self.probability < 1.0:
            parts.append(f"p={self.probability:g}")
        if self.after_visits:
            parts.append(f"after={self.after_visits}")
        if self.thread_prefix:
            parts.append(f"thread={self.thread_prefix}*")
        if self.max_fires is not None:
            parts.append(f"max={self.max_fires}")
        return "[" + " ".join(parts) + "]"


@dataclass(frozen=True)
class ChaosPlan:
    """A seeded set of injection rules.

    The seed drives *every* probabilistic decision (fire rolls, latency
    jitter, device-bridge jitter), so a failing run reproduces from the
    plan's printed seed alone.
    """

    seed: int
    rules: tuple[ChaosRule, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", tuple(self.rules))

    def describe(self) -> str:
        body = " ".join(rule.describe() for rule in self.rules) or "(no rules)"
        return f"ChaosPlan(seed={self.seed}) {body}"

    # -- convenience constructors ------------------------------------------

    @classmethod
    def crash_at(cls, seed: int, point: str, *, after_visits: int = 0) -> "ChaosPlan":
        """One deterministic crash: at ``point``, once ``after_visits``
        passages of it have gone by."""
        return cls(seed, (ChaosRule(point, CRASH, after_visits=after_visits),))


@dataclass(frozen=True)
class ChaosFire:
    """One rule firing, recorded for diagnostics/reproduction."""

    point: str
    action: str
    visit: int
    thread: str


class _RuleState:
    __slots__ = ("rule", "fires", "exhausted")

    def __init__(self, rule: ChaosRule):
        self.rule = rule
        self.fires = 0
        self.exhausted = False


class ChaosEngine:
    """Evaluates a :class:`ChaosPlan` at every hook passage.

    Thread-safe: visit counters, fire bookkeeping, and the seeded RNG
    mutate under one internal lock; latency sleeps happen *outside* it so
    a sleeping worker never blocks other threads' hook passages.  Crash
    rules latch after ``max_fires``, so the recovery that follows can
    pass the same point without re-firing.  A plan with no rules injects
    nothing and still counts every passage (:meth:`hits`).
    """

    def __init__(self, plan: ChaosPlan):
        self.plan = plan
        self._rng = random.Random(plan.seed)
        self._mutex = threading.Lock()
        self._states: dict[str, list[_RuleState]] = {}
        self._visits: dict[str, int] = {}
        #: Every fire, in order (diagnostics; printed on torture failures).
        self.fired: list[ChaosFire] = []
        for rule in plan.rules:
            known = rule.point in _REGISTRY or rule.point in _FAULT_REGISTRY
            if not known:
                raise ValueError(f"unknown chaos point {rule.point!r}")
            if rule.action == FAULT and rule.point not in _FAULT_REGISTRY:
                raise ValueError(
                    f"fault rules need a fault point; {rule.point!r} is a "
                    f"crash point (no retry loop surrounds it)"
                )
            self._states.setdefault(rule.point, []).append(_RuleState(rule))

    # -- inspection ---------------------------------------------------------

    @property
    def crashes_fired(self) -> int:
        with self._mutex:
            return sum(1 for f in self.fired if f.action == CRASH)

    @property
    def faults_fired(self) -> int:
        with self._mutex:
            return sum(1 for f in self.fired if f.action == FAULT)

    @property
    def latency_fired(self) -> int:
        with self._mutex:
            return sum(1 for f in self.fired if f.action == LATENCY)

    def fires(self) -> list[ChaosFire]:
        with self._mutex:
            return list(self.fired)

    def hits(self) -> dict[str, int]:
        """Passages of every crash and fault point shown to this engine
        while it was active, ruled or not."""
        with self._mutex:
            return dict(self._visits)

    # -- hook dispatch ------------------------------------------------------

    def visit(self, name: str) -> None:
        self._dispatch(name)

    def visit_fault(self, name: str) -> None:
        self._dispatch(name)

    def _dispatch(self, name: str) -> None:
        states = self._states.get(name, ())
        thread_name = threading.current_thread().name
        raise_exc: BaseException | None = None
        pause = 0.0
        with self._mutex:
            visit = self._visits.get(name, 0) + 1
            self._visits[name] = visit
            for state in states:
                rule = state.rule
                if state.exhausted:
                    continue
                if rule.thread_prefix is not None and not thread_name.startswith(
                    rule.thread_prefix
                ):
                    continue
                if visit <= rule.after_visits:
                    continue
                if rule.probability < 1.0 and self._rng.random() >= rule.probability:
                    continue
                state.fires += 1
                if rule.max_fires is not None and state.fires >= rule.max_fires:
                    # Latch before raising: recovery re-executes the same
                    # code paths and must be able to pass this point again.
                    state.exhausted = True
                self.fired.append(ChaosFire(name, rule.action, visit, thread_name))
                if rule.action == CRASH:
                    raise_exc = SimulatedCrash(
                        f"chaos[seed={self.plan.seed}]: crash at {name!r} "
                        f"(visit {visit}, thread {thread_name!r})"
                    )
                    break
                if rule.action == FAULT:
                    raise_exc = TransientIOError(
                        f"chaos[seed={self.plan.seed}]: transient fault at "
                        f"{name!r} (visit {visit}, thread {thread_name!r})"
                    )
                    break
                lo, hi = rule.latency_range
                pause += lo + (hi - lo) * self._rng.random()
        if pause > 0.0:
            host_pause(pause)
        if raise_exc is not None:
            raise raise_exc

    # -- device-bridge latency ---------------------------------------------

    def latency_injector(
        self, jitter: tuple[float, float] = (0.0, 0.001)
    ) -> Callable[[float], float]:
        """A perturbation callable for the ``latency_injector`` slots on
        :class:`~repro.sim.disk.SimulatedDisk` / :class:`~repro.sim.cpu.CpuMeter`.

        Receives the host pause the ``realtime_scale`` bridge computed and
        returns it plus seeded jitter, so device waits in worker threads
        stretch by random-but-reproducible amounts.
        """
        lo, hi = jitter
        if lo < 0.0 or hi < lo:
            raise ValueError("jitter must be 0 <= lo <= hi")

        def perturb(pause: float) -> float:
            with self._mutex:
                extra = lo + (hi - lo) * self._rng.random()
            return pause + extra

        return perturb


def install_latency(
    db: "Database",
    engine: ChaosEngine,
    *,
    disk_scale: float = 0.0,
    cpu_scale: float = 0.0,
    jitter: tuple[float, float] = (0.0, 0.001),
) -> None:
    """Wire seeded latency jitter into a database's realtime bridges.

    Sets ``realtime_scale`` and a seeded perturbation on both log
    spindles, the checkpoint disk, and both CPU meters, so simulated
    device/instruction time costs jittered *host* time and threaded
    workers genuinely reorder.  Disk and CPU scales are separate because
    their simulated magnitudes differ by orders of magnitude (one disk
    I/O is ~16 simulated ms; one instruction batch is ~100 simulated µs).
    Undo with :func:`remove_latency`.
    """
    perturb = engine.latency_injector(jitter)
    for device in _disk_bridges(db):
        device.realtime_scale = disk_scale
        device.latency_injector = perturb
    for device in _cpu_bridges(db):
        device.realtime_scale = cpu_scale
        device.latency_injector = perturb


def remove_latency(db: "Database") -> None:
    """Return every realtime bridge to the purely simulated default."""
    for device in _disk_bridges(db) + _cpu_bridges(db):
        device.realtime_scale = 0.0
        device.latency_injector = None


def _disk_bridges(db: "Database") -> list:
    return [
        db.log_disk.disks.primary,
        db.log_disk.disks.mirror,
        db.checkpoint_disk.disk,
    ]


def _cpu_bridges(db: "Database") -> list:
    return [db.main_cpu, db.recovery_cpu]


# ---------------------------------------------------------------------------
# The sweep harness
# ---------------------------------------------------------------------------


@dataclass
class CrashPointRun:
    """Outcome of one crash-at-point replay."""

    point: str
    mode: str
    #: Did the armed point actually fire during this replay?
    fired: bool
    #: Crashes that landed inside restart/recovery (crash-during-recovery).
    nested_crashes: int
    #: Stable commit count at verification time.
    commits: int
    #: Oracle digest matched the last committed state.
    verified: bool
    #: Points passed during the replay (diagnostics).
    hits: dict[str, int] = field(default_factory=dict)


#: A crash during restart is retried; crash rules latch after firing, so
#: convergence is guaranteed — the bound is defensive.
MAX_RESTART_ATTEMPTS = 6


def restart_until_recovered(databases: list, mode) -> int:
    """Bring every database in ``databases`` back to full residency,
    surviving crashes injected into recovery itself; returns the number
    of attempts taken (1: no nested crash).

    A crash anywhere takes the whole group down again — a cluster loses
    power as one — and the next attempt starts over: recovery is
    idempotent.
    """
    for attempt in range(1, MAX_RESTART_ATTEMPTS + 1):
        try:
            for db in databases:
                if db.crashed:
                    db.restart(mode)
                if db.restart_coordinator is not None:
                    db.restart_coordinator.recover_everything()
            return attempt
        except SimulatedCrash:
            for db in databases:
                db.crash()
    raise RecoveryError(
        f"restart did not converge in {MAX_RESTART_ATTEMPTS} attempts"
    )


class ChaosHarness:
    """Replays a workload crashing at every registered point.

    ``scenario_factory`` builds a fresh scenario and returns
    ``(db, run_workload)`` — a loaded :class:`~repro.db.database.Database`
    plus a zero-argument callable that runs the workload.  The factory is
    invoked once per (point, mode) pair so replays are independent.
    """

    def __init__(
        self,
        scenario_factory: Callable[[], tuple[object, Callable[[], None]]],
    ):
        self._factory = scenario_factory

    def run_point(self, point: str, mode: str = "on-demand") -> CrashPointRun:
        """Crash one replay at ``point``, restart in ``mode`` (a
        :class:`~repro.recovery.restart.RecoveryMode` value; anything else
        is a ``ValueError``), verify."""
        from repro.db.database import RecoveryMode
        from repro.recovery.oracle import RecoveryVerifier

        recovery_mode = RecoveryMode(mode)
        db, run_workload = self._factory()
        verifier = RecoveryVerifier(db)
        engine = ChaosEngine(ChaosPlan.crash_at(0, point))
        with chaos(engine):
            try:
                run_workload()
            except SimulatedCrash:
                pass
            # Crash unconditionally: points on the restart path only fire
            # during the recovery that follows.
            if not db.crashed:
                db.crash()
            nested = restart_until_recovered([db], recovery_mode) - 1
        verifier.detach()
        verifier.verify()
        return CrashPointRun(
            point=point,
            mode=mode,
            fired=bool(engine.fired),
            nested_crashes=nested,
            commits=db.slb.commits,
            verified=True,
            hits=engine.hits(),
        )

    def sweep(
        self,
        modes: tuple[str, ...] | None = None,
        points: list[str] | None = None,
    ) -> list[CrashPointRun]:
        """Run every (point, mode) combination — every recovery mode
        unless ``modes`` narrows it; verification failures raise, so a
        returned list means the whole sweep passed."""
        from repro.db.database import RecoveryMode

        if modes is None:
            modes = tuple(mode.value for mode in RecoveryMode)
        results = []
        for point in points if points is not None else sorted(_REGISTRY):
            for mode in modes:
                results.append(self.run_point(point, mode))
        return results
