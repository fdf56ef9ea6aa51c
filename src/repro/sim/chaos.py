"""Crash/fault-point registries and the chaos engine.

The paper's claim is that recovery is *exact* no matter when the system
dies — mid-commit, in any of the seven checkpoint steps (section 2.4),
mid-flush, or even mid-restart.  This module makes that claim mechanically
checkable:

* Instrumented modules call :func:`register_crash_point` at import time
  and :func:`crash_point` at each interesting transition; the duplex I/O
  layers additionally declare :func:`register_fault_point` sites where a
  *transient* device fault can be injected into their retry loops.  With
  nothing installed a hook is one global read and a ``None`` check, so
  the hooks stay on the hot path permanently
  (``benchmarks/bench_chaos_overhead.py`` enforces the budget).
* :class:`ChaosEngine` is the one injector.  It evaluates a seeded,
  multi-action :class:`ChaosPlan`: any registered point may crash, and a
  fault point may raise a :class:`~repro.sim.faults.TransientIOError`
  — with per-point probability and nth-visit filters, all driven by one
  seeded RNG so any failure reproduces from its printed seed.  The
  simplest plan, :meth:`ChaosPlan.crash_at`, arms exactly one named
  point: the first time execution passes it a
  :class:`~repro.sim.faults.SimulatedCrash` is raised and the rule
  latches, so recovery can run through the very same code path without
  re-firing.
* :func:`crash_restart_verify` is the one crash-restart-verify routine:
  run a workload under an engine, read at the crash what each database
  must recover to (:func:`~repro.recovery.oracle.committed_digests`),
  crash, restart (retrying when the crash lands *inside* restart), and
  compare; with ``media=True`` the checkpoint disk is destroyed and the
  database restored from its log history instead.  The chaos sweep
  (``tests/test_chaos_sweep.py``) runs it for every registered point and
  recovery mode, :mod:`repro.sim.torture` for seeded rounds and their
  stability check.
"""

from __future__ import annotations

import contextlib
import random
from dataclasses import dataclass
from typing import Callable, Iterator

from repro.common.errors import RecoveryError
from repro.sim.faults import SimulatedCrash, TransientIOError

#: name -> human description of every crash point threaded into the system.
_REGISTRY: dict[str, str] = {}

#: name -> description of every transient-fault injection site (the
#: retry-wrapped duplex I/O operations).
_FAULT_REGISTRY: dict[str, str] = {}

#: The injector currently observing crash/fault points (None = all hooks
#: free).
_active: "ChaosEngine | None" = None

#: Observer of crash-point passages (the test suite checks section 2.5's
#: latch rule with it: :func:`repro.concurrency.latch.assert_no_latch_held`).
_observer: "Callable[[str], None] | None" = None

#: What :func:`crash_point` calls: the observer and the injector composed
#: by :func:`_publish`, or ``None`` while neither is installed.
_crash_hook: "Callable[[str], None] | None" = None


def register_crash_point(name: str, description: str) -> str:
    """Declare a crash point (idempotent; called at module import)."""
    existing = _REGISTRY.get(name)
    if existing is not None and existing != description:
        raise ValueError(
            f"crash point {name!r} registered twice with different text"
        )
    _REGISTRY[name] = description
    return name


def register_fault_point(name: str, description: str) -> str:
    """Declare a transient-fault injection site (idempotent)."""
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
    hook = _crash_hook
    if hook is not None:
        hook(name)


def fault_point(name: str) -> None:
    """Hook inside a retry-wrapped duplex I/O operation.

    An active :class:`ChaosEngine` may raise a
    :class:`~repro.sim.faults.TransientIOError` here, which the
    surrounding retry loop absorbs (or escalates past its budget).
    Near-free when disabled, exactly like :func:`crash_point`.
    """
    injector = _active
    if injector is not None:
        injector.visit(name)


def set_crash_point_observer(observer: "Callable[[str], None] | None") -> None:
    """Install (or, with None, remove) the crash-point observer; it sees
    every passage before the injector does."""
    global _observer
    _observer = observer
    _publish()


def activate(injector: "ChaosEngine") -> None:
    global _active
    if _active is not None:
        raise RuntimeError("another chaos injector is already active")
    _active = injector
    _publish()


def deactivate() -> None:
    global _active
    _active = None
    _publish()


def _publish() -> None:
    """Recompose :data:`_crash_hook` from the observer and the injector."""
    global _crash_hook
    observer, injector = _observer, _active
    if injector is None:
        _crash_hook = observer
    elif observer is None:
        _crash_hook = injector.visit
    else:

        def both(name: str) -> None:
            observer(name)
            injector.visit(name)

        _crash_hook = both


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
CRASH, FAULT = "crash", "fault"
ACTIONS = (CRASH, FAULT)


@dataclass(frozen=True)
class ChaosRule:
    """One injection rule of a :class:`ChaosPlan`.

    ``point`` names a crash point (crash action) or a fault point (either
    action).  A rule becomes eligible after the point's first
    ``after_visits`` passages, then fires with ``probability`` per passage
    until it has fired ``max_fires`` times (``None`` = unlimited).
    """

    point: str
    action: str
    probability: float = 1.0
    after_visits: int = 0
    max_fires: int | None = 1

    def __post_init__(self) -> None:
        if self.action not in ACTIONS:
            raise ValueError(f"unknown chaos action {self.action!r}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be within [0, 1]")
        if self.after_visits < 0:
            raise ValueError("after_visits cannot be negative")
        if self.max_fires is not None and self.max_fires < 1:
            raise ValueError("max_fires must be at least 1 (or None)")

    def describe(self) -> str:
        parts = [f"{self.action}@{self.point}"]
        if self.probability < 1.0:
            parts.append(f"p={self.probability:g}")
        if self.after_visits:
            parts.append(f"after={self.after_visits}")
        if self.max_fires is not None:
            parts.append(f"max={self.max_fires}")
        return "[" + " ".join(parts) + "]"


@dataclass(frozen=True)
class ChaosPlan:
    """A seeded set of injection rules.

    The seed drives *every* probabilistic decision (the fire rolls), so a
    failing run reproduces from the plan's printed seed alone.
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


class _RuleState:
    __slots__ = ("rule", "fires", "exhausted")

    def __init__(self, rule: ChaosRule):
        self.rule = rule
        self.fires = 0
        self.exhausted = False


class ChaosEngine:
    """Evaluates a :class:`ChaosPlan` at every hook passage.

    Crash rules latch after ``max_fires``, so the recovery that follows can
    pass the same point without re-firing.  A plan with no rules injects
    nothing and still counts every passage (:meth:`hits`).
    """

    def __init__(self, plan: ChaosPlan):
        self.plan = plan
        self._rng = random.Random(plan.seed)
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
        return sum(1 for f in self.fired if f.action == CRASH)

    @property
    def faults_fired(self) -> int:
        return sum(1 for f in self.fired if f.action == FAULT)

    def hits(self) -> dict[str, int]:
        """Passages of every crash and fault point shown to this engine
        while it was active, ruled or not."""
        return dict(self._visits)

    # -- hook dispatch ------------------------------------------------------

    def visit(self, name: str) -> None:
        """One passage of crash or fault point ``name``: count it, then
        raise for the first rule that fires."""
        visit = self._visits.get(name, 0) + 1
        self._visits[name] = visit
        for state in self._states.get(name, ()):
            rule = state.rule
            if state.exhausted or visit <= rule.after_visits:
                continue
            if rule.probability < 1.0 and self._rng.random() >= rule.probability:
                continue
            state.fires += 1
            if rule.max_fires is not None and state.fires >= rule.max_fires:
                # Latch before raising: recovery re-executes the same
                # code paths and must be able to pass this point again.
                state.exhausted = True
            self.fired.append(ChaosFire(name, rule.action, visit))
            if rule.action == CRASH:
                raise SimulatedCrash(
                    f"chaos[seed={self.plan.seed}]: crash at {name!r} (visit {visit})"
                )
            raise TransientIOError(
                f"chaos[seed={self.plan.seed}]: transient fault at "
                f"{name!r} (visit {visit})"
            )


# ---------------------------------------------------------------------------
# Crash, restart, verify
# ---------------------------------------------------------------------------

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


def crash_restart_verify(
    databases: list,
    run: Callable[[], object],
    engine: ChaosEngine,
    mode,
    *,
    power_fail: Callable[[], None] | None = None,
    media: bool = False,
) -> int:
    """Run ``run`` under ``engine`` until it returns or crashes, read what
    each database must recover to (:func:`~repro.recovery.oracle.committed_digests`),
    power-fail (``power_fail``, then every database still up), restart in
    ``mode`` until recovered, and raise :class:`RecoveryError` unless each
    digest matches and :func:`~repro.db.integrity.verify_integrity` finds
    nothing.  The crash is unconditional, so restart-path points fire in
    the recovery that follows.  Returns the restart attempts (1: no crash
    inside recovery).

    With ``media`` (one database) the checkpoint disk is destroyed after
    the power failure and the database restored from its log history
    (:func:`~repro.recovery.media.restore_after_checkpoint_media_failure`,
    paper section 2.6); a crash inside the restore is followed by an
    ordinary restart in ``mode``.  The restore images every partition
    afresh, so the digests leave the checkpoint slots out."""
    from repro.db.integrity import verify_integrity
    from repro.recovery.media import restore_after_checkpoint_media_failure
    from repro.recovery.oracle import committed_digests, logical_digest

    slots = not media
    with chaos(engine):
        try:
            run()
        except SimulatedCrash:
            pass
        expected = committed_digests(databases, slots=slots)
        if power_fail is not None:
            power_fail()
        for db in databases:
            if not db.crashed:
                db.crash()
        if media:
            (db,) = databases
            db.checkpoint_disk.disk.destroy()
            try:
                restore_after_checkpoint_media_failure(db)
                attempts = 1
            except SimulatedCrash:
                db.crash()
                attempts = 1 + restart_until_recovered(databases, mode)
        else:
            attempts = restart_until_recovered(databases, mode)
    for number, (db, digest) in enumerate(zip(databases, expected)):
        actual = logical_digest(db, slots=slots)
        if actual != digest:
            raise RecoveryError(
                f"database {number} recovered to digest {actual[:16]}…, "
                f"not the committed state's {digest[:16]}… ({engine.plan.describe()})"
            )
        problems = verify_integrity(db)
        if problems:
            raise RecoveryError(f"database {number} recovered inconsistent: {problems}")
    return attempts
