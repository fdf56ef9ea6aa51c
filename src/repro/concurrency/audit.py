"""Dynamic lock-order auditing.

The paper's recovery argument rests on two concurrency disciplines that a
type checker cannot see:

* **Lock leveling** — the short physical latches (the SLB block free
  list, the checkpoint-disk allocation map — sections 2.3.1 and 2.4) must
  have a consistent global order, among themselves and below the relation
  locks they are taken under.  A latch is the only thing in the system
  that can wait, and nothing detects a latch deadlock: an inversion
  anywhere is a latent hang.
* **No latch across a crash boundary** — section 2.5 forbids holding a
  latch across a recovery wait; the same reasoning applies to any point
  where the simulation may crash (a latch holder that dies leaves the
  protected structure wedged for every later owner).

This module is the opt-in recorder behind the ``--lock-audit`` pytest
flag (see :mod:`tools.repro_check.pytest_plugin`).  The hooks compiled
into :class:`~repro.concurrency.locks.LockManager` and
:class:`~repro.concurrency.latch.Latch` cost one module-global read and a
``None`` check when no recorder is active — the same budget discipline as
:func:`repro.sim.chaos.crash_point`.

Lock *instances* are normalised to ordering **nodes** before edges are
recorded:

* every latch keeps its identity (``latch:<name>``) — latches have no
  deadlock detector at all, so their global order must be total;
* relation-level locks keep their identity (``relation:<segment>``) as
  the *held* end of an edge — a checkpoint copies a partition and
  allocates its slot under one (section 2.4, step 3), so which latches
  are taken beneath a relation lock is part of the order;
* entity locks are **excluded** from the ordering graph: their per-key
  acquisition order is legitimately schedule-dependent.  They still
  count toward the acquisition total and the locks-under-latch tally.

A deadlock needs every participant *waiting* on the next, so an edge
A → B is recorded only when B's acquisition could wait — and only a
latch can (a latch that is busy on real hardware spins or blocks; the
cooperative simulation merely cannot express it).  The lock manager is
no-wait: a 2PL request is granted or refused on the spot, relation
locks included (a checkpoint whose relation lock is refused retries on
a later pump), so a lock acquisition is never the *acquired* end of an
edge, whatever is held at the time.

2PL locks are deliberately **not** flagged when held across a crash
point: strict two-phase locking holds every lock through the commit-record
write (``txn.commit.before-slb``) by design, and post-crash lock tables
are volatile anyway.  Latches are flagged.
"""

from __future__ import annotations

import threading
from collections import Counter
from dataclasses import dataclass
from typing import Hashable, Iterable

#: The single active recorder (None = every hook is a no-op).
_recorder: "LockOrderRecorder | None" = None


def activate(recorder: "LockOrderRecorder") -> None:
    """Install ``recorder``; raises if another recorder is active."""
    global _recorder
    if _recorder is not None:
        raise RuntimeError("another LockOrderRecorder is already active")
    _recorder = recorder


def deactivate() -> None:
    global _recorder
    _recorder = None


def active_recorder() -> "LockOrderRecorder | None":
    return _recorder


# -- hook entry points (called from locks.py / latch.py / the plugin) --------


def lock_acquired(owner: int, resource: Hashable) -> None:
    rec = _recorder
    if rec is not None:
        rec.on_lock_acquired(owner, resource)


def lock_released(owner: int, resource: Hashable) -> None:
    rec = _recorder
    if rec is not None:
        rec.on_lock_released(owner, resource)


def locks_dropped(owner: int) -> None:
    """release_all / crash: the owner's whole lock set vanishes at once."""
    rec = _recorder
    if rec is not None:
        rec.on_locks_dropped(owner)


def latch_acquired(owner: int, name: str) -> None:
    rec = _recorder
    if rec is not None:
        rec.on_latch_acquired(owner, name)


def latch_released(owner: int, name: str) -> None:
    rec = _recorder
    if rec is not None:
        rec.on_latch_released(owner, name)


def normalize(resource: Hashable) -> str | None:
    """Map a lock-manager resource to its ordering node, or None for
    resources that stay out of the ordering graph (entity locks).

    ``("rel", segment_id)`` tuples (see
    :meth:`~repro.txn.transaction.Transaction.lock_relation`) are the
    relation-level read/intent locks checkpointers copy under.
    """
    if isinstance(resource, tuple) and len(resource) == 2 and resource[0] == "rel":
        return f"relation:{resource[1]}"
    return None


@dataclass
class OrderingEdge:
    """``held`` was held while ``acquired`` was acquired, somewhere."""

    held: str
    acquired: str
    #: One concrete witness: (owner, held resource, acquired resource).
    witness: str
    count: int = 1


@dataclass
class LatchCrashViolation:
    """A latch was held while execution passed a crash point."""

    latch: str
    owner: int
    crash_point: str


@dataclass
class AuditReport:
    """Everything the recorder found, ready for rendering."""

    edges: list[OrderingEdge]
    cycles: list[list[str]]
    latch_crash_violations: list[LatchCrashViolation]
    acquisitions: int

    @property
    def ok(self) -> bool:
        return not self.cycles and not self.latch_crash_violations

    def render(self) -> str:
        lines = [
            f"lock-audit: {self.acquisitions} acquisitions, "
            f"{len(self.edges)} ordering edges"
        ]
        if self.cycles:
            lines.append(f"LOCK-ORDER CYCLES ({len(self.cycles)}):")
            for cycle in self.cycles:
                lines.append("  " + " -> ".join(cycle + [cycle[0]]))
                for edge in self.edges:
                    if edge.held in cycle and edge.acquired in cycle:
                        lines.append(
                            f"    {edge.held} -> {edge.acquired} "
                            f"(x{edge.count}, e.g. {edge.witness})"
                        )
        if self.latch_crash_violations:
            lines.append(
                f"LATCHES HELD ACROSS CRASH POINTS "
                f"({len(self.latch_crash_violations)}):"
            )
            for v in self.latch_crash_violations:
                lines.append(
                    f"  {v.latch} held by {v.owner} across "
                    f"crash_point({v.crash_point!r})"
                )
        if self.ok:
            lines.append("no lock-order cycles, no latches across crash points")
        return "\n".join(lines)


class LockOrderRecorder:
    """Builds a global lock-order graph from acquisition events.

    For every latch acquisition ``B`` by an owner currently holding
    node ``A`` (A != B) an edge A → B is recorded.  A cycle in the
    resulting graph means two code paths disagree about acquisition
    order — a latent deadlock even if no test schedule happened to
    interleave them fatally.
    """

    def __init__(self):
        #: owner -> held ordering nodes (2PL locks).  A set, as the lock
        #: table holds one entry per (owner, resource) however often it
        #: was re-requested: one release drops the node.
        self._held_locks: dict[int, set[str]] = {}
        #: owner -> multiset of held latch nodes.
        self._held_latches: dict[int, Counter[str]] = {}
        #: thread ident -> multiset of (owner, latch node) held *by that
        #: thread*; the crash-point check consults only the passing
        #: thread's entry, so a latch legitimately held by a concurrent
        #: restore worker is not misread as "held across a crash point".
        self._thread_latches: dict[int, Counter[tuple[int, str]]] = {}
        #: (held, acquired) -> edge.
        self._edges: dict[tuple[str, str], OrderingEdge] = {}
        self.acquisitions = 0
        self._latch_crash_violations: list[LatchCrashViolation] = []
        #: Acquiring a 2PL lock while holding a latch adds no edge (the
        #: request cannot wait) but is tallied here: it stretches the
        #: latch past the paper's "critical sections only for block
        #: allocation" argument.
        self.locks_under_latch: Counter[str] = Counter()
        #: Events arrive from every engine thread; the graph and the
        #: held-sets mutate under one lock.
        self._mutex = threading.RLock()

    # -- event intake -------------------------------------------------------

    def _record_edges(self, owner: int, node: str) -> None:
        for source in (self._held_locks, self._held_latches):
            held = source.get(owner)
            if not held:
                continue
            for prior in held:
                if prior == node:
                    continue
                key = (prior, node)
                edge = self._edges.get(key)
                if edge is None:
                    self._edges[key] = OrderingEdge(
                        prior, node, f"owner {owner}: {prior} then {node}"
                    )
                else:
                    edge.count += 1

    def on_lock_acquired(self, owner: int, resource: Hashable) -> None:
        with self._mutex:
            self.acquisitions += 1
            latches = self._held_latches.get(owner)
            if latches:
                for latch in latches:
                    self.locks_under_latch[latch] += 1
            node = normalize(resource)
            if node is not None:
                self._held_locks.setdefault(owner, set()).add(node)

    def on_lock_released(self, owner: int, resource: Hashable) -> None:
        with self._mutex:
            node = normalize(resource)
            if node is not None:
                self._held_locks.get(owner, set()).discard(node)

    def on_locks_dropped(self, owner: int) -> None:
        with self._mutex:
            self._held_locks.pop(owner, None)

    def on_latch_acquired(self, owner: int, name: str) -> None:
        node = f"latch:{name}"
        tid = threading.get_ident()
        with self._mutex:
            self.acquisitions += 1
            self._record_edges(owner, node)
            self._held_latches.setdefault(owner, Counter())[node] += 1
            self._thread_latches.setdefault(tid, Counter())[(owner, node)] += 1

    def on_latch_released(self, owner: int, name: str) -> None:
        node = f"latch:{name}"
        tid = threading.get_ident()
        with self._mutex:
            held = self._held_latches.get(owner)
            if held and held[node] > 0:
                held[node] -= 1
                if held[node] == 0:
                    del held[node]
            mine = self._thread_latches.get(tid)
            if mine and mine[(owner, node)] > 0:
                mine[(owner, node)] -= 1
                if mine[(owner, node)] == 0:
                    del mine[(owner, node)]

    def on_crash_point(self, point: str) -> None:
        """Crash-point observer: flag every latch the passing thread holds."""
        tid = threading.get_ident()
        with self._mutex:
            mine = self._thread_latches.get(tid)
            if not mine:
                return
            for (owner, node), count in mine.items():
                if count > 0:
                    self._latch_crash_violations.append(
                        LatchCrashViolation(node, owner, point)
                    )

    def reset_ownership(self) -> None:
        """Forget who holds what (between tests / after a crash) while
        keeping the accumulated ordering graph."""
        with self._mutex:
            self._held_locks.clear()
            self._held_latches.clear()
            self._thread_latches.clear()

    # -- analysis -----------------------------------------------------------

    def _adjacency(self) -> dict[str, set[str]]:
        graph: dict[str, set[str]] = {}
        for held, acquired in self._edges:
            graph.setdefault(held, set()).add(acquired)
            graph.setdefault(acquired, set())
        return graph

    def find_cycles(self) -> list[list[str]]:
        """Strongly connected components with more than one node (or a
        self-edge), i.e. the ordering violations, via Tarjan's algorithm."""
        graph = self._adjacency()
        index: dict[str, int] = {}
        low: dict[str, int] = {}
        on_stack: set[str] = set()
        stack: list[str] = []
        counter = [0]
        sccs: list[list[str]] = []

        def strongconnect(root: str) -> None:
            # iterative Tarjan: (node, iterator) work stack
            work = [(root, iter(sorted(graph[root])))]
            index[root] = low[root] = counter[0]
            counter[0] += 1
            stack.append(root)
            on_stack.add(root)
            while work:
                node, it = work[-1]
                advanced = False
                for succ in it:
                    if succ not in index:
                        index[succ] = low[succ] = counter[0]
                        counter[0] += 1
                        stack.append(succ)
                        on_stack.add(succ)
                        work.append((succ, iter(sorted(graph[succ]))))
                        advanced = True
                        break
                    if succ in on_stack:
                        low[node] = min(low[node], index[succ])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    component = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    if len(component) > 1 or node in graph.get(node, ()):
                        sccs.append(sorted(component))

        for node in sorted(graph):
            if node not in index:
                strongconnect(node)
        return sccs

    def edges(self) -> Iterable[OrderingEdge]:
        return list(self._edges.values())

    def report(self) -> AuditReport:
        return AuditReport(
            edges=sorted(
                self._edges.values(), key=lambda e: (e.held, e.acquired)
            ),
            cycles=self.find_cycles(),
            latch_crash_violations=list(self._latch_crash_violations),
            acquisitions=self.acquisitions,
        )
