"""RC03 — no wall-clock, ambient randomness or environment reads outside
sanctioned modules.

Paper grounding: none directly — this protects the *reproduction's*
methodology.  Every latency in the system is simulated time on
:class:`repro.sim.clock.VirtualClock`, which is what makes the chaos
sweep replayable: arming the same crash point twice must walk the same
schedule to the same state, or a failed sweep cannot be debugged.  A
stray ``time.time()`` or module-level ``random`` call breaks that
determinism invisibly.

The rule: importing ``time``, ``random``, ``datetime`` or ``secrets`` is
only allowed in :mod:`repro.sim.clock` (the one place wall-time could
ever legitimately be bridged), under ``repro.workloads`` (generators own
their seeded ``random.Random`` instances), and in the chaos/torture
injection layer (:mod:`repro.sim.chaos`, :mod:`repro.sim.torture`),
whose ``random.Random`` instances are seeded by the plan so every
injection schedule replays from its printed seed.

Sleeping is flagged everywhere, those modules included: ``time.sleep``
or ``from time import sleep`` in any ``repro.*`` module.  With one
thread a host sleep changes no outcome, so it only costs wall time;
simulated waits advance the :class:`~repro.sim.clock.VirtualClock`.

The process environment is the same kind of ambient input: an
``os.environ`` read makes a run depend on something no seed or config
records.  ``os.environ`` / ``os.getenv`` are flagged in every ``repro.*``
module: :class:`~repro.common.config.SystemConfig` and call arguments
are the library's only inputs.
"""

from __future__ import annotations

import ast

from tools.repro_check.rules import rule
from tools.repro_check.visitor import RuleVisitor

_FORBIDDEN_MODULES = frozenset({"time", "random", "datetime", "secrets"})
_ALLOWED_EXACT = frozenset(
    {"repro.sim.clock", "repro.sim.chaos", "repro.sim.torture"}
)
_ALLOWED_PREFIX = ("repro.workloads",)
_ENVIRONMENT_NAMES = frozenset({"environ", "environb", "getenv", "getenvb"})


@rule
class DeterminismRule(RuleVisitor):
    rule_id = "RC03"
    title = (
        "no wall-clock / ambient randomness outside sim.clock and workloads, "
        "no host sleep anywhere, no os.environ anywhere"
    )
    rationale = (
        "Chaos replay is only debuggable if the schedule is deterministic: "
        "all time comes from VirtualClock, all randomness from seeded "
        "workload generators, and settings from SystemConfig, never the "
        "environment."
    )

    def __init__(self, source):
        super().__init__(source)
        #: Names the ``time`` module is bound to in this file.
        self._time_names: set[str] = set()

    @classmethod
    def applies_to(cls, source) -> bool:
        return source.module.startswith("repro.")

    def _imports_allowed(self) -> bool:
        module = self.source.module
        return module in _ALLOWED_EXACT or module.startswith(_ALLOWED_PREFIX)

    def _flag(self, node: ast.AST, module: str) -> None:
        self.add(
            node,
            f"import of {module!r} breaks deterministic replay; use "
            f"VirtualClock for time and a seeded workload Random for "
            f"randomness",
        )

    def _flag_sleep(self, node: ast.AST) -> None:
        self.add(
            node,
            "a host sleep changes no outcome and only costs wall time; "
            "simulated waits advance VirtualClock",
        )

    def _flag_environment(self, node: ast.AST, name: str) -> None:
        self.add(
            node,
            f"os.{name} is an ambient input no seed or config records; "
            "take the value from a SystemConfig field or an argument",
        )

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name == "time":
                self._time_names.add(alias.asname or "time")
        if self._imports_allowed():
            return
        for alias in node.names:
            root = alias.name.split(".")[0]
            if root in _FORBIDDEN_MODULES:
                self._flag(node, alias.name)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.level != 0 or not node.module:
            return
        if node.module == "time" and any(a.name == "sleep" for a in node.names):
            self._flag_sleep(node)
        if node.module == "os":
            for alias in node.names:
                if alias.name in _ENVIRONMENT_NAMES:
                    self._flag_environment(node, alias.name)
        elif not self._imports_allowed():
            root = node.module.split(".")[0]
            if root in _FORBIDDEN_MODULES:
                self._flag(node, node.module)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if (
            node.attr in _ENVIRONMENT_NAMES
            and isinstance(node.value, ast.Name)
            and node.value.id == "os"
        ):
            self._flag_environment(node, node.attr)
        if (
            node.attr == "sleep"
            and isinstance(node.value, ast.Name)
            and node.value.id in self._time_names
        ):
            self._flag_sleep(node)
        self.generic_visit(node)
