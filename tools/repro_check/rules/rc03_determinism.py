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

The process environment is the same kind of ambient input: a stray
``os.environ`` read makes a run depend on something no seed or config
records.  ``os.environ`` / ``os.getenv`` are only allowed in
:mod:`repro.common.config`, whose ``env_settings`` parses and validates
the four ``REPRO_*`` variables for everyone else.
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
_ENVIRONMENT_MODULE = "repro.common.config"


@rule
class DeterminismRule(RuleVisitor):
    rule_id = "RC03"
    title = (
        "no wall-clock / ambient randomness outside sim.clock and workloads, "
        "no os.environ outside common.config"
    )
    rationale = (
        "Chaos replay is only debuggable if the schedule is deterministic: "
        "all time comes from VirtualClock, all randomness from seeded "
        "workload generators, and the environment enters through the one "
        "validated parser."
    )

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

    def _flag_environment(self, node: ast.AST, name: str) -> None:
        if self.source.module != _ENVIRONMENT_MODULE:
            self.add(
                node,
                f"os.{name} is an ambient input no seed or config records; "
                f"take the value from {_ENVIRONMENT_MODULE}.env_settings()",
            )

    def visit_Import(self, node: ast.Import) -> None:
        if self._imports_allowed():
            return
        for alias in node.names:
            root = alias.name.split(".")[0]
            if root in _FORBIDDEN_MODULES:
                self._flag(node, alias.name)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.level != 0 or not node.module:
            return
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
        self.generic_visit(node)
