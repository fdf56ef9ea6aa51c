"""RC05 — core modules may only use the chaos *registry*, never the injector.

Paper grounding: the chaos subsystem (PR 1) proves recovery exactness by
crashing the simulation from the *outside*.  That proof is only valid if
production code paths cannot observe or steer the injector: a core module
that imports :class:`~repro.sim.chaos.ChaosEngine`, ``activate`` or the
harness could behave differently under test than in normal operation —
the cardinal sin of fault injection.

The rule: modules under ``repro.`` (outside ``repro.sim`` itself) may
import from :mod:`repro.sim.chaos` only the passive registry surface —
``crash_point`` / ``fault_point``, their ``register_*`` declarations,
the ``registered_*`` enumerations, and ``set_crash_point_observer`` —
and may not import the module wholesale.  Tests and tools are
unrestricted.
"""

from __future__ import annotations

import ast

from tools.repro_check.rules import rule
from tools.repro_check.visitor import RuleVisitor

ALLOWED_NAMES = frozenset(
    {
        "crash_point",
        "register_crash_point",
        "registered_crash_points",
        "fault_point",
        "register_fault_point",
        "registered_fault_points",
        "set_crash_point_observer",
    }
)


@rule
class ChaosImportRule(RuleVisitor):
    rule_id = "RC05"
    title = "core modules must not reach past the chaos registry"
    rationale = (
        "Fault injection is only a proof if the system under test cannot "
        "observe the injector: core code gets crash_point()/registration, "
        "never ChaosEngine or activate()."
    )

    @classmethod
    def applies_to(cls, source) -> bool:
        return source.module.startswith("repro.") and not source.module.startswith(
            "repro.sim"
        )

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name == "repro.sim.chaos" or alias.name == "repro.sim":
                self.add(
                    node,
                    f"module import of {alias.name!r} exposes the whole "
                    f"chaos surface; import the registry functions from "
                    f"repro.sim.chaos instead",
                )

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "repro.sim.chaos":
            for alias in node.names:
                if alias.name not in ALLOWED_NAMES:
                    self.add(
                        node,
                        f"import of {alias.name!r} from repro.sim.chaos: core "
                        f"modules may only use the registry "
                        f"({', '.join(sorted(ALLOWED_NAMES))})",
                    )
        elif node.module == "repro.sim":
            for alias in node.names:
                if alias.name == "chaos":
                    self.add(
                        node,
                        "importing the chaos module wholesale exposes "
                        "ChaosEngine/activate to core code",
                    )
