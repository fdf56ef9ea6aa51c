"""RC10 — the crash/fault-point registry must stay live and closed.

Paper grounding: the chaos sweep (PR 1) and the torture harness (PR 6)
derive their coverage claim from the registry — "we crashed at every
registered point".  That claim silently decays in two directions the
sweep itself cannot see: a registered point whose hook was deleted in a
refactor still counts as "covered", and a hook whose function became
unreachable from any public entry point never fires.  This rule closes
the registry against the call graph:

* every ``crash_point``/``fault_point`` hook must pass a string literal
  that is registered somewhere in the analyzed tree;
* every ``register_crash_point``/``register_fault_point`` entry must be
  exercised by at least one hook;
* every hook must sit in a function reachable from a public entry point
  (module-level hooks and public functions are live by definition).

That a durable write is covered by a registered point is RC07's
property: its dominating hook must be one.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from tools.repro_check.flow.project import FunctionInfo, ProjectRule
from tools.repro_check.rules import rule
from tools.repro_check.visitor import call_name, literal_arg

_HOOKS = {"crash_point", "fault_point"}
_REGISTRARS = {"register_crash_point", "register_fault_point"}
#: The module that defines the registry and hooks; its internal uses of
#: the names are machinery, not instrumentation.
_CHAOS_MODULE = "repro.sim.chaos"


@dataclass
class _Hook:
    name: str | None  # None: non-literal argument
    call: ast.Call
    module: str
    fn: FunctionInfo | None  # None: module level
    source: object


@rule
class PointLivenessRule(ProjectRule):
    rule_id = "RC10"
    title = "crash/fault points must be registered, used, and reachable"
    rationale = (
        "PR 1's coverage claim is 'crashed at every registered point'; "
        "registry drift (dangling registrations, unregistered hooks, "
        "dead instrumentation) falsifies it without failing any test."
    )

    def check(self) -> None:
        registered: dict[str, tuple] = {}  # name -> (source, call)
        hooks: list[_Hook] = []

        for source in self.project.sources:
            module = source.module
            if not module.startswith("repro.") or module == _CHAOS_MODULE:
                continue
            fn_of = self._function_spans(module)
            for node in ast.walk(source.tree):
                if not isinstance(node, ast.Call):
                    continue
                name = call_name(node)
                if name in _REGISTRARS:
                    literal = literal_arg(node)
                    if literal is None:
                        self.add(
                            source,
                            node,
                            f"{name}() with a non-literal point name cannot "
                            f"be cross-checked; register with a string literal",
                        )
                    else:
                        registered.setdefault(literal, (source, node))
                elif name in _HOOKS:
                    hooks.append(
                        _Hook(
                            literal_arg(node),
                            node,
                            module,
                            fn_of(node.lineno),
                            source,
                        )
                    )

        if not registered and not hooks:
            return

        reachable = self.project.reachable_functions()
        used: set[str] = set()
        for hook in hooks:
            if hook.name is None:
                self.add(
                    hook.source,
                    hook.call,
                    "hook with a non-literal point name cannot be checked "
                    "against the registry; pass a string literal",
                )
                continue
            used.add(hook.name)
            if hook.name not in registered:
                self.add(
                    hook.source,
                    hook.call,
                    f"point '{hook.name}' is not registered; the chaos sweep "
                    f"and torture harness will never exercise it",
                )
            if hook.fn is not None and not self._live(hook.fn, reachable):
                self.add(
                    hook.source,
                    hook.call,
                    f"point '{hook.name}' sits in {hook.fn.qname}(), which is "
                    f"unreachable from any public entry point — dead "
                    f"instrumentation",
                )

        for name, (source, node) in sorted(registered.items()):
            if name not in used:
                self.add(
                    source,
                    node,
                    f"registered point '{name}' is never passed to a "
                    f"crash_point()/fault_point() hook; the registry "
                    f"overstates sweep coverage",
                )

    def _live(self, fn: FunctionInfo, reachable: set[str]) -> bool:
        return fn.is_public or fn.qname in reachable

    def _function_spans(self, module: str):
        """Line -> innermost indexed function of *module*, as a lookup
        callable (hooks at module level map to None)."""
        spans: list[tuple[int, int, FunctionInfo]] = []
        for fn in self.project.functions.values():
            if fn.module != module:
                continue
            end = getattr(fn.node, "end_lineno", fn.node.lineno)
            spans.append((fn.node.lineno, end or fn.node.lineno, fn))

        def lookup(lineno: int) -> FunctionInfo | None:
            best: FunctionInfo | None = None
            best_span = 1 << 30
            for start, end, fn in spans:
                if start <= lineno <= end and (end - start) < best_span:
                    best, best_span = fn, end - start
                # nested defs are not indexed, so innermost == smallest
            return best

        return lookup
