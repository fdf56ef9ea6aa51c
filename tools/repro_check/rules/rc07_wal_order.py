"""RC07 — durable writes must be *dominated* by a registered crash bracket.

Paper grounding: section 2.3's WAL argument is an ordering on every
execution path — the REDO record (and the crash bracket that lets the
chaos sweep cut the path) comes before the durable mutation, not merely
somewhere in the same function.  RC07 proves it by dominance on the
control-flow graph: every path from function
entry to the ``write_page``/``write_track`` statement must pass a
``crash_point(...)``/``fault_point(...)`` hook naming a *registered*
point — the sweep can land a crash on no other (hooks in the same
statement count — the retry-lambda idiom puts the fault point and the
write in one expression).

Interprocedurally: a write whose own function has no dominating hook is
still fine if *every* resolved call site of that function is dominated
by a hook in its caller (recursively).  A function with an unprotected
write and no resolvable callers is a finding — "somebody probably
brackets it" is exactly the assumption this rule exists to kill.
"""

from __future__ import annotations

import ast

from tools.repro_check.flow.cfg import stmt_contains
from tools.repro_check.flow.project import FunctionInfo, ProjectRule
from tools.repro_check.rules import rule
from tools.repro_check.visitor import call_name, literal_arg

_DURABLE_CALLEES = frozenset({"write_page", "write_track"})
_PROTECTORS = frozenset({"crash_point", "fault_point"})
_REGISTRARS = frozenset({"register_crash_point", "register_fault_point"})
_SCOPES = ("repro.wal.", "repro.checkpoint.", "repro.recovery.")


@rule
class WalOrderRule(ProjectRule):
    rule_id = "RC07"
    title = "durable writes must be dominated by a registered crash/fault hook on all paths"
    rationale = (
        "Section 2.3: the WAL ordering holds per execution path, so the "
        "crash bracket must dominate the durable write in the CFG — "
        "interprocedurally through resolved call sites — not merely "
        "appear in the same function."
    )

    def check(self) -> None:
        self._entry_protected: dict[str, bool] = {}
        registered = {
            literal_arg(node)
            for source in self.project.sources
            for node in ast.walk(source.tree)
            if call_name(node) in _REGISTRARS
        } - {None}

        def is_protector(node: ast.AST) -> bool:
            return call_name(node) in _PROTECTORS and literal_arg(node) in registered

        self._protects = lambda stmt: stmt_contains(stmt, is_protector)
        for fn in self.project.functions.values():
            if not fn.module.startswith(_SCOPES):
                continue
            cfg = self.project.cfg(fn)
            for stmt, write in self._durable_writes(fn):
                if cfg.dominated_by(stmt, self._protects):
                    continue
                if self._protected_externally(fn, set()):
                    continue
                self.add(
                    fn.source,
                    write,
                    f"durable write ({call_name(write)}) in {fn.name}() is not "
                    f"dominated by a registered crash_point()/fault_point() hook on every "
                    f"path — a crash landed before it would be invisible to "
                    f"the sweep; bracket the write or protect every call site",
                )

    def _durable_writes(
        self, fn: FunctionInfo
    ) -> list[tuple[ast.stmt, ast.Call]]:
        writes = []
        containing = self.project.cfg(fn).containing
        for expr, node in containing.items():
            if isinstance(expr, ast.Call) and call_name(expr) in _DURABLE_CALLEES:
                if node.stmt is not None:
                    writes.append((node.stmt, expr))
        return writes

    def _protected_externally(self, fn: FunctionInfo, visiting: set[str]) -> bool:
        """True if every resolved call site into *fn* passes a hook
        before the call (or its caller is itself entry-protected).
        Recursion is conservative: a cycle proves nothing, so False."""
        cached = self._entry_protected.get(fn.qname)
        if cached is not None:
            return cached
        if fn.qname in visiting:
            return False
        visiting.add(fn.qname)
        sites = self.project.callers(fn)
        ok = bool(sites)
        for site in sites:
            caller = site.caller
            if site.stmt is None:
                ok = False
                break
            cfg = self.project.cfg(caller)
            if cfg.dominated_by(site.stmt, self._protects):
                continue
            if not self._protected_externally(caller, visiting):
                ok = False
                break
        visiting.discard(fn.qname)
        self._entry_protected[fn.qname] = ok
        return ok
