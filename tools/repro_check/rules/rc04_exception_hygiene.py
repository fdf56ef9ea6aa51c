"""RC04 — no overbroad exception handler may swallow control-flow errors.

Paper grounding: :class:`~repro.common.errors.TransactionAborted` (section
2.3.2's locks, resolved no-wait: a refused request aborts the requester),
:class:`~repro.common.errors.ConcurrencyError` and
:class:`~repro.common.errors.MediaFailure` (section 2.6's escalation
to archive recovery) are *control flow*, not noise — a handler that
catches them and does not re-raise turns "abort this transaction" or
"fall over to media recovery" into silent data corruption.  The same
goes for ``SimulatedCrash``: downgrading a machine crash to a caught
exception would let post-crash code run against pre-crash state.

The rule: a bare ``except:`` or a handler for ``Exception`` /
``BaseException`` / ``ReproError`` must re-raise on every path we can
see — concretely, its body must contain at least one ``raise``
statement.  Handlers that transform the error (``raise X from exc``)
satisfy this; handlers that log-and-continue must name the narrow
exception types they actually expect.

Re-raising is not enough when the handler *rolls a transaction back*
first: Sauer & Härder's point (and docs/CHAOS.md's crash contract) is
that nothing uncommitted is ever stable, so a crash needs no abort
machinery — and running it anyway writes an ``abort`` audit entry and
frees an SLB chain on a machine that is already dead.  So an overbroad
handler whose body calls ``.abort()`` / ``.abort_prepared()`` /
``.abort_distributed()`` must sit behind an earlier clause of the same
``try`` that catches ``SimulatedCrash``.  (The transaction frame,
``repro.txn.manager.settle``, is the one place that should need it.)
"""

from __future__ import annotations

import ast

from tools.repro_check.rules import rule
from tools.repro_check.visitor import RuleVisitor

_OVERBROAD = frozenset({"Exception", "BaseException", "ReproError"})
_CRASH = frozenset({"SimulatedCrash"})
_ABORTS = frozenset({"abort", "abort_prepared", "abort_distributed"})


def _caught(node: ast.expr | None, wanted: frozenset[str]) -> list[str]:
    """Class names from ``wanted`` mentioned in an except clause."""
    if node is None:
        return []
    exprs = node.elts if isinstance(node, ast.Tuple) else [node]
    names = []
    for expr in exprs:
        if isinstance(expr, ast.Name) and expr.id in wanted:
            names.append(expr.id)
        elif isinstance(expr, ast.Attribute) and expr.attr in wanted:
            names.append(expr.attr)
    return names


def _body_has(handler: ast.ExceptHandler, wanted) -> bool:
    """True when the handler body contains a node ``wanted`` accepts (not
    inside a nested function definition)."""
    stack: list[ast.AST] = list(handler.body)
    while stack:
        node = stack.pop()
        if wanted(node):
            return True
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))
    return False


def _reraises(node: ast.AST) -> bool:
    return isinstance(node, ast.Raise)


def _aborts(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in _ABORTS
    )


@rule
class ExceptionHygieneRule(RuleVisitor):
    rule_id = "RC04"
    title = "overbroad except handlers must re-raise"
    rationale = (
        "TransactionAborted / MediaFailure / SimulatedCrash are control flow; "
        "a swallow-all handler converts required aborts and media-recovery "
        "escalations into silent corruption."
    )

    @classmethod
    def applies_to(cls, source) -> bool:
        return source.module.startswith("repro.")

    def visit_Try(self, node: ast.Try) -> None:
        crash_guarded = False
        for handler in node.handlers:
            broad = ", ".join(_caught(handler.type, _OVERBROAD)) or (
                "<bare>" if handler.type is None else ""
            )
            if broad and not _body_has(handler, _reraises):
                self.add(
                    handler,
                    f"overbroad handler ({broad}) swallows "
                    f"ConcurrencyError/TransactionAborted/MediaFailure/SimulatedCrash; "
                    f"catch the narrow types you expect or re-raise",
                )
            elif broad and not crash_guarded and _body_has(handler, _aborts):
                self.add(
                    handler,
                    f"overbroad handler ({broad}) rolls a transaction back, so a "
                    f"SimulatedCrash would run abort machinery on a dead machine; "
                    f"use the transaction frame (repro.txn.manager) or catch "
                    f"SimulatedCrash in an earlier clause",
                )
            crash_guarded = crash_guarded or bool(_caught(handler.type, _CRASH))
        self.generic_visit(node)

    visit_TryStar = visit_Try
