"""Visitor base class shared by every repro-check rule."""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator

from tools.repro_check.findings import Finding

if TYPE_CHECKING:
    from tools.repro_check.engine import SourceFile


class RuleVisitor(ast.NodeVisitor):
    """An AST visitor that accumulates findings for one rule.

    Subclasses set the class attributes and implement ``visit_*``
    methods; :meth:`run` is the engine's entry point.  A subclass may
    override :meth:`applies_to` to scope itself to particular modules —
    a rule that does not apply produces no findings and never walks the
    tree.
    """

    rule_id: str = ""
    title: str = ""
    #: Paper/design grounding, shown by --list-rules and in the docs.
    rationale: str = ""

    def __init__(self, source: "SourceFile"):
        self.source = source
        self.findings: list[Finding] = []

    # -- subclass API --------------------------------------------------------

    @classmethod
    def applies_to(cls, source: "SourceFile") -> bool:
        return True

    def add(self, node: ast.AST, message: str) -> None:
        self.findings.append(
            Finding(
                rule=self.rule_id,
                path=str(self.source.path),
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0) + 1,
                message=message,
            )
        )

    # -- engine entry point --------------------------------------------------

    @classmethod
    def run(cls, source: "SourceFile") -> list[Finding]:
        if not cls.applies_to(source):
            return []
        visitor = cls(source)
        visitor.visit(source.tree)
        return visitor.findings


def call_name(node: ast.AST) -> str | None:
    """The bare callee name of a Call (``f(...)`` → ``f``;
    ``a.b.f(...)`` → ``f``), or None."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def literal_arg(call: ast.Call) -> str | None:
    """The call's first argument when it is a string literal, or None."""
    if call.args and isinstance(call.args[0], ast.Constant):
        value = call.args[0].value
        if isinstance(value, str):
            return value
    return None


def walk_function_body(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
) -> Iterator[ast.AST]:
    """Walk a function's own statements without descending into nested
    function or class definitions."""
    stack: list[ast.AST] = list(func.body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def attribute_root(node: ast.AST) -> ast.AST:
    """Follow ``a.b[c].d`` chains down to the root expression."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node
