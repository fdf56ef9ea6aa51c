"""RC06 — mutating Partition/Segment methods must state their lock mode.

Paper grounding: partitions are the unit of checkpointing and recovery;
section 2.4's checkpointer takes the *relation read lock* before copying
a partition, and section 2.3.2 holds entity locks two-phase through
commit — an entity's own, or its relation's S/X lock, which covers it.
Those disciplines live at the call sites — the storage layer
itself is lock-free by design — so every public mutator on
:class:`~repro.storage.partition.Partition` and
:class:`~repro.storage.segment.Segment` must say what its callers are
required to hold, or the requirement erodes one refactor at a time.

The rule: a public (non-underscore) method of a class named ``Partition``
or ``Segment`` that mutates ``self`` — directly, or by calling another
mutating method of the same class — must either document its lock
requirement (a docstring mentioning ``lock`` or ``latch``) or assert it
(an ``assert`` whose expression mentions a lock).
"""

from __future__ import annotations

import ast
import re

from tools.repro_check.rules import rule
from tools.repro_check.visitor import (
    RuleVisitor,
    attribute_root,
    walk_function_body,
)

_TARGET_CLASSES = frozenset({"Partition", "Segment"})
_MUTATOR_CALLS = frozenset(
    {
        "add",
        "append",
        "appendleft",
        "clear",
        "discard",
        "extend",
        "insert",
        "pop",
        "popitem",
        "popleft",
        "remove",
        "setdefault",
        "update",
    }
)
_LOCK_WORD = re.compile(r"lock|latch", re.IGNORECASE)


def _self_name(func: ast.FunctionDef) -> str | None:
    if func.args.args:
        return func.args.args[0].arg
    return None


def _is_instance_method(func: ast.FunctionDef) -> bool:
    for deco in func.decorator_list:
        name = deco.id if isinstance(deco, ast.Name) else getattr(deco, "attr", None)
        if name in {"staticmethod", "classmethod"}:
            return False
    return True


def _rooted_at_self(node: ast.AST, self_name: str) -> bool:
    root = attribute_root(node)
    return isinstance(root, ast.Name) and root.id == self_name


def _mutates_directly(func: ast.FunctionDef, self_name: str) -> bool:
    for node in walk_function_body(func):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(
                    target, (ast.Attribute, ast.Subscript)
                ) and _rooted_at_self(target, self_name):
                    return True
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if isinstance(
                    target, (ast.Attribute, ast.Subscript)
                ) and _rooted_at_self(target, self_name):
                    return True
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            # self.<attr>.append(...) and friends
            if node.func.attr in _MUTATOR_CALLS and _rooted_at_self(
                node.func.value, self_name
            ):
                # exclude plain self.foo(...) — handled by propagation
                if isinstance(node.func.value, (ast.Attribute, ast.Subscript)):
                    return True
    return False


def _self_calls(func: ast.FunctionDef, self_name: str) -> set[str]:
    calls = set()
    for node in walk_function_body(func):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == self_name
        ):
            calls.add(node.func.attr)
    return calls


def _documents_locking(func: ast.FunctionDef) -> bool:
    doc = ast.get_docstring(func)
    if doc and _LOCK_WORD.search(doc):
        return True
    for node in walk_function_body(func):
        if isinstance(node, ast.Assert):
            try:
                text = ast.unparse(node)
            except Exception:  # pragma: no cover - unparse is total on our input
                text = ""
            if _LOCK_WORD.search(text):
                return True
    return False


@rule
class LockDisciplineRule(RuleVisitor):
    rule_id = "RC06"
    title = "Partition/Segment mutators must state their lock requirement"
    rationale = (
        "Sections 2.3.2/2.4: entity and relation lock disciplines are "
        "enforced by callers of the storage layer, so every public mutator "
        "must document or assert what must be held."
    )

    @classmethod
    def applies_to(cls, source) -> bool:
        return source.module.startswith("repro.")

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if node.name not in _TARGET_CLASSES:
            return
        methods = {
            stmt.name: stmt
            for stmt in node.body
            if isinstance(stmt, ast.FunctionDef) and _is_instance_method(stmt)
        }
        # Direct mutators, then propagate through self-calls to a fixpoint
        # (insert() mutates via insert_at()).
        mutators = {
            name
            for name, func in methods.items()
            if (self_name := _self_name(func)) and _mutates_directly(func, self_name)
        }
        changed = True
        while changed:
            changed = False
            for name, func in methods.items():
                if name in mutators:
                    continue
                self_name = _self_name(func)
                if self_name and _self_calls(func, self_name) & mutators:
                    mutators.add(name)
                    changed = True
        for name in sorted(mutators):
            if name.startswith("_"):
                continue
            func = methods[name]
            if not _documents_locking(func):
                self.add(
                    func,
                    f"{node.name}.{name}() mutates storage state but neither "
                    f"documents nor asserts its required lock mode "
                    f"(mention the lock/latch discipline in the docstring)",
                )
