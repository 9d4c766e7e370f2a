"""Scheduler-contract pass over the project's ``TaskScheduler`` hierarchy.

The engine's :class:`~repro.schedulers.base.TaskScheduler` strategy
interface carries an implicit contract that a reviewer would otherwise have
to police by hand.  Four rules machine-check it across the analyzed files:

``scheduler-hooks``
    Every ``TaskScheduler`` subclass must implement (or inherit from another
    subclass) both ``select_map`` and ``select_reduce`` — the base class
    raises ``NotImplementedError``, so "inheriting" from it alone means a
    crash on the first heartbeat.
``scheduler-name``
    Every subclass chain must override the class-level ``name`` attribute;
    two schedulers reporting as ``"base"`` make experiment tables
    indistinguishable.
``scheduler-export``
    Every public subclass must be listed in the ``__all__`` of
    ``schedulers/__init__.py`` (when that file is analyzed) so registries,
    docs and the determinism regression tests can enumerate it.
``ctx-mutation``
    Scheduler hooks receive a shared :class:`SchedulerContext`; assigning to
    its fields from a scheduler corrupts every other decision in the run.
    Any store/delete on an attribute of a parameter named ``ctx`` (or
    annotated ``SchedulerContext``) inside ``TaskScheduler`` or a subclass
    is flagged.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set

from repro.analysis.check.findings import Finding
from repro.analysis.check.project import Project, assign_targets

__all__ = ["check_contracts"]

_ROOT = "TaskScheduler"
_HOOKS = ("select_map", "select_reduce")
_STORES = (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Delete)


def _exports(project: Project) -> Optional[Set[str]]:
    """Names in the ``__all__`` of an analyzed ``schedulers/__init__.py``."""
    for module in project.modules.values():
        if module.scope.parts[-2:] != ("schedulers", "__init__.py"):
            continue
        exported: Set[str] = set()
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Assign)
                and any(
                    isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets
                )
                and isinstance(node.value, (ast.List, ast.Tuple))
            ):
                exported.update(
                    e.value for e in node.value.elts
                    if isinstance(e, ast.Constant) and isinstance(e.value, str)
                )
        return exported
    return None


def _ctx_mutations(path: str, func: ast.AST) -> Iterator[Finding]:
    """Stores/deletes on the context parameter's attributes in ``func``.

    Nested functions are skipped here: they are checked on their own, with
    their own parameters.
    """
    ctx = {
        a.arg
        for a in (*func.args.posonlyargs, *func.args.args, *func.args.kwonlyargs)
        if a.arg == "ctx"
        or (
            a.annotation is not None
            and ast.unparse(a.annotation).split(".")[-1] == "SchedulerContext"
        )
    }
    stack = list(ast.iter_child_nodes(func))
    while ctx and stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, _STORES):
            for t in assign_targets(node):
                if (
                    isinstance(t, ast.Attribute)
                    and isinstance(t.value, ast.Name)
                    and t.value.id in ctx
                ):
                    yield Finding.at(
                        path, node, "ctx-mutation",
                        f"scheduler mutates shared context field "
                        f"`{t.value.id}.{t.attr}`; SchedulerContext is "
                        "read-only for schedulers",
                    )
        stack.extend(ast.iter_child_nodes(node))


def check_contracts(project: Project) -> List[Finding]:
    findings: List[Finding] = []
    schedulers = project.descendants(_ROOT) - {_ROOT}
    exports = _exports(project)
    for name in sorted(schedulers):
        info = project.class_named(name)
        lineage = [
            c
            for ancestor in project.ancestors(name) - {_ROOT}
            for c in project.classes.get(ancestor, [])
        ]
        problems = [
            (
                "scheduler-hooks",
                f"{name} subclasses TaskScheduler but never implements "
                f"{hook}(); the base raises NotImplementedError on the "
                "first heartbeat",
            )
            for hook in _HOOKS
            if not any(hook in c.methods for c in lineage)
        ]
        if not any("name" in c.attrs for c in lineage):
            problems.append((
                "scheduler-name",
                f"{name} never overrides the class-level `name` attribute; "
                "it would report as 'base' in every experiment table",
            ))
        if exports is not None and not name.startswith("_") and name not in exports:
            problems.append((
                "scheduler-export",
                f"{name} is not exported from schedulers/__init__.py "
                "__all__; registries and regression tests cannot "
                "enumerate it",
            ))
        findings.extend(
            Finding.at(info.module.path, info.node, rule, message)
            for rule, message in problems
        )

    for name in schedulers | {_ROOT}:
        for info in project.classes.get(name, []):
            for func in ast.walk(info.node):
                if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    findings.extend(_ctx_mutations(info.module.path, func))
    return findings
