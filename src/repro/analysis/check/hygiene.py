"""Per-module hygiene pass: wall-clock reads, magic unit literals, prints.

Three rules that need one module at a time:

``wallclock``
    ``time.time()`` / ``monotonic()`` / ``perf_counter()`` (and their
    ``_ns`` forms) or ``datetime.now()`` / ``utcnow()`` / ``today()`` inside
    the ``deterministic-dirs`` sub-packages.  Every CDF in the evaluation is
    only meaningful if a run is a pure function of its seed, so simulated
    behaviour must read the simulated clock, never the host's.  Calls
    resolve through the module's imports (``from time import perf_counter
    as pc; pc()`` is caught).  An experiment driver may time itself, so the
    rule is scoped.
``magic-unit``
    Anywhere: a raw ``1e3``/``1e6``/``1e9``/``1e12``/``1e15`` factor in a
    multiplication or division, ``x * 1024``, ``1024 ** n``,
    ``2 ** 10/20/30/40`` or ``1 << 10/20/30/40``.  All sizes are bytes and
    all rates bytes/second, with :mod:`repro.units` naming the constants; a
    raw ``1e9`` is ambiguous three ways (decimal gigabyte, binary gibibyte or
    gigabit), which is how bytes-vs-Gbps mix-ups corrupt every figure.
``no-print``
    A call to the ``print`` builtin outside the ``no-print-exclude`` entry
    points.  Library code returns strings or emits trace events; a stray
    print cannot be captured by callers and pollutes benchmark output.  A
    parameter named ``print`` shadows the builtin for its function's body.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Set, Tuple

from repro.analysis.check.config import CheckConfig
from repro.analysis.check.findings import Finding
from repro.analysis.check.project import Project, param_names

__all__ = ["check_hygiene"]

_CLOCKS = frozenset(
    [
        f"time.{f}"
        for f in (
            "time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
            "perf_counter_ns",
        )
    ]
    + [
        f"datetime.{cls}.{f}"
        for cls in ("datetime", "date")
        for f in ("now", "utcnow", "today")
    ]
)

_KIB = 1024
#: 10**k factors that read as KB/MB/GB/TB or Kbps/Mbps/Gbps in context.
_DECIMAL_FACTORS = frozenset(float(10**k) for k in (3, 6, 9, 12, 15))
#: exponents whose power-of-two / shift spells a binary size unit.
_BINARY_EXPONENTS = frozenset({10, 20, 30, 40})

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _number(node: ast.AST):
    if (
        isinstance(node, ast.Constant)
        and isinstance(node.value, (int, float))
        and not isinstance(node.value, bool)
    ):
        return node.value
    return None


def _magic_unit(node: ast.BinOp) -> Optional[str]:
    """Why ``node`` spells a size/rate unit by hand, or None."""
    left, right = _number(node.left), _number(node.right)
    if isinstance(node.op, (ast.Mult, ast.Div)):
        for value in (left, right):
            if value is not None and float(value) in _DECIMAL_FACTORS:
                return (
                    f"magic factor {value:g}: use the named constants or "
                    "helpers from repro.units (KB/MB/GB, mbps/gbps)"
                )
        if isinstance(node.op, ast.Mult) and _KIB in (left, right):
            return (
                "binary size arithmetic with raw 1024: use "
                "repro.units.KB/MB/GB"
            )
    elif isinstance(node.op, ast.Pow):
        if (left == _KIB and isinstance(right, int) and right >= 1) or (
            left == 2 and right in _BINARY_EXPONENTS
        ):
            return (
                f"power-of-two size literal {left}**{right}: use "
                "repro.units.KB/MB/GB/TB"
            )
    elif isinstance(node.op, ast.LShift):
        if left == 1 and right in _BINARY_EXPONENTS:
            return (
                f"shifted size literal 1 << {right}: use "
                "repro.units.KB/MB/GB/TB"
            )
    return None


def check_hygiene(project: Project, config: CheckConfig) -> List[Finding]:
    findings: List[Finding] = []
    for module in project.modules.values():
        deterministic = config.in_deterministic_scope(module.scope)
        may_print = config.may_print(module.scope)
        # one magic-unit finding per location: ``128 * 1024 * 1024`` nests
        # two BinOps that start at the same column
        seen: Set[Tuple[int, int]] = set()
        stack: List[Tuple[ast.AST, bool]] = [(module.tree, False)]
        while stack:
            node, shadowed = stack.pop()
            if isinstance(node, _FUNCTIONS):
                shadowed = shadowed or "print" in param_names(node.args)
            elif isinstance(node, ast.BinOp):
                why = _magic_unit(node)
                key = (node.lineno, node.col_offset)
                if why is not None and key not in seen:
                    seen.add(key)
                    findings.append(
                        Finding.at(module.path, node, "magic-unit", why)
                    )
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Name)
                    and func.id == "print"
                    and not shadowed
                    and not may_print
                ):
                    findings.append(
                        Finding.at(
                            module.path, node, "no-print",
                            "print() call in library code: return the "
                            "string or emit a trace event instead",
                        )
                    )
                elif deterministic and module.qualified_name(func) in _CLOCKS:
                    findings.append(
                        Finding.at(
                            module.path, node, "wallclock",
                            f"{ast.unparse(func)}() reads the wall clock; "
                            "use the simulated clock (sim.now)",
                        )
                    )
            stack.extend((child, shadowed) for child in ast.iter_child_nodes(node))
    return findings
