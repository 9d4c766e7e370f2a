"""The finding record every ``repro check`` pass emits, and its waivers.

A :class:`Finding` pins one defect to a file, line and column, names the
rule that fired (the same id used in ``# repro: lint-ok[<rule>]`` waivers
and in the committed baseline) and carries a human-readable message.
Findings order by location so reports are stable across runs and platforms.

A finding may be waived on its own line with::

    cache_ttl = 1e9  # repro: lint-ok[magic-unit]

Several rule ids may be listed (comma-separated) and ``*`` waives every rule
on the line.  Markers are per-line only — there is deliberately no
file-level or block-level escape hatch, so each waived occurrence stays
visible at the point of use.  A marker naming an id that is not in
:data:`RULES` is itself reported (``unknown-waiver``): it would suppress
nothing.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

__all__ = [
    "Finding",
    "RULES",
    "is_suppressed",
    "string_literal_lines",
    "suppressions",
    "unknown_waiver_rules",
]

#: rule id -> one-line description, across every pass.
RULES = {
    # cache-coherence pass
    "cache-missing-bump": (
        "declared cache input written without a version bump or "
        "invalidator call on every path"
    ),
    "cache-unwatched-input": (
        "declared cache input mutated but not covered by the declared "
        "attribute watcher"
    ),
    "cache-decl-unresolved": (
        "cache declaration references a class, method or field the "
        "project does not define"
    ),
    # RNG-provenance pass
    "rng-ambient": (
        "random state drawn from OS entropy, stdlib random or the global "
        "numpy RNG"
    ),
    "rng-constant-seed": "generator self-seeded with a baked-in constant",
    "rng-unprovenanced": (
        "generator seeded from a value that does not trace back to an "
        "injected seed or a registered SeedSequence substream"
    ),
    "rng-duplicate-stream": "duplicate index or purpose in an RNG_STREAMS registry",
    "rng-stream-count": (
        "SeedSequence.spawn count disagrees with the unpack targets or "
        "the RNG_STREAMS registry"
    ),
    # closed-vocabulary pass
    "vocab-unknown": "string used at a vocabulary site is not a declared member",
    "vocab-unused": "declared vocabulary member is never used anywhere",
    # per-module hygiene pass
    "wallclock": "wall-clock read inside simulation-critical code",
    "magic-unit": "raw size/rate literal where repro.units helpers exist",
    "no-print": "print() in library code; return strings or emit trace events",
    # scheduler-contract pass
    "scheduler-hooks": "TaskScheduler subclass missing select_map/select_reduce",
    "scheduler-name": "TaskScheduler subclass chain never overrides `name`",
    "scheduler-export": "TaskScheduler subclass absent from schedulers __all__",
    "ctx-mutation": "scheduler mutates a SchedulerContext field",
    # infrastructure
    "parse-error": "file does not parse",
    "unknown-waiver": "suppression marker names a rule that does not exist",
}


@dataclass(frozen=True, order=True)
class Finding:
    """One check finding, anchored to a source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    @classmethod
    def at(cls, path: str, node: ast.AST, rule: str, message: str) -> "Finding":
        """A finding at ``node``'s line and (1-based) column."""
        return cls(path, node.lineno, node.col_offset + 1, rule, message)

    def format(self) -> str:
        """``path:line:col: [rule] message`` — editor-clickable."""
        return f"{self.path}:{self.line}:{self.col}: [{self.rule}] {self.message}"

    def fingerprint(self) -> str:
        """Line-independent identity used by the baseline ratchet.

        Deliberately excludes ``line``/``col`` so unrelated edits that shift
        a baselined finding do not break CI; includes the message so two
        different defects on one file never collapse.
        """
        return f"{self.rule}|{self.path}|{self.message}"


# ----------------------------------------------------------------------
# lint-ok waiver markers
# ----------------------------------------------------------------------
_MARKER = re.compile(r"#\s*repro:\s*lint-ok\[([^\]]*)\]")


def suppressions(source: str) -> Dict[int, FrozenSet[str]]:
    """Map 1-based line numbers to the set of rule ids waived there."""
    out: Dict[int, FrozenSet[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        m = _MARKER.search(line)
        if m:
            rules = frozenset(
                r.strip() for r in m.group(1).split(",") if r.strip()
            )
            if rules:
                out[lineno] = rules
    return out


def is_suppressed(finding: Finding, waived: Dict[int, FrozenSet[str]]) -> bool:
    rules = waived.get(finding.line)
    return bool(rules) and ("*" in rules or finding.rule in rules)


def string_literal_lines(tree: ast.AST) -> Set[int]:
    """Every line covered by a string literal (docstrings, messages).

    A ``lint-ok`` marker *mentioned* inside a string is documentation, not
    a live waiver — unknown-rule validation must skip those lines.  (The
    per-line waiver lookup itself stays source-based: a marker sharing a
    line with a string but sitting in a real comment still works.)
    """
    lines: Set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            end = node.end_lineno or node.lineno
            lines.update(range(node.lineno, end + 1))
    return lines


def unknown_waiver_rules(
    waivers: Dict[int, FrozenSet[str]],
    known_rules: Iterable[str],
    *,
    skip_lines: Optional[Set[int]] = None,
) -> List[Tuple[int, str]]:
    """``(line, rule)`` pairs naming rules that will never match.

    ``skip_lines`` (typically :func:`string_literal_lines`) drops markers
    that only *appear* inside string literals.
    """
    known = set(known_rules)
    return [
        (line, rule)
        for line, rules in sorted(waivers.items())
        if skip_lines is None or line not in skip_lines
        for rule in sorted(rules)
        if rule != "*" and rule not in known
    ]
