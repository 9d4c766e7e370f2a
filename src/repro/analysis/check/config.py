"""Analyzer configuration: code defaults plus the ``[tool.repro.check]`` table.

Every value has a code default, so the analyzer runs identically on a bare
checkout, on a Python without ``tomllib`` and on a temp-dir fixture tree;
``pyproject.toml`` only states what differs from these defaults.  The six
keys are:

* ``deterministic-dirs`` — sub-packages whose behaviour must be a pure
  function of the injected seed; the ``wallclock`` rule applies only there.
  A file is in scope when any directory component of its path relative to
  the *project root* (the directory holding ``pyproject.toml``) is listed,
  so ``repro check src`` and ``repro check src/repro/engine`` agree;
* ``exclude`` — files never analyzed (``repro/units.py`` *defines* the
  unit constants the ``magic-unit`` rule points at).  A pattern is a path
  suffix, a project-root-relative path or an absolute path;
* ``no-print-exclude`` — entry points allowed to call ``print()``;
* ``select`` / ``ignore`` — filter by rule id, like the CLI flags;
* ``baseline`` — the committed findings baseline, resolved against the
  project root (against the analyzed path's directory when no
  ``pyproject.toml`` sits above it; never against the invocation
  directory).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Tuple

__all__ = [
    "CheckConfig",
    "DEFAULT_BASELINE",
    "DEFAULT_DETERMINISTIC_DIRS",
    "DEFAULT_EXCLUDE",
    "DEFAULT_NO_PRINT_EXCLUDE",
]

DEFAULT_BASELINE = "CHECK_BASELINE.json"

#: Sub-packages whose behaviour must be a pure function of the injected seed.
DEFAULT_DETERMINISTIC_DIRS: Tuple[str, ...] = (
    "cluster",
    "core",
    "engine",
    "faults",
    "hdfs",
    "schedulers",
    "sim",
    "workload",
)

#: Path suffixes never analyzed (repro/units.py *defines* the unit constants).
DEFAULT_EXCLUDE: Tuple[str, ...] = ("repro/units.py",)

#: Entry-point files allowed to print: the CLI and the analyzer's own driver.
DEFAULT_NO_PRINT_EXCLUDE: Tuple[str, ...] = (
    "repro/cli.py",
    "repro/__main__.py",
    "repro/analysis/check/runner.py",
    "repro/analysis/check/__main__.py",
)


def _suffix_match(posix: str, patterns: Tuple[str, ...]) -> bool:
    return any(posix == pat or posix.endswith("/" + pat) for pat in patterns)


@dataclass(frozen=True)
class CheckConfig:
    """Effective configuration for one analyzer run."""

    deterministic_dirs: Tuple[str, ...] = DEFAULT_DETERMINISTIC_DIRS
    exclude: Tuple[str, ...] = DEFAULT_EXCLUDE
    no_print_exclude: Tuple[str, ...] = DEFAULT_NO_PRINT_EXCLUDE
    select: Tuple[str, ...] = ()   # empty = every rule
    ignore: Tuple[str, ...] = ()
    baseline: str = DEFAULT_BASELINE
    #: project root (pyproject.toml parent) that scope, excludes and the
    #: baseline resolve against; None = defaults run, invocation-relative.
    root: Optional[Path] = field(default=None, compare=False)
    source: str = field(default="defaults", compare=False)

    def rule_enabled(self, rule: str) -> bool:
        if rule in ("parse-error", "unknown-waiver"):
            return True
        if self.select and rule not in self.select:
            return False
        return rule not in self.ignore

    def is_excluded(self, path: Path) -> bool:
        """True when ``path`` (absolute) matches an exclude pattern.

        A pattern matches as a whole path, as a ``/``-anchored suffix, or —
        when a project root is known — as a root-relative path, so the same
        entry hits the same file whether the CLI was handed ``src``,
        ``src/repro`` or an absolute path.
        """
        if _suffix_match(path.as_posix(), self.exclude):
            return True
        if self.root is None:
            return False
        return any((self.root / pat).resolve() == path for pat in self.exclude)

    def scope_path(self, path: Path, fallback: Path) -> Path:
        """The path scope decisions are made on.

        Relative to the project root when ``path`` lies under it, else the
        invocation-relative ``fallback`` — so ``repro check
        src/repro/engine`` still sees ``engine`` as a directory component.
        """
        if self.root is not None:
            try:
                return path.resolve().relative_to(self.root.resolve())
            except ValueError:
                pass
        return fallback

    def in_deterministic_scope(self, scope: Path) -> bool:
        return any(part in self.deterministic_dirs for part in scope.parts[:-1])

    def may_print(self, scope: Path) -> bool:
        return _suffix_match(Path(scope).as_posix(), self.no_print_exclude)

    def baseline_path(self, fallback: Path) -> Path:
        """The baseline file, under the project root or else ``fallback``."""
        raw = Path(self.baseline)
        if raw.is_absolute():
            return raw
        return (self.root or fallback) / raw

    # ------------------------------------------------------------------
    @classmethod
    def load(cls, start: Optional[Path] = None) -> "CheckConfig":
        """Find ``pyproject.toml`` at/above ``start``, read ``[tool.repro.check]``.

        A missing file, a missing table, an unparseable TOML or a Python
        without ``tomllib`` all give the code defaults.
        """
        root = (start or Path.cwd()).resolve()
        if root.is_file():
            root = root.parent
        for candidate in (root, *root.parents):
            pyproject = candidate / "pyproject.toml"
            if pyproject.is_file():
                return cls.from_pyproject(pyproject)
        return cls()

    @classmethod
    def from_pyproject(cls, pyproject: Path) -> "CheckConfig":
        root = pyproject.parent
        try:
            import tomllib
        except ImportError:  # pragma: no cover - python < 3.11
            return cls(root=root)
        try:
            data = tomllib.loads(pyproject.read_text(encoding="utf-8"))
        except (OSError, tomllib.TOMLDecodeError):
            return cls(root=root)
        table = data.get("tool", {}).get("repro", {}).get("check", {})
        if not isinstance(table, dict):
            return cls(root=root)

        def strings(key: str, default: Tuple[str, ...]) -> Tuple[str, ...]:
            raw = table.get(key.replace("_", "-"), table.get(key))
            if raw is None:
                return default
            if not isinstance(raw, list) or not all(
                isinstance(x, str) for x in raw
            ):
                raise ValueError(
                    f"[tool.repro.check] {key} must be a list of strings"
                )
            return tuple(raw)

        baseline = table.get("baseline", DEFAULT_BASELINE)
        if not isinstance(baseline, str):
            raise ValueError("[tool.repro.check] baseline must be a string")
        return cls(
            deterministic_dirs=strings(
                "deterministic_dirs", DEFAULT_DETERMINISTIC_DIRS
            ),
            exclude=strings("exclude", DEFAULT_EXCLUDE),
            no_print_exclude=strings(
                "no_print_exclude", DEFAULT_NO_PRINT_EXCLUDE
            ),
            select=strings("select", ()),
            ignore=strings("ignore", ()),
            baseline=baseline,
            root=root,
            source=str(pyproject),
        )
