"""``repro check`` — the simulator's static analyzer.

Six passes over one project-wide symbol table and attribute-flow index
(:mod:`~repro.analysis.check.project`), built once per run:

* **cache-coherence** (:mod:`~repro.analysis.check.coherence`): every write
  reaching a declared cache input (``@cached_on`` decorations and
  ``CACHE_DEPS`` maps) must bump the declared version or call the declared
  invalidator on every path;
* **RNG provenance** (:mod:`~repro.analysis.check.provenance`): every
  generator traces back to an injected, uniquely-indexed registered
  substream — no ambient entropy (OS, stdlib ``random``, numpy's global
  state), constant self-seeds or duplicate streams;
* **closed vocabularies** (:mod:`~repro.analysis.check.vocab`): decline and
  failure reasons, journal kinds and trace-event tags are checked both
  ways — unknown members at use-sites and unused members at definition
  sites;
* **hygiene** (:mod:`~repro.analysis.check.hygiene`): no wall-clock reads
  in simulation-critical code, no hand-spelled size/rate units, no
  ``print()`` in library code;
* **scheduler contracts** (:mod:`~repro.analysis.check.contracts`): every
  ``TaskScheduler`` subclass implements both hooks, names itself, is
  exported, and never mutates its ``SchedulerContext``.

Findings ship as text, JSON or SARIF, can be waived per line with
``# repro: lint-ok[<rule>]`` and ratchet against a committed baseline
(:mod:`~repro.analysis.check.baseline`); settings live in
:mod:`~repro.analysis.check.config`.  The cache declarations double as
runtime contracts: ``REPRO_SANITIZE=cache`` (see :mod:`repro.coherence`)
shadow-executes the declared reference recompute on sampled cache hits and
asserts byte-equality.
"""

from repro.analysis.check.baseline import (
    apply_baseline,
    fingerprint_counts,
    load_baseline,
    write_baseline,
)
from repro.analysis.check.config import CheckConfig
from repro.analysis.check.findings import Finding, RULES
from repro.analysis.check.project import Project
from repro.analysis.check.runner import check_paths, check_sources, main

__all__ = [
    "CheckConfig",
    "Finding",
    "Project",
    "RULES",
    "apply_baseline",
    "check_paths",
    "check_sources",
    "fingerprint_counts",
    "load_baseline",
    "main",
    "write_baseline",
]
