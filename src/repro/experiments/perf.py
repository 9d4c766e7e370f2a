"""Performance benchmark harness — `repro bench` and ``BENCH_perf.json``.

The scheduler hot path (epoch-cached rate matrices, vectorised estimation,
cached slot/task views — see ``docs/API.md`` § Performance) is only worth
its complexity if the speedup is real and *stays* real.  This module times
a fixed set of representative scenarios and writes the measurements to a
canonical-JSON artifact so CI and future PRs can track the trajectory:

* **cases** — wall time, simulated events/s and slot offers/s for each
  scheduler family (PNA hop-count, PNA network-condition, Fair, Coupling)
  on a small (16-node) and, outside ``--quick``, large (100- and
  200-node) clusters, with and without node churn;
* **speedup** — the same network-condition case re-run with
  ``REPRO_NO_CACHE=1`` (the unoptimised reference paths), giving the
  cached-vs-naive factor on the exact workload where the optimisation
  matters most — the live inverse-rate matrix feeds every decision there;
* **regression gate** — :func:`check_regression` compares a fresh run
  against a committed baseline and flags any case that got more than
  ``factor``× slower in wall time *or* whose simulated-event throughput
  (``events_per_s``) fell below ``baseline / factor`` (CI fails at 2×).

Determinism note: the *measurements* (wall seconds) are of course not
deterministic, but every simulation inside them is — same seed, same
byte-identical trace, cached or not (``tests/test_perf_cache.py``).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, replace
from typing import Dict, List, Optional

from repro.cluster import ClusterSpec
from repro.coherence import reference_paths_active, set_reference_paths
from repro.experiments.scenarios import Scenario
from repro.faults import FaultPlan, NodeChurn
from repro.schedulers import TaskScheduler

__all__ = [
    "BenchCase",
    "batched_workload",
    "bench_cases",
    "check_regression",
    "load_baseline",
    "profile_case",
    "run_bench",
    "run_case",
    "write_bench",
]

#: 16 nodes — the CI scale.
SMALL_CLUSTER = ClusterSpec(num_racks=4, nodes_per_rack=4)
#: 100 nodes — the k ≥ 100 regime where the O(k²·route) rate-matrix walk
#: used to dominate (Palmetto-scale sweeps).
LARGE_CLUSTER = ClusterSpec(num_racks=5, nodes_per_rack=20)
#: 200 nodes — the speedup showcase: the naive rate-matrix walk grows
#: quadratically in k while the cached path stays near-linear, so this is
#: where the cached-vs-naive factor is most visible.
XL_CLUSTER = ClusterSpec(num_racks=8, nodes_per_rack=25)
#: 1000 nodes — past the "1000-node barrier": only reachable at practical
#: wall times with the incremental cost vectors, the persistent fabric
#: membership kernel and the O(candidates) offer bundles all engaged.
XXL_CLUSTER = ClusterSpec(num_racks=25, nodes_per_rack=40)

#: seed offset between successive passes over the Table II catalogue in
#: :func:`batched_workload` — far larger than any per-catalogue seed span,
#: so repeated copies of the same application draw disjoint noise streams.
_SEED_STRIDE = 1000


def batched_workload(
    n_jobs: int, *, scale: float = 0.25, stagger: float = 30.0
) -> List:
    """``n_jobs`` jobs cycling the Table II catalogue, re-keyed uniquely.

    The three-application workload repeats with staggered submit times
    (one job every ``stagger`` seconds) so a large cluster sees a steady
    multi-job mix instead of one synchronized burst — the regime the
    xxl benchmark cases target.  Deterministic: job identity, sizing and
    seeds depend only on the arguments.
    """
    from repro.workload import JobSpec, table2_workload

    if n_jobs < 1:
        raise ValueError(f"n_jobs must be >= 1, got {n_jobs}")
    base = table2_workload(scale=scale)
    specs = []
    for i in range(n_jobs):
        src = base[i % len(base)]
        specs.append(
            JobSpec(
                job_id=f"x{i:03d}",
                app=src.app,
                input_size=src.input_size,
                num_maps=src.num_maps,
                num_reduces=src.num_reduces,
                submit_time=i * stagger,
                seed=src.seed + _SEED_STRIDE * (i // len(base)),
                noise_sigma=src.noise_sigma,
            )
        )
    return specs


@dataclass(frozen=True)
class BenchCase:
    """One timed scenario: a scheduler on a cluster, churned or healthy.

    ``n_jobs`` > 0 swaps the single Table II application batch for
    :func:`batched_workload` (``n_jobs`` staggered jobs cycling all three
    applications) — the shape of the xxl cases.
    """

    name: str
    scheduler: str  # "pna" | "pna-netcond" | "fair" | "coupling"
    cluster: ClusterSpec
    scale: float = 0.25
    churn: bool = False
    app: str = "wordcount"
    seed: int = 42
    n_jobs: int = 0
    stagger: float = 30.0
    #: Zipf exponent for background endpoint choice; None keeps the
    #: scenario default (1.0).  The xxl cases pin 0.0 (uniform): at 1000
    #: nodes the Zipf-1.0 hot spot funnels ~13 flows/s onto a 1 Gbps edge
    #: that drains ~0.5 flows/s, so the background flow population grows
    #: without bound and the run never reaches a steady state — a
    #: congestion-collapse regime, not a benchmark.  Uniform spread keeps
    #: every edge below saturation at the same 20 % aggregate intensity.
    hotspot_alpha: Optional[float] = None

    def jobs(self, scenario: Scenario) -> List:
        if self.n_jobs:
            return batched_workload(
                self.n_jobs, scale=self.scale, stagger=self.stagger
            )
        return scenario.jobs(self.app)

    def make_scheduler(self) -> TaskScheduler:
        from repro.core import PNAConfig, ProbabilisticNetworkAwareScheduler
        from repro.schedulers import CouplingScheduler, FairScheduler

        if self.scheduler == "pna":
            return ProbabilisticNetworkAwareScheduler()
        if self.scheduler == "pna-netcond":
            return ProbabilisticNetworkAwareScheduler(
                PNAConfig(network_condition=True)
            )
        if self.scheduler == "fair":
            return FairScheduler()
        if self.scheduler == "coupling":
            return CouplingScheduler()
        raise ValueError(f"unknown scheduler kind {self.scheduler!r}")

    def scenario(self) -> Scenario:
        base = Scenario(
            name=self.name, cluster=self.cluster, scale=self.scale,
            seed=self.seed,
        )
        if self.hotspot_alpha is not None:
            from repro.cluster import BackgroundSpec

            base = base.with_(background=BackgroundSpec(
                intensity=0.2, hotspot_alpha=self.hotspot_alpha
            ))
        if self.churn:
            base = base.with_(
                config=replace(
                    base.config,
                    faults=FaultPlan(
                        churn=NodeChurn(level=0.05, mean_downtime=90.0)
                    ),
                    tracker_expiry_interval=15.0,
                )
            )
        return base


def bench_cases(*, quick: bool = False) -> List[BenchCase]:
    """The case set: small cluster always; large cluster unless ``quick``."""
    cases = [
        BenchCase("pna_hop", "pna", SMALL_CLUSTER),
        BenchCase("pna_netcond", "pna-netcond", SMALL_CLUSTER),
        BenchCase("fair", "fair", SMALL_CLUSTER),
        BenchCase("coupling", "coupling", SMALL_CLUSTER),
        BenchCase("pna_netcond_churn", "pna-netcond", SMALL_CLUSTER, churn=True),
        # the scaled-down xxl smoke: same shape as the 1000-node cases
        # (batched multi-job workload, uniform background) at CI size
        BenchCase(
            "xxl_smoke", "pna-netcond", LARGE_CLUSTER, scale=0.1,
            n_jobs=12, stagger=15.0, hotspot_alpha=0.0,
        ),
    ]
    if not quick:
        cases += [
            BenchCase("large_pna_hop", "pna", LARGE_CLUSTER),
            BenchCase("large_pna_netcond", "pna-netcond", LARGE_CLUSTER),
            BenchCase("large_fair", "fair", LARGE_CLUSTER),
            BenchCase(
                "large_pna_netcond_churn", "pna-netcond", LARGE_CLUSTER,
                churn=True,
            ),
            BenchCase("xl_pna_netcond", "pna-netcond", XL_CLUSTER),
            BenchCase(
                "xxl_pna_netcond", "pna-netcond", XXL_CLUSTER, n_jobs=100,
                stagger=15.0, hotspot_alpha=0.0,
            ),
            BenchCase(
                "xxl_fair", "fair", XXL_CLUSTER, n_jobs=100,
                stagger=15.0, hotspot_alpha=0.0,
            ),
        ]
    return cases


def run_case(case: BenchCase, *, repeat: int = 1) -> Dict:
    """Build and run one case end-to-end; returns its measurement record.

    ``repeat`` runs the case that many times and keeps the *minimum* wall
    time — the standard noise-reduction trick for wall-clock benchmarks
    (the minimum is the run least disturbed by the host).  The simulation
    itself is deterministic, so events/offers/makespan are identical
    across repeats and only the timing varies.
    """
    if repeat < 1:
        raise ValueError(f"repeat must be >= 1, got {repeat}")
    wall = float("inf")
    for _ in range(repeat):
        scenario = case.scenario()
        t0 = time.perf_counter()
        sim = scenario.simulation(
            case.make_scheduler(), case.jobs(scenario)
        )
        result = sim.run()
        wall = min(wall, time.perf_counter() - t0)
    c = result.collector
    offers = c.scheduling_assignments + c.scheduling_declines
    events = sim.sim.processed
    return {
        "wall_s": round(wall, 3),
        "events": events,
        "offers": offers,
        "events_per_s": round(events / wall, 1),
        "offers_per_s": round(offers / wall, 1),
        "makespan_s": round(c.makespan(), 3),
        "nodes": case.cluster.num_nodes,
        "jobs": int(c.job_completion_times().size),
    }


def profile_case(case: BenchCase) -> Dict:
    """Run one case under the wall-time profiler (`repro profile`).

    Returns the profiler's canonical document (see
    :meth:`repro.obs.profile.Profiler.to_doc`) extended with the case
    name and run facts, so the attribution is traceable to its workload.
    """
    from repro.obs import profile as obs_profile

    scenario = case.scenario()
    sim = scenario.simulation(case.make_scheduler(), case.jobs(scenario))
    with obs_profile.profiled() as prof:
        sim.run()
    doc = prof.to_doc()
    doc["case"] = case.name
    doc["nodes"] = case.cluster.num_nodes
    doc["events"] = sim.sim.processed
    return doc


def _run_case_nocache(case: BenchCase, *, repeat: int = 1) -> Dict:
    """Run a case on the unoptimised reference paths (REPRO_NO_CACHE=1)."""
    previous = reference_paths_active()
    set_reference_paths(True)
    try:
        return run_case(case, repeat=repeat)
    finally:
        set_reference_paths(previous)


def run_bench(
    *,
    quick: bool = False,
    measure_speedup: bool = True,
    speedup_case: Optional[str] = None,
    repeat: int = 1,
    progress=None,
) -> Dict:
    """Run the full benchmark; returns the ``BENCH_perf.json`` document.

    ``repeat`` takes the min-of-N wall time per case (recorded in the
    document so baselines state their noise discipline).  ``progress``
    (optional) is called with a message before each run — the CLI wires
    it to print.
    """
    cases = bench_cases(quick=quick)
    doc: Dict = {
        "bench": "repro-perf",
        "version": 1,
        "mode": "quick" if quick else "full",
        "repeat": repeat,
        "cases": {},
    }
    for case in cases:
        if progress is not None:
            progress(f"running {case.name} ({case.cluster.num_nodes} nodes)")
        doc["cases"][case.name] = run_case(case, repeat=repeat)

    if measure_speedup:
        # the cached-vs-naive factor, on the largest netcond case in the set
        # (the scenario the tentpole optimisation targets)
        if speedup_case is None:
            speedup_case = (
                "pna_netcond" if quick else "xl_pna_netcond"
            )
        target = next(c for c in cases if c.name == speedup_case)
        if progress is not None:
            progress(f"re-running {target.name} with REPRO_NO_CACHE=1")
        nocache = _run_case_nocache(target, repeat=repeat)
        cached_wall = doc["cases"][target.name]["wall_s"]
        doc["speedup"] = {
            "case": target.name,
            "cached_wall_s": cached_wall,
            "nocache_wall_s": nocache["wall_s"],
            "factor": round(nocache["wall_s"] / cached_wall, 2),
        }
    return doc


def write_bench(doc: Dict, path: str) -> None:
    """Write the document as canonical JSON (sorted keys, no whitespace)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, sort_keys=True, separators=(",", ":")))
        fh.write("\n")


def load_baseline(path: str) -> Optional[Dict]:
    """Load a committed baseline document; None if unusable.

    Missing files, empty files, malformed JSON and non-object documents
    all return None — a stale or corrupted baseline must degrade the CLI
    to a warning, never crash a benchmark run.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read().strip()
    except OSError:
        return None
    if not text:
        return None
    try:
        doc = json.loads(text)
    except ValueError:
        return None
    return doc if isinstance(doc, dict) else None


def check_regression(
    current: Dict, baseline: Dict, *, factor: float = 2.0
) -> List[str]:
    """Throughput and wall-time regressions of ``current`` vs ``baseline``.

    Compares every case name present in both documents on two axes:

    * **wall time** — fails a case whose wall grew by more than
      ``factor``×;
    * **events/s** — fails a case whose simulated-event throughput fell
      below ``baseline / factor``.  Wall time alone can mask a hot-path
      regression when the workload itself shrinks (fewer events at the
      same events/s looks "faster"); the throughput gate is
      workload-normalised and catches exactly that.

    Empty list = no regression.
    """
    failures = []
    base_cases = baseline.get("cases", {})
    for name, record in current.get("cases", {}).items():
        base = base_cases.get(name)
        if base is None:
            continue
        if base.get("wall_s", 0) > 0:
            ratio = record["wall_s"] / base["wall_s"]
            if ratio > factor:
                failures.append(
                    f"{name}: {record['wall_s']:.3f}s vs baseline "
                    f"{base['wall_s']:.3f}s ({ratio:.2f}x > {factor:.1f}x)"
                )
        if base.get("events_per_s", 0) > 0:
            floor = base["events_per_s"] / factor
            if record.get("events_per_s", 0.0) < floor:
                failures.append(
                    f"{name}: {record.get('events_per_s', 0.0):,.1f} "
                    f"events/s vs baseline {base['events_per_s']:,.1f} "
                    f"(below the {factor:.1f}x floor {floor:,.1f})"
                )
    return failures
