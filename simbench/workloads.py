"""The benchmark's three workloads and the outputs checked for each run.

Every workload is a pure function of ``(name, seed, shrink)``: the same
arguments build the same simulation, so two samples of one run are the
same unit of work.  ``shrink`` gives the self-test's small versions of the
same shapes (same layers, same faults, a fraction of the cost).

Importing this module imports the simulator; the child process times that
import as part of set-up, the way a user pays it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, Tuple

from repro.cluster import BackgroundSpec, Cluster, ClusterSpec
from repro.cluster.telemetry import TelemetryConfig
from repro.cluster.topologies import clos_topology
from repro.core import PNAConfig, ProbabilisticNetworkAwareScheduler
from repro.engine import EngineConfig, RunResult, Simulation
from repro.experiments.perf import batched_workload
from repro.faults import FaultPlan, LinkFailure, NodeCrash, SwitchFailure
from repro.hdfs.replication import DurabilityConfig
from repro.obs.config import MetricsConfig
from repro.schedulers import FairScheduler
from repro.sim import Simulator
from repro.units import GB

from names import WORKLOADS


@dataclass(frozen=True)
class Shape:
    """Sizes of one workload; ``shrink`` swaps in the self-test's."""

    n_jobs: int
    racks: int = 16
    nodes_per_rack: int = 25
    clos_k: int = 8


_SHAPES: Dict[str, Tuple[Shape, Shape]] = {
    # (full, shrunk)
    "pna_netcond_400": (Shape(n_jobs=16), Shape(n_jobs=4, racks=4, nodes_per_rack=10)),
    "fair_400": (Shape(n_jobs=16), Shape(n_jobs=4, racks=4, nodes_per_rack=10)),
    "clos_faults_traced": (Shape(n_jobs=8), Shape(n_jobs=4, clos_k=4)),
}

#: uniform background endpoints: Zipf hot spots collapse a 400-node fabric
#: (see ``repro.experiments.perf.BenchCase.hotspot_alpha``)
_BACKGROUND = BackgroundSpec(intensity=0.2, hotspot_alpha=0.0)


def _netcond_pna() -> ProbabilisticNetworkAwareScheduler:
    return ProbabilisticNetworkAwareScheduler(PNAConfig(network_condition=True))


def _clos_faults(cluster: Cluster) -> FaultPlan:
    """Scheduled, healing faults at fixed times.

    The link and the switch fail and heal at the same instants, so the
    link-state plane converges twice (down, up) and the rate matrix's
    route tensor is rebuilt twice after its first build.  The two node
    crashes heal too; with RF = 3 no block can lose every replica.
    """
    hosts = [n.name for n in cluster.nodes]
    return FaultPlan(
        link_failures=(LinkFailure(link=("edge1_0", "agg1_0"), duration=60.0, at=40.0),),
        switch_failures=(SwitchFailure(switch="core0_0", duration=60.0, at=40.0),),
        crashes=(
            NodeCrash(at=30.0, node=hosts[len(hosts) // 3], down_for=60.0),
            NodeCrash(at=70.0, node=hosts[2 * len(hosts) // 3], down_for=60.0),
        ),
    )


def build(
    name: str,
    seed: int,
    *,
    shrink: bool = False,
    histograms: bool = False,
) -> Simulation:
    """The workload's simulation, ready to ``run()``.

    ``shrink`` builds the self-test's small version, with the runtime
    invariant checker on.  ``histograms`` turns on the metrics plane
    without periodic sampling on the rack workloads (the traced run reads
    its wait histograms); the Clos workload always samples metrics, as
    part of what it measures.
    """
    if name not in _SHAPES:
        raise ValueError(f"unknown workload {name!r}; choose from {list(WORKLOADS)}")
    shape = _SHAPES[name][1 if shrink else 0]
    jobs = batched_workload(shape.n_jobs, scale=0.1, stagger=15.0)
    if name == "clos_faults_traced":
        cluster = Cluster(Simulator(), clos_topology(shape.clos_k, routing="linkstate"))
        config = EngineConfig(
            check_invariants=shrink,
            replication=3,
            tracker_expiry_interval=15.0,
            faults=_clos_faults(cluster),
            durability=DurabilityConfig(),
            telemetry=TelemetryConfig(period=5.0),
            trace=True,
            metrics=MetricsConfig(period=5.0),
        )
        return Simulation(
            cluster=cluster, scheduler=_netcond_pna(), jobs=jobs,
            config=config, seed=seed,
        )
    config = EngineConfig(
        check_invariants=shrink,
        metrics=MetricsConfig(period=float("inf")) if histograms else None,
    )
    scheduler = _netcond_pna() if name == "pna_netcond_400" else FairScheduler()
    return Simulation(
        cluster=ClusterSpec(num_racks=shape.racks, nodes_per_rack=shape.nodes_per_rack),
        scheduler=scheduler, jobs=jobs, background=_BACKGROUND,
        config=config, seed=seed,
    )


def check(sim: Simulation, result: RunResult) -> str:
    """Empty if the run's outputs are sound, else what is wrong."""
    c = result.collector
    submitted = len(sim.specs)
    finished = len(c.job_records)
    if c.failed_jobs:
        return f"{len(c.failed_jobs)} jobs failed: {sorted(c.failed_jobs)}"
    if finished != submitted:
        return f"{finished} of {submitted} jobs finished"
    maps = sum(s.num_maps for s in sim.specs)
    # a map re-executed after its output was lost has several records
    done_maps = len({(t.job_id, t.index) for t in c.task_records if t.kind == "map"})
    if done_maps != maps:
        return f"{done_maps} of {maps} maps completed"
    if c.blocks_lost:
        return f"{c.blocks_lost} blocks lost"
    return ""


def simulated(result: RunResult) -> Dict[str, float]:
    """The simulated end-to-end metrics of one run."""
    c = result.collector
    return {
        "makespan_sim_s": float(c.makespan()),
        "jct_mean_sim_s": float(result.mean_jct),
        "jct_p50_sim_s": float(result.jct_percentiles()["p50"]),
        "transmission_cost_gb_hop": float(c.total_cost() / GB),
        "map_node_locality": float(result.locality_shares("map").get("node", 0.0)),
    }


def digest(sim: Simulation, result: RunResult) -> str:
    """Hash of the run's deterministic outputs (identical for a seed)."""
    c = result.collector
    doc = {
        "events": sim.sim.processed,
        "sim_time": result.sim_time,
        "jobs": sorted((r.job_id, r.submit, r.finish) for r in c.job_records),
        "tasks": sorted(
            (t.job_id, t.kind, t.index, t.node, t.end, t.cost)
            for t in c.task_records
        ),
        "fabric_bytes": result.bytes_over_fabric,
        "flows": result.flows,
        "reroutes": result.reroutes,
        "convergences": result.route_convergences,
        "replicas_added": c.replicas_added,
        "assignments": c.scheduling_assignments,
        "declines": c.scheduling_declines,
    }
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]
