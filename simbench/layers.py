"""Per-layer attribution for the traced run, from the benchmark's own files.

Nothing under ``src/`` is instrumented for this.  The simulator already
exposes one hook, :func:`repro.obs.profile.profiled`: the event loop
dispatches every event under a component scope named after its callback,
and a few hot helpers push their own scopes (``scheduler.select_*``,
``network.rate_matrix`` on cache misses, ``network.refill``,
``cost.reduce_costs``).  :class:`LayerTracer` adds scopes around the public
entry points of the remaining layers by wrapping their classes' methods for
the duration of one run, and reads the profiler's self-time table into
the per-layer metrics ``run.py`` reports.

``TraceRecorder.emit`` is a single list append, so it is counted from the
recorder's event list rather than wrapped: a wrapper's own push and pop
would cost many times the append it timed, and the cost of building each
event sits in its callers' scopes anyway.

A wrapped method that a later change removes is skipped, not an error: its
metrics read zero, and the self-test's layer predictions notice.
"""

from __future__ import annotations

import copy
import functools
from typing import Callable, Dict, List, Optional, Tuple

from repro.cluster.cluster import Cluster
from repro.cluster.network import FlowNetwork
from repro.cluster.telemetry import TelemetryMonitor
from repro.core import estimator as _estimator
from repro.core.cost import JobCostModel
from repro.engine import RunResult, Simulation
from repro.hdfs.namenode import NameNode
from repro.obs import profile as _profile
from repro.units import GB

from names import PER_LAYER

#: (class, method, profiler scope) wrapped for the traced run
_SCOPED: Tuple[Tuple[type, str, str], ...] = (
    (Cluster, "inverse_rate_matrix", "cluster.inverse_rate_matrix"),
    (TelemetryMonitor, "distance_matrix", "telemetry.distance_matrix"),
    (JobCostModel, "map_offer_costs", "cost.map_offer_costs"),
    (JobCostModel, "reduce_offer_costs", "cost.reduce_offer_costs"),
    (NameNode, "closest_live_replica", "hdfs.closest_live_replica"),
) + tuple(
    (cls, "estimate_many", "estimator.estimate_many")
    for cls in vars(_estimator).values()
    if isinstance(cls, type)
    and issubclass(cls, _estimator.IntermediateEstimator)
    and "estimate_many" in vars(cls)
)

#: scope around the route-tensor build inside a rate-matrix miss, so
#: builds are told apart from epoch-only misses
_BUILD = "network.rate_matrix.build"

#: event-dispatch components the profiler names after the callback's class
#: but which belong to a named layer here
_RENAMED = {
    "network.refill": "network.tick",
    "telemetry": "telemetry.sample",
    "other.RoutingController": "routing",
    "other.ReplicationMonitor": "hdfs.replication",
}


def _scoped(method: Callable, scope: str) -> Callable:
    @functools.wraps(method)
    def wrapper(*args, **kwargs):
        prof = _profile.ACTIVE
        if prof is None:
            return method(*args, **kwargs)
        prof.push(scope)
        try:
            return method(*args, **kwargs)
        finally:
            prof.pop()

    return wrapper


class LayerTracer:
    """Wraps layer entry points for one traced run; use as a context manager.

    Besides the profiler scopes it keeps tallies the profiler cannot: every
    ``FlowNetwork.rate_matrix`` call (cache hits push no scope), the time
    of the first route-tensor build, and the distinct snapshots
    ``TelemetryMonitor.distance_matrix`` handed out.
    """

    def __init__(self) -> None:
        self.rate_matrix_calls = 0
        self.first_build_s = 0.0
        self._built = False
        self.new_snapshots = 0
        self._last_snapshot: Optional[object] = None
        self._saved: List[Tuple[type, str, Callable]] = []

    def __enter__(self) -> "LayerTracer":
        for cls, name, scope in _SCOPED:
            self._patch(cls, name, functools.partial(_scoped, scope=scope))
        self._patch(FlowNetwork, "rate_matrix", self._counted)
        self._patch(FlowNetwork, "_build_rate_matrix_static", self._timed_build)
        self._patch(TelemetryMonitor, "distance_matrix", self._snapshot_counter)
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            cls, name, original = self._saved.pop()
            setattr(cls, name, original)

    def _patch(self, cls: type, name: str, wrap: Callable) -> None:
        original = vars(cls).get(name)
        if original is None:
            return
        self._saved.append((cls, name, original))
        setattr(cls, name, wrap(original))

    def _counted(self, method: Callable) -> Callable:
        @functools.wraps(method)
        def wrapper(*args, **kwargs):
            self.rate_matrix_calls += 1
            return method(*args, **kwargs)

        return wrapper

    def _timed_build(self, method: Callable) -> Callable:
        scoped = _scoped(method, _BUILD)

        @functools.wraps(method)
        def wrapper(*args, **kwargs):
            out = scoped(*args, **kwargs)
            prof = _profile.ACTIVE
            if not self._built and prof is not None:
                self._built = True
                self.first_build_s = prof.self_s.get(_BUILD, 0.0)
            return out

        return wrapper

    def _snapshot_counter(self, method: Callable) -> Callable:
        @functools.wraps(method)
        def wrapper(*args, **kwargs):
            out = method(*args, **kwargs)
            if out is not None and out is not self._last_snapshot:
                # holding the last snapshot pins its id, so ``is`` is exact
                self._last_snapshot = out
                self.new_snapshots += 1
            return out

        return wrapper

    # ------------------------------------------------------------------
    def metrics(
        self,
        prof: "_profile.Profiler",
        sim: Simulation,
        result: RunResult,
    ) -> Dict[str, float]:
        """Every per-layer metric but the set-up split,
        ``sim.us_per_event`` and ``layers.tracing_overhead``, which
        ``run.py`` takes from the untraced sample."""
        self_s: Dict[str, float] = {}
        calls: Dict[str, int] = {}
        for name, seconds in prof.self_s.items():
            layer = _RENAMED.get(name, name)
            self_s[layer] = self_s.get(layer, 0.0) + seconds
        for name, count in prof.calls.items():
            if name == "network.refill":
                continue  # refills run inside ticks; count ticks once
            layer = _RENAMED.get(name, name)
            calls[layer] = calls.get(layer, 0) + count

        c = result.collector
        net = sim.cluster.network
        routing = sim.routing
        builds = calls.get(_BUILD, 0)
        offers = c.scheduling_assignments + c.scheduling_declines
        events = sim.sim.processed
        named = sum(s for n, s in self_s.items() if not n.startswith("other."))
        out: Dict[str, float] = {
            "sim.events": events,
            "network.rate_matrix.calls": self.rate_matrix_calls,
            "network.rate_matrix.misses": calls.get("network.rate_matrix", 0),
            "network.rate_matrix.miss_self_s": self_s.get("network.rate_matrix", 0.0),
            "network.rate_matrix.build_s": self.first_build_s,
            "network.rate_matrix.rebuilds": max(builds - 1, 0),
            "network.rate_matrix.rebuild_self_s": (
                self_s.get(_BUILD, 0.0) - self.first_build_s
            ),
            "network.flows_started": net.flows_started,
            "network.flows_rerouted": net.reroutes,
            "telemetry.distance_matrix.new_snapshots": self.new_snapshots,
            "background.flows": sim.background.flows_issued if sim.background else 0,
            "routing.convergences": routing.convergences if routing else 0,
            "routing.flows_migrated": routing.flows_migrated if routing else 0,
            "scheduler.assign_ratio": c.scheduling_assignments / offers if offers else 0.0,
            "engine.offer_to_assign_p50_sim_s": _p50(result, "offer_to_assign_s"),
            "engine.shuffle_fetch_p50_sim_s": _p50(result, "shuffle_fetch_s"),
            "hdfs.replicas_added": c.replicas_added,
            "hdfs.repair_bytes_gb": c.repair_bytes / GB,
            "hdfs.blocks_lost": c.blocks_lost,
            # every event recorded, the one emitted at build included
            "trace.emit.calls": len(sim.recorder.events) if sim.recorder.enabled else 0,
            "layers.coverage": named / prof.wall_s,
        }
        for metric in PER_LAYER:
            if metric in out or metric.startswith("setup."):
                continue
            layer, _, field = metric.rpartition(".")
            if field == "calls":
                out[metric] = calls.get(layer, 0)
            elif field == "self_s":
                out[metric] = self_s.get(layer, 0.0)
        return out


def _p50(result: RunResult, histogram: str) -> float:
    """Median of a metrics-plane histogram, merged over its labels."""
    merged = None
    for inst in result.metrics.instruments() if result.metrics else ():
        if inst.kind == "histogram" and inst.name == histogram:
            merged = (
                copy.deepcopy(inst.hist) if merged is None else merged.merge(inst.hist)
            )
    if merged is None or merged.count == 0:
        return 0.0
    return merged.quantile(0.5)
