"""The two fabric backends of ``FlowNetwork`` must agree bit for bit.

``FlowNetwork`` picks its backend once, at construction: the compiled
kernels of :mod:`repro.accel` when they build (``_CFabric``), numpy
otherwise and when built under ``REPRO_NO_CACHE=1`` (``_NumpyFabric``, whose
refill is ``_refill_reference``).  The tests flip that switch with
``set_reference_paths`` through the ``reference_paths`` fixture.  Covered here:

* a differential hypothesis test: random start/cancel/advance sequences,
  with finite rate caps and routes longer than the C state's initial
  width of 8 links, checked kernel-against-reference and in lockstep
  against a numpy-backed twin;
* the deferred-refill flush in ``cancel_flow`` / ``reroute_flow``;
* typed failures for negative kernel return codes.
"""

from __future__ import annotations

import math

import networkx as nx
import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import accel
from repro.cluster import network as network_mod
from repro.cluster.network import FlowNetwork
from repro.cluster.topology import GraphTopology, rack_topology
from repro.sim import Simulator
from repro.units import MB, Gbps

MODES = ["c", "numpy", "no_cache"]


def backend_of(net):
    return type(net._backend).__name__


def rack_net():
    sim = Simulator()
    topo = rack_topology(2, 3, host_link=1 * Gbps, tor_uplink=10 * Gbps)
    return sim, FlowNetwork(sim, topo, local_bandwidth=400 * MB)


def path_topology(n=12):
    """Hosts on a line: the end-to-end route crosses n - 1 links."""
    g = nx.relabel_nodes(nx.path_graph(n), lambda i: f"h{i:02d}")
    for i, node in enumerate(g.nodes):
        g.nodes[node].update(kind="host", rack=f"rack{i // 4}")
    for i, (u, v) in enumerate(g.edges):
        g.edges[u, v]["capacity"] = (1 + i % 3) * 100 * MB
    return GraphTopology(g)


# ---------------------------------------------------------------------------
# backend selection
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("mode", MODES)
def test_backend_is_fixed_at_construction(use_backend, mode):
    use_backend(mode)
    _, net = rack_net()
    expected = "_CFabric" if mode == "c" else "_NumpyFabric"
    assert backend_of(net) == expected


# ---------------------------------------------------------------------------
# the deferred-refill flush in cancel_flow / reroute_flow
# ---------------------------------------------------------------------------
def run_deferred(use_backend, mode, action, third_src="r0n0"):
    """Act on a 500 MB victim while a tick's refill is deferred.

    The 50 MB flow sharing the victim's host link completes first.  Its
    callback queues ``action`` at zero delay and then starts a 100 MB flow
    from ``third_src``; that start schedules the follow-up tick the
    completing tick defers its refill to, and ``action`` runs before that
    tick.
    """
    use_backend(mode)
    sim, net = rack_net()
    victim = net.start_flow("r0n0", "r1n0", 500 * MB)
    seen = {}

    def act():
        seen["deferred"] = net._refill_deferred
        action(net, victim)
        seen["after"] = net._refill_deferred

    def on_small(_flow):
        sim.schedule(0.0, act)
        net.start_flow(third_src, "r1n1", 100 * MB)

    net.start_flow("r0n0", "r1n2", 50 * MB, on_small)
    sim.run()
    # the cached backends must really defer; REPRO_NO_CACHE never does
    assert seen["deferred"] == (mode != "no_cache")
    assert seen["after"] is False  # the action flushed the deferral
    return net, victim


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize(
    "third_src, rate",
    [
        # the 100 MB flow shares r0n0's 1 Gbps host link with the victim
        ("r0n0", 62_500_000.0),
        # it does not: only a flushed refill sees the victim alone on
        # that link, a stale rate would still be the shared 62.5 MB/s
        ("r0n1", 125_000_000.0),
    ],
)
def test_cancel_flushes_deferred_refill(use_backend, mode, third_src, rate):
    _, victim = run_deferred(
        use_backend, mode, lambda net, flow: net.cancel_flow(flow), third_src
    )
    assert victim.cancelled
    assert victim.rate == rate
    assert victim.remaining == 471_859_200.0


@pytest.mark.parametrize("mode", MODES)
def test_reroute_flushes_deferred_refill(use_backend, mode):
    def move(net, flow):
        # off r0n0's host link: the victim then runs alone at 1 Gbps
        assert net.reroute_flow(flow, net.topology.route("r0n1", "r1n0"))

    net, victim = run_deferred(use_backend, mode, move)
    assert net.reroutes == 1
    assert victim.done
    assert victim.end_time == 0.8388608 + 471_859_200.0 / 125_000_000.0


# ---------------------------------------------------------------------------
# differential: C refill == _refill_reference, bit for bit
# ---------------------------------------------------------------------------
_CAPS = [math.inf, math.inf, 20 * MB, 50 * MB, 50 * MB]

start_op = st.tuples(
    st.just("start"),
    st.integers(0, 11),
    st.integers(0, 11),
    st.integers(1, 120),
    st.sampled_from(_CAPS),
)
# starts drawn twice as often as cancels or clock advances
op = st.one_of(
    start_op,
    start_op,
    st.tuples(st.just("cancel"), st.integers(0, 40)),
    st.tuples(st.just("advance"), st.sampled_from([0.0, 0.05, 0.3, 1.0, 4.0])),
)
INF = math.inf
#: a route of 11 links attached while multi-link flows hold slots, so the
#: C state widens past its initial 8 links with live rows to copy
WIDEN_WITH_LIVE_ROWS = [
    ("start", 0, 3, 50, INF),
    ("start", 1, 2, 50, INF),
    ("start", 0, 11, 50, INF),
    ("advance", 1.0),
]


def lockstep_nets(monkeypatch, reference_paths, topo):
    """A C-backed network and a numpy-backed twin on one topology."""
    reference_paths(False)
    sim_c, sim_np = Simulator(), Simulator()
    net_c = FlowNetwork(sim_c, topo)
    with monkeypatch.context() as m:
        m.setattr(accel, "refill_kernel", lambda: None)
        net_np = FlowNetwork(sim_np, topo)
    assert backend_of(net_c) == "_CFabric"
    assert backend_of(net_np) == "_NumpyFabric"
    return (sim_c, net_c), (sim_np, net_np)


def assert_same_state(net_a, net_b):
    n = len(net_a._flows)
    assert n == len(net_b._flows)
    assert [f.fid for f in net_a._flows] == [f.fid for f in net_b._flows]
    assert net_a._rates[:n].tobytes() == net_b._rates[:n].tobytes()
    assert net_a._rem[:n].tobytes() == net_b._rem[:n].tobytes()


@pytest.mark.skipif(accel.refill_kernel() is None, reason="C kernels unavailable")
@pytest.mark.parametrize("topo_kind", ["rack", "path"])
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(ops=st.lists(op, min_size=4, max_size=40))
@example(ops=WIDEN_WITH_LIVE_ROWS)
def test_c_refill_matches_reference_bit_for_bit(
    monkeypatch, reference_paths, topo_kind, ops
):
    topo = (
        rack_topology(3, 4, host_link=1 * Gbps, tor_uplink=2 * Gbps)
        if topo_kind == "rack"
        else path_topology()
    )
    hosts = topo.hosts
    (sim_c, net_c), (sim_np, net_np) = lockstep_nets(
        monkeypatch, reference_paths, topo
    )
    flows = []
    for entry in ops:
        kind = entry[0]
        if kind == "start":
            _, a, b, size, cap = entry
            src, dst = hosts[a % len(hosts)], hosts[b % len(hosts)]
            if src == dst:
                continue
            flows.append((
                net_c.start_flow(src, dst, size * MB, max_rate=cap),
                net_np.start_flow(src, dst, size * MB, max_rate=cap),
            ))
        elif kind == "cancel":
            if flows:
                f_c, f_np = flows[entry[1] % len(flows)]
                net_c.cancel_flow(f_c)
                net_np.cancel_flow(f_np)
        else:
            until = sim_c.now + entry[1]
            sim_c.run(until=until)
            sim_np.run(until=until)
        sim_c.run(until=sim_c.now)
        sim_np.run(until=sim_np.now)
        assert_same_state(net_c, net_np)
        # the kernel against the reference on the very same state
        n = len(net_c._flows)
        horizon = net_c._backend.refill(n)
        c_rates = net_c._rates[:n].tobytes()
        net_c._refill_reference()
        assert net_c._rates[:n].tobytes() == c_rates
        assert horizon == net_c._horizon()
    for f_c, f_np in flows:
        assert (f_c.end_time, f_c.cancelled) == (f_np.end_time, f_np.cancelled)
    if topo_kind == "path":
        # only the path fabric routes over more than 8 links
        assert max(len(topo.route(a, b)) for a in hosts for b in hosts) > 8


# ---------------------------------------------------------------------------
# typed failures for negative kernel return codes
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("mode", ["c", "numpy"])
def test_uncapped_flow_without_links_raises_the_reference_assertion(
    monkeypatch, use_backend, mode
):
    use_backend(mode)
    sim, net = rack_net()
    monkeypatch.setattr(net.topology, "route_for_flow", lambda s, d, fid: [])
    net.start_flow("r0n0", "r1n0", 10 * MB)
    with pytest.raises(AssertionError, match="uncapped flow with no route links"):
        sim.run()


def test_state_desync_names_the_slot(use_backend):
    use_backend("c")
    _, net = rack_net()
    ids = np.array([0, 1], dtype=np.int64)
    with pytest.raises(RuntimeError, match="slot 3"):
        net._backend.attach(3, ids)  # the state holds 0 slots
    with pytest.raises(RuntimeError, match="slot 0"):
        net._backend.detach(0)


def test_allocation_failure_code_raises_memory_error():
    with pytest.raises(MemoryError):
        network_mod._check_rc(-1, "tick over 1 slots")
    assert network_mod._check_rc(3, "tick over 3 slots") == 3
