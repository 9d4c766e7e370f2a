"""Metamorphic relations that hold exactly in floating point.

PNA's acceptance probability depends on transmission costs only through the
ratio ``C_ave / C_i`` (Formulae 1-5), and every hop-distance cost is a sum
of products with the hop matrix.  Scaling the hop matrix by a power of two
scales every cost by the same power of two *exactly* — the exponent moves,
the mantissa does not — so every ratio, every probability, every placement
and the whole run must be bit-for-bit unchanged.  Cached-vs-naive and
re-run comparisons cannot see a code path that mixes an absolute cost with
something else (a threshold, an epsilon, a rate); this relation can.

The network-condition variant is out of scope: its telemetry mixes hop
counts with ``1/R``, so scaling the hops alone is not a symmetry of it.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import ClusterSpec, Simulation, table2_batch
from repro.core import (
    ExponentialModel,
    HyperbolicModel,
    LinearModel,
    ProbabilisticNetworkAwareScheduler,
)
from repro.engine import EngineConfig
from repro.sim import Simulator
from repro.trace.events import Assign, Decline, Evaluate

MODELS = [
    pytest.param(ExponentialModel, id="exponential"),
    pytest.param(HyperbolicModel, id="hyperbolic"),
    pytest.param(LinearModel, id="linear"),
]


def run(model, hop_scale):
    cluster = ClusterSpec(num_racks=3, nodes_per_rack=4).build(Simulator())
    cluster.hop_matrix[...] *= hop_scale
    return Simulation(
        cluster=cluster,
        scheduler=ProbabilisticNetworkAwareScheduler(probability_model=model()),
        jobs=table2_batch("wordcount", scale=0.02)[:5],
        config=EngineConfig(trace=True),
        seed=7,
    ).run()


def decisions(result):
    """Every decision event, costs set aside; ``p`` compared bit for bit."""
    out = []
    for e in result.trace.events:
        if isinstance(e, Evaluate):
            out.append(dataclasses.replace(e, c_here=0.0, c_ave=0.0, p=e.p.hex()))
        elif isinstance(e, (Assign, Decline)):
            out.append(e)
    return out


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("hop_scale", [8.0, 0.0625], ids=["x8", "x1/16"])
def test_power_of_two_hop_scaling_changes_no_decision(model, hop_scale):
    base, scaled = run(model, 1.0), run(model, hop_scale)

    assert decisions(scaled) == decisions(base)
    assert len(decisions(base)) > 100  # the relation has something to bite on
    assert scaled.sim_time == base.sim_time
    assert scaled.bytes_over_fabric == base.bytes_over_fabric

    # the costs themselves scale exactly: the relation is not vacuous
    evals = [
        (b, s)
        for b, s in zip(base.trace.events, scaled.trace.events)
        if isinstance(b, Evaluate)
    ]
    assert any(b.c_ave > 0 for b, _ in evals)
    for b, s in evals:
        assert s.c_here == b.c_here * hop_scale
        assert s.c_ave == b.c_ave * hop_scale
