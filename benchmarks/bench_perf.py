"""Scheduler hot-path throughput — the `repro bench` case set under pytest.

Runs the quick benchmark cases (16-node cluster: PNA hop / PNA netcond /
Fair / Coupling, plus netcond under churn) through the same
:mod:`repro.experiments.perf` harness the `repro bench` CLI uses, and
re-runs the network-condition case with the ``REPRO_NO_CACHE`` switch on
(``set_reference_paths(True)``: every ``@cached_on`` cache runs its
declared reference) to report the cached-vs-naive factor.  The committed
``BENCH_perf.json`` (full mode, 100/200-node cases) is the tracked
artifact; this bench is the in-tree view of the same numbers at CI scale.

Invoke with ``pytest benchmarks/bench_perf.py``; set ``REPRO_BENCH_FULL=1``
to include the 100/200-node cases (minutes, not seconds).
"""

from __future__ import annotations

import os

from conftest import run_once

from repro.analysis import format_table
from repro.experiments.perf import bench_cases, run_bench


def test_hot_path_throughput(benchmark):
    quick = os.environ.get("REPRO_BENCH_FULL", "") in ("", "0")

    def bench():
        return run_bench(quick=quick, measure_speedup=True)

    doc = run_once(benchmark, bench)

    rows = [
        (name, f"{r['wall_s']:.3f}", f"{r['events_per_s']:,.0f}",
         f"{r['offers_per_s']:,.0f}", r["nodes"])
        for name, r in doc["cases"].items()
    ]
    print()
    print(format_table(
        ["case", "wall (s)", "events/s", "offers/s", "nodes"], rows,
        title=f"scheduler hot-path benchmark ({doc['mode']})",
    ))
    s = doc["speedup"]
    print(
        f"cache speedup on {s['case']}: {s['factor']:.2f}x "
        f"({s['nocache_wall_s']:.3f}s naive -> {s['cached_wall_s']:.3f}s)"
    )

    # every case must have drained its whole workload and done real work
    expected = {c.name for c in bench_cases(quick=quick)}
    assert set(doc["cases"]) == expected
    for name, r in doc["cases"].items():
        assert r["jobs"] > 0, f"{name}: no jobs completed"
        assert r["events"] > 0 and r["offers"] > 0, f"{name}: empty run"
    # the caches must never make things slower in any meaningful way;
    # no hard lower bound here (16-node wins are modest and machines vary),
    # the k>=100 >=5x claim is tracked by the committed BENCH_perf.json
    assert s["factor"] > 0.8, f"caching slowed the run down: {s}"

    benchmark.extra_info["speedup"] = s
    benchmark.extra_info["events_per_s"] = {
        name: r["events_per_s"] for name, r in doc["cases"].items()
    }
