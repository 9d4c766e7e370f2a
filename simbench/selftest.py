"""Self-test of the benchmark on shrunk workloads, with invariants on.

    python3 simbench/selftest.py

Run from the root of a checkout.  Checks that:

* every workload of ``BENCHMARK.json`` reports every metric declared
  there, none of the end-to-end ones 0;
* two runs of each shrunk workload are correct and repeat exactly: the
  simulated end-to-end metrics and every deterministic per-layer count;
* the traced run attributes at least 80 % of its wall time to named layers;
* the layer predictions hold — no rate-matrix or cost-model work under
  ``FairScheduler``, at least one route-tensor rebuild after the first
  build and one link-state convergence on the Clos fabric, and no lost
  block anywhere.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import sys
from typing import Dict, List

import run
from names import DETERMINISTIC, END_TO_END, PER_LAYER, SIMULATED, WORKLOADS

SEED = 7
#: the minimum number of full samples; the shrunk runs are short
SECONDS = 1


class Report:
    def __init__(self) -> None:
        self.failures: List[str] = []

    def require(self, ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            self.failures.append(what)


def values(result: dict) -> Dict[str, float]:
    return {k: v["value"] for k, v in result["metrics"].items()}


def check_workload(report: Report, workload: str) -> None:
    e2e = [run.end_to_end(workload, SEED, SECONDS, shrink=True)[1] for _ in range(2)]
    traced = [run.per_layer(workload, SEED, shrink=True)[1] for _ in range(2)]
    for result in e2e + traced:
        report.require(
            result["correct"] and result["failed"] == 0,
            f"{workload}: {result['attempted']} samples, {result['failed']} failed",
        )
    first, second = values(e2e[0]), values(e2e[1])
    report.require(set(first) == set(END_TO_END), f"{workload}: every end-to-end metric reported")
    report.require(min(first.values()) > 0, f"{workload}: no end-to-end metric is 0")
    for name in SIMULATED:
        report.require(first[name] == second[name], f"{workload}: {name} repeats exactly")
    layers, again = values(traced[0]), values(traced[1])
    report.require(set(layers) == set(PER_LAYER), f"{workload}: every per-layer metric reported")
    differ = [n for n in DETERMINISTIC if layers[n] != again[n]]
    report.require(not differ, f"{workload}: deterministic per-layer metrics repeat exactly {differ or ''}")
    report.require(
        layers["layers.coverage"] >= 0.8,
        f"{workload}: {layers['layers.coverage']:.1%} of traced wall in named layers",
    )
    report.require(layers["hdfs.blocks_lost"] == 0, f"{workload}: no block lost")
    if workload == "fair_400":
        idle = [
            n for n in PER_LAYER
            if n.endswith(".calls")
            and n.startswith(("network.rate_matrix", "cost.", "estimator."))
            and layers[n] != 0
        ]
        report.require(not idle, f"fair_400: no rate-matrix, cost-model or estimator calls {idle or ''}")
    if workload == "clos_faults_traced":
        report.require(
            layers["network.rate_matrix.rebuilds"] >= 1,
            f"clos: {layers['network.rate_matrix.rebuilds']:.0f} route-tensor rebuilds after the first build",
        )
        report.require(
            layers["routing.convergences"] >= 1,
            f"clos: {layers['routing.convergences']:.0f} link-state convergences",
        )


def main() -> int:
    if not (run.SRC / "repro" / "__init__.py").is_file():
        print(f"no simulator source at {run.SRC}", file=sys.stderr)
        return 2
    report = Report()
    for workload in WORKLOADS:
        check_workload(report, workload)
    print(f"{len(report.failures)} checks failed" if report.failures else "all checks passed")
    return 1 if report.failures else 0


if __name__ == "__main__":
    sys.exit(main())
