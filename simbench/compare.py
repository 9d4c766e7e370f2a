"""Compare two sets of benchmark results.

    python3 simbench/compare.py A.txt B.txt

Each file holds the standard output of any number of ``run.py`` runs,
concatenated (one ``{"detail": ...}`` line followed by its result line per
run).  For every workload it prints, for A and B, the median and quartiles
over runs of each end-to-end metric, and B/A of the medians.  For traced
runs it diffs the per-layer metrics the same way.  A metric that is exact
for a seed (simulated outcomes, work counts) whose values differ between A
and B is marked ``*``: with the same seeds on both sides, that means the
two programs simulate differently.  Differing host fingerprints are
reported, since they make timings incomparable.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from typing import Dict, List, Tuple

from names import DETERMINISTIC, END_TO_END, PER_LAYER, SIMULATED
from run import quartiles

Runs = Dict[Tuple[str, int], List[Tuple[dict, dict]]]


def load(path: str) -> Runs:
    """``(workload, trace) -> [(detail, result), ...]`` from one file."""
    runs: Runs = defaultdict(list)
    detail = None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line.startswith("{"):
                continue
            try:
                doc = json.loads(line)
            except ValueError:
                continue
            if "detail" in doc:
                detail = doc["detail"]
            elif "metrics" in doc and detail is not None:
                runs[(detail["workload"], detail["trace"])].append((detail, doc))
                detail = None
    return runs


def table(name_units: Dict[str, str], a: List[dict], b: List[dict]) -> List[str]:
    lines = [
        f"  {'metric':<42} {'unit':<7} {'A median [q1, q3]':>32} "
        f"{'B median [q1, q3]':>32} {'B/A':>7}"
    ]
    for name, unit in name_units.items():
        va = [r["metrics"][name]["value"] for r in a if name in r["metrics"]]
        vb = [r["metrics"][name]["value"] for r in b if name in r["metrics"]]
        if not va or not vb:
            continue
        qa, qb = quartiles(va), quartiles(vb)
        ma, mb = qa["median"], qb["median"]
        ratio = f"{mb / ma:7.3f}" if ma else ("      =" if mb == 0 else "      -")
        exact = name in DETERMINISTIC or name in SIMULATED
        flag = "*" if exact and sorted(va) != sorted(vb) else " "
        col_a = f"{ma:.6g} [{qa['q1']:.4g}, {qa['q3']:.4g}]"
        col_b = f"{mb:.6g} [{qb['q1']:.4g}, {qb['q3']:.4g}]"
        lines.append(f"{flag} {name:<42} {unit:<7} {col_a:>32} {col_b:>32} {ratio}")
    return lines


def fingerprints(runs: List[Tuple[dict, dict]]) -> set:
    return {
        json.dumps(d.get("fingerprint", {}), sort_keys=True)
        for d, _ in runs
        if d.get("fingerprint")
    }


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = load(argv[0]), load(argv[1])
    for key in sorted(set(a) | set(b)):
        workload, trace = key
        ra, rb = a.get(key, []), b.get(key, [])
        print(f"{workload} ({'per-layer, traced' if trace else 'end-to-end'}): "
              f"A {len(ra)} runs, B {len(rb)} runs")
        if not ra or not rb:
            continue
        failed = [sum(r["failed"] for _, r in runs) for runs in (ra, rb)]
        if any(failed):
            print(f"  failed samples: A {failed[0]}, B {failed[1]}")
        if fingerprints(ra) != fingerprints(rb):
            print("  host fingerprints differ between A and B")
        metrics = PER_LAYER if trace else END_TO_END
        for line in table(metrics, [r for _, r in ra], [r for _, r in rb]):
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
