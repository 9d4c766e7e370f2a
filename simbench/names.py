"""Names and units of every metric the benchmark reports.

The workloads and the metrics with their units are read from
``BENCHMARK.json`` at the root of the checkout, so they have one source.
Standard library only: ``run.py`` never imports the simulator.
"""

import json
from pathlib import Path
from typing import Dict

with open(Path(__file__).resolve().parent.parent / "BENCHMARK.json", encoding="utf-8") as _fh:
    _BENCH = json.load(_fh)

WORKLOADS = tuple(w["name"] for w in _BENCH["workloads"])

#: end-to-end metric -> unit, reported with --trace 0
END_TO_END: Dict[str, str] = {m["name"]: m["unit"] for m in _BENCH["end_to_end"]}

#: per-layer metric -> unit, in report order, reported with --trace 1
PER_LAYER: Dict[str, str] = {m["name"]: m["unit"] for m in _BENCH["per_layer"]}

#: end-to-end metrics the simulation determines: exact for a seed
SIMULATED = (
    "makespan_sim_s",
    "jct_mean_sim_s",
    "jct_p50_sim_s",
    "transmission_cost_gb_hop",
    "map_node_locality",
)

#: per-layer metrics that are exact for a seed (work counts, simulated
#: waits); the rest are host seconds or ratios of them
DETERMINISTIC = tuple(
    name
    for name, unit in PER_LAYER.items()
    if unit == "count"
    or name.endswith("_sim_s")
    or name in ("scheduler.assign_ratio", "hdfs.repair_bytes_gb")
)
