"""Repository benchmark: host time and simulated outcomes of three workloads.

    python3 simbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; it needs ``src/repro`` there and exits
with code 2 without it.  Workloads (see NOTES.md for why each was chosen):
``pna_netcond_400``, ``fair_400``, ``clos_faults_traced``.

Every sample is a fresh interpreter (``child.py``) with BLAS/OpenMP pinned
to one thread and a fixed hash seed, running one simulation of a fixed
pool of ``POOL`` simulation seeds drawn from ``--seed``; a run is the same
unit of work for a given ``--seed``, and its simulated metrics are means
over the pool, which narrows their seed-to-seed spread.  The number of
samples is a function of ``--seconds`` and the workload only, never of
elapsed time.  A warm-up child first builds the C kernel
and the bytecode caches, which a user pays once per checkout, not per run.

``--trace 0`` reports the end-to-end metrics: the medians of set-up time
(process start to a built simulation) and peak memory over the samples,
and the means over the pool of run wall time and the simulated outcomes.
The host times are scaled to a reference host speed measured while they
ran (:mod:`hostspeed`); the plain seconds are in the detail line.  ``--trace 1`` runs one untraced and one traced sample and reports
the per-layer metrics of the traced one.

Standard output ends with two JSON lines: ``{"detail": ...}`` (samples,
quartiles, host fingerprint; read by ``compare.py``) and the result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from names import END_TO_END, PER_LAYER, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: host seconds of one full sample (set-up plus run), the medians measured
#: over thirty runs per workload on a 2-vCPU Xeon VM; a run makes as many
#: rounds of POOL full samples as fit in ``--seconds``, and at least one,
#: so a workload whose pool costs more than ``--seconds`` runs longer
SAMPLE_S = {
    "pna_netcond_400": 9.5,
    "fair_400": 5.7,
    "clos_faults_traced": 17.2,
}
#: simulation seeds pooled into a run: ``--seed`` N runs seeds POOL * N to
#: POOL * N + POOL - 1.  One seed's map locality spreads 16-19 % across
#: seeds on ``pna_netcond_400``, and one crash hitting a running task
#: lifts a Clos run's mean JCT by up to 11 %; a mean over the pool narrows
#: both without the cost of running every seed in every sample
POOL = 3

#: set-up samples per run, the full samples included; the rest are
#: set-up-only children (about 1.3 s each): import time is most of set-up
#: and needs a median of its own
SETUP_SAMPLES = 5

#: a run stops its children at this many seconds and counts the rest as
#: failed, so that it ends within three minutes even when a child hangs
RUN_DEADLINE_S = 165.0


def child_env() -> Dict[str, str]:
    """The environment of every child: pinned thread pools, fixed hash
    seed, the checkout's ``src`` on the path, no behaviour switches."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
        PYTHONPATH=str(SRC),
    )
    return env


def spawn(
    mode: str, workload: str, seed: int, extra: Tuple[str, ...], deadline: float
) -> Tuple[Optional[dict], str]:
    """Run one child; ``(record, "")`` or ``(None, why it failed)``."""
    cmd = [sys.executable, str(HERE / "child.py"), mode, workload, str(seed)]
    t0 = time.monotonic()
    if t0 >= deadline:
        return None, f"{mode} child not started: the run deadline passed"
    try:
        proc = subprocess.run(
            cmd + [repr(t0), *extra],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=deadline - t0,
        )
    except subprocess.TimeoutExpired:
        return None, f"{mode} child stopped at the run deadline"
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-3:]
        return None, f"{mode} child exited {proc.returncode}: {' | '.join(tail)}"
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]), ""
    except (IndexError, ValueError):
        return None, f"{mode} child printed no result"


def quartiles(values: List[float]) -> Dict[str, float]:
    """Median, quartiles and count; quartiles collapse to one value's."""
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0], "n": 1}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": statistics.median(values), "q3": q3, "n": len(values)}


class Checker:
    """Judges samples against the first good one of the run.

    A sample fails when its child failed, its outputs are wrong, its
    deterministic digest differs from the first digest for this seed, or it
    ran on another fabric backend (C kernel vs numpy fallback) than the
    first sample — that would measure a different program.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.backend: Optional[str] = None
        self.digests: Dict[int, str] = {}
        self.errors: List[str] = []

    def accept(self, record: Optional[dict], why: str, seed: int) -> bool:
        self.attempted += 1
        if record is not None:
            if self.backend is None:
                self.backend = record["backend"]
            digest = record.get("digest")  # set-up-only samples have none
            first = self.digests.setdefault(seed, digest) if digest else None
            if record["backend"] != self.backend:
                why = f"backend {record['backend']} differs from {self.backend}"
            elif record.get("error"):
                why = record["error"]
            elif digest != first:
                why = f"seed {seed}: digest {digest} differs from {first}"
        if why:
            self.failed += 1
            self.errors.append(why)
            print(f"sample failed: {why}", file=sys.stderr)
            return False
        return True


def pool_seeds(seed: int) -> List[int]:
    return [POOL * seed + i for i in range(POOL)]


def sample_plan(workload: str, seconds: int) -> List[Tuple[str, int]]:
    """``(mode, pool index)`` of the timed children: full samples cycle
    through the pool and are spread evenly among set-up-only ones."""
    n_run = POOL * max(1, int(seconds / (POOL * SAMPLE_S[workload])))
    total = max(SETUP_SAMPLES, n_run)
    run_at = sorted({round((i + 0.5) * total / n_run - 0.5) for i in range(n_run)})
    plan = [("setup", 0)] * total
    for k, i in enumerate(run_at):
        plan[i] = ("run", k % POOL)
    return plan


def warm_up(workload: str, seed: int, extra: Tuple[str, ...], deadline: float) -> None:
    """Build the C kernel and bytecode caches before any timed child."""
    warm, why = spawn("setup", workload, seed, extra, deadline)
    if warm is None:
        raise SystemExit(f"warm-up failed: {why}")


def result(checker: Checker, ok: bool, metrics: Dict[str, float], units: Dict[str, str]) -> dict:
    return {
        "correct": ok and checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items() if k in metrics},
    }


def end_to_end(
    workload: str, seed: int, seconds: int, shrink: bool = False
) -> Tuple[dict, dict]:
    extra = ("--shrink",) if shrink else ()
    deadline = time.monotonic() + RUN_DEADLINE_S
    checker = Checker()
    seeds = pool_seeds(seed)
    warm_up(workload, seeds[0], extra, deadline)
    setups: List[dict] = []
    runs: List[dict] = []
    for mode, k in sample_plan(workload, seconds):
        record, why = spawn(mode, workload, seeds[k], extra, deadline)
        if checker.accept(record, why, seeds[k]):
            setups.append(record)
            if mode == "run":
                runs.append(dict(record, seed=seeds[k]))
    detail = {
        "workload": workload, "seed": seed, "trace": 0,
        "backend": checker.backend, "digests": checker.digests,
        "errors": checker.errors,
        "sample_seeds": [r["seed"] for r in runs],
        "samples": {
            "setup_s": [s["setup_s"] for s in setups],
            "wall_s": [r["wall_s"] for r in runs],
            "peak_rss_mb": [r["peak_rss_mb"] for r in runs],
            "setup_raw_s": [s["setup_raw_s"] for s in setups],
            "wall_raw_s": [r["wall_raw_s"] for r in runs],
            "cal_ms": [s["cal_ms"] for s in setups],
        },
    }
    metrics: Dict[str, float] = {}
    by_seed = {s: [r for r in runs if r["seed"] == s] for s in seeds}
    if setups and all(by_seed.values()):
        detail["quartiles"] = {k: quartiles(v) for k, v in detail["samples"].items()}
        detail["fingerprint"] = runs[0]["fingerprint"]
        detail["events"] = {s: rs[0]["events"] for s, rs in by_seed.items()}
        metrics = {
            "setup_s": detail["quartiles"]["setup_s"]["median"],
            "peak_rss_mb": detail["quartiles"]["peak_rss_mb"]["median"],
            "wall_s": statistics.mean(
                statistics.median(r["wall_s"] for r in rs) for rs in by_seed.values()
            ),
        }
        for name in runs[0]["simulated"]:
            metrics[name] = statistics.mean(rs[0]["simulated"][name] for rs in by_seed.values())
    return detail, result(checker, bool(metrics), metrics, END_TO_END)


def per_layer(workload: str, seed: int, shrink: bool = False) -> Tuple[dict, dict]:
    extra = ("--shrink",) if shrink else ()
    deadline = time.monotonic() + RUN_DEADLINE_S
    checker = Checker()
    sim_seed = pool_seeds(seed)[0]
    warm_up(workload, sim_seed, extra, deadline)
    base, why = spawn("run", workload, sim_seed, extra, deadline)
    base_ok = checker.accept(base, why, sim_seed)
    traced, why = (
        spawn("trace", workload, sim_seed, extra, deadline)
        if base_ok else (None, "no untraced sample to compare with")
    )
    metrics: Dict[str, float] = {}
    detail = {
        "workload": workload, "seed": seed, "sim_seed": sim_seed, "trace": 1,
        "errors": checker.errors,
    }
    ok = checker.accept(traced, why, sim_seed) and base_ok
    if ok:
        # the profiler's self times are plain seconds: scale them by the
        # traced run's mean host speed (wall_s is scaled piece by piece)
        scale = traced["wall_s"] / traced["wall_raw_s"]
        metrics = {
            k: v * scale if PER_LAYER.get(k) == "s" and not k.endswith("_sim_s") else v
            for k, v in traced["layers"].items()
        }
        metrics["setup.import_s"] = base["import_s"]
        metrics["setup.build_s"] = base["build_s"]
        metrics["sim.us_per_event"] = base["wall_s"] / base["events"] * 1e6
        metrics["layers.tracing_overhead"] = traced["wall_s"] / base["wall_s"] - 1.0
        detail.update(
            backend=checker.backend, digests=checker.digests,
            fingerprint=traced["fingerprint"],
            wall_s={"untraced": base["wall_s"], "traced": traced["wall_s"]},
            wall_raw_s={"untraced": base["wall_raw_s"], "traced": traced["wall_raw_s"]},
        )
    return detail, result(checker, ok, metrics, PER_LAYER)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no simulator source at {SRC}; run from a checkout", file=sys.stderr)
        return 2
    if args.trace:
        detail, outcome = per_layer(args.workload, args.seed)
    else:
        detail, outcome = end_to_end(args.workload, args.seed, args.seconds)
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps(outcome, sort_keys=True))
    return 0 if outcome["metrics"] else 1


if __name__ == "__main__":
    sys.exit(main())
