"""One sample of one workload, in a fresh interpreter started by ``run.py``.

    python3 simbench/child.py MODE WORKLOAD SEED T0 [--shrink]

``T0`` is the parent's ``time.monotonic()`` just before it started this
process (the clock is system-wide), so ``setup_s`` covers interpreter
start, every import, the C-kernel load and the simulation build — what a
user of the simulator pays before the first event.

The child samples the host's speed from its first line
(:mod:`hostspeed`); ``setup_s``, ``import_s``, ``build_s`` and ``wall_s``
are scaled to the reference host speed, and ``setup_raw_s`` and
``wall_raw_s`` are the plain seconds, sampling time left out.

MODE is one of:

* ``setup`` — build the simulation and stop;
* ``run``   — build, then time ``Simulation.run()`` and check its outputs;
* ``trace`` — as ``run``, under the profiler with the layer wrappers of
  :mod:`layers` installed; reports per-layer metrics.

Prints one JSON object on its last line of standard output.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def _proc_field(path: str, key: str) -> str:
    """The value of the first ``key: value`` line of a /proc file, or ""."""
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return ""


def fingerprint(backend: str) -> dict:
    """What this sample ran on: host, interpreter, libraries, pinning."""
    import platform

    import numpy as np

    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):  # the layout varies across numpy releases
        blas = "unknown"
    return {
        "cpu": _proc_field("/proc/cpuinfo", "model name") or "unknown",
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "pinning": {
            var: os.environ.get(var, "")
            for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "threads": int(_proc_field("/proc/self/status", "Threads") or 0),
        "backend": backend,
    }


def main(argv: list) -> dict:
    mode, name, seed, t0 = argv[0], argv[1], int(argv[2]), float(argv[3])
    opts = argv[4:]
    shrink = "--shrink" in opts
    from hostspeed import HostSpeed

    speed = HostSpeed()
    speed.start()
    import workloads
    from repro import accel

    imported = time.monotonic()
    sim = workloads.build(name, seed, shrink=shrink, histograms=mode == "trace")
    built = time.monotonic()
    backend = "c" if accel.refill_kernel() is not None else "numpy"
    record = {"mode": mode, "backend": backend}
    if mode == "trace":
        from layers import LayerTracer

        from repro.obs.profile import profiled

        with LayerTracer() as tracer, profiled() as prof:
            result = sim.run()
        ended = time.monotonic()
        record["layers"] = tracer.metrics(prof, sim, result)
    elif mode == "run":
        result = sim.run()
        ended = time.monotonic()
    speed.stop()
    import_s, _ = speed.span(t0, imported)
    build_s, _ = speed.span(imported, built)
    _, setup_raw_s = speed.span(t0, built)
    record.update(
        setup_s=import_s + build_s,
        setup_raw_s=setup_raw_s,
        import_s=import_s,
        build_s=build_s,
        cal_ms=speed.median_cal_s() * 1e3,
    )
    if mode == "setup":
        return record
    wall_s, wall_raw_s = speed.span(built, ended)
    record.update(
        wall_s=wall_s,
        wall_raw_s=wall_raw_s,
        events=sim.sim.processed,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        error=workloads.check(sim, result),
        digest=workloads.digest(sim, result),
        simulated=workloads.simulated(result),
        fingerprint=fingerprint(backend),
    )
    return record


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:]), sort_keys=True))
