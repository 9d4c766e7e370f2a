"""Shared fixtures for the test suite."""

from __future__ import annotations

import os

# The whole suite runs with the runtime invariant layer on, so every
# engine-level test doubles as an invariant regression test.  Must be set
# before repro is imported: Scenario's default EngineConfig is built at
# import time.
os.environ.setdefault("REPRO_CHECK_INVARIANTS", "1")

import numpy as np
import pytest

from repro.cluster import Cluster, ClusterSpec
from repro.hdfs import NameNode
from repro.sim import Simulator


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def small_cluster(sim: Simulator) -> Cluster:
    """2 racks x 3 nodes, paper-style slots."""
    return ClusterSpec(num_racks=2, nodes_per_rack=3).build(sim)


@pytest.fixture
def namenode(small_cluster: Cluster) -> NameNode:
    return NameNode(small_cluster, replication=2, rng=np.random.default_rng(1))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def use_backend(monkeypatch):
    """Select the fabric backend that FlowNetworks built next will use.

    ``FlowNetwork`` picks its backend at construction.  "c" is the compiled
    kernels, and is skipped where they do not compile.  "numpy" is what a
    host without a C compiler runs, with caches on.  "no_cache" is the
    ``REPRO_NO_CACHE=1`` reference, also on numpy.
    """
    from repro import accel

    def select(backend: str) -> None:
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        if backend == "c" and accel.refill_kernel() is None:
            pytest.skip("C kernels unavailable")
        elif backend == "numpy":
            monkeypatch.setattr(accel, "refill_kernel", lambda: None)
        elif backend == "no_cache":
            monkeypatch.setenv("REPRO_NO_CACHE", "1")

    return select
