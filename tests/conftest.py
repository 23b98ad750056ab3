"""Shared fixtures for the test suite.

Fixtures build deliberately small topologies and traces so the whole suite
runs in seconds while still exercising every code path (multiple tenants,
multiple groups, skewed traffic).
"""

from __future__ import annotations

import random

import pytest

from repro.common.config import GroupingConfig, LazyCtrlConfig
from repro.datastructures.intensity import IntensityMatrix
from repro.topology.builder import TopologyProfile, build_multi_tenant_datacenter
from repro.traffic.realistic import RealisticTraceGenerator, RealisticTraceProfile


@pytest.fixture(scope="session")
def small_network():
    """A 16-switch / 200-host multi-tenant data center."""
    return build_multi_tenant_datacenter(
        TopologyProfile(switch_count=16, host_count=200, seed=7, home_switches_per_tenant=2)
    )


@pytest.fixture(scope="session")
def small_trace(small_network):
    """A short skewed trace over the small network (6k flows, 24 h)."""
    generator = RealisticTraceGenerator(
        small_network, RealisticTraceProfile(total_flows=6000, seed=7)
    )
    return generator.generate(name="test-trace")


@pytest.fixture(scope="session")
def small_config():
    """A LazyCtrl configuration with a group-size limit suited to 16 switches."""
    return LazyCtrlConfig(grouping=GroupingConfig(group_size_limit=4, random_seed=7))


@pytest.fixture()
def clustered_matrix():
    """An intensity matrix with six planted clusters of ten switches each."""
    rng = random.Random(11)
    matrix = IntensityMatrix()
    for i in range(60):
        for j in range(i + 1, 60):
            if i // 10 == j // 10:
                matrix.record(i, j, rng.uniform(5.0, 10.0))
            elif rng.random() < 0.05:
                matrix.record(i, j, rng.uniform(0.1, 1.0))
    return matrix


class RecordListStream:
    """A third-party stream: the ``FlowStream`` protocol over plain record lists.

    Yields ``flows`` as list slices of ``chunk_flows`` records — the chunk form
    built-in streams no longer produce, which ``windowed_chunks`` must adapt.
    """

    def __init__(self, name, network, flows, *, chunk_flows, duration=None):
        self.name = name
        self.network = network
        self.total_flows = len(flows)
        self.duration = duration if duration is not None else (flows[-1].start_time if flows else 0.0)
        self._flows = flows
        self._chunk_flows = chunk_flows

    def chunks(self):
        for offset in range(0, len(self._flows), self._chunk_flows):
            yield self._flows[offset : offset + self._chunk_flows]


@pytest.fixture(scope="session")
def record_list_stream():
    """The :class:`RecordListStream` test double (a class, to instantiate or subclass)."""
    return RecordListStream


@pytest.fixture()
def constructions(monkeypatch):
    """Count every FlowRecord a chunk mints and every FlowHandlingResult a plane builds."""
    import repro.core.system as system_module
    import repro.traffic.chunk as chunk_module

    built = {"FlowRecord": 0, "FlowHandlingResult": 0}

    def counting(name, cls):
        def construct(*args, **kwargs):
            built[name] += 1
            return cls(*args, **kwargs)

        return construct

    monkeypatch.setattr(chunk_module, "FlowRecord", counting("FlowRecord", chunk_module.FlowRecord))
    monkeypatch.setattr(
        system_module,
        "FlowHandlingResult",
        counting("FlowHandlingResult", system_module.FlowHandlingResult),
    )
    return built
