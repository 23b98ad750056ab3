"""§V-D storage overhead of the Bloom-filter-based G-FIB.

Reproduces the paper's storage example: a group of 46 switches keeps 45
Bloom filters per switch; with 16 x 128-byte entries per filter that is
92,160 bytes of high-speed memory per switch, at a false-positive rate below
0.1 %.  The benchmark also reports how storage scales with group size.
"""

from __future__ import annotations

import pytest

from repro.common.formatting import format_table
from repro.common.addresses import MacAddress
from repro.common.config import BloomFilterConfig
from repro.datastructures.fib import GroupFib


def _storage_for_group_size(group_size: int, hosts_per_switch: int = 24) -> tuple[int, float]:
    """G-FIB storage (bytes) and measured false-positive rate for one switch."""
    config = BloomFilterConfig()
    gfib = GroupFib(config)
    next_host = 0
    for peer in range(group_size - 1):
        macs = [MacAddress.from_host_index(next_host + i) for i in range(hosts_per_switch)]
        next_host += hosts_per_switch
        gfib.install_peer(peer + 1, macs)
    # Probe with addresses that are guaranteed not to be members.
    probes = [MacAddress.from_host_index(10_000_000 + i) for i in range(20000)]
    false_positives = sum(1 for probe in probes if gfib.query(probe))
    return gfib.storage_bytes(), false_positives / len(probes)


@pytest.mark.benchmark(group="storage")
def test_storage_overhead_matches_paper_example(benchmark):
    storage_bytes, fpr = benchmark.pedantic(_storage_for_group_size, args=(46,), rounds=1, iterations=1)

    rows = [["46 (paper example)", f"{storage_bytes:,}", "92,160", f"{fpr:.4%}"]]
    for group_size in (8, 16, 32, 64, 128):
        size_bytes, rate = _storage_for_group_size(group_size)
        rows.append([str(group_size), f"{size_bytes:,}", "-", f"{rate:.4%}"])
    print()
    print(format_table(
        ["Group size", "G-FIB bytes/switch (measured)", "Paper", "Measured FPR"],
        rows,
        title="§V-D — G-FIB storage overhead and false-positive rate",
    ))

    # Exactly the paper's arithmetic: 45 filters x 16 x 128 bytes.
    assert storage_bytes == 45 * 16 * 128 == 92_160
    # False positive rate below 0.1 %.
    assert fpr < 0.001

    # Storage grows linearly with the group size.
    small, _ = _storage_for_group_size(8)
    large, _ = _storage_for_group_size(64)
    assert large == pytest.approx(small * 63 / 7, rel=1e-6)
