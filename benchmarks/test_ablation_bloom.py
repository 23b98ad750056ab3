"""Ablation A3 — Bloom-filter sizing vs. false positives and duplicate deliveries.

The G-FIB trades switch memory for duplicate packet deliveries: smaller
Bloom filters save SRAM but mis-identify more destination switches, each of
which receives (and drops) a useless copy of the packet.  This ablation
sweeps the bits-per-filter knob and measures both sides.
"""

from __future__ import annotations

import pytest

from repro.common.formatting import format_table
from repro.common.addresses import MacAddress
from repro.common.config import BloomFilterConfig
from repro.datastructures.fib import GroupFib

GROUP_SIZE = 46
HOSTS_PER_SWITCH = 24
PROBES = 8000


def _measure(size_bits: int) -> tuple[int, float, float]:
    """Return (bytes/switch, false-positive rate, duplicate deliveries per lookup)."""
    config = BloomFilterConfig(size_bits=size_bits, hash_count=7)
    gfib = GroupFib(config)
    next_host = 0
    member_macs = []
    for peer in range(GROUP_SIZE - 1):
        macs = [MacAddress.from_host_index(next_host + i) for i in range(HOSTS_PER_SWITCH)]
        next_host += HOSTS_PER_SWITCH
        member_macs.append((peer + 1, macs))
        gfib.install_peer(peer + 1, macs)

    # False positives measured on non-member addresses.
    misses = [MacAddress.from_host_index(10_000_000 + i) for i in range(PROBES)]
    false_hits = sum(len(gfib.query(mac)) for mac in misses)
    fpr = false_hits / (PROBES * (GROUP_SIZE - 1))

    # Duplicate deliveries measured on member addresses: every extra candidate
    # beyond the true owner receives a copy it will drop.
    duplicates = 0
    lookups = 0
    for _, macs in member_macs[::5]:
        for mac in macs[::4]:
            candidates = gfib.query(mac)
            duplicates += max(0, len(candidates) - 1)
            lookups += 1
    return gfib.storage_bytes() // (GROUP_SIZE - 1), fpr, duplicates / max(1, lookups)


@pytest.mark.benchmark(group="ablation-bloom")
def test_ablation_bloom_filter_sizing(benchmark):
    sizes_bits = [256, 1024, 4096, 16 * 128 * 8]

    def sweep():
        return [(bits, *_measure(bits)) for bits in sizes_bits]

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)

    rows = [
        [bits, f"{per_filter:,}", f"{fpr:.4%}", f"{dups:.3f}"]
        for bits, per_filter, fpr, dups in results
    ]
    print()
    print(format_table(
        ["Bits per filter", "Bytes per filter", "False-positive rate", "Duplicate copies per lookup"],
        rows,
        title="Ablation A3 — Bloom filter sizing (group of 46 switches, 24 hosts/switch)",
    ))

    fprs = [fpr for _, _, fpr, _ in results]
    dups = [d for _, _, _, d in results]
    # Larger filters monotonically reduce false positives and duplicates.
    assert fprs == sorted(fprs, reverse=True)
    assert dups[-1] <= dups[0]
    # The paper's sizing (16 x 128-byte entries) achieves < 0.1 % FPR and
    # essentially no duplicate deliveries.
    assert fprs[-1] < 0.001
    assert dups[-1] < 0.01
