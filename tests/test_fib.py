"""Unit tests for L-FIB, G-FIB and C-LIB."""

import pytest

from repro.common.addresses import MacAddress
from repro.common.config import BloomFilterConfig
from repro.common.errors import UnknownHostError
from repro.datastructures.fib import CentralLib, FibEntry, GroupFib, LocalFib


def mac(i: int) -> MacAddress:
    return MacAddress.from_host_index(i)


class TestLocalFib:
    def test_learn_and_lookup(self):
        fib = LocalFib()
        assert fib.learn(mac(1), port=3, tenant_id=7)
        entry = fib.lookup(mac(1))
        assert entry.port == 3 and entry.tenant_id == 7

    def test_learn_idempotent_returns_false(self):
        fib = LocalFib()
        fib.learn(mac(1), 3, 7)
        assert not fib.learn(mac(1), 3, 7)

    def test_learn_move_returns_true_and_bumps_version(self):
        fib = LocalFib()
        fib.learn(mac(1), 3, 7)
        version = fib.version
        assert fib.learn(mac(1), 4, 7)
        assert fib.version > version

    def test_forget(self):
        fib = LocalFib()
        fib.learn(mac(1), 3, 7)
        assert fib.forget(mac(1))
        assert fib.lookup(mac(1)) is None
        assert not fib.forget(mac(1))

    def test_contains_and_len(self):
        fib = LocalFib()
        for i in range(5):
            fib.learn(mac(i), i, 0)
        assert mac(3) in fib
        assert len(fib) == 5

    def test_entries_for_tenant(self):
        fib = LocalFib()
        fib.learn(mac(1), 1, 10)
        fib.learn(mac(2), 2, 20)
        fib.learn(mac(3), 3, 10)
        assert {e.mac for e in fib.entries_for_tenant(10)} == {mac(1), mac(3)}

    def test_snapshot_is_a_copy(self):
        fib = LocalFib()
        fib.learn(mac(1), 1, 0)
        snap = fib.snapshot()
        fib.forget(mac(1))
        assert mac(1) in snap

    def test_replace(self):
        fib = LocalFib()
        fib.learn(mac(1), 1, 0)
        fib.replace({mac(2): FibEntry(mac(2), 5, 1)})
        assert fib.lookup(mac(1)) is None
        assert fib.lookup(mac(2)).port == 5

    def test_iteration_yields_entries(self):
        fib = LocalFib()
        fib.learn(mac(1), 1, 0)
        assert all(isinstance(entry, FibEntry) for entry in fib)


class TestGroupFib:
    def test_query_finds_installed_peer(self):
        gfib = GroupFib()
        gfib.install_peer(5, [mac(1), mac(2)])
        assert 5 in gfib.query(mac(1))

    def test_query_unknown_mac_usually_empty(self):
        gfib = GroupFib()
        gfib.install_peer(5, [mac(1)])
        # Default sizing gives a negligible FPR, so a single probe must miss.
        assert gfib.query(mac(999_999)) == ()

    def test_install_peer_replaces_previous_filter(self):
        gfib = GroupFib()
        gfib.install_peer(5, [mac(1)])
        gfib.install_peer(5, [mac(2)])
        assert gfib.query(mac(1)) == ()
        assert gfib.query(mac(2)) == (5,)

    def test_remove_peer(self):
        gfib = GroupFib()
        gfib.install_peer(5, [mac(1)])
        gfib.remove_peer(5)
        assert gfib.peer_count() == 0
        assert gfib.query(mac(1)) == ()

    def test_clear(self):
        gfib = GroupFib()
        gfib.install_peer(1, [mac(1)])
        gfib.install_peer(2, [mac(2)])
        gfib.clear()
        assert gfib.peers() == []

    def test_storage_scales_linearly_with_peers(self):
        config = BloomFilterConfig()
        gfib = GroupFib(config)
        for peer in range(45):
            gfib.install_peer(peer, [mac(peer)])
        assert gfib.storage_bytes() == 45 * config.size_bytes

    def test_multiple_candidates_possible(self):
        gfib = GroupFib()
        gfib.install_peer(1, [mac(7)])
        gfib.install_peer(2, [mac(7)])
        assert sorted(gfib.query(mac(7))) == [1, 2]

    def test_matching_peers_is_query_without_its_accounting(self):
        """The pure membership test answers what ``query`` answers — for
        members, strangers and false positives alike — and leaves the query
        counters and the memo alone."""
        gfib = GroupFib(BloomFilterConfig(size_bits=64, hash_count=2))  # small: false positives
        for peer in range(1, 6):
            gfib.install_peer(peer, [mac(peer * 10 + i) for i in range(8)])
        probes = [mac(i) for i in range(120)]
        probed = [gfib.matching_peers(m) for m in probes]
        assert gfib.query_count == 0 and gfib.query_cache_hits == 0
        assert not gfib._query_cache
        assert probed == [gfib.query(m) for m in probes]
        assert any(len(peers) > 1 for peers in probed)
        # Probing a memoized MAC neither hits nor refreshes the memo.
        counts = (gfib.query_count, gfib.query_cache_hits, dict(gfib._query_cache))
        assert gfib.matching_peers(mac(11)) == gfib._query_cache[mac(11)]
        assert (gfib.query_count, gfib.query_cache_hits, dict(gfib._query_cache)) == counts

    def test_exact_tracking_requires_flag(self):
        gfib = GroupFib()
        with pytest.raises(UnknownHostError):
            gfib.query_exact(mac(1))

    def test_exact_tracking_matches_bloom_for_members(self):
        gfib = GroupFib(track_exact=True)
        gfib.install_peer(1, [mac(1), mac(2)])
        assert gfib.query_exact(mac(1)) == (1,)
        assert set(gfib.query(mac(1))) >= set(gfib.query_exact(mac(1)))

    def test_false_positive_estimate_zero_when_empty(self):
        assert GroupFib().false_positive_estimate() == 0.0


class TestCentralLib:
    def test_record_and_locate(self):
        clib = CentralLib()
        clib.record_host(mac(1), switch_id=3, tenant_id=9)
        assert clib.locate(mac(1)) == 3
        assert clib.tenant_of(mac(1)) == 9

    def test_update_from_lfib_counts_changes(self):
        clib = CentralLib()
        entries = ((mac(1), 1, 0), (mac(2), 2, 0))
        assert clib.update_from_lfib(7, entries) == 2
        assert clib.version == 1
        # Re-applying the same entries changes nothing.
        assert clib.update_from_lfib(7, entries) == 0
        assert clib.version == 1

    def test_update_detects_migration(self):
        clib = CentralLib()
        clib.record_host(mac(1), 3, 0)
        assert clib.update_from_lfib(4, ((mac(1), 1, 0),)) == 1
        assert clib.locate(mac(1)) == 4

    def test_remove_host(self):
        clib = CentralLib()
        clib.record_host(mac(1), 3, 0)
        assert clib.remove_host(mac(1))
        assert clib.locate(mac(1)) is None
        assert not clib.remove_host(mac(1))

    def test_hosts_on_switch(self):
        clib = CentralLib()
        clib.record_host(mac(1), 3, 0)
        clib.record_host(mac(2), 3, 0)
        clib.record_host(mac(3), 4, 0)
        assert set(clib.hosts_on_switch(3)) == {mac(1), mac(2)}

    def test_switches_with_tenant(self):
        clib = CentralLib()
        clib.record_host(mac(1), 3, 10)
        clib.record_host(mac(2), 4, 10)
        clib.record_host(mac(3), 5, 20)
        assert clib.switches_with_tenant(10) == {3, 4}

    def test_len_and_contains(self):
        clib = CentralLib()
        clib.record_host(mac(1), 3, 0)
        assert len(clib) == 1 and mac(1) in clib

    def test_version_increases_on_change(self):
        clib = CentralLib()
        v0 = clib.version
        clib.record_host(mac(1), 3, 0)
        assert clib.version > v0
