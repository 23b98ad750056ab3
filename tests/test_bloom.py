"""Unit tests for the Bloom filter underlying the G-FIB."""

import pytest

from repro.common.config import BloomFilterConfig
from repro.common.errors import ConfigurationError
from repro.datastructures.bloom import BloomFilter, probe_positions


class TestConstruction:
    def test_from_config_matches_sizes(self):
        config = BloomFilterConfig(size_bits=1024, hash_count=3)
        bloom = BloomFilter.from_config(config)
        assert bloom.size_bits == 1024
        assert bloom.hash_count == 3
        assert bloom.size_bytes == 128

    def test_rejects_zero_size(self):
        with pytest.raises(ConfigurationError):
            BloomFilter(0, 3)

    def test_rejects_zero_hashes(self):
        with pytest.raises(ConfigurationError):
            BloomFilter(128, 0)


class TestMembership:
    def test_no_false_negatives(self):
        bloom = BloomFilter(4096, 5)
        items = [f"mac-{i}".encode() for i in range(200)]
        bloom.add_all(items)
        assert all(item in bloom for item in items)

    def test_empty_filter_contains_nothing(self):
        bloom = BloomFilter(1024, 3)
        assert b"anything" not in bloom

    def test_false_positive_rate_small_for_paper_sizing(self):
        # Paper §V-D: a 2048-byte filter per switch yields < 0.1 % FPR for a
        # group of ~46 switches with a realistic number of hosts per switch.
        config = BloomFilterConfig()
        bloom = BloomFilter.from_config(config)
        members = [f"member-{i}".encode() for i in range(60)]
        bloom.add_all(members)
        probes = [f"probe-{i}".encode() for i in range(20000)]
        false_positives = sum(1 for probe in probes if probe in bloom)
        assert false_positives / len(probes) < 0.001

    def test_positions_derived_once_answer_what_membership_answers(self):
        bloom = BloomFilter(256, 3)
        bloom.add_all(str(i).encode() for i in range(40))
        for i in range(200):
            item = str(i).encode()
            assert bloom.has_positions(probe_positions(item, 256, 3)) == (item in bloom)

    def test_repr_names_the_geometry(self):
        assert "size_bits=128" in repr(BloomFilter(128, 2))
