"""Unit tests for the deterministic RNG helpers."""

import random

import pytest

from repro.common.rng import derive_seed, make_rng, sample_zipf_index


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, "a", "b") == derive_seed(1, "a", "b")

    def test_labels_change_seed(self):
        assert derive_seed(1, "a") != derive_seed(1, "b")

    def test_base_seed_changes_seed(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_label_order_matters(self):
        assert derive_seed(1, "a", "b") != derive_seed(1, "b", "a")


class TestMakeRng:
    def test_same_inputs_same_stream(self):
        a = make_rng(5, "trace")
        b = make_rng(5, "trace")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_different_labels_different_streams(self):
        a = make_rng(5, "trace")
        b = make_rng(5, "grouping")
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]


class TestZipfSampling:
    def test_in_range(self):
        rng = random.Random(2)
        for _ in range(100):
            assert 0 <= sample_zipf_index(rng, 50) < 50

    def test_skewed_toward_low_indices(self):
        rng = random.Random(3)
        samples = [sample_zipf_index(rng, 100, 1.5) for _ in range(5000)]
        low = sum(1 for s in samples if s < 20)
        # A uniform sampler would put ~20 % of the mass below index 20; the
        # skewed sampler concentrates noticeably more there (~34 % analytically).
        assert low > len(samples) * 0.3

    def test_rejects_empty_population(self):
        with pytest.raises(ValueError):
            sample_zipf_index(random.Random(0), 0)

    def test_rejects_bad_exponent(self):
        with pytest.raises(ValueError):
            sample_zipf_index(random.Random(0), 10, 0.0)

