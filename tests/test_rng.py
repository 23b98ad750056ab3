"""Unit tests for the deterministic RNG helpers."""

from repro.common.rng import derive_seed, make_rng


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

