"""Unit tests for the traffic-intensity matrix."""

import pytest

from repro.datastructures.intensity import IntensityMatrix


def weights(matrix):
    return {(a, b): weight for a, b, weight in matrix.pairs()}


class TestRecording:
    def test_symmetric(self):
        matrix = IntensityMatrix()
        matrix.record(2, 1, 3.0)
        assert weights(matrix) == {(1, 2): 3.0}

    def test_self_traffic_ignored_in_pairs(self):
        matrix = IntensityMatrix()
        matrix.record(1, 1, 5.0)
        assert matrix.total_intensity == 0.0
        assert 1 in matrix.switches()

    def test_accumulates(self):
        matrix = IntensityMatrix()
        matrix.record(1, 2, 1.0)
        matrix.record(2, 1, 2.0)
        assert weights(matrix) == {(1, 2): 3.0}

    def test_add_switch_registers_isolated_vertex(self):
        matrix = IntensityMatrix()
        matrix.add_switch(9)
        assert 9 in matrix.switches()

    def test_pairs_iteration(self):
        matrix = IntensityMatrix()
        matrix.record(1, 2, 1.0)
        matrix.record(3, 4, 2.0)
        assert len(list(matrix.pairs())) == 2

    def test_len_counts_switches(self):
        matrix = IntensityMatrix([1, 2, 3])
        assert len(matrix) == 3


class TestDecayMerge:
    def test_decay_scales_everything(self):
        matrix = IntensityMatrix()
        matrix.record(1, 2, 10.0)
        matrix.decay(0.5)
        assert weights(matrix) == {(1, 2): pytest.approx(5.0)}
        assert matrix.total_intensity == pytest.approx(5.0)

    def test_decay_one_is_noop(self):
        matrix = IntensityMatrix()
        matrix.record(1, 2, 10.0)
        matrix.decay(1.0)
        assert weights(matrix) == {(1, 2): 10.0}

    def test_decay_zero_clears(self):
        matrix = IntensityMatrix()
        matrix.record(1, 2, 10.0)
        matrix.decay(0.0)
        assert matrix.total_intensity == 0.0

    def test_decay_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            IntensityMatrix().decay(1.5)

    def test_merge_adds_counts_and_switches(self):
        a = IntensityMatrix()
        a.record(1, 2, 1.0)
        b = IntensityMatrix([9])
        b.record(1, 2, 2.0)
        b.record(3, 4, 5.0)
        a.merge(b)
        assert weights(a) == {(1, 2): 3.0, (3, 4): 5.0}
        assert 9 in a.switches()

    def test_copy_is_independent(self):
        a = IntensityMatrix()
        a.record(1, 2, 1.0)
        b = a.copy()
        b.record(1, 2, 5.0)
        assert weights(a) == {(1, 2): 1.0} and weights(b) == {(1, 2): 6.0}


class TestInterGroupIntensity:
    def test_single_group_has_no_crossing(self):
        matrix = IntensityMatrix()
        matrix.record(1, 2, 4.0)
        assert matrix.inter_group_intensity([{1, 2}]) == 0.0

    def test_split_pair_counts_as_crossing(self):
        matrix = IntensityMatrix()
        matrix.record(1, 2, 4.0)
        assert matrix.inter_group_intensity([{1}, {2}]) == 4.0

    def test_mapping_form_equivalent_to_sets(self):
        matrix = IntensityMatrix()
        matrix.record(1, 2, 4.0)
        matrix.record(2, 3, 1.0)
        as_sets = matrix.inter_group_intensity([{1, 2}, {3}])
        as_map = matrix.inter_group_intensity({1: 0, 2: 0, 3: 1})
        assert as_sets == as_map == 1.0

    def test_unassigned_switch_treated_as_singleton(self):
        matrix = IntensityMatrix()
        matrix.record(1, 2, 4.0)
        assert matrix.inter_group_intensity([{1}]) == 4.0

    def test_normalized_inter_group(self):
        matrix = IntensityMatrix()
        matrix.record(1, 2, 3.0)
        matrix.record(3, 4, 1.0)
        assert matrix.normalized_inter_group_intensity([{1, 2}, {3}, {4}]) == pytest.approx(0.25)

    def test_normalized_inter_group_empty_matrix(self):
        assert IntensityMatrix().normalized_inter_group_intensity([{1}]) == 0.0
