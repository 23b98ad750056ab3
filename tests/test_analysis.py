"""Unit tests for centrality analysis and report formatting."""

import pytest

from repro.analysis.centrality import centrality_of_groups, partition_intensity, trace_centrality
from repro.common.formatting import format_percent, format_table, two_hour_bucket_labels
from repro.datastructures.intensity import IntensityMatrix


class TestCentrality:
    def test_centrality_of_perfectly_local_groups(self):
        matrix = IntensityMatrix()
        matrix.record(0, 1, 10.0)
        matrix.record(2, 3, 10.0)
        report = centrality_of_groups(matrix, [{0, 1}, {2, 3}])
        assert report.average == pytest.approx(1.0)
        assert report.weighted_average == pytest.approx(1.0)
        assert report.inter_group_fraction == 0.0

    def test_centrality_of_fully_crossing_groups(self):
        matrix = IntensityMatrix()
        matrix.record(0, 1, 10.0)
        report = centrality_of_groups(matrix, [{0}, {1}])
        assert report.average == 0.0
        assert report.inter_group_fraction == pytest.approx(1.0)

    def test_weighted_average_ignores_idle_groups(self):
        matrix = IntensityMatrix()
        matrix.record(0, 1, 100.0)   # busy, perfectly local group
        matrix.record(2, 4, 1.0)     # tiny cross-group trickle
        report = centrality_of_groups(matrix, [{0, 1}, {2, 3}, {4, 5}])
        assert report.weighted_average > 0.9

    def test_partition_intensity_group_count(self, clustered_matrix):
        groups = partition_intensity(clustered_matrix, 6, seed=1)
        assert len(groups) <= 6
        assert sum(len(g) for g in groups) == 60

    def test_partition_intensity_empty(self):
        assert partition_intensity(IntensityMatrix(), 5) == []

    def test_trace_centrality_on_local_trace(self, small_trace):
        report = trace_centrality(small_trace, group_count=4)
        assert 0.0 <= report.weighted_average <= 1.0
        assert report.group_count <= 4

    def test_centrality_matches_planted_clusters(self, clustered_matrix):
        groups = [set(range(start, start + 10)) for start in range(0, 60, 10)]
        report = centrality_of_groups(clustered_matrix, groups)
        assert report.weighted_average > 0.85


class TestReports:
    def test_format_table_alignment(self):
        text = format_table(["name", "value"], [["a", 1], ["longer-name", 22]], title="Demo")
        lines = text.splitlines()
        assert lines[0] == "Demo"
        assert "name" in lines[2] and "value" in lines[2]
        assert len(lines) == 6

    def test_format_table_without_title(self):
        text = format_table(["x"], [[1]])
        assert text.splitlines()[0].startswith("x")

    def test_format_percent(self):
        assert format_percent(0.817) == "81.7%"
        assert format_percent(0.5, precision=0) == "50%"

    def test_two_hour_bucket_labels(self):
        labels = two_hour_bucket_labels(2.0, 12)
        assert labels[0] == "0-2" and labels[-1] == "22-24"
        assert len(labels) == 12
