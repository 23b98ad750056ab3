"""Unit tests for the SGI grouping algorithm (IniGroup + IncUpdate)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.config import GroupingConfig
from repro.common.errors import InfeasibleGroupingError
from repro.datastructures.intensity import IntensityMatrix
from repro.partitioning import bisection
from repro.partitioning.stoer_wagner import stoer_wagner_min_cut
from repro.partitioning.sgi import (
    Grouping,
    SgiGrouper,
    _crossing_share,
    grouping_quality,
)


class TestGroupingValue:
    def test_counts_and_sizes(self):
        grouping = Grouping(groups={0: frozenset({1, 2, 3}), 1: frozenset({4})})
        assert grouping.group_count() == 2
        assert grouping.switch_count() == 4
        assert grouping.largest_group_size() == 3
        assert grouping.sizes() == [3, 1]

    def test_as_sets(self):
        grouping = Grouping(groups={0: frozenset({1})})
        assert grouping.as_sets() == [{1}]


class TestIniGroup:
    def test_estimate_group_count(self):
        grouper = SgiGrouper(GroupingConfig(group_size_limit=50))
        assert grouper.estimate_group_count(272) == 6
        assert grouper.estimate_group_count(0) == 0
        assert grouper.estimate_group_count(10) == 1

    def test_initial_grouping_respects_size_limit(self, clustered_matrix):
        grouper = SgiGrouper(GroupingConfig(group_size_limit=12, random_seed=1))
        grouping = grouper.initial_grouping(clustered_matrix)
        assert grouping.largest_group_size() <= 12
        assert grouping.switch_count() == 60

    def test_initial_grouping_exploits_locality(self, clustered_matrix):
        # With slack (limit 20 for clusters of 10) the clusters are preserved
        # and almost no traffic crosses groups.
        grouper = SgiGrouper(GroupingConfig(group_size_limit=20, random_seed=1))
        grouping = grouper.initial_grouping(clustered_matrix)
        assert grouping_quality(clustered_matrix, grouping) < 0.10

    def test_explicit_group_count(self, clustered_matrix):
        grouper = SgiGrouper(GroupingConfig(group_size_limit=30, random_seed=1))
        grouping = grouper.initial_grouping(clustered_matrix, group_count=6)
        assert grouping.group_count() <= 6
        assert grouping.largest_group_size() <= 30

    def test_infeasible_group_count_rejected(self, clustered_matrix):
        grouper = SgiGrouper(GroupingConfig(group_size_limit=5, random_seed=1))
        with pytest.raises(InfeasibleGroupingError):
            grouper.initial_grouping(clustered_matrix, group_count=2)

    def test_empty_matrix(self):
        grouper = SgiGrouper()
        assert grouper.initial_grouping(IntensityMatrix()).group_count() == 0

    def test_statistics_updated(self, clustered_matrix):
        grouper = SgiGrouper(GroupingConfig(group_size_limit=12))
        grouper.initial_grouping(clustered_matrix)
        assert grouper.statistics.initial_groupings == 1
        assert grouper.statistics.last_initial_seconds >= 0.0

    def test_isolated_switches_still_grouped(self):
        matrix = IntensityMatrix([0, 1, 2, 3, 4])
        matrix.record(0, 1, 5.0)
        grouper = SgiGrouper(GroupingConfig(group_size_limit=3))
        grouping = grouper.initial_grouping(matrix)
        assert grouping.switch_count() == 5


class TestIncUpdate:
    def _shifted_matrices(self):
        """History favours grouping {0..9}/{10..19}; recent traffic shifts."""
        history = IntensityMatrix()
        for i in range(10):
            for j in range(i + 1, 10):
                history.record(i, j, 5.0)
                history.record(10 + i, 10 + j, 5.0)
        recent = IntensityMatrix()
        # Switches 5..9 now talk mostly to 10..14: the old grouping is stale.
        for i in range(5, 10):
            for j in range(10, 15):
                recent.record(i, j, 20.0)
        return history, recent

    def test_incremental_update_reduces_inter_group_traffic(self):
        history, recent = self._shifted_matrices()
        grouper = SgiGrouper(GroupingConfig(group_size_limit=10, random_seed=2))
        stale = Grouping(groups={0: frozenset(range(10)), 1: frozenset(range(10, 20))})
        report = grouper.incremental_update(stale, history, recent)
        assert report.inter_group_after <= report.inter_group_before + 1e-9
        assert report.merge_split_count >= 1

    def test_incremental_update_respects_size_limit(self):
        history, recent = self._shifted_matrices()
        grouper = SgiGrouper(GroupingConfig(group_size_limit=10, random_seed=2))
        stale = Grouping(groups={0: frozenset(range(10)), 1: frozenset(range(10, 20))})
        report = grouper.incremental_update(stale, history, recent)
        assert report.grouping.largest_group_size() <= 10
        assert report.grouping.switch_count() == 20

    def test_incremental_update_noop_when_grouping_is_good(self, clustered_matrix):
        grouper = SgiGrouper(GroupingConfig(group_size_limit=20, random_seed=1))
        grouping = grouper.initial_grouping(clustered_matrix)
        quiet = IntensityMatrix(clustered_matrix.switches())
        report = grouper.incremental_update(grouping, clustered_matrix, quiet,
                                            stop_when_intensity_below=1.0)
        # Stop threshold of 1.0 means "already good enough": nothing happens.
        assert report.merge_split_count == 0
        assert report.grouping.groups == grouping.groups

    def test_incremental_update_statistics(self):
        history, recent = self._shifted_matrices()
        grouper = SgiGrouper(GroupingConfig(group_size_limit=10, random_seed=2))
        stale = Grouping(groups={0: frozenset(range(10)), 1: frozenset(range(10, 20))})
        grouper.incremental_update(stale, history, recent)
        assert grouper.statistics.incremental_updates == 1

    def test_incremental_is_faster_than_full_regroup(self, clustered_matrix):
        grouper = SgiGrouper(GroupingConfig(group_size_limit=12, random_seed=3))
        grouping = grouper.initial_grouping(clustered_matrix)
        recent = IntensityMatrix(clustered_matrix.switches())
        recent.record(0, 15, 50.0)
        grouper.incremental_update(grouping, clustered_matrix, recent, max_merge_splits=1)
        # The paper claims IncUpdate is more than an order of magnitude faster
        # than IniGroup; on these small inputs we just assert it is not slower.
        assert grouper.statistics.last_incremental_seconds <= grouper.statistics.last_initial_seconds * 5 + 0.05


def _pairwise_intensity(matrix, group_a, group_b):
    """The definition: one scan of the matrix per pair of groups (the form
    ``_group_pair_intensities`` replaced, kept here as its reference)."""
    total = 0.0
    for a, b, weight in matrix.pairs():
        if (a in group_a and b in group_b) or (a in group_b and b in group_a):
            total += weight
    return total


def _pinned_case(seed, switches, groups, stray=False, density=(0.35, 0.25)):
    """A random history / recent pair with non-dyadic weights and a shuffled grouping.

    ``density`` is the chance that a switch pair carries history and recent
    traffic respectively.
    """
    rng = random.Random(seed)
    history = IntensityMatrix(range(switches))
    recent = IntensityMatrix()
    history_p, recent_p = density
    for i in range(switches):
        for j in range(i + 1, switches):
            if rng.random() < history_p:
                history.record(i, j, rng.uniform(0.1, 9.0))
            if rng.random() < recent_p:
                recent.record(i, j, rng.uniform(0.1, 30.0))
    members = list(range(switches))
    rng.shuffle(members)
    if stray:
        # Switch 999 is grouped but unknown to both matrices; members[0] is
        # known to them and ungrouped.
        members = [999] + members[1:]
    return history, recent, Grouping({g: frozenset(members[g::groups]) for g in range(groups)})


SPARSE_CASE = (405, 48, 6, False, (0.05, 0.05))


class TestIncUpdateOnOneGraph:
    """One graph and one scoring pass per update leave IncUpdate's floats alone."""

    @given(
        weights=st.lists(
            st.tuples(st.integers(0, 11), st.integers(0, 11), st.floats(0.01, 50.0)),
            min_size=1,
            max_size=60,
        ),
        group_of=st.dictionaries(st.integers(0, 11), st.integers(0, 3)),
    )
    @settings(max_examples=120, deadline=None)
    def test_one_pass_scores_equal_a_scan_per_pair_bit_for_bit(self, weights, group_of):
        """Switches missing from ``group_of`` are ungrouped: in no pair's total."""
        matrix = IntensityMatrix()
        for a, b, weight in weights:
            matrix.record(a, b, weight)
        members = {}
        for switch_id, group_id in group_of.items():
            members.setdefault(group_id, set()).add(switch_id)
        scores = SgiGrouper._group_pair_intensities(matrix, group_of)
        assert all(low < high for low, high in scores)
        for group_a in members:
            for group_b in members:
                if group_a < group_b:
                    expected = _pairwise_intensity(matrix, members[group_a], members[group_b])
                    assert scores.get((group_a, group_b), 0.0) == expected

    @given(
        weights=st.lists(
            st.tuples(st.integers(0, 11), st.integers(0, 11), st.floats(0.01, 50.0)),
            max_size=60,
        ),
        group_of=st.dictionaries(st.integers(0, 11), st.integers(0, 3)),
    )
    @settings(max_examples=120, deadline=None)
    def test_crossing_share_is_the_matrix_fold_bit_for_bit(self, weights, group_of):
        """Switches missing from ``group_of`` are groups of their own."""
        matrix = IntensityMatrix()
        for a, b, weight in weights:
            matrix.record(a, b, weight)
        groups = {}
        for switch_id, group_id in group_of.items():
            groups.setdefault(group_id, set()).add(switch_id)
        share = _crossing_share(list(matrix.pairs()), matrix.total_intensity, groups)
        assert share == matrix.normalized_inter_group_intensity(list(groups.values()))

    @pytest.mark.parametrize(
        "case, limit, groups, merge_splits, before, after",
        [
            (
                (101, 24, 4), 6,
                {0: [2, 10, 11, 18, 21, 22], 3: [0, 1, 4, 5, 9, 15],
                 1: [6, 8, 14, 17, 19, 20], 2: [3, 7, 12, 13, 16, 23]},
                4, 0.7489749279750778, 0.6158485830485586,
            ),
            (
                (202, 40, 5), 9,
                {0: [7, 11, 15, 26, 27, 29, 31, 36, 37], 1: [4, 6, 9, 19, 24, 30],
                 3: [5, 18, 20, 22, 25, 32, 34, 35, 39], 2: [1, 3, 8, 10, 16, 21, 23, 33, 38],
                 4: [0, 2, 12, 13, 14, 17, 28]},
                5, 0.8024870607209542, 0.6537030033874017,
            ),
            (
                (303, 30, 4, True), 8,
                {1: [2, 6, 7, 8, 11, 12, 13, 22], 3: [0, 1, 4, 10, 14, 26, 27, 28],
                 0: [5, 9, 18, 20, 23, 24, 25, 999], 2: [3, 15, 16, 19, 21, 29]},
                4, 0.8566658605616703, 0.6494877418152365,
            ),
            (
                # Sparse: most merged groups are disconnected, so most of
                # the min-cuts weigh zero (see the test below).
                SPARSE_CASE, 8,
                {2: [9, 12, 23, 27, 32, 37, 42, 45], 3: [4, 5, 7, 11, 16, 26, 38, 46],
                 1: [3, 8, 10, 22, 24, 29, 31, 47], 0: [6, 14, 17, 21, 30, 33, 39, 41],
                 4: [2, 13, 18, 25, 34, 36, 43, 44], 5: [0, 1, 15, 19, 20, 28, 35, 40]},
                6, 0.8707439747783428, 0.5209593933496762,
            ),
        ],
    )
    def test_report_is_the_one_a_graph_per_merge_split_gave(
        self, case, limit, groups, merge_splits, before, after
    ):
        """Pinned on the implementation that rebuilt the graph, rescanned the
        matrix per group pair and recomputed each accepted intensity."""
        history, recent, grouping = _pinned_case(*case)
        grouper = SgiGrouper(GroupingConfig(group_size_limit=limit, random_seed=5))
        report = grouper.incremental_update(grouping, history, recent)
        assert list(report.grouping.groups) == list(groups)
        assert {gid: sorted(members) for gid, members in report.grouping.groups.items()} == groups
        assert report.merge_split_count == merge_splits
        assert (report.inter_group_before, report.inter_group_after) == (before, after)

    def test_sparse_case_mostly_cuts_at_zero(self, monkeypatch):
        """The sparse pin reaches zero-weight min-cuts in most of its splits
        and rejects some of them, so it covers the min-cut's early return and
        rounds that leave the grouping unchanged."""
        cuts = []

        def recording_min_cut(graph):
            cuts.append(stoer_wagner_min_cut(graph))
            return cuts[-1]

        monkeypatch.setattr(bisection, "stoer_wagner_min_cut", recording_min_cut)
        history, recent, grouping = _pinned_case(*SPARSE_CASE)
        grouper = SgiGrouper(GroupingConfig(group_size_limit=8, random_seed=5))
        report = grouper.incremental_update(grouping, history, recent)
        zero_cuts = sum(cut.weight == 0.0 for cut in cuts)
        assert 2 * zero_cuts >= len(cuts) > 0
        assert zero_cuts < len(cuts)
        assert report.merge_split_count < len(cuts)


class TestQualityMetrics:
    def test_grouping_quality_zero_for_single_group(self, clustered_matrix):
        switches = frozenset(clustered_matrix.switches())
        grouping = Grouping(groups={0: switches})
        assert grouping_quality(clustered_matrix, grouping) == 0.0
