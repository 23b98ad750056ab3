"""Traffic-intensity matrix between edge switches.

The switch-grouping problem (paper §III-C.1) is defined over an intensity
matrix ``W`` whose entry ``w[i][j]`` is the normalized traffic intensity
(new flows per second) between edge switches ``i`` and ``j``.  The matrix is
symmetric for grouping purposes — what matters is the affinity of a pair —
so this class accumulates counts symmetrically, decays history and computes
the inter-group intensity ``W_inter`` of a candidate grouping, raw or as a
fraction of the total.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, Iterator, Mapping, Sequence, Tuple


class IntensityMatrix:
    """Sparse symmetric matrix of switch-to-switch traffic intensity."""

    __slots__ = ("_counts", "_switches", "_total")

    def __init__(self, switches: Iterable[int] | None = None) -> None:
        self._counts: Dict[Tuple[int, int], float] = defaultdict(float)
        self._switches: set[int] = set(switches or ())
        self._total = 0.0

    @staticmethod
    def _ordered(a: int, b: int) -> Tuple[int, int]:
        return (a, b) if a <= b else (b, a)

    @property
    def total_intensity(self) -> float:
        """Sum of all pairwise intensities (each unordered pair counted once)."""
        return self._total

    def switches(self) -> list[int]:
        """All switch identifiers known to the matrix."""
        return sorted(self._switches)

    def add_switch(self, switch_id: int) -> None:
        """Register a switch even if it has no traffic yet (isolated vertex)."""
        self._switches.add(switch_id)

    def record(self, src_switch: int, dst_switch: int, amount: float = 1.0) -> None:
        """Accumulate ``amount`` of intensity between two switches.

        Traffic between a switch and itself (both hosts on the same edge
        switch) never reaches the group/controller level, so it is tracked in
        the switch set but not in the pairwise counts.
        """
        self._switches.add(src_switch)
        self._switches.add(dst_switch)
        if src_switch == dst_switch:
            return
        self._counts[self._ordered(src_switch, dst_switch)] += amount
        self._total += amount

    def record_many(self, src_switch: int, dst_switch: int, count: int, amount: float = 1.0) -> None:
        """Accumulate ``count`` separate :meth:`record` calls' worth of intensity.

        Bit-identical to calling :meth:`record` ``count`` times in a row: the
        pair's intensity and the total are built by the same sequence of
        float additions, and the pair key is inserted into the underlying
        dict at the same point (callers replay pairs in first-observation
        order for exactly this reason — downstream folds iterate insertion
        order).
        """
        if count <= 0:
            return
        self._switches.add(src_switch)
        self._switches.add(dst_switch)
        if src_switch == dst_switch:
            return
        key = self._ordered(src_switch, dst_switch)
        value = self._counts[key]
        total = self._total
        for _ in range(count):
            value += amount
            total += amount
        self._counts[key] = value
        self._total = total

    def pairs(self) -> Iterator[Tuple[int, int, float]]:
        """Iterate over ``(switch_a, switch_b, intensity)`` for all non-zero pairs."""
        for (a, b), weight in self._counts.items():
            if weight > 0:
                yield a, b, weight

    def decay(self, factor: float) -> None:
        """Multiply every intensity by ``factor`` (exponential history decay).

        The grouping manager decays old history before folding in the most
        recent measurement window so that regrouping reacts to traffic
        changes without forgetting persistent affinity.
        """
        if not 0.0 <= factor <= 1.0:
            raise ValueError("decay factor must be in [0, 1]")
        if factor == 1.0:
            return
        self._total = 0.0
        for key in list(self._counts):
            self._counts[key] *= factor
            if self._counts[key] <= 1e-12:
                del self._counts[key]
            else:
                self._total += self._counts[key]

    def merge(self, other: "IntensityMatrix") -> None:
        """Fold another matrix (e.g. a fresh measurement window) into this one."""
        for a, b, weight in other.pairs():
            self.record(a, b, weight)
        self._switches.update(other._switches)

    def inter_group_intensity(self, grouping: Mapping[int, int] | Sequence[set[int]]) -> float:
        """Compute ``W_inter`` — total intensity crossing group boundaries.

        ``grouping`` is either a mapping from switch id to group id or a
        sequence of disjoint switch-id sets.  Switches absent from the
        grouping are treated as singleton groups (their traffic to anyone
        else counts as inter-group).
        """
        if isinstance(grouping, Mapping):
            assignment = dict(grouping)
        else:
            assignment = {}
            for group_id, members in enumerate(grouping):
                for switch_id in members:
                    assignment[switch_id] = group_id
        return crossing_intensity(self.pairs(), assignment)

    def normalized_inter_group_intensity(self, grouping: Mapping[int, int] | Sequence[set[int]]) -> float:
        """``W_inter`` as a fraction of total intensity (the paper's Fig. 6(a) metric)."""
        if self._total <= 0:
            return 0.0
        return self.inter_group_intensity(grouping) / self._total

    def copy(self) -> "IntensityMatrix":
        """Return a deep copy of the matrix."""
        duplicate = IntensityMatrix(self._switches)
        duplicate._counts = defaultdict(float, self._counts)
        duplicate._total = self._total
        return duplicate

    def __len__(self) -> int:
        return len(self._switches)


def crossing_intensity(pairs: Iterable[Tuple[int, int, float]], assignment: Mapping[int, object]) -> float:
    """Total weight of the ``(a, b, weight)`` pairs whose switches ``assignment``
    puts in different groups, folded in ``pairs`` order.

    A switch missing from ``assignment`` is a group of its own.
    """
    crossing = 0.0
    for a, b, weight in pairs:
        if assignment.get(a, ("solo", a)) != assignment.get(b, ("solo", b)):
            crossing += weight
    return crossing
