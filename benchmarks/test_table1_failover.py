"""Table I — inferring failures in the control plane from keep-alive losses.

Builds a Local Control Group, injects each failure class, runs a keep-alive
probe round and checks that the inferred failure matches the corresponding
row of Table I.  The benchmark times a full detection round over a
group-sized wheel.
"""

from __future__ import annotations

import pytest

from repro.analysis.reports import format_table
from repro.common.addresses import MacAddress
from repro.controlplane.group import LocalControlGroup
from repro.dataplane.edge_switch import LazyCtrlEdgeSwitch
from repro.failover.detection import FailureDetector, FailureKind, ProbeObservation, infer_failure


def _make_group(size: int) -> LocalControlGroup:
    switches = [LazyCtrlEdgeSwitch(i, management_mac=MacAddress.from_switch_index(i)) for i in range(size)]
    return LocalControlGroup(0, switches)


TABLE_ONE_ROWS = [
    ("Control link", ProbeObservation(0, lost_from_controller=True), FailureKind.CONTROL_LINK),
    ("Peer link (Up)", ProbeObservation(0, lost_to_predecessor=True), FailureKind.PEER_LINK_UP),
    ("Peer link (Down)", ProbeObservation(0, lost_to_successor=True), FailureKind.PEER_LINK_DOWN),
    (
        "Switch (Sn)",
        ProbeObservation(0, lost_to_predecessor=True, lost_to_successor=True, lost_from_controller=True),
        FailureKind.SWITCH,
    ),
]


@pytest.mark.benchmark(group="table1")
def test_table1_failure_inference(benchmark):
    rows = []
    for label, observation, expected in TABLE_ONE_ROWS:
        inferred = infer_failure(observation)
        rows.append([
            label,
            "X" if observation.lost_to_predecessor else "",
            "X" if observation.lost_to_successor else "",
            "X" if observation.lost_from_controller else "",
            inferred.value,
        ])
        assert inferred == expected
    print()
    print(format_table(
        ["Failure", "Sn->Sn-1 lost", "Sn->Sn+1 lost", "Ctrl->Sn lost", "Inferred"],
        rows,
        title="Table I — failure inference from keep-alive loss patterns",
    ))

    # Time a full probe-and-detect round on a paper-sized group (46 switches)
    # with one failed switch.
    group = _make_group(46)
    victim = group.member_ids()[20]
    group.member(victim).failed = True
    detector = FailureDetector(group)

    results = benchmark(detector.detect)
    assert len(results) == 1
    assert results[0].switch_id == victim
    assert results[0].failure == FailureKind.SWITCH
