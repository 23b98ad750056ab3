"""Unit tests for the group state report, the one control-plane message record."""

from repro.common.addresses import MacAddress
from repro.controlplane.messages import GroupStateReportMessage


def mac(i: int) -> MacAddress:
    return MacAddress.from_host_index(i)


class TestMessages:
    def test_group_state_report_aggregates(self):
        lfibs = {
            2: ((mac(2), 1, 0),),
            1: ((mac(1), 1, 0),),
        }
        report = GroupStateReportMessage.create(lfibs)
        assert report.switch_lfibs == ((1, lfibs[1]), (2, lfibs[2]))
