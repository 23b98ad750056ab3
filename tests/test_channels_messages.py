"""Unit tests for control-plane channels and messages."""

import pytest

from repro.common.addresses import MacAddress
from repro.common.errors import ChannelError
from repro.controlplane.channels import ChannelRegistry, ChannelType, ControlChannel
from repro.controlplane.messages import (
    GroupConfigMessage,
    GroupStateReportMessage,
    LfibUpdateMessage,
    MessageType,
)
from repro.datastructures.fib import LocalFib


def mac(i: int) -> MacAddress:
    return MacAddress.from_host_index(i)


def lfib_update(switch_id: int, destination: str) -> LfibUpdateMessage:
    return LfibUpdateMessage.create(switch_id, ((mac(1), 1, 0),), destination, timestamp=0.0)


class TestMessages:
    def test_lfib_update_construction(self):
        message = LfibUpdateMessage.create(3, (), "switch:9", timestamp=5.0)
        assert message.message_type == MessageType.LFIB_UPDATE
        assert message.source == "switch:3"
        assert message.destination == "switch:9"
        assert message.timestamp == 5.0

    def test_message_ids_unique(self):
        a = lfib_update(1, "switch:2")
        b = lfib_update(1, "switch:2")
        assert a.message_id != b.message_id

    def test_lfib_update_carries_the_wire_tuple_as_given(self):
        lfib = LocalFib()
        lfib.learn(mac(2), 1, 5)
        lfib.learn(mac(1), 2, 5)
        message = LfibUpdateMessage.create(3, lfib.wire_entries(), "switch:9", timestamp=0.0)
        assert message.entries is lfib.wire_entries()
        assert message.entries == ((mac(1), 2, 5), (mac(2), 1, 5))

    def test_group_state_report_aggregates(self):
        lfibs = {
            2: ((mac(2), 1, 0),),
            1: ((mac(1), 1, 0),),
        }
        report = GroupStateReportMessage.create(7, 1, lfibs, timestamp=0.0)
        assert report.group_id == 7
        assert report.switch_lfibs == ((1, lfibs[1]), (2, lfibs[2]))

    def test_group_config_construction(self):
        message = GroupConfigMessage.create(
            group_id=2,
            target_switch_id=5,
            member_switch_ids=(5, 6, 7),
            designated_switch_id=6,
            backup_switch_ids=(7,),
            ring_predecessor=7,
            ring_successor=6,
            timestamp=0.0,
        )
        assert message.destination == "switch:5"
        assert message.designated_switch_id == 6


class TestControlChannel:
    def test_deliver_counts(self):
        channel = ControlChannel(ChannelType.CONTROL_LINK, "controller", "switch:1")
        message = lfib_update(1, "controller")
        assert channel.deliver(message, size_bytes=100)
        assert channel.stats.delivered == 1
        assert channel.stats.bytes_delivered == 100

    def test_down_channel_drops(self):
        channel = ControlChannel(ChannelType.CONTROL_LINK, "controller", "switch:1")
        channel.fail()
        message = lfib_update(1, "controller")
        assert not channel.deliver(message)
        assert channel.stats.dropped == 1
        channel.recover()
        assert channel.deliver(message)

    def test_misrouted_message_rejected(self):
        channel = ControlChannel(ChannelType.CONTROL_LINK, "controller", "switch:1")
        message = lfib_update(2, "controller")
        with pytest.raises(ChannelError):
            channel.deliver(message)

    def test_log_kept_when_requested(self):
        channel = ControlChannel(ChannelType.CONTROL_LINK, "controller", "switch:1", keep_log=True)
        message = lfib_update(1, "controller")
        channel.deliver(message)
        assert channel.log() == [message]

    def test_connects(self):
        channel = ControlChannel(ChannelType.PEER_LINK, "switch:1", "switch:2")
        assert channel.connects("switch:1") and not channel.connects("switch:3")


class TestChannelRegistry:
    def test_get_or_create_idempotent(self):
        registry = ChannelRegistry()
        a = registry.get_or_create(ChannelType.PEER_LINK, "switch:1", "switch:2")
        b = registry.get_or_create(ChannelType.PEER_LINK, "switch:2", "switch:1")
        assert a is b

    def test_lookup_missing(self):
        registry = ChannelRegistry()
        assert registry.lookup(ChannelType.PEER_LINK, "a", "b") is None

    def test_channels_filtered_by_type(self):
        registry = ChannelRegistry()
        registry.get_or_create(ChannelType.PEER_LINK, "switch:1", "switch:2")
        registry.get_or_create(ChannelType.STATE_LINK, "controller", "switch:1")
        assert len(registry.channels(ChannelType.PEER_LINK)) == 1
        assert len(registry.channels()) == 2

    def test_total_stats(self):
        registry = ChannelRegistry()
        channel = registry.get_or_create(ChannelType.STATE_LINK, "controller", "switch:1")
        message = lfib_update(1, "controller")
        channel.deliver(message, size_bytes=10)
        stats = registry.total_stats(ChannelType.STATE_LINK)
        assert stats.delivered == 1 and stats.bytes_delivered == 10
        assert stats.total == 1
