"""Unit tests for the MAC address value object."""

import pytest

from repro.common.addresses import MacAddress
from repro.common.errors import AddressError


class TestMacAddress:
    def test_canonical_notation(self):
        assert str(MacAddress(0x02_00_00_00_12_34)) == "02:00:00:00:12:34"

    def test_value_out_of_range_rejected(self):
        with pytest.raises(AddressError):
            MacAddress((1 << 48))

    def test_negative_value_rejected(self):
        with pytest.raises(AddressError):
            MacAddress(-1)

    def test_host_range_allocation(self):
        assert MacAddress.from_host_index(5).octets() == (0x02, 0, 0, 0, 0, 5)

    def test_switch_range_allocation(self):
        assert MacAddress.from_switch_index(5).octets() == (0x06, 0, 0, 0, 0, 5)

    def test_host_and_switch_ranges_disjoint(self):
        assert MacAddress.from_host_index(42) != MacAddress.from_switch_index(42)

    def test_host_index_out_of_range(self):
        with pytest.raises(AddressError):
            MacAddress.from_host_index(1 << 33)

    @pytest.mark.parametrize("index", [-1, 1 << 32])
    def test_switch_index_out_of_range(self, index):
        with pytest.raises(AddressError, match="switch index out of range"):
            MacAddress.from_switch_index(index)

    def test_octets_length(self):
        assert len(MacAddress.from_host_index(1).octets()) == 6

    def test_to_bytes_length_and_round_trip(self):
        mac = MacAddress.from_host_index(99)
        assert len(mac.to_bytes()) == 6
        assert int.from_bytes(mac.to_bytes(), "big") == mac.value

    def test_ordering_matches_integer_value(self):
        assert MacAddress.from_host_index(1) < MacAddress.from_host_index(2)

    def test_hashable_and_usable_as_dict_key(self):
        table = {MacAddress.from_host_index(i): i for i in range(10)}
        assert table[MacAddress.from_host_index(3)] == 3

    def test_repr_contains_canonical_form(self):
        assert "02:00:00:00:00:07" in repr(MacAddress.from_host_index(7))
