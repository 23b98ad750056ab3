"""Unit tests for the flow identity the data plane forwards on."""

import pickle

import pytest
from hypothesis import given, strategies as st

from repro.common.addresses import MacAddress
from repro.common.packets import FlowKey


@pytest.fixture()
def macs():
    return MacAddress.from_host_index(1), MacAddress.from_host_index(2)


class TestFlowKey:
    def test_flow_key_hashable(self, macs):
        src, dst = macs
        keys = {FlowKey(src, dst, 0), FlowKey(src, dst, 0), FlowKey(dst, src, 0)}
        assert len(keys) == 2

    def test_tenant_distinguishes_keys(self, macs):
        src, dst = macs
        assert FlowKey(src, dst, 0) != FlowKey(src, dst, 1)

    @given(
        a=st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 2)),
        b=st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 2)),
    )
    def test_equal_keys_hash_alike_and_order_by_their_fields(self, a, b):
        """Equal keys hash alike, and keys sort as their (source, destination,
        tenant) triples."""

        def make(fields):
            src, dst, tenant = fields
            return FlowKey(MacAddress.from_host_index(src), MacAddress.from_host_index(dst), tenant)

        assert (make(a) == make(b)) == (a == b)
        if a == b:
            assert hash(make(a)) == hash(make(b))
        assert (make(a) < make(b)) == (a < b)

    def test_keys_are_immutable(self, macs):
        src, dst = macs
        key = FlowKey(src, dst, 0)
        with pytest.raises(AttributeError):
            key.tenant_id = 1

    @given(
        src=st.integers(0, (1 << 48) - 1),
        dst=st.integers(0, (1 << 48) - 1),
        tenant=st.integers(0, 1 << 20),
    )
    def test_hash_is_the_integer_triple_hash(self, src, dst, tenant):
        """Every flow-table dict iterates in the order the seed-pinned
        counters were recorded with: a key hashes as its three integers."""
        a, b = MacAddress(src), MacAddress(dst)
        assert hash(FlowKey(a, b, tenant)) == hash((a.value, b.value, tenant))

    def test_pickle_round_trip(self, macs):
        src, dst = macs
        key = FlowKey(src, dst, 3)
        copy = pickle.loads(pickle.dumps(key))
        assert copy == key and hash(copy) == hash(key)
        assert type(copy) is FlowKey and type(copy.src_mac) is MacAddress
