"""Unit tests for the flow identity the data plane forwards on."""

import dataclasses

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
        """The hand-written ``__hash__`` agrees with the generated ``__eq__``,
        and keys sort as their (source, destination, tenant) triples."""

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
        with pytest.raises(dataclasses.FrozenInstanceError):
            key.tenant_id = 1
