"""MAC address value objects.

The LazyCtrl data plane is a layer-2 overlay, so hosts are known by their MAC
addresses (the identities tracked in L-FIBs, G-FIBs and the C-LIB) and edge
switches by a management MAC (the failure-detection wheel's order).  A MAC is
an integer with a MAC's name and range, so it hashes and compares in C and is
generated deterministically from an index.
"""

from __future__ import annotations

from repro.common.errors import AddressError

_MAC_MAX = (1 << 48) - 1


class MacAddress(int):
    """A 48-bit MAC address: an ``int`` in ``[0, 2**48)``.

    Instances are immutable and hash, compare and order exactly as their
    integer value, so ``hash(mac) == hash(int(mac))``: a dict or set of MACs
    iterates in the order the same dict or set of integers would, which is
    what every seed-pinned counter rests on.

    A MAC also *equals* its integer, and ``MacAddress(0)`` is falsy.  Neither
    is observable in the library: every dict and set a MAC keys (L-FIB
    entries, G-FIB peers and query memo, C-LIB locations, OpenFlow's learned
    locations, the network's host index) holds MACs only, no code tests a MAC
    for truth (the allocators never produce 0 anyway), and no result, event
    or spec payload carries a MAC, so none serializes one as a bare number.
    """

    __slots__ = ()

    def __new__(cls, value: int) -> "MacAddress":
        if not 0 <= value <= _MAC_MAX:
            raise AddressError(f"MAC value out of range: {value!r}")
        return super().__new__(cls, value)

    @property
    def value(self) -> int:
        """The address as a plain integer."""
        return int(self)

    @classmethod
    def from_host_index(cls, index: int) -> "MacAddress":
        """Deterministically derive a host MAC from a dense host index.

        Host MACs are allocated in the locally-administered range
        ``02:00:00:00:00:00`` so they never collide with switch MACs.
        """
        if index < 0 or index > 0xFFFFFFFF:
            raise AddressError(f"host index out of range: {index}")
        return cls((0x02 << 40) | index)

    @classmethod
    def from_switch_index(cls, index: int) -> "MacAddress":
        """Deterministically derive a switch management MAC from its index.

        Switch MACs live in the ``06:00:...`` locally-administered range.  The
        controller orders switches by this address when building the
        failure-detection wheel (paper §III-E).
        """
        if index < 0 or index > 0xFFFFFFFF:
            raise AddressError(f"switch index out of range: {index}")
        return cls((0x06 << 40) | index)

    def octets(self) -> tuple[int, ...]:
        """Return the six octets, most-significant first."""
        return tuple((self >> shift) & 0xFF for shift in range(40, -8, -8))

    def to_bytes(self) -> bytes:
        """Return the 6-byte big-endian representation (used for BF hashing)."""
        return int.to_bytes(self, 6, "big")

    def __str__(self) -> str:
        return ":".join(f"{octet:02x}" for octet in self.octets())

    def __repr__(self) -> str:
        return f"MacAddress('{self}')"
