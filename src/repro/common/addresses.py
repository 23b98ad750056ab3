"""MAC address value objects.

The LazyCtrl data plane is a layer-2 overlay, so hosts are known by their MAC
addresses (the identities tracked in L-FIBs, G-FIBs and the C-LIB) and edge
switches by a management MAC (the failure-detection wheel's order).  A MAC is
a small immutable value object backed by an integer, so it hashes fast and is
generated deterministically from an index.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import AddressError

_MAC_MAX = (1 << 48) - 1


@dataclass(frozen=True, slots=True, order=True)
class MacAddress:
    """A 48-bit MAC address.

    Instances are immutable, hashable and totally ordered by their integer
    value, which makes them usable as dictionary keys in forwarding tables
    and as set members in Bloom-filter membership tests.
    """

    value: int

    def __post_init__(self) -> None:
        if not 0 <= self.value <= _MAC_MAX:
            raise AddressError(f"MAC value out of range: {self.value!r}")

    def __hash__(self) -> int:
        # MAC addresses key every forwarding table on the replay hot path;
        # hashing the integer directly skips the generated implementation's
        # per-call field-tuple build.  Consistent with the generated __eq__
        # (equal value ⇒ equal hash).
        return hash(self.value)

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
        return tuple((self.value >> shift) & 0xFF for shift in range(40, -8, -8))

    def to_bytes(self) -> bytes:
        """Return the 6-byte big-endian representation (used for BF hashing)."""
        return self.value.to_bytes(6, "big")

    def __str__(self) -> str:
        return ":".join(f"{octet:02x}" for octet in self.octets())

    def __repr__(self) -> str:
        return f"MacAddress('{self}')"
