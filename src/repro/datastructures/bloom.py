"""Bloom filter used to implement the Group Forwarding Information Base.

The paper stores, on every edge switch, one Bloom filter per peer switch in
the same Local Control Group; each filter summarizes the peer's L-FIB (the
set of MAC addresses attached to that peer).  Looking up a destination MAC in
the G-FIB yields a Boolean vector over the peers; false positives cause
duplicate deliveries that the receiving switch drops after an L-FIB miss
(paper §III-D.2 and Fig. 5 lines 22-28).

The implementation uses double hashing over two independent 64-bit hashes
derived from ``hashlib.blake2b``, the standard Kirsch–Mitzenmacher
construction, which gives the textbook false-positive behaviour that the
paper's storage analysis (§V-D) relies on.  An element's bit positions depend
only on its bytes and the filter geometry, so :func:`probe_positions` derives
and memoizes them once for every filter of that geometry.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from typing import Iterable

from repro.common.config import BloomFilterConfig
from repro.common.errors import ConfigurationError


@lru_cache(maxsize=1 << 16)
def probe_positions(data: bytes, size_bits: int, hash_count: int) -> tuple[int, ...]:
    """The bit positions of ``data`` in any filter of this geometry: ``(h1 + i·h2) mod m``.

    A pure function of its arguments, so it is memoized (bounded): the replay
    hot path probes and re-inserts the same few thousand host MACs millions
    of times, and a dict hit is an order of magnitude cheaper than a blake2b
    digest plus ``hash_count`` modular steps.
    """
    digest = hashlib.blake2b(data, digest_size=16).digest()
    h1, h2 = int.from_bytes(digest[:8], "big"), int.from_bytes(digest[8:], "big")
    return tuple((h1 + i * h2) % size_bits for i in range(hash_count))


class BloomFilter:
    """A fixed-size Bloom filter over byte strings.

    ``add`` and ``in`` work on an element's :func:`probe_positions`;
    :meth:`has_positions` takes positions a caller already derived, which is
    how a G-FIB hashes a MAC once and tests it against every peer filter.

    Parameters
    ----------
    size_bits:
        Number of bits in the filter.
    hash_count:
        Number of hash functions (positions set per inserted element).
    """

    __slots__ = ("_size_bits", "_hash_count", "_bits")

    def __init__(self, size_bits: int, hash_count: int) -> None:
        if size_bits <= 0:
            raise ConfigurationError("size_bits must be positive")
        if hash_count <= 0:
            raise ConfigurationError("hash_count must be positive")
        self._size_bits = size_bits
        self._hash_count = hash_count
        self._bits = bytearray((size_bits + 7) // 8)

    @classmethod
    def from_config(cls, config: BloomFilterConfig) -> "BloomFilter":
        """Build a filter sized according to ``config``."""
        return cls(config.size_bits, config.hash_count)

    @property
    def size_bits(self) -> int:
        """Number of bits in the filter."""
        return self._size_bits

    @property
    def size_bytes(self) -> int:
        """Storage footprint in bytes."""
        return len(self._bits)

    @property
    def hash_count(self) -> int:
        """Number of hash functions used per element."""
        return self._hash_count

    def add(self, item: bytes) -> None:
        """Insert a byte-string element."""
        bits = self._bits
        for position in probe_positions(item, self._size_bits, self._hash_count):
            bits[position >> 3] |= 1 << (position & 7)

    def add_all(self, items: Iterable[bytes]) -> None:
        """Insert every element of ``items``."""
        for item in items:
            self.add(item)

    def __contains__(self, item: bytes) -> bool:
        return self.has_positions(probe_positions(item, self._size_bits, self._hash_count))

    def has_positions(self, positions: Iterable[int]) -> bool:
        """Whether every bit of ``positions`` — :func:`probe_positions` for this geometry — is set."""
        bits = self._bits
        for position in positions:
            if not bits[position >> 3] & (1 << (position & 7)):
                return False
        return True

    def __repr__(self) -> str:
        return f"BloomFilter(size_bits={self._size_bits}, hash_count={self._hash_count})"
