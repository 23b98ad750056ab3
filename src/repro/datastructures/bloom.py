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
import math
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

    __slots__ = ("_size_bits", "_hash_count", "_bits", "_count")

    def __init__(self, size_bits: int, hash_count: int) -> None:
        if size_bits <= 0:
            raise ConfigurationError("size_bits must be positive")
        if hash_count <= 0:
            raise ConfigurationError("hash_count must be positive")
        self._size_bits = size_bits
        self._hash_count = hash_count
        self._bits = bytearray((size_bits + 7) // 8)
        self._count = 0

    @classmethod
    def from_config(cls, config: BloomFilterConfig) -> "BloomFilter":
        """Build a filter sized according to ``config``."""
        return cls(config.size_bits, config.hash_count)

    @classmethod
    def with_capacity(cls, expected_items: int, target_fpr: float) -> "BloomFilter":
        """Size a filter for ``expected_items`` at false-positive rate ``target_fpr``.

        Uses the classical optimal sizing ``m = -n ln p / (ln 2)^2`` and
        ``k = (m / n) ln 2``.
        """
        if expected_items <= 0:
            raise ConfigurationError("expected_items must be positive")
        if not 0.0 < target_fpr < 1.0:
            raise ConfigurationError("target_fpr must be in (0, 1)")
        size_bits = max(8, math.ceil(-expected_items * math.log(target_fpr) / (math.log(2) ** 2)))
        hash_count = max(1, round((size_bits / expected_items) * math.log(2)))
        return cls(size_bits, hash_count)

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

    @property
    def inserted_count(self) -> int:
        """Number of ``add`` calls performed (not distinct elements)."""
        return self._count

    def add(self, item: bytes) -> None:
        """Insert a byte-string element."""
        bits = self._bits
        for position in probe_positions(item, self._size_bits, self._hash_count):
            bits[position >> 3] |= 1 << (position & 7)
        self._count += 1

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

    def clear(self) -> None:
        """Remove all elements (reset every bit)."""
        self._bits = bytearray(len(self._bits))
        self._count = 0

    def fill_ratio(self) -> float:
        """Fraction of bits currently set, in ``[0, 1]``."""
        return int.from_bytes(self._bits, "big").bit_count() / self._size_bits

    def estimated_false_positive_rate(self) -> float:
        """Estimate the current false-positive probability from the fill ratio."""
        return self.fill_ratio() ** self._hash_count

    def theoretical_false_positive_rate(self, item_count: int | None = None) -> float:
        """Textbook FPR ``(1 - e^{-kn/m})^k`` for ``item_count`` inserted items."""
        n = self._count if item_count is None else item_count
        if n < 0:
            raise ConfigurationError("item_count must be non-negative")
        if n == 0:
            return 0.0
        exponent = -self._hash_count * n / self._size_bits
        return (1.0 - math.exp(exponent)) ** self._hash_count

    def union(self, other: "BloomFilter") -> "BloomFilter":
        """Return a new filter containing elements of both inputs.

        Both filters must have identical geometry; used when a designated
        switch merges partial L-FIB summaries before dissemination.
        """
        if self._size_bits != other._size_bits or self._hash_count != other._hash_count:
            raise ConfigurationError("cannot union Bloom filters with different geometry")
        result = BloomFilter(self._size_bits, self._hash_count)
        result._bits = bytearray(a | b for a, b in zip(self._bits, other._bits))
        result._count = self._count + other._count
        return result

    def copy(self) -> "BloomFilter":
        """Return a deep copy of the filter."""
        duplicate = BloomFilter(self._size_bits, self._hash_count)
        duplicate._bits = bytearray(self._bits)
        duplicate._count = self._count
        return duplicate

    def to_bytes(self) -> bytes:
        """Serialize the bit array (used to model state-link transfer sizes)."""
        return bytes(self._bits)

    @classmethod
    def from_bytes(cls, data: bytes, size_bits: int, hash_count: int, inserted_count: int = 0) -> "BloomFilter":
        """Reconstruct a filter previously serialized with :meth:`to_bytes`."""
        instance = cls(size_bits, hash_count)
        if len(data) != len(instance._bits):
            raise ConfigurationError("serialized Bloom filter has unexpected length")
        instance._bits = bytearray(data)
        instance._count = inserted_count
        return instance

    def __repr__(self) -> str:
        return (
            f"BloomFilter(size_bits={self._size_bits}, hash_count={self._hash_count}, "
            f"inserted={self._count}, fill={self.fill_ratio():.3f})"
        )
