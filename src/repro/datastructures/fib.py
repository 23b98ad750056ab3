"""Forwarding information bases: L-FIB, G-FIB and the controller's C-LIB.

Three tables implement the table organization of paper Fig. 4:

* :class:`LocalFib` (L-FIB) — MAC/ARP-style table on each edge switch mapping
  the MAC addresses of locally attached virtual machines to local ports.
* :class:`GroupFib` (G-FIB) — one Bloom filter per peer switch in the same
  Local Control Group, each summarizing that peer's L-FIB.  A query returns
  the set of candidate switches that may host the destination.
* :class:`CentralLib` (C-LIB) — the controller's global host-location map,
  assembled from the L-FIBs reported by designated switches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Dict, Iterable, Iterator, Optional, Tuple

from repro.common.addresses import MacAddress
from repro.common.config import BloomFilterConfig
from repro.common.errors import ConfigurationError, UnknownHostError
from repro.datastructures.bloom import BloomFilter, probe_positions

#: An L-FIB as peer and state links carry it: ``(mac, port, tenant_id)`` sorted by MAC.
WireEntries = Tuple[Tuple[MacAddress, int, int], ...]


@dataclass(frozen=True, slots=True)
class FibEntry:
    """One host entry of an L-FIB: the local port and tenant of the host."""

    mac: MacAddress
    port: int
    tenant_id: int


class LocalFib:
    """The Local Forwarding Information Base of a single edge switch."""

    __slots__ = ("_entries", "_version", "_wire", "_wire_version")

    def __init__(self) -> None:
        self._entries: Dict[MacAddress, FibEntry] = {}
        self._version = 0
        self._wire: WireEntries = ()
        self._wire_version = 0

    @property
    def version(self) -> int:
        """Monotonic counter bumped on every mutation; used by state sync."""
        return self._version

    def learn(self, mac: MacAddress, port: int, tenant_id: int) -> bool:
        """Insert or refresh a host entry.

        Returns ``True`` when the table changed (new host or moved port),
        which is the condition for pushing an update over the peer link.
        """
        existing = self._entries.get(mac)
        if existing is not None and existing.port == port and existing.tenant_id == tenant_id:
            return False
        self._entries[mac] = FibEntry(mac=mac, port=port, tenant_id=tenant_id)
        self._version += 1
        return True

    def forget(self, mac: MacAddress) -> bool:
        """Remove a host entry (VM removal/migration); returns ``True`` if present."""
        if mac in self._entries:
            del self._entries[mac]
            self._version += 1
            return True
        return False

    def lookup(self, mac: MacAddress) -> Optional[FibEntry]:
        """Return the entry for ``mac`` or ``None`` when unknown."""
        return self._entries.get(mac)

    def __contains__(self, mac: MacAddress) -> bool:
        return mac in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[FibEntry]:
        return iter(self._entries.values())

    def macs(self) -> list[MacAddress]:
        """Return all known host MAC addresses."""
        return list(self._entries)

    def wire_entries(self) -> WireEntries:
        """The table as peer and state links carry it, derived once per :attr:`version`."""
        if self._wire_version != self._version:
            self._wire = tuple(
                (mac, entry.port, entry.tenant_id)
                for mac, entry in sorted(self._entries.items())
            )
            self._wire_version = self._version
        return self._wire

class GroupFib:
    """The Bloom-filter-based Group Forwarding Information Base.

    For each peer switch in the group the G-FIB stores one Bloom filter built
    from the peer's L-FIB.  ``query`` returns the identifiers of all peers
    whose filter matches — possibly more than one because of false positives,
    exactly as the paper's forwarding routine anticipates.

    Building a filter (:meth:`summarize`) and holding one
    (:meth:`install_summary`) are separate steps: a dissemination builds an
    L-FIB's summary once and every member of the group installs that object;
    :meth:`install_peer` is both steps for a single holder.  Installed filters
    are only replaced, never mutated, so sharing is safe; all have this
    G-FIB's geometry, so a probe hashes its MAC once for every peer.
    """

    __slots__ = ("_config", "_filters", "_exact", "_query_cache", "query_count", "query_cache_hits", "version",
                 "summaries_built", "peer_installs")

    #: Cached query results are cleared wholesale past this size rather than
    #: tracking per-entry recency; real replays query far fewer distinct MACs.
    QUERY_CACHE_LIMIT = 8192

    def __init__(self, config: BloomFilterConfig | None = None, *, track_exact: bool = False) -> None:
        self._config = config or BloomFilterConfig()
        self._filters: Dict[int, BloomFilter] = {}
        # Optional exact shadow sets used only by tests/analysis to measure the
        # empirical false-positive rate; disabled in normal operation.
        self._exact: Optional[Dict[int, set[MacAddress]]] = {} if track_exact else None
        # Memoized query results; traffic concentrates on few destination
        # MACs, so repeated lookups skip the per-filter Bloom membership
        # tests.  Invalidated whenever any peer filter changes.
        self._query_cache: Dict[MacAddress, tuple[int, ...]] = {}
        self.query_count = 0
        self.query_cache_hits = 0
        # Bumped whenever the set of peer filters changes; lets callers
        # memoize query results across the quiet stretches between
        # disseminations (the query cache itself is cleared on the same
        # events, but observing a counter is cheaper than re-querying).
        self.version = 0
        # A group of n members installs each summary built n - 1 times.
        self.summaries_built = 0
        self.peer_installs = 0

    @property
    def config(self) -> BloomFilterConfig:
        """The Bloom-filter sizing in force for this G-FIB."""
        return self._config

    def summarize(self, macs: Iterable[MacAddress]) -> BloomFilter:
        """Build the Bloom summary of an L-FIB holding ``macs``, in this G-FIB's geometry."""
        summary = BloomFilter.from_config(self._config)
        summary.add_all(mac.to_bytes() for mac in macs)
        self.summaries_built += 1
        return summary

    def install_summary(self, switch_id: int, summary: BloomFilter, macs: Collection[MacAddress]) -> None:
        """Hold ``summary``, built of ``macs``, as the filter for peer ``switch_id`` (not copied).

        One of another geometry is rejected: a probe derives its positions once, from this config.
        """
        config = self._config
        if summary.size_bits != config.size_bits or summary.hash_count != config.hash_count:
            raise ConfigurationError(
                f"a {summary.size_bits}-bit/{summary.hash_count}-hash summary does not fit a G-FIB of "
                f"{config.size_bits}-bit/{config.hash_count}-hash filters"
            )
        self._filters[switch_id] = summary
        self._query_cache.clear()
        self.version += 1
        self.peer_installs += 1
        if self._exact is not None:
            self._exact[switch_id] = set(macs)

    def install_peer(self, switch_id: int, macs: Iterable[MacAddress]) -> None:
        """Install or replace the filter for peer ``switch_id`` from its L-FIB: a summary held once."""
        mac_list = list(macs)
        self.install_summary(switch_id, self.summarize(mac_list), mac_list)

    def clear(self) -> None:
        """Remove every peer filter (switch left its group)."""
        self._filters.clear()
        self._query_cache.clear()
        self.version += 1
        if self._exact is not None:
            self._exact.clear()

    def matching_peers(self, mac: MacAddress) -> tuple[int, ...]:
        """Peer switch ids whose Bloom filter matches ``mac``, sorted.

        The pure membership test: reads the filters and touches neither the
        query cache nor the query counters, so a caller may probe what
        :meth:`query` *will* answer without changing what it accounts.
        """
        config = self._config
        positions = probe_positions(mac.to_bytes(), config.size_bits, config.hash_count)
        return tuple(
            sorted(
                switch_id for switch_id, bloom in self._filters.items() if bloom.has_positions(positions)
            )
        )

    def query(self, mac: MacAddress) -> tuple[int, ...]:
        """:meth:`matching_peers` as the data path asks it: counted and memoized.

        Results are memoized until any peer filter changes; the tuple makes
        the shared cached value immutable by construction.
        """
        peers = self.peek(mac)
        self.account_queries(mac, peers, 1)
        return peers

    # -- runs of queries ----------------------------------------------------

    def peek(self, mac: MacAddress) -> tuple[int, ...]:
        """What :meth:`query` answers for ``mac`` now, without being a query.

        Reads the memo and, past it, the filters; counts and memoizes nothing.
        """
        cached = self._query_cache.get(mac)
        return cached if cached is not None else self.matching_peers(mac)

    def account_queries(self, mac: MacAddress, peers: tuple[int, ...], n: int) -> None:
        """What ``n`` back-to-back :meth:`query` calls for ``mac`` leave behind.

        ``peers`` is their common answer (:meth:`peek`): every call is
        counted, the first memoizes it — clearing a full memo first — and
        all that find it memoized are cache hits.
        """
        self.query_count += n
        cache = self._query_cache
        if mac in cache:
            self.query_cache_hits += n
            return
        if len(cache) >= self.QUERY_CACHE_LIMIT:
            cache.clear()
        cache[mac] = peers
        self.query_cache_hits += n - 1

    def cache_room(self) -> int:
        """How many more distinct MACs can be memoized before the memo is cleared wholesale."""
        return self.QUERY_CACHE_LIMIT - len(self._query_cache)

    def query_exact(self, mac: MacAddress) -> tuple[int, ...]:
        """Ground-truth query against the shadow sets (analysis only)."""
        if self._exact is None:
            raise UnknownHostError("exact tracking is disabled for this G-FIB")
        return tuple(switch_id for switch_id, macs in self._exact.items() if mac in macs)

    def storage_bytes(self) -> int:
        """Total storage consumed by all peer filters, in bytes."""
        return sum(bloom.size_bytes for bloom in self._filters.values())


class CentralLib:
    """The controller's Central Location Information Base (C-LIB).

    Maps every known host MAC to the edge switch currently hosting it, plus
    the tenant it belongs to.  Assembled from the L-FIB snapshots pushed by
    designated switches over state links.
    """

    __slots__ = ("_locations", "_tenants", "_version")

    def __init__(self) -> None:
        self._locations: Dict[MacAddress, int] = {}
        self._tenants: Dict[MacAddress, int] = {}
        self._version = 0

    @property
    def version(self) -> int:
        """Monotonic counter bumped on every mutation."""
        return self._version

    def update_from_lfib(self, switch_id: int, entries: WireEntries) -> int:
        """Merge one switch's L-FIB as a state report carries it; returns the number of changed hosts."""
        locations, tenants = self._locations, self._tenants
        changed = 0
        for mac, _port, tenant_id in entries:
            if locations.get(mac) != switch_id or tenants.get(mac) != tenant_id:
                locations[mac] = switch_id
                tenants[mac] = tenant_id
                changed += 1
        if changed:
            self._version += 1
        return changed

    def record_host(self, mac: MacAddress, switch_id: int, tenant_id: int) -> None:
        """Record a single host location (used during bootstrap)."""
        self._locations[mac] = switch_id
        self._tenants[mac] = tenant_id
        self._version += 1

    def remove_host(self, mac: MacAddress) -> bool:
        """Forget a host; returns ``True`` if it was known."""
        if mac in self._locations:
            del self._locations[mac]
            self._tenants.pop(mac, None)
            self._version += 1
            return True
        return False

    def locate(self, mac: MacAddress) -> Optional[int]:
        """Return the switch hosting ``mac`` or ``None`` if unknown."""
        return self._locations.get(mac)

    def __len__(self) -> int:
        return len(self._locations)

    def __contains__(self, mac: MacAddress) -> bool:
        return mac in self._locations
