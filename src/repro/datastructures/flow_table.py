"""OpenFlow-like flow table with priorities, timeouts and match/action rules.

Both the baseline OpenFlow switch and the LazyCtrl edge switch consult a flow
table first (Fig. 5, lines 2-5).  In LazyCtrl the controller installs rules
only for inter-group flows and "other specified" fine-grained flows; in the
baseline it installs a rule for every flow.  The table models the features
relevant to the evaluation: exact-match on the flow key, rule priorities,
a finite capacity, and pluggable timeout/eviction behaviour.

*When* a rule expires and *which* rules are evicted under capacity pressure
is delegated to a :class:`~repro.tables.policies.TableTimeoutPolicy` (built
from ``config.policy`` via :mod:`repro.tables.registry`).  Expiry is enforced
both lazily on lookup and eagerly through :meth:`FlowTable.expire`, which the
systems drive from the replay's periodic tick so tables age in lockstep with
replay time.  Every removal is reported to ``removed_listener`` — the hook
switches use to emit ``flow_removed`` to their controller — and the stats
track the table-pressure loop end to end:
overflows (installs that found a full table), evictions, idle/hard timeouts,
re-installs (installs for a key the table had previously timed out or
evicted) and peak occupancy.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Set

from repro.common.config import FlowTableConfig
from repro.common.errors import FlowTableError
from repro.common.packets import FlowKey
from repro.tables.policies import RemovalReason, TableTimeoutPolicy
from repro.tables.registry import build_policy


class ActionType(enum.Enum):
    """The action attached to a flow rule."""

    FORWARD_LOCAL = "forward_local"
    ENCAP_TO_SWITCH = "encap_to_switch"
    SEND_TO_CONTROLLER = "send_to_controller"
    DROP = "drop"


@dataclass(frozen=True, slots=True)
class FlowAction:
    """Action of a flow rule: what to do and, when relevant, the target.

    ``target`` is a local port for ``FORWARD_LOCAL`` and an edge-switch
    identifier for ``ENCAP_TO_SWITCH`` (the GRE-like ``Encap`` action from the
    paper's Floodlight extension).
    """

    kind: ActionType
    target: Optional[int] = None


@dataclass(slots=True)
class FlowRule:
    """A single installed rule with statistics."""

    key: FlowKey
    action: FlowAction
    priority: int = 0
    installed_at: float = 0.0
    last_matched_at: float = 0.0
    packet_count: int = 0
    byte_count: int = 0


@dataclass(slots=True)
class FlowTableStats:
    """Aggregate statistics of a flow table.

    ``timeouts`` counts idle timeouts and ``hard_timeouts`` counts hard ones;
    ``overflows`` counts installs that found the table full (each triggers
    one eviction batch); ``reinstalls`` counts installs for a key the table
    had previously removed by timeout or eviction — the control-plane cost
    of finite tables, since each such install rode a ``packet_in`` that an
    unbounded table would have absorbed as a hit.
    """

    hits: int = 0
    misses: int = 0
    installs: int = 0
    evictions: int = 0
    timeouts: int = 0
    hard_timeouts: int = 0
    overflows: int = 0
    reinstalls: int = 0
    peak_occupancy: int = 0


#: Callback fired after a rule leaves the table by timeout or eviction.
RemovedListener = Callable[[FlowRule, float, RemovalReason], None]

#: Callback fired on table-pressure incidents, as ``(kind, now)`` where
#: ``kind`` is ``"overflow"``, ``"reinstall"``, or a
#: :class:`~repro.tables.policies.RemovalReason` value for removals.  This is
#: the observability tap (the structured-event bus subscribes here); unlike
#: ``removed_listener`` it never feeds back into the control plane.
PressureListener = Callable[[str, float], None]


class FlowTable:
    """Exact-match flow table with priority tie-breaking and policy-driven aging."""

    __slots__ = (
        "_config",
        "_policy",
        "_bounds",
        "_rules",
        "_removed_keys",
        "stats",
        "removed_listener",
        "pressure_listener",
    )

    def __init__(
        self,
        config: FlowTableConfig | None = None,
        *,
        policy: TableTimeoutPolicy | None = None,
    ) -> None:
        self._config = config or FlowTableConfig()
        self._policy = policy if policy is not None else build_policy(self._config)
        # What the policy declares for bulk handling; ``None`` when stateful.
        self._bounds = self._policy.timeout_bounds()
        self._rules: Dict[FlowKey, FlowRule] = {}
        # Keys removed by timeout/eviction, for re-install accounting.  Bounded
        # by the number of distinct flow keys ever removed (O(host pairs)), not
        # by trace length, so streamed multi-million-flow replays stay bounded.
        self._removed_keys: Set[FlowKey] = set()
        self.stats = FlowTableStats()
        self.removed_listener: Optional[RemovedListener] = None
        self.pressure_listener: Optional[PressureListener] = None

    @property
    def config(self) -> FlowTableConfig:
        """The capacity/timeout configuration of this table."""
        return self._config

    @property
    def policy(self) -> TableTimeoutPolicy:
        """The timeout/eviction policy governing this table."""
        return self._policy

    @property
    def capacity(self) -> int:
        """Maximum number of simultaneously installed rules."""
        return self._config.capacity

    def __len__(self) -> int:
        return len(self._rules)

    def __contains__(self, key: FlowKey) -> bool:
        return key in self._rules

    def __iter__(self) -> Iterator[FlowRule]:
        return iter(self._rules.values())

    def install(self, key: FlowKey, action: FlowAction, *, priority: int = 0, now: float = 0.0) -> FlowRule:
        """Install (or overwrite) a rule for ``key``.

        When the table is full the install counts as an overflow and the
        policy's eviction order decides which resident rules are reclaimed
        in batches, mimicking a TCAM manager making room for fresh flows.
        """
        if key not in self._rules and len(self._rules) >= self._config.capacity:
            self.stats.overflows += 1
            if self.pressure_listener is not None:
                self.pressure_listener("overflow", now)
            self._evict(now)
        existing = self._rules.get(key)
        if existing is not None and existing.priority > priority:
            raise FlowTableError(
                f"cannot overwrite rule for {key} with lower priority "
                f"({priority} < {existing.priority})"
            )
        rule = FlowRule(key=key, action=action, priority=priority, installed_at=now, last_matched_at=now)
        self._rules[key] = rule
        self.stats.installs += 1
        if key in self._removed_keys:
            self._removed_keys.discard(key)
            self.stats.reinstalls += 1
            if self.pressure_listener is not None:
                self.pressure_listener("reinstall", now)
        if len(self._rules) > self.stats.peak_occupancy:
            self.stats.peak_occupancy = len(self._rules)
        self._policy.rule_installed(rule, now)
        return rule

    def lookup(self, key: FlowKey, *, now: float = 0.0, size_bytes: int = 0) -> Optional[FlowRule]:
        """Match ``key`` against the table, updating statistics and counters.

        Rules the policy considers expired at ``now`` are treated as misses
        and removed lazily, so expiry is enforced even between eager sweeps.
        """
        rule = self._rules.get(key)
        if rule is not None:
            reason = self._policy.expiry_reason(rule, now)
            if reason is not None:
                self._discard(rule, now, reason)
                rule = None
        self.account_run(rule, 1, now, size_bytes)
        if rule is not None:
            self._policy.rule_matched(rule, now)
        return rule

    # -- runs of lookups ----------------------------------------------------
    #
    # ``n`` back-to-back lookups of one key, asked and answered without doing
    # them one by one: :meth:`peek` and :meth:`stays_alive` read, and
    # :meth:`account_run` writes what the ``n`` calls would have written.

    def peek(self, key: FlowKey) -> Optional[FlowRule]:
        """The resident rule for ``key``, expired or not; touches nothing."""
        return self._rules.get(key)

    def stays_alive(self, rule: FlowRule, first_t: float, max_gap: float, last_t: float) -> bool:
        """Whether every lookup of a run provably hits the resident ``rule``.

        The run's lookups arrive from ``first_t`` to ``last_t``, no two
        consecutive ones more than ``max_gap`` apart.  Each hit refreshes the
        idle clock, so survival is a chain condition over the gaps, checked
        against the policy's static :meth:`timeout_bounds`.  ``False`` means
        undecidable in bulk, not dead: the rule expires somewhere in the
        run, or a stateful policy (no bounds) governs it and only
        :meth:`lookup`, one arrival at a time, knows.
        """
        if self._bounds is None:
            return False
        idle, hard = self._bounds
        return (
            first_t - rule.last_matched_at <= idle
            and max_gap <= idle
            and last_t - rule.installed_at <= hard
        )

    def account_run(self, rule: Optional[FlowRule], n: int, last_t: float, size_bytes: int) -> None:
        """What ``n`` lookups ending at ``last_t`` leave behind: hits on ``rule``, or misses.

        ``rule`` is the resident rule every lookup matched (:meth:`stays_alive`
        held for the run) or ``None`` when no rule was resident.
        """
        if rule is None:
            self.stats.misses += n
            return
        rule.last_matched_at = last_t
        rule.packet_count += n
        rule.byte_count += n * size_bytes
        self.stats.hits += n

    def expire(self, now: float) -> List[FlowRule]:
        """Eagerly sweep every rule the policy considers expired at ``now``."""
        removed = []
        for rule, reason in self._policy.expired(self._rules.values(), now):
            self._discard(rule, now, reason)
            removed.append(rule)
        return removed

    def _evict(self, now: float) -> None:
        """Reclaim one batch of rules in the policy's eviction order."""
        victims = self._policy.eviction_order(self._rules.values())
        for rule in victims[: self._config.eviction_batch]:
            self._discard(rule, now, RemovalReason.EVICTED)

    def _discard(self, rule: FlowRule, now: float, reason: RemovalReason) -> None:
        """Remove ``rule`` for ``reason``, updating stats and notifying hooks."""
        del self._rules[rule.key]
        if reason is RemovalReason.IDLE_TIMEOUT:
            self.stats.timeouts += 1
        elif reason is RemovalReason.HARD_TIMEOUT:
            self.stats.hard_timeouts += 1
        else:
            self.stats.evictions += 1
        self._removed_keys.add(rule.key)
        self._policy.rule_removed(rule, now, reason)
        if self.pressure_listener is not None:
            self.pressure_listener(reason.value, now)
        if self.removed_listener is not None:
            self.removed_listener(rule, now, reason)
