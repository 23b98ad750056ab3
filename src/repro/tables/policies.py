"""Timeout/eviction policies for finite switch flow tables.

Real TCAMs are small, and what a switch does when rules age or space runs
out dominates control-plane load under table pressure: every rule removed
too early comes back as a ``Packet_In`` re-install, every rule kept too
long squeezes out fresh flows.  A :class:`TableTimeoutPolicy` encapsulates
exactly those decisions for one :class:`~repro.datastructures.flow_table.FlowTable`:

* when an installed rule has expired (idle timeout, hard timeout, both, or
  never), and
* in which order resident rules are evicted when the table is full.

The table calls the policy's hooks (``rule_installed`` / ``rule_matched`` /
``rule_removed``) so stateful policies can learn from the traffic; the
built-in ``adaptive`` policy uses them to track per-flow inter-arrival gaps
and tune idle timeouts the way timeout predictors such as HQTimer do.

Policies are registered by name in :mod:`repro.tables.registry`; each table
gets its **own** policy instance, so per-switch learned state never leaks
between switches or between systems under test.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

from repro.common.config import FlowTableConfig
from repro.common.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import for type checkers only
    from repro.common.packets import FlowKey
    from repro.datastructures.flow_table import FlowRule

#: Hard timeout applied by the ``static-hard`` policy when the table config
#: sets none.
DEFAULT_HARD_TIMEOUT_SECONDS = 600.0


class RemovalReason(enum.Enum):
    """Why a rule left the table without an explicit controller delete."""

    IDLE_TIMEOUT = "idle_timeout"
    HARD_TIMEOUT = "hard_timeout"
    EVICTED = "evicted"


class TableTimeoutPolicy:
    """The static policy: fixed ``(idle, hard)`` timeout bounds, least-recently matched eviction.

    A rule expires once ``now - installed_at > hard`` (a hard timeout, which
    wins a tie so a rule pinned by constant matches still ages out) or else
    once ``now - last_matched_at > idle`` (an idle timeout).  Both bounds are
    infinite by default, which is the ``lru`` built-in: a table governed by
    it relies purely on capacity eviction, like a TCAM manager with
    timeouts disabled.  ``static-idle``, ``static-hard`` and
    ``idle-hard-hybrid`` are the same class with one or both bounds set.

    Stateful policies subclass it, override :meth:`expiry_reason` and
    :meth:`timeout_bounds`, and keep whatever per-flow state they need in
    the lifecycle hooks.
    """

    def __init__(self, idle: float = float("inf"), hard: float = float("inf")) -> None:
        self._idle = idle
        self._hard = hard

    # -- lifecycle hooks (stateful policies override) -----------------------

    def rule_installed(self, rule: "FlowRule", now: float) -> None:
        """Called after a rule is installed (including overwrites)."""

    def rule_matched(self, rule: "FlowRule", now: float) -> None:
        """Called after a lookup hit refreshed ``rule``."""

    def rule_removed(self, rule: "FlowRule", now: float, reason: RemovalReason) -> None:
        """Called after a rule was removed by timeout or eviction."""

    # -- expiry -------------------------------------------------------------

    def expiry_reason(self, rule: "FlowRule", now: float) -> Optional[RemovalReason]:
        """Why ``rule`` is expired at ``now``, or ``None`` while it is live."""
        if now - rule.installed_at > self._hard:
            return RemovalReason.HARD_TIMEOUT
        if now - rule.last_matched_at > self._idle:
            return RemovalReason.IDLE_TIMEOUT
        return None

    def timeout_bounds(self) -> Optional[Tuple[float, float]]:
        """The static ``(idle, hard)`` timeout bounds, or ``None`` if stateful.

        The table decides from these bounds alone whether a rule is alive —
        for one lookup, for a run of them and in the periodic sweep — and
        asks :meth:`expiry_reason` only about a rule they do not keep alive.
        A policy whose expiry depends on learned per-flow state, or whose
        match/install hooks mutate state, must return ``None``: the table
        then asks :meth:`expiry_reason` at every lookup, and the vectorized
        kernel routes every flow touching an installed rule through the
        scalar path.
        """
        return (self._idle, self._hard)

    # -- eviction -----------------------------------------------------------

    def eviction_order(self, rules: Iterable["FlowRule"]) -> List["FlowRule"]:
        """Resident rules sorted victim-first for capacity eviction.

        The default is least-recently matched first; the sort is stable over
        the table's insertion order, so eviction is deterministic.
        """
        return sorted(rules, key=lambda rule: rule.last_matched_at)


# -- adaptive timeout prediction ---------------------------------------------


@dataclass(frozen=True, slots=True)
class AdaptiveParams:
    """Knobs of the ``adaptive`` inter-arrival timeout predictor.

    The predicted idle timeout for a flow is ``margin`` times its smoothed
    inter-arrival gap, clamped into ``[min_timeout_seconds,
    max_timeout_seconds]``; flows without history use the table config's
    idle timeout.  ``smoothing`` is the EWMA weight of the newest gap, and
    ``max_tracked_keys`` bounds the predictor's memory (oldest-first
    forgetting), which keeps multi-million-flow streamed replays bounded.
    """

    min_timeout_seconds: float = 5.0
    max_timeout_seconds: float = 300.0
    margin: float = 2.0
    smoothing: float = 0.5
    max_tracked_keys: int = 65_536


class AdaptiveTimeoutPolicy(TableTimeoutPolicy):
    """Tunes per-flow idle timeouts from observed inter-arrival gaps.

    The same idea as timeout predictors à la HQTimer: every arrival for a
    flow key updates an exponentially weighted estimate of the key's
    inter-arrival gap, and the key's idle timeout becomes a small multiple
    of that estimate — bursty flows get tight timeouts (freeing the table
    fast), periodic flows get timeouts just past their period (avoiding the
    re-install round trip).
    """

    def __init__(self, params: AdaptiveParams, default_timeout_seconds: float) -> None:
        if params.min_timeout_seconds <= 0:
            raise ConfigurationError("adaptive min_timeout_seconds must be positive")
        if params.max_timeout_seconds < params.min_timeout_seconds:
            raise ConfigurationError(
                "adaptive max_timeout_seconds must be >= min_timeout_seconds"
            )
        if params.margin <= 0:
            raise ConfigurationError("adaptive margin must be positive")
        if not 0.0 < params.smoothing <= 1.0:
            raise ConfigurationError("adaptive smoothing must be in (0, 1]")
        if params.max_tracked_keys <= 0:
            raise ConfigurationError("adaptive max_tracked_keys must be positive")
        self._params = params
        self._default = default_timeout_seconds
        # key -> (last arrival time, EWMA inter-arrival gap); insertion order
        # doubles as the forgetting order, so memory stays bounded and the
        # state (hence the replay) is deterministic.
        self._history: Dict["FlowKey", Tuple[float, Optional[float]]] = {}
        self._timeout_of: Dict["FlowKey", float] = {}

    def timeout_for(self, key: "FlowKey") -> float:
        """The idle timeout currently predicted for ``key``."""
        return self._timeout_of.get(key, self._default)

    def _observe(self, key: "FlowKey", now: float) -> None:
        entry = self._history.get(key)
        if entry is None:
            if len(self._history) >= self._params.max_tracked_keys:
                oldest = next(iter(self._history))
                del self._history[oldest]
                self._timeout_of.pop(oldest, None)
            self._history[key] = (now, None)
            return
        last_seen, ewma = entry
        gap = now - last_seen
        alpha = self._params.smoothing
        ewma = gap if ewma is None else alpha * gap + (1.0 - alpha) * ewma
        self._history[key] = (now, ewma)
        predicted = self._params.margin * ewma
        self._timeout_of[key] = min(
            self._params.max_timeout_seconds,
            max(self._params.min_timeout_seconds, predicted),
        )

    def rule_installed(self, rule: "FlowRule", now: float) -> None:
        self._observe(rule.key, now)

    def rule_matched(self, rule: "FlowRule", now: float) -> None:
        self._observe(rule.key, now)

    def expiry_reason(self, rule: "FlowRule", now: float) -> Optional[RemovalReason]:
        if now - rule.last_matched_at > self._timeout_of.get(rule.key, self._default):
            return RemovalReason.IDLE_TIMEOUT
        return None

    def timeout_bounds(self) -> Optional[Tuple[float, float]]:
        # Per-key learned timeouts, and the match/install hooks mutate the
        # predictor: batching would change what the predictor observes.
        return None


# -- factories (wired into the registry) -------------------------------------


def build_static_idle(config: FlowTableConfig) -> TableTimeoutPolicy:
    """``static-idle``: the config's idle timeout."""
    return TableTimeoutPolicy(idle=config.idle_timeout_seconds)


def build_static_hard(config: FlowTableConfig) -> TableTimeoutPolicy:
    """``static-hard``: the config's hard timeout, else the module default."""
    hard = config.hard_timeout_seconds
    return TableTimeoutPolicy(hard=DEFAULT_HARD_TIMEOUT_SECONDS if hard is None else hard)


def build_idle_hard(config: FlowTableConfig) -> TableTimeoutPolicy:
    """``idle-hard-hybrid``: the config's timeouts; with no hard one set, the module default (at least the idle one)."""
    idle = config.idle_timeout_seconds
    hard = config.hard_timeout_seconds
    if hard is None:
        hard = max(DEFAULT_HARD_TIMEOUT_SECONDS, idle)
    return TableTimeoutPolicy(idle=idle, hard=hard)


def build_lru(config: FlowTableConfig) -> TableTimeoutPolicy:
    """``lru``: the timeout-free static policy."""
    return TableTimeoutPolicy()


def build_adaptive(config: FlowTableConfig, params: AdaptiveParams) -> AdaptiveTimeoutPolicy:
    """``adaptive``: the inter-arrival predictor seeded with the config's idle timeout."""
    return AdaptiveTimeoutPolicy(params, default_timeout_seconds=config.idle_timeout_seconds)
