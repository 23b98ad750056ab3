"""The serializable execution spec: how a scenario replays, in one place.

:class:`ExecutionSpec` is one frozen, JSON-round-trippable dataclass
carried on ``ScenarioSpec.execution`` and surfaced as a single ``--exec``
option:

* ``workers`` — process fan-out for one scenario's shards (and, through
  ``run_many(execution=...)``, for multi-scenario sweeps);
* ``shard_strategy`` — how one scenario's replay is partitioned:
  ``"system"`` (one shard per selected control plane; the merged result is
  bit-identical to the serial run by construction) or ``"time-window"``
  (bucket-aligned windows of the replay timeline, each replayed against
  fresh per-shard control-plane state and merged deterministically);
* ``shard_count`` — number of time windows (0 = derive from ``workers``);
* ``stream`` — the bounded-memory chunked generation/replay path;
* ``kernel`` — the per-shard flow-handling engine: ``"scalar"`` (one row
  of a flow chunk's columns at a time through the dataplane objects) or
  ``"vectorized"`` (the columnar numpy kernel in :mod:`repro.kernel`,
  which batches the fast path and falls back to the scalar path for
  flows that need the control plane).  It also says how the trace is
  generated, streamed or resident alike: under ``"vectorized"`` the
  realistic model draws its chunks in numpy (:mod:`repro.kernel.realistic`),
  byte-identical to the Python emitter every ``"scalar"`` run uses.

Execution knobs never change *what* a serial replay measures — only how
(and how fast) the measurement is produced.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional

from repro.common.errors import ConfigurationError
from repro.common.serialize import dataclass_from_dict, dataclass_to_dict

#: Registered shard strategies (see :mod:`repro.replay.sharding`).
SHARD_STRATEGIES = ("system", "time-window")

#: Registered replay kernels (see :mod:`repro.kernel`).
KERNELS = ("scalar", "vectorized")

#: ``--exec`` keys accepted by :meth:`ExecutionSpec.parse` (dashes allowed).
_PARSE_COERCERS = {
    "workers": int,
    "shard_strategy": str,
    "shard_count": int,
    "stream": None,  # bool, parsed specially
    "kernel": str,
}

_TRUE_WORDS = frozenset({"true", "yes", "on", "1"})
_FALSE_WORDS = frozenset({"false", "no", "off", "0"})


def _parse_bool(key: str, raw: Any) -> bool:
    if isinstance(raw, bool):
        return raw
    word = str(raw).strip().lower()
    if word in _TRUE_WORDS:
        return True
    if word in _FALSE_WORDS:
        return False
    raise ConfigurationError(f"execution key {key!r} expects a boolean, got {raw!r}")


@dataclass(frozen=True, slots=True)
class ExecutionSpec:
    """How one scenario's replay is partitioned, parallelized and streamed."""

    workers: int = 1
    shard_strategy: str = "system"
    shard_count: int = 0
    stream: bool = False
    kernel: str = "scalar"

    def __post_init__(self) -> None:
        # Types first: a float would be truncated by the planner (or fail deep
        # inside it), and any non-empty string is a truthy ``stream``.
        for key in ("workers", "shard_count"):
            value = getattr(self, key)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigurationError(f"execution key {key!r} expects an integer, got {value!r}")
        if not isinstance(self.stream, bool):
            raise ConfigurationError(f"execution key 'stream' expects a boolean, got {self.stream!r}")
        if self.workers < 1:
            raise ConfigurationError("execution workers must be at least 1")
        if self.shard_strategy not in SHARD_STRATEGIES:
            known = ", ".join(repr(name) for name in SHARD_STRATEGIES)
            raise ConfigurationError(
                f"unknown shard strategy {self.shard_strategy!r}; known strategies: {known}"
            )
        if self.kernel not in KERNELS:
            known = ", ".join(repr(name) for name in KERNELS)
            raise ConfigurationError(
                f"unknown replay kernel {self.kernel!r}; known kernels: {known}"
            )
        if self.shard_count < 0:
            raise ConfigurationError("shard_count must be non-negative (0 = derive from workers)")

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-ready representation of this spec."""
        return dataclass_to_dict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExecutionSpec":
        """Rebuild a spec from :meth:`to_dict` output."""
        return dataclass_from_dict(cls, dict(data), path="execution")

    # -- the one CLI surface -------------------------------------------------

    @classmethod
    def parse(cls, text: str, *, base: Optional["ExecutionSpec"] = None) -> "ExecutionSpec":
        """Parse a ``--exec`` argument into a spec, overriding ``base``.

        Two shapes are accepted: a JSON object (``'{"workers": 4}'``) or a
        comma-separated ``key=value`` list
        (``workers=4,shard-strategy=time-window,stream=true``).  Keys may
        use dashes or underscores; keys not mentioned keep ``base``'s
        values (or the defaults).
        """
        stripped = text.strip()
        if not stripped:
            raise ConfigurationError("--exec needs at least one key=value pair (or a JSON object)")
        overrides: Dict[str, Any] = {}
        if stripped.startswith("{"):
            try:
                parsed = json.loads(stripped)
            except (ValueError, RecursionError) as error:
                # ValueError: malformed, or an integer past int's digit limit;
                # RecursionError: nested deeper than the decoder goes.
                raise ConfigurationError(f"--exec is not valid JSON: {error}") from None
            if not isinstance(parsed, dict):
                raise ConfigurationError("--exec JSON must be an object")
            items = parsed.items()
        else:
            pairs = []
            for part in stripped.split(","):
                part = part.strip()
                if not part:
                    continue
                if "=" not in part:
                    raise ConfigurationError(
                        f"--exec entry {part!r} is not key=value "
                        "(e.g. workers=4,shard-strategy=time-window)"
                    )
                key, _, value = part.partition("=")
                pairs.append((key, value))
            items = pairs
        for raw_key, raw_value in items:
            key = str(raw_key).strip().lower().replace("-", "_")
            if key not in _PARSE_COERCERS:
                valid = ", ".join(sorted(name.replace("_", "-") for name in _PARSE_COERCERS))
                raise ConfigurationError(
                    f"unknown execution key {str(raw_key).strip()!r}; valid keys: {valid}"
                )
            coercer = _PARSE_COERCERS[key]
            if coercer is None:
                overrides[key] = _parse_bool(key, raw_value)
            elif not isinstance(raw_value, str):
                # A typed JSON value is taken as it is, never truncated:
                # ``__post_init__`` rejects one of the wrong type.
                overrides[key] = raw_value
            else:
                try:
                    overrides[key] = coercer(raw_value)
                except (TypeError, ValueError):
                    raise ConfigurationError(
                        f"execution key {key.replace('_', '-')!r} expects "
                        f"{coercer.__name__}, got {raw_value!r}"
                    ) from None
        return dataclasses.replace(base or cls(), **overrides)
