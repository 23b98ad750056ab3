"""The one registry behind every name a scenario spec can reference.

Control planes, traffic models, topology shapes, flow-table policies and
presets are each a :class:`NamedRegistry`: a name→:class:`Entry` mapping
with duplicate protection and an unknown-name error that lists what *is*
registered.  Specs hold only names plus plain params dicts, which is what
keeps them JSON-serializable; the registry turns a name back into a factory.

An entry is a factory plus how to list it (``label``, ``description``) and,
optionally, a frozen **params dataclass** describing its knobs.  With one,
:meth:`Entry.build` validates a raw JSON-shaped params mapping into that
dataclass (naming any unknown or missing key) and hands it to the factory
after the positional arguments::

    @dataclasses.dataclass(frozen=True)
    class RingParams:
        total_flows: int = 10_000
        seed: int = 1

    @register_traffic_model("ring", params=RingParams, label="Ring")
    def build_ring(network, params, *, name="ring"):
        ...

    get_traffic_model("ring").build(network, params={"total_flows": 50}, name="x")
    # -> build_ring(network, RingParams(total_flows=50), name="x")

Third-party entries plug in with the same decorator from their own modules,
and so do the built-in traffic models and topology shapes: their registry
lists ``builtins``, each name with the module that registers it, and imports
that module the first time the name is looked up (or the registry listed), so
a run loads only the models and shapes its spec names.
"""

from __future__ import annotations

import dataclasses
import importlib
from typing import Any, Callable, Dict, List, Mapping, Optional

from repro.common.errors import ConfigurationError
from repro.common.serialize import dataclass_from_dict


@dataclasses.dataclass(frozen=True, slots=True)
class Entry:
    """One registered name: its factory, how to list it, and its params schema."""

    kind: str
    name: str
    factory: Callable[..., Any]
    label: str
    description: str = ""
    params_type: Optional[type] = None
    #: Control planes only: the design implements the
    #: :class:`~repro.core.registry.ChurnAware` hooks and wants the scenario's
    #: workload dynamics applied to it.
    churn_aware: bool = False

    def param_names(self) -> frozenset:
        """Names of the knobs the params dataclass accepts (empty without one)."""
        if self.params_type is None:
            return frozenset()
        return frozenset(
            field.name for field in dataclasses.fields(self.params_type) if field.init
        )

    def make_params(self, params: Optional[Mapping[str, Any]] = None) -> Any:
        """Validate a raw params mapping into the params dataclass.

        Raises :class:`~repro.common.errors.ConfigurationError` naming any
        unknown or missing key; an entry without a params dataclass takes no
        params at all, and returns ``None`` for none.
        """
        if self.params_type is None:
            if params:
                raise ConfigurationError(
                    f"{self.kind} {self.name!r} takes no params, got {', '.join(map(repr, sorted(params)))}"
                )
            return None
        return dataclass_from_dict(
            self.params_type, dict(params or {}), path=f"{self.kind} {self.name!r} params"
        )

    def build(self, *args: Any, params: Optional[Mapping[str, Any]] = None, **kwargs: Any) -> Any:
        """Call the factory; validated ``params`` follow ``args`` when there is a schema."""
        validated = self.make_params(params)
        if self.params_type is None:
            return self.factory(*args, **kwargs)
        return self.factory(*args, validated, **kwargs)

    def specs(self) -> Any:
        """A preset's scenario specs: its factory, called."""
        return self.factory()


class NamedRegistry:
    """A name→:class:`Entry` mapping.

    ``kind`` names the surface in error messages ("control plane", "traffic
    model", ...) and ``known_label`` introduces the list of registered names
    in the unknown-name error.  ``builtins`` maps each built-in name to the
    module whose import registers it.
    """

    def __init__(
        self, *, kind: str, known_label: str, builtins: Optional[Mapping[str, str]] = None
    ) -> None:
        self._kind = kind
        self._known_label = known_label
        self._entries: Dict[str, Entry] = {}
        self._builtins: Dict[str, str] = dict(builtins or {})

    def _load(self, name: str) -> None:
        """Import the module registering built-in ``name`` (once; no-op for others)."""
        module = self._builtins.pop(name, None)
        if module is not None:
            importlib.import_module(module)

    def _load_all(self) -> None:
        for name in list(self._builtins):
            self._load(name)

    def register(
        self,
        name: str,
        *,
        params: Optional[type] = None,
        label: Optional[str] = None,
        description: str = "",
        churn_aware: bool = False,
    ) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
        """Decorator registering a factory under ``name``; returns the factory."""
        if not name or not name.strip():
            raise ConfigurationError(f"{self._kind.replace(' ', '-')} name must be a non-empty string")
        if params is not None and not (dataclasses.is_dataclass(params) and isinstance(params, type)):
            raise ConfigurationError(
                f"{self._kind} {name!r} params must be a dataclass type, got {params!r}"
            )

        def decorator(factory: Callable[..., Any]) -> Callable[..., Any]:
            # A built-in's name is taken even before its module is imported.
            self._load(name)
            if name in self._entries:
                raise ConfigurationError(f"{self._kind} {name!r} is already registered")
            self._entries[name] = Entry(
                kind=self._kind,
                name=name,
                factory=factory,
                label=label or name,
                description=description,
                params_type=params,
                churn_aware=churn_aware,
            )
            return factory

        return decorator

    def unregister(self, name: str) -> None:
        """Drop a registration (no-op when absent; primarily for tests)."""
        self._load(name)
        self._entries.pop(name, None)

    def get(self, name: str) -> Entry:
        """Look an entry up, listing the registered names on a miss."""
        self._load(name)
        try:
            return self._entries[name]
        except KeyError:
            self._load_all()
            known = ", ".join(sorted(self._entries)) or "<none>"
            raise ConfigurationError(
                f"unknown {self._kind} {name!r}; {self._known_label}: {known}"
            ) from None

    def available(self) -> List[Entry]:
        """All entries, sorted by name."""
        self._load_all()
        return [self._entries[name] for name in sorted(self._entries)]
