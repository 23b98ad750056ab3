"""JSON (de)serialization for the frozen config/spec dataclasses.

Every declarative object in the library (topology profiles, trace profiles,
``LazyCtrlConfig`` and the scenario specs built from them) is a frozen
dataclass whose fields are scalars, tuples, enums or further such
dataclasses.  That makes a single pair of generic converters sufficient:

* :func:`to_jsonable` walks an object down to JSON-compatible primitives;
* :func:`from_jsonable` rebuilds a typed object from that representation,
  using the dataclass field annotations to pick nested constructors, coerce
  JSON lists back into tuples and revive enums.

The round trip is exact for every spec class: ``from_jsonable(cls,
to_jsonable(obj)) == obj``.

Deserialization is strict about dataclass keys: an unknown key or a missing
required key raises :class:`~repro.common.errors.ConfigurationError` naming
the offending key and the path to the dataclass it belongs to (for example
``spec.traffic.params``), so a typo in a hand-written spec file points at
itself instead of surfacing as a bare ``TypeError`` from a constructor
three frames down.  So does a value of the wrong JSON kind for an object,
array, string or integer field (an integral float counts as an integer).

A field's annotation is resolved only when the data gives it a value (a
``null`` loads as ``None`` whatever the annotation), so deserializing a spec
without an optional section never imports that section's type: its module
names the type through a PEP 562 ``__getattr__`` (see
:func:`repro._lazy_exports`), which :class:`_AnnotationNames` falls back to.
"""

from __future__ import annotations

import dataclasses
import enum
import sys
import types
from typing import Any, Dict, Mapping, Tuple, Union, get_args, get_origin

from repro.common.errors import ConfigurationError

_HINT_CACHE: Dict[Tuple[type, str], Any] = {}


class _AnnotationNames(dict):
    """The names a class's string annotations see: the class namespace, then
    its module's globals, then the module's PEP 562 ``__getattr__``."""

    def __init__(self, cls: type) -> None:
        super().__init__(vars(cls))
        self._module = sys.modules[cls.__module__]

    def __missing__(self, name: str) -> Any:
        try:
            return getattr(self._module, name)
        except AttributeError:
            raise KeyError(name) from None


def field_type(cls: type, name: str) -> Any:
    """The resolved annotation of dataclass field ``cls.name`` (cached).

    Unlike :func:`typing.get_type_hints`, this resolves one field, and sees
    a type its module binds lazily (and imports it).
    """
    key = (cls, name)
    if key not in _HINT_CACHE:
        owner = next(base for base in cls.__mro__ if name in base.__dict__.get("__annotations__", {}))
        hint = owner.__dict__["__annotations__"][name]
        if isinstance(hint, str):
            hint = eval(hint, vars(sys.modules[owner.__module__]), _AnnotationNames(owner))
        _HINT_CACHE[key] = hint
    return _HINT_CACHE[key]


def to_jsonable(obj: Any) -> Any:
    """Convert dataclasses/enums/tuples recursively into JSON-ready values."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            field.name: to_jsonable(getattr(obj, field.name))
            for field in dataclasses.fields(obj)
        }
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(item) for item in obj]
    if isinstance(obj, dict):
        return {key: to_jsonable(value) for key, value in obj.items()}
    return obj


def _dataclass_from_mapping(annotation: type, data: Any, path: str) -> Any:
    """Strictly rebuild one dataclass: unknown/missing keys raise with context."""
    if not isinstance(data, Mapping):
        raise ConfigurationError(
            f"{path}: expected a JSON object for {annotation.__name__}, "
            f"got {type(data).__name__}"
        )
    init_fields = {
        field.name: field for field in dataclasses.fields(annotation) if field.init
    }
    unknown = sorted(key for key in data if key not in init_fields)
    if unknown:
        keys = ", ".join(repr(key) for key in unknown)
        valid = ", ".join(sorted(init_fields))
        raise ConfigurationError(
            f"unknown key{'s' if len(unknown) > 1 else ''} {keys} for "
            f"{annotation.__name__} at {path}; valid keys: {valid}"
        )
    missing = sorted(
        name
        for name, field in init_fields.items()
        if name not in data
        and field.default is dataclasses.MISSING
        and field.default_factory is dataclasses.MISSING
    )
    if missing:
        keys = ", ".join(repr(key) for key in missing)
        raise ConfigurationError(
            f"missing required key{'s' if len(missing) > 1 else ''} {keys} for "
            f"{annotation.__name__} at {path}"
        )
    kwargs = {
        name: None
        if data[name] is None
        else from_jsonable(field_type(annotation, name), data[name], path=f"{path}.{name}")
        for name in init_fields
        if name in data
    }
    return annotation(**kwargs)


def from_jsonable(annotation: Any, data: Any, *, path: str = "spec") -> Any:
    """Rebuild a value of type ``annotation`` from its JSON representation.

    ``path`` names the location being deserialized (dotted, root ``spec``)
    and is threaded through recursion so errors can point at the offending
    key.
    """
    origin = get_origin(annotation)

    if annotation is Any:
        return data
    if origin in (Union, types.UnionType):
        members = [arg for arg in get_args(annotation) if arg is not type(None)]
        if data is None:
            return None
        if len(members) != 1:
            raise TypeError(f"cannot deserialize ambiguous union {annotation!r}")
        return from_jsonable(members[0], data, path=path)
    if data is None:
        return None

    if dataclasses.is_dataclass(annotation) and isinstance(annotation, type):
        return _dataclass_from_mapping(annotation, data, path)

    if origin in (list, tuple, dict):
        if not isinstance(data, Mapping if origin is dict else (list, tuple)):
            kind = "object" if origin is dict else "array"
            raise ConfigurationError(f"{path}: expected a JSON {kind}, got {type(data).__name__}")
        args = get_args(annotation)
        if origin is list:
            item_type = args[0] if args else Any
            return [
                from_jsonable(item_type, item, path=f"{path}[{index}]")
                for index, item in enumerate(data)
            ]
        if origin is tuple:
            if len(args) == 2 and args[1] is Ellipsis:
                return tuple(
                    from_jsonable(args[0], item, path=f"{path}[{index}]")
                    for index, item in enumerate(data)
                )
            return tuple(
                from_jsonable(arg, item, path=f"{path}[{index}]")
                for index, (arg, item) in enumerate(zip(args, data))
            )
        key_type, value_type = args if args else (Any, Any)
        return {
            from_jsonable(key_type, key, path=path): from_jsonable(
                value_type, value, path=f"{path}[{key!r}]"
            )
            for key, value in data.items()
        }

    if isinstance(annotation, type) and issubclass(annotation, enum.Enum):
        return annotation(data)
    if annotation is float and isinstance(data, (int, float)) and not isinstance(data, bool):
        return float(data)
    # JSON object keys are always strings; revive numeric dict keys.
    if annotation in (int, float) and isinstance(data, str):
        try:
            return annotation(data)
        except ValueError:
            raise ConfigurationError(f"{path}: expected {annotation.__name__}, got {data!r}") from None
    if annotation is str and not isinstance(data, str):
        raise ConfigurationError(f"{path}: expected a string, got {data!r}")
    if annotation is int and (isinstance(data, bool) or not isinstance(data, int)):
        if isinstance(data, float) and data.is_integer():
            return int(data)
        raise ConfigurationError(f"{path}: expected an integer, got {data!r}")
    return data


def dataclass_to_dict(obj: Any) -> Dict[str, Any]:
    """A dataclass instance as a plain JSON-ready dict."""
    if not dataclasses.is_dataclass(obj) or isinstance(obj, type):
        raise TypeError(f"expected a dataclass instance, got {type(obj)!r}")
    return to_jsonable(obj)


def dataclass_from_dict(cls: type, data: Dict[str, Any], *, path: str | None = None) -> Any:
    """Rebuild a dataclass of type ``cls`` from :func:`dataclass_to_dict` output.

    ``path`` seeds the error-reporting location; it defaults to the class
    name so standalone conversions still produce a useful anchor.
    """
    return from_jsonable(cls, data, path=path if path is not None else cls.__name__)
