"""One name -> factory registry for systems, scenarios, wrappers and studies.

Training systems (:mod:`repro.sim.systems`), routing scenarios and scenario
wrappers (:mod:`repro.workloads.scenarios`) and study definitions
(:mod:`repro.study.registry`) are all looked up by name.  Each module declares
one :class:`Registry`, configured by the kind of thing it holds and by how
many leading positional arguments its caller supplies to every factory::

    SYSTEMS = Registry("system", skip=1)              # factory(ctx, **params)
    SCENARIO_WRAPPERS = Registry("scenario wrapper", skip=2)  # (inner, ctx)
    STUDIES = Registry("study", skip=0)               # factory(**params)

    @SYSTEMS.register("my_system", description="my custom policy")
    def _build(ctx, knob: float = 1.0): ...

The factory's signature is read once, at registration, so validating a spec's
parameters is a set lookup.  Parameter names are checked at registration, at
spec construction (:meth:`RegistryEntry.check_params`) and at build time;
parameters without a default must be supplied by the entry or the caller.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Generic,
    List,
    Mapping,
    Optional,
    Tuple,
    TypeVar,
)

T = TypeVar("T")

_KEYWORD = (inspect.Parameter.POSITIONAL_OR_KEYWORD,
            inspect.Parameter.KEYWORD_ONLY)


@dataclass(frozen=True)
class RegistryEntry(Generic[T]):
    """One registered factory plus its bound default parameters.

    Attributes:
        kind: What the registry holds (``"system"``, ``"scenario"``, ...),
            used in error messages.
        name: Registry name (lower case).
        factory: The registered callable.
        params: Default keyword parameters bound to the factory.
        description: One-line human-readable summary.
        accepted: Keyword parameters the factory takes after the registry's
            leading positional arguments, or ``None`` if it takes ``**kwargs``.
        required: Those of them without a default in the signature.
        signature: The keyword-capable parameters themselves, for
            :meth:`param_details`.
    """

    kind: str
    name: str
    factory: Callable[..., T]
    params: Mapping[str, object]
    description: str
    accepted: Optional[FrozenSet[str]]
    required: FrozenSet[str]
    signature: Tuple[inspect.Parameter, ...]

    @classmethod
    def read(cls, kind: str, name: str, factory: Callable[..., T], skip: int,
             params: Mapping[str, object],
             description: str) -> "RegistryEntry[T]":
        """Build an entry, reading the signature after ``skip`` arguments."""
        rest = list(inspect.signature(factory).parameters.values())[skip:]
        keyword = tuple(p for p in rest if p.kind in _KEYWORD)
        takes_kwargs = any(p.kind is inspect.Parameter.VAR_KEYWORD
                           for p in rest)
        entry = cls(kind=kind, name=name, factory=factory, params=dict(params),
                    description=description,
                    accepted=(None if takes_kwargs
                              else frozenset(p.name for p in keyword)),
                    required=frozenset(p.name for p in keyword
                                       if p.default is p.empty),
                    signature=keyword)
        entry.check_params(entry.params)
        return entry

    def check_params(self, params: Mapping[str, object]) -> None:
        """Raise ``ValueError`` for parameters the factory does not accept."""
        if self.accepted is None:
            return
        unknown = sorted(set(params) - self.accepted)
        if unknown:
            raise ValueError(
                f"{self.kind} {self.name!r} does not accept parameter(s) "
                f"{unknown}; accepted: {sorted(self.accepted)}")

    def build(self, *args: Any, **overrides: object) -> T:
        """Invoke the factory with the bound parameters (plus overrides)."""
        merged = {**self.params, **overrides}
        self.check_params(merged)
        missing = sorted(self.required - set(merged))
        if missing:
            raise ValueError(
                f"{self.kind} {self.name!r} requires parameter(s) {missing}")
        return self.factory(*args, **merged)

    def param_details(self) -> List[Dict[str, str]]:
        """Per-parameter ``{"param", "type", "default"}`` rows.

        Bound defaults win over the signature's own; parameters with neither
        are shown as ``(required)``.  Un-annotated parameters fall back to
        the default value's type name.
        """
        rows: List[Dict[str, str]] = []
        for p in self.signature:
            if p.name in self.params:
                default = repr(self.params[p.name])
            elif p.default is not p.empty:
                default = repr(p.default)
            else:
                default = "(required)"
            if p.annotation is not p.empty:
                annotation = str(p.annotation)
            elif p.default is not p.empty:
                annotation = type(p.default).__name__
            else:
                annotation = ""
            rows.append({"param": p.name, "type": annotation,
                         "default": default})
        return rows


class Registry(Generic[T]):
    """Named factories of one kind, in registration order.

    Args:
        kind: What the registry holds, used in error messages
            (``"unknown system 'x'"``).
        skip: How many leading positional arguments the caller passes to
            every factory (``ctx`` for systems and scenarios, ``inner, ctx``
            for wrappers, none for studies); the parameters after them are
            the entry's keyword parameters.
    """

    def __init__(self, kind: str, skip: int) -> None:
        self.kind = kind
        self.skip = skip
        self._entries: Dict[str, RegistryEntry[T]] = {}

    def register(self, name: str, *, description: str = "",
                 **params: object) -> Callable[[Callable[..., T]],
                                               Callable[..., T]]:
        """Decorator registering a factory under ``name``.

        ``name`` is case-insensitive at lookup; duplicate names raise
        ``ValueError``.  ``params`` are default keyword parameters bound to
        the factory, which callers of :meth:`build` may override.  The
        factory is returned unchanged, so it can be registered under
        several names.
        """
        def decorator(factory: Callable[..., T]) -> Callable[..., T]:
            self._add(name, factory, params, description)
            return factory
        return decorator

    def variant(self, name: str, base: str, *, description: str = "",
                **params: object) -> RegistryEntry[T]:
        """Register ``name`` as ``base``'s factory with ``params`` merged over
        ``base``'s defaults (how the LAER ablations are expressed)."""
        parent = self.get(base)
        return self._add(name, parent.factory, {**parent.params, **params},
                         description or parent.description)

    def _add(self, name: str, factory: Callable[..., T],
             params: Mapping[str, object],
             description: str) -> RegistryEntry[T]:
        name = name.lower()
        if name in self._entries:
            raise ValueError(f"{self.kind} {name!r} is already registered")
        entry = RegistryEntry.read(self.kind, name, factory, self.skip,
                                   params, description)
        self._entries[name] = entry
        return entry

    def unregister(self, name: str) -> None:
        """Remove an entry (mainly for tests and interactive use)."""
        self._entries.pop(name.lower(), None)

    def get(self, name: str) -> RegistryEntry[T]:
        """Look up an entry, raising ``ValueError`` for unknown names."""
        try:
            return self._entries[name.lower()]
        except KeyError:
            raise ValueError(
                f"unknown {self.kind} {name!r}; available: {self.names()}"
            ) from None

    def build(self, name: str, *args: Any, **overrides: object) -> T:
        """Build entry ``name``: ``factory(*args, **params, **overrides)``."""
        return self.get(name).build(*args, **overrides)

    def names(self) -> List[str]:
        """Registered names, in registration order."""
        return list(self._entries)

    def descriptions(self) -> Dict[str, str]:
        """Registered names mapped to their one-line descriptions."""
        return {name: entry.description
                for name, entry in self._entries.items()}

    def param_details(self, name: str) -> List[Dict[str, str]]:
        """Name/type/default rows of entry ``name``'s parameters."""
        return self.get(name).param_details()
