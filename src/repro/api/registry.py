"""The engine registry: capabilities, option schemas, typed errors.

Every checking backend registers one :class:`EngineSpec` describing the
(isolation, mode) combinations it supports, the :class:`CheckOptions`
fields it consumes, and a runner callable.  The façade resolves
``(isolation, mode, engine)`` against the registry; an unsupported
combination raises :class:`UnsupportedComboError` naming the nearest
supported alternative, so a new isolation level or backend is one
:func:`register_engine` call — never a new top-level API.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

from .options import FACADE_OPTIONS, OPTION_DOCS, CheckOptions

__all__ = [
    "ISOLATION_LEVELS",
    "MODES",
    "EngineSpec",
    "CheckerError",
    "UnknownEngineError",
    "UnsupportedComboError",
    "UnsupportedOptionError",
    "MissingTimestampsError",
    "register_engine",
    "get_engine",
    "engine_names",
    "list_engines",
    "resolve",
    "default_engine",
    "supported_combos",
]


#: Isolation levels the façade accepts (each engine supports a subset).
ISOLATION_LEVELS: Tuple[str, ...] = ("si", "ser", "causal", "ra",
                                     "listappend")

#: Checking modes the façade accepts.
MODES: Tuple[str, ...] = ("batch", "online", "parallel", "segmented")

#: Input kinds a combo may declare (see :meth:`EngineSpec.input_kind`).
#: ``"timestamped_history"`` is a ``History`` whose committed
#: transactions carry recorded start/commit timestamps — the ``timestamp``
#: engine's fast path has nothing to validate without them.
INPUT_KINDS: Tuple[str, ...] = ("history", "segmented_run", "list_history",
                                "timestamped_history")


class CheckerError(ValueError):
    """Base class for façade configuration errors."""


class UnknownEngineError(CheckerError):
    """No engine registered under the requested name."""


class UnsupportedComboError(CheckerError):
    """The (isolation, mode, engine) triple is not registered.

    The message names the nearest supported alternative: the same engine
    at another mode/isolation, or another engine covering the requested
    (isolation, mode).
    """


class UnsupportedOptionError(CheckerError):
    """An option was set that the selected engine or mode never reads."""


class MissingTimestampsError(CheckerError):
    """The ``timestamp`` engine was given a history without timestamps.

    Histories collected (or serialized) before timestamp capture existed
    load fine and check fine under every other engine; only the
    timestamp fast path has nothing to validate.  The message names the
    remedies: re-collect with a current adapter, or pick a
    timestamp-free engine.
    """


@dataclass(frozen=True)
class EngineSpec:
    """One registered checking backend.

    ``combos`` is the set of supported (isolation, mode) pairs;
    ``options`` the :class:`CheckOptions` field names the engine
    consumes *somewhere*; ``options_for`` narrows that per combo (a
    combo absent from it reads the full ``options`` set), so setting an
    option the selected combo never forwards is a typed error, not a
    silent no-op.  ``runner(subject, isolation, mode, options)``
    executes a check and returns the engine's *native* result (adapted
    into a :class:`~repro.api.report.Report` by the façade).  ``inputs``
    maps a combo to the input kind the runner expects — ``"history"``
    (a :class:`~repro.core.history.History`), ``"segmented_run"``, or
    ``"list_history"`` — so harnesses like the corpus differential
    sweep can select combos by what they can feed.
    """

    name: str
    summary: str
    combos: FrozenSet[Tuple[str, str]]
    options: FrozenSet[str]
    runner: Callable[[object, str, str, CheckOptions], object]
    inputs: Dict[Tuple[str, str], str] = field(default_factory=dict)
    options_for: Dict[Tuple[str, str], FrozenSet[str]] = field(
        default_factory=dict
    )

    def supports(self, isolation: str, mode: str) -> bool:
        return (isolation, mode) in self.combos

    def input_kind(self, isolation: str, mode: str) -> str:
        return self.inputs.get((isolation, mode), "history")

    def isolations(self) -> List[str]:
        return [i for i in ISOLATION_LEVELS
                if any(c[0] == i for c in self.combos)]

    def modes_for(self, isolation: str) -> List[str]:
        return [m for m in MODES if (isolation, m) in self.combos]

    def options_of(self, isolation: str, mode: str) -> FrozenSet[str]:
        """The options the (isolation, mode) combo actually forwards."""
        return self.options_for.get((isolation, mode), self.options)

    def read_by(self, name: str) -> List[str]:
        """The ``isolation/mode`` combos that forward option ``name``."""
        return [f"{iso}/{m}" for iso, m in sorted(self.combos)
                if name in self.options_of(iso, m)]

    def validate_options(self, options: CheckOptions, isolation: str,
                         mode: str) -> None:
        """Reject non-default options this engine or combo never reads."""
        allowed = self.options_of(isolation, mode)
        for name in sorted(options.changed()):
            if name in FACADE_OPTIONS:
                # Consumed by the façade before the engine runs; valid
                # (and meaningful) for every combination.
                continue
            if name not in self.options:
                supported = ", ".join(sorted(self.options)) or "none"
                raise UnsupportedOptionError(
                    f"engine {self.name!r} does not take option {name!r} "
                    f"(supported options: {supported})"
                )
            if name not in allowed:
                readers = ", ".join(self.read_by(name))
                raise UnsupportedOptionError(
                    f"option {name!r} is not read by engine {self.name!r} "
                    f"with isolation={isolation!r}, mode={mode!r} "
                    f"(read by: {readers or 'no combo'}): "
                    f"{OPTION_DOCS.get(name, '')}".rstrip(": ")
                )


_REGISTRY: Dict[str, EngineSpec] = {}


def register_engine(spec: EngineSpec, *, replace: bool = False) -> EngineSpec:
    """Add ``spec`` to the registry (the extension point for new
    backends).  Unknown isolation levels, modes, or option names are
    rejected immediately so a bad registration fails at import time, not
    at first use."""
    if spec.name in _REGISTRY and not replace:
        raise CheckerError(
            f"engine {spec.name!r} is already registered "
            "(pass replace=True to override)"
        )
    for isolation, mode in spec.combos:
        if isolation not in ISOLATION_LEVELS:
            raise CheckerError(
                f"engine {spec.name!r} registers unknown isolation "
                f"{isolation!r} (known: {', '.join(ISOLATION_LEVELS)})"
            )
        if mode not in MODES:
            raise CheckerError(
                f"engine {spec.name!r} registers unknown mode {mode!r} "
                f"(known: {', '.join(MODES)})"
            )
    unknown = spec.options - CheckOptions.field_names()
    if unknown:
        raise CheckerError(
            f"engine {spec.name!r} registers unknown option(s): "
            f"{', '.join(sorted(unknown))}"
        )
    for combo, names in spec.options_for.items():
        if combo not in spec.combos:
            raise CheckerError(
                f"engine {spec.name!r} scopes options to unregistered "
                f"combo {combo!r}"
            )
        if not names <= spec.options:
            raise CheckerError(
                f"engine {spec.name!r} scopes option(s) "
                f"{', '.join(sorted(names - spec.options))} outside its "
                "own options set"
            )
    for combo, kind in spec.inputs.items():
        if combo not in spec.combos:
            raise CheckerError(
                f"engine {spec.name!r} declares an input kind for "
                f"unregistered combo {combo!r}"
            )
        if kind not in INPUT_KINDS:
            raise CheckerError(
                f"engine {spec.name!r} declares unknown input kind "
                f"{kind!r} (known: {', '.join(sorted(INPUT_KINDS))})"
            )
    _REGISTRY[spec.name] = spec
    return spec


def get_engine(name: str) -> EngineSpec:
    """Look an engine up by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownEngineError(
            f"unknown engine {name!r}; registered engines: "
            f"{', '.join(engine_names())}"
        ) from None


def engine_names() -> List[str]:
    """Registered engine names, in registration order."""
    return list(_REGISTRY)


def list_engines() -> List[EngineSpec]:
    """All registered engine specs, in registration order."""
    return list(_REGISTRY.values())


def supported_combos() -> List[Tuple[str, str, str]]:
    """Every registered (isolation, mode, engine) triple."""
    out = []
    for spec in _REGISTRY.values():
        for isolation, mode in sorted(spec.combos):
            out.append((isolation, mode, spec.name))
    return out


def default_engine(isolation: str, mode: str = "batch") -> Optional[str]:
    """The first registered engine supporting (isolation, mode)."""
    for spec in _REGISTRY.values():
        if spec.supports(isolation, mode):
            return spec.name
    return None


def _nearest_alternative(isolation: str, mode: str,
                         spec: EngineSpec) -> str:
    """Human guidance for an unsupported combo: prefer the same engine at
    another mode, then another engine at the requested combo, then the
    engine's own isolation levels."""
    own_modes = spec.modes_for(isolation)
    if own_modes:
        return (f"engine {spec.name!r} supports isolation={isolation!r} "
                f"with mode(s): {', '.join(own_modes)}")
    other = default_engine(isolation, mode)
    if other is not None:
        return (f"engine {other!r} supports isolation={isolation!r} "
                f"with mode={mode!r}")
    isolations = spec.isolations()
    if isolations:
        return (f"engine {spec.name!r} supports isolation level(s): "
                f"{', '.join(isolations)}")
    return "no registered engine supports this isolation level"


def resolve(isolation: str, mode: str, engine: Optional[str]) -> EngineSpec:
    """Validate and resolve an (isolation, mode, engine) request.

    ``engine=None`` picks the first registered engine supporting the
    combo.  Raises :class:`CheckerError` subclasses on anything invalid.
    """
    if isolation not in ISOLATION_LEVELS:
        raise CheckerError(
            f"unknown isolation level {isolation!r}; expected one of: "
            f"{', '.join(ISOLATION_LEVELS)}"
        )
    if mode not in MODES:
        raise CheckerError(
            f"unknown mode {mode!r}; expected one of: {', '.join(MODES)}"
        )
    if engine is None:
        name = default_engine(isolation, mode)
        if name is None:
            raise UnsupportedComboError(
                f"no registered engine supports isolation={isolation!r} "
                f"with mode={mode!r}"
            )
        return _REGISTRY[name]
    spec = get_engine(engine)
    if not spec.supports(isolation, mode):
        raise UnsupportedComboError(
            f"engine {engine!r} does not support isolation={isolation!r} "
            f"with mode={mode!r}; nearest supported alternative: "
            f"{_nearest_alternative(isolation, mode, spec)}"
        )
    return spec
