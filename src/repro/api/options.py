"""The one configuration object of the checking façade.

Every tunable that used to travel as scattered keyword arguments —
``PolySIChecker(prune=..., compact=...)``, ``OnlineChecker(solve_every=
...)``, ``DbcopChecker(max_states=...)`` — is a field of
:class:`CheckOptions`.  The façade
builds one from ``**kwargs``, and the engine registry validates it:
setting an option the selected engine never reads, or one that only
makes sense in another mode, is a typed error instead of a silent no-op
(see :mod:`repro.api.registry`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, Iterable, Optional

__all__ = ["CheckOptions", "FACADE_OPTIONS", "OPTION_DOCS"]

#: Options consumed by the façade itself, before any engine sees them.
#: They are valid for every (engine, mode) combination and are never
#: validated against — or forwarded to — the engine's option schema.
FACADE_OPTIONS: frozenset = frozenset({"trace"})


#: One-line help per option, surfaced by ``repro engines`` and by the
#: option-validation errors.
OPTION_DOCS: Dict[str, str] = {
    "prune": "apply constraint pruning before encoding (default True)",
    "compact": "use generalized (compacted) constraints (default True)",
    "initial_values": "map key -> value a read takes for the initial state",
    "workers": "process count for segmented checking's segment pool",
    "oversubscribe": "allow more pool processes than CPU cores",
    "solve_every": "online mode: solve the SAT residue every N txns",
    "max_live": "online mode: bound live transactions (windowed eviction)",
    "sessions": "online mode: session universe (required for windowing)",
    "state_dir": ("online mode: segment-store directory — journal events "
                  "and checkpoint checker state there (docs/persistence.md)"),
    "resume": ("online mode: restore the newest checkpoint in state_dir "
               "and replay only the log tail (default True)"),
    "checkpoint_every": ("online mode: checkpoint every N journaled "
                         "events (0 disables periodic checkpoints)"),
    "gpu": "Cobra: use the SCC-condensed bitset closure (the GPU stand-in)",
    "max_states": "dbcop: frontier-search state budget",
    "max_orders": "naive SI oracle: version-order enumeration budget",
    "max_txns": "naive SER oracle: transaction-count budget",
    "trace": ("record a repro-trace/1 span tree + metrics snapshot into "
              "Report.stats['trace'] (default True; façade-level)"),
}


@dataclass
class CheckOptions:
    """Configuration for one :class:`repro.api.Checker`.

    Fields left at their defaults are never validated against the
    engine's option schema; any field you *set* must be one the selected
    (engine, mode) actually consumes.
    """

    # Pipeline switches (PolySI and Cobra-family engines).
    prune: bool = True
    compact: bool = True
    initial_values: Optional[dict] = None

    # Segmented checking's segment pool.
    workers: Optional[int] = None
    oversubscribe: bool = False

    # Online checking.
    solve_every: int = 1
    max_live: int = 0
    sessions: Optional[Iterable[int]] = None

    # Online persistence (the segment store; see docs/persistence.md).
    state_dir: Optional[str] = None
    resume: bool = True
    checkpoint_every: int = 256

    # Baseline engines.
    gpu: bool = False
    max_states: int = 2_000_000
    max_orders: int = 2_000_000
    max_txns: int = 9

    # Façade-level observability (see FACADE_OPTIONS): collect a span
    # trace + metrics snapshot for the check into Report.stats["trace"].
    trace: bool = True

    def __post_init__(self) -> None:
        if self.solve_every < 1:
            raise ValueError("solve_every must be >= 1")
        if self.workers is not None and self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.max_live < 0:
            raise ValueError("max_live must be >= 0")
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")

    @classmethod
    def field_names(cls) -> frozenset:
        return frozenset(f.name for f in fields(cls))

    def changed(self) -> Dict[str, object]:
        """The fields that differ from their defaults (what to validate)."""
        out: Dict[str, object] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if value != f.default:
                out[f.name] = value
        return out

    def subset(self, names: Iterable[str]) -> Dict[str, object]:
        """Kwarg dict of the named fields (for forwarding to a backend)."""
        return {name: getattr(self, name) for name in names}
