"""Live-database collection: drive a real DBMS, record a checkable history.

The paper's pipeline starts where a history *file* exists; this package
closes the loop before that, the way PolySI/dbcop drive live systems:

1. generate a workload (:mod:`repro.workloads.generator`),
2. execute it over concurrent sessions against a live database through
   a small :class:`~repro.collect.adapter.Adapter` contract
   (begin/read/write/commit/abort),
3. record the observed values as a :class:`~repro.core.history.History`
   that flows straight into the batch and online checkers.

Backends: stdlib SQLite (:class:`SQLiteAdapter`, runs everywhere
including CI), any DB-API 2.0 driver (:class:`DBAPIAdapter` — point it
at PostgreSQL/MySQL, no hard dependency), and a fault-injecting wrapper
(:class:`FaultyAdapter`) that turns any backend into a buggy database
for exercising the violation path end to end.

See ``docs/collecting.md`` for a tutorial and DESIGN.md S8 for the
contract and its soundness argument.
"""

from .adapter import (
    ADAPTERS,
    Adapter,
    AdapterError,
    AdapterSession,
    AdapterUnavailable,
    TransactionAborted,
    make_adapter,
)
from .dbapi import DBAPIAdapter
from .faulty import INJECTION_PROFILES, FaultyAdapter, InjectionConfig
from .runner import CollectionRun, CollectOptions, Collector, collect_history
from .sqlite import SQLiteAdapter

__all__ = [
    "ADAPTERS",
    "Adapter",
    "AdapterError",
    "AdapterSession",
    "AdapterUnavailable",
    "TransactionAborted",
    "make_adapter",
    "SQLiteAdapter",
    "DBAPIAdapter",
    "FaultyAdapter",
    "InjectionConfig",
    "INJECTION_PROFILES",
    "Collector",
    "CollectOptions",
    "CollectionRun",
    "collect_history",
]
