"""PolySI reproduction: black-box checking of snapshot isolation.

Reimplementation of "Efficient Black-box Checking of Snapshot Isolation
in Databases" (PVLDB 16(6), 2023).  See DESIGN.md for the system
inventory and EXPERIMENTS.md for the reproduced evaluation.

Quickstart — one façade call for every checking scenario::

    from repro import HistoryBuilder, R, W, check

    b = HistoryBuilder()
    b.txn(0, [W("x", 1), W("y", 1)])
    b.txn(1, [R("x", 1), W("x", 2)])
    report = check(b.build())                 # SI, batch, PolySI engine
    assert report.ok

    check(history, isolation="ser", engine="cobra")   # serializability
    check(run, mode="segmented", workers=4)           # segment pool
    check(history, mode="online")                     # incremental replay

``repro.api`` holds the façade: :class:`~repro.api.Checker`,
:class:`~repro.api.Report`, :class:`~repro.api.CheckOptions`, and the
engine registry (``python -m repro engines`` lists every registered
isolation x mode x engine combination).
"""

from . import api
from .api import Checker, CheckOptions, Report, check
from .core import (
    ABORTED,
    COMMITTED,
    INITIAL_VALUE,
    CheckResult,
    History,
    HistoryBuilder,
    Operation,
    PolySIChecker,
    R,
    Transaction,
    W,
)
from .collect import (
    CollectionRun,
    CollectOptions,
    Collector,
    DBAPIAdapter,
    FaultyAdapter,
    SQLiteAdapter,
    collect_history,
)
from .online import OnlineChecker, OnlineResult, WindowPolicy
from .service import ReproService, ServiceClient, ServiceConfig

__version__ = "2.0.0"

__all__ = [
    "ABORTED",
    "COMMITTED",
    "INITIAL_VALUE",
    "Checker",
    "CheckOptions",
    "CheckResult",
    "CollectionRun",
    "CollectOptions",
    "Collector",
    "DBAPIAdapter",
    "FaultyAdapter",
    "Report",
    "SQLiteAdapter",
    "api",
    "check",
    "collect_history",
    "History",
    "HistoryBuilder",
    "Operation",
    "OnlineChecker",
    "OnlineResult",
    "PolySIChecker",
    "R",
    "ReproService",
    "ServiceClient",
    "ServiceConfig",
    "Transaction",
    "W",
    "WindowPolicy",
    "__version__",
]
