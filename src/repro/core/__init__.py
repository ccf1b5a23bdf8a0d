"""PolySI core: histories, axioms, polygraphs, pruning, encoding, checking."""

from .history import (
    ABORTED,
    COMMITTED,
    INITIAL_VALUE,
    History,
    HistoryBuilder,
    HistoryError,
    DuplicateValueError,
    Operation,
    R,
    Transaction,
    W,
)
from .axioms import (
    AxiomViolation,
    check_aborted_reads,
    check_axioms,
    check_intermediate_reads,
    check_internal_consistency,
)
from .polygraph import (
    Constraint,
    GeneralizedPolygraph,
    RW,
    SO,
    WR,
    WW,
    build_polygraph,
)
from .pruning import PruneResult, prune_constraints, find_known_cycle
from .encoding import SIEncoding, encode_polygraph
from .checker import CheckResult, PolySIChecker

__all__ = [
    "ABORTED",
    "COMMITTED",
    "INITIAL_VALUE",
    "History",
    "HistoryBuilder",
    "HistoryError",
    "DuplicateValueError",
    "Operation",
    "R",
    "Transaction",
    "W",
    "AxiomViolation",
    "check_aborted_reads",
    "check_axioms",
    "check_intermediate_reads",
    "check_internal_consistency",
    "Constraint",
    "GeneralizedPolygraph",
    "RW",
    "SO",
    "WR",
    "WW",
    "build_polygraph",
    "PruneResult",
    "prune_constraints",
    "find_known_cycle",
    "SIEncoding",
    "encode_polygraph",
    "CheckResult",
    "PolySIChecker",
]
