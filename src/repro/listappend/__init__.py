"""PolySI-List: SI checking for Elle-style list-append histories (App. F)."""

from .model import (
    A,
    APPEND,
    L,
    READ_LIST,
    ListHistory,
    ListHistoryBuilder,
    ListOp,
    ListTransaction,
)
from .infer import build_list_polygraph, register_view
from .checker import ListAppendChecker
from .generator import (
    generate_list_history,
    generate_list_workload,
    run_list_workload,
)

__all__ = [
    "A",
    "APPEND",
    "L",
    "READ_LIST",
    "ListHistory",
    "ListHistoryBuilder",
    "ListOp",
    "ListTransaction",
    "build_list_polygraph",
    "register_view",
    "ListAppendChecker",
    "generate_list_history",
    "generate_list_workload",
    "run_list_workload",
]

from .elle import EdnParseError, parse_edn, parse_elle_history  # noqa: E402

__all__ += ["EdnParseError", "parse_edn", "parse_elle_history"]
