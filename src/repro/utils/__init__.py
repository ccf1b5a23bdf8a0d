"""Shared utilities: graph reachability kernels.

Two complementary closure layers live here: the batch SCC-condensed
bitset closure (:mod:`repro.utils.reachability`) used to *seed*
reachability from scratch, and the incremental closure
(:mod:`repro.utils.closure`) that maintains it under edge insertion —
shared by batch pruning, segmented checking, and the online checker.  The incremental closure is pluggable: a
:class:`~repro.utils.closure.ClosureBackend` contract with a pure-
Python reference implementation (:class:`PyBitsetClosure`) and a
vectorized numpy implementation
(:class:`~repro.utils.closure_np.NumpyBitsetClosure`), selected
through :func:`resolve_closure_backend`.
"""

from .closure import (
    BACKEND_ENV,
    ClosureBackend,
    PyBitsetClosure,
    available_closure_backends,
    register_closure_backend,
    resolve_closure_backend,
)
from .reachability import (
    Reachability,
    is_acyclic,
    tarjan_scc,
    transitive_closure_bits,
    transitive_closure_numpy,
)

__all__ = [
    "BACKEND_ENV",
    "ClosureBackend",
    "PyBitsetClosure",
    "available_closure_backends",
    "register_closure_backend",
    "resolve_closure_backend",
    "Reachability",
    "is_acyclic",
    "tarjan_scc",
    "transitive_closure_bits",
    "transitive_closure_numpy",
]
