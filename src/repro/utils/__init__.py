"""Shared utilities: graph reachability kernels.

Two complementary closure layers live here: the batch SCC-condensed
bitset closure (:mod:`repro.utils.reachability`) used to *seed*
reachability from scratch, and the incremental closure
(:mod:`repro.utils.closure`) that maintains it under edge insertion.
The incremental closure is one :class:`~repro.utils.closure.ClosureBackend`
contract with two kernels, each owned by one checker: batch pruning
(and with it segmented checking) builds the pure-Python
:class:`PyBitsetClosure`, the online checker the vectorized
:class:`~repro.utils.closure_np.NumpyBitsetClosure`.
"""

from .closure import ClosureBackend, PyBitsetClosure
from .reachability import (
    Reachability,
    is_acyclic,
    tarjan_scc,
    transitive_closure_bits,
)

__all__ = [
    "ClosureBackend",
    "PyBitsetClosure",
    "Reachability",
    "is_acyclic",
    "tarjan_scc",
    "transitive_closure_bits",
]
