"""SAT modulo graph-acyclicity: the MonoSAT substitute (DESIGN.md, S5)."""

from .cdcl import CDCLSolver, SolverStats
from .graph import AcyclicityTheory
from .monosat import AcyclicGraphSolver

__all__ = [
    "CDCLSolver",
    "SolverStats",
    "AcyclicityTheory",
    "AcyclicGraphSolver",
]
