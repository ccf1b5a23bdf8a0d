"""A conflict-driven clause-learning (CDCL) SAT solver with a theory hook.

This is the search core of our MonoSAT substitute (see DESIGN.md,
substitution 1).  It implements the standard MiniSat architecture:

- two-watched-literal unit propagation,
- first-UIP conflict analysis with activity bumping (VSIDS),
- non-chronological backjumping,
- Luby-sequence restarts and phase saving.

A *theory* object may be attached (DPLL(T) style).  After every Boolean
propagation fixpoint the solver feeds newly-true theory variables to the
theory; if the theory reports a conflict — for the acyclicity theory, a set
of edge variables forming a directed cycle — the conflict is turned into a
clause and handled by the regular conflict analysis machinery.

Variables carry MiniSat's two per-variable settings (``new_var``): whether
the search may *decide* the variable, and the phase its first decision
tries.  The PolySI encoder decides only its constraint-choice variables —
every edge and gate variable is a function of those and is left to
propagation — and seeds each choice's phase from the theory's topological
order (DESIGN.md, substitution 1 and S4).  The defaults (decide every
variable, try *false* first: a variable means "this edge exists", and
sparse graphs are the acyclic ones) are what a plain CNF gets.
"""

from __future__ import annotations

import heapq
from typing import Iterable, List, Optional

from ..obs import current_metrics

__all__ = ["CDCLSolver", "SolverStats"]


class SolverStats:
    """Counters exposed for the evaluation harness."""

    __slots__ = ("conflicts", "decisions", "propagations", "restarts",
                 "theory_conflicts", "learned", "theory_checks",
                 "theory_reorders")

    def __init__(self) -> None:
        for name in self.__slots__:
            setattr(self, name, 0)

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}

    def publish(self, registry) -> None:
        """Mirror every counter into ``registry`` as a ``solver.*``
        gauge — the live solver-progress surface.  No-op when
        ``registry`` is None (metrics disabled)."""
        if registry is None:
            return
        for name in self.__slots__:
            registry.gauge(f"solver.{name}").set(getattr(self, name))


def _luby(i: int) -> int:
    """The i-th element (1-based) of the Luby restart sequence."""
    while True:
        k = i.bit_length()
        if i == (1 << k) - 1:
            return 1 << (k - 1)
        i = i - (1 << (k - 1)) + 1


class CDCLSolver:
    """CDCL solver over variables ``1..num_vars``.

    Typical use::

        s = CDCLSolver()
        a, b = s.new_var(), s.new_var()
        s.add_clause([a, b])
        s.add_clause([-a, b])
        assert s.solve()
        assert s.model_value(b)
    """

    RESTART_BASE = 128

    def __init__(self) -> None:
        self.num_vars = 0
        # Indexed by variable (1-based); index 0 unused.
        self.values: List[int] = [0]        # 0 unassigned, 1 true, -1 false
        self.levels: List[int] = [0]
        self.reasons: List[Optional[list]] = [None]
        self.activity: List[float] = [0.0]
        self.phase: List[bool] = [False]
        self.decision = bytearray(1)        # 1: the search may decide it
        self._seen = bytearray(1)
        # Watches indexed by literal encoding: lit -> list of clauses.
        self.watches: dict = {}
        self.clauses: List[list] = []
        self.learned_clauses: List[list] = []
        self.trail: List[int] = []
        self.trail_lim: List[int] = []
        self.qhead = 0
        self.var_inc = 1.0
        self.var_decay = 0.95
        self._order: List[tuple] = []  # lazy max-activity heap entries
        self._unsat = False
        self.theory = None
        self._theory_head = 0
        self.stats = SolverStats()

    # -- variable / clause management ---------------------------------------

    def new_var(self, decision: bool = True, phase: bool = False) -> int:
        """Allocate a fresh variable and return its index.

        ``decision`` and ``phase`` have MiniSat's meaning: whether the
        search may branch on the variable, and the value its first
        decision tries (phase saving overwrites it with every later
        assignment).  The search answers SAT once no *decision* variable
        is unassigned, and an unassigned variable reads false
        (:meth:`model_value`) — so the caller's contract for
        ``decision=False`` is that propagation forces the variable
        whenever its value matters: with every decision variable
        assigned and propagation at fixpoint, setting the rest false
        must satisfy every clause and assert nothing to the theory.
        """
        self.num_vars += 1
        self.values.append(0)
        self.levels.append(0)
        self.reasons.append(None)
        self.activity.append(0.0)
        self.phase.append(phase)
        self.decision.append(decision)
        self._seen.append(0)
        if decision:
            self._heap_push(self.num_vars)
        return self.num_vars

    def ensure_vars(self, n: int) -> None:
        while self.num_vars < n:
            self.new_var()

    def set_decision_var(self, var: int, phase: bool = False) -> None:
        """Make an existing variable a decision variable whose first
        decision tries ``phase`` (MiniSat's ``setDecisionVar`` plus
        ``setPolarity``)."""
        self.phase[var] = phase
        if not self.decision[var]:
            self.decision[var] = 1
            self._heap_push(var)

    def attach_theory(self, theory) -> None:
        """Attach a DPLL(T) theory (see :mod:`repro.solver.graph`)."""
        self.theory = theory

    def backtrack_to_root(self) -> None:
        """Undo every non-root assignment (decision level 0).

        Incremental use: after a :meth:`solve` call, return to the root
        level before adding further variables or clauses and re-solving.
        Root-level facts and learned clauses are kept — clauses learned
        under an earlier clause set stay implied when clauses are only
        ever *added*, which is what makes cross-call reuse sound.
        """
        self._backtrack(0)

    def add_clause(self, lits: Iterable[int]) -> bool:
        """Add a clause; returns False if the formula became trivially UNSAT.

        Must be called at the top level (decision level 0); between solve
        calls, :meth:`backtrack_to_root` first.
        """
        if self._unsat:
            return False
        # Deduplicate and drop tautologies / falsified literals.
        out: List[int] = []
        seen = set()
        for lit in lits:
            if lit in seen:
                continue
            if -lit in seen:
                return True  # tautology: always satisfied
            value = self._value_lit(lit)
            if value == 1 and self.levels[abs(lit)] == 0:
                return True  # already satisfied at top level
            if value == -1 and self.levels[abs(lit)] == 0:
                continue  # permanently false literal
            seen.add(lit)
            out.append(lit)
        if not out:
            self._unsat = True
            return False
        if len(out) == 1:
            if not self._enqueue(out[0], None):
                self._unsat = True
                return False
            return True
        clause = out
        self.clauses.append(clause)
        self._watch(clause)
        return True

    def _watch(self, clause: list) -> None:
        self.watches.setdefault(clause[0], []).append(clause)
        self.watches.setdefault(clause[1], []).append(clause)

    # -- assignment helpers --------------------------------------------------

    def _value_lit(self, lit: int) -> int:
        value = self.values[lit if lit > 0 else -lit]
        return value if lit > 0 else -value

    def model_value(self, var: int) -> bool:
        """Value of ``var`` in the model found by the last successful
        solve (a non-decision variable left unassigned is false)."""
        return self.values[var] == 1

    def _enqueue(self, lit: int, reason: Optional[list]) -> bool:
        value = self._value_lit(lit)
        if value == 1:
            return True
        if value == -1:
            return False
        var = lit if lit > 0 else -lit
        self.values[var] = 1 if lit > 0 else -1
        self.levels[var] = self.decision_level
        self.reasons[var] = reason
        self.phase[var] = lit > 0
        self.trail.append(lit)
        return True

    @property
    def decision_level(self) -> int:
        return len(self.trail_lim)

    # -- propagation ----------------------------------------------------------

    def _propagate(self) -> Optional[list]:
        """Unit propagation; returns a conflicting clause or None."""
        while self.qhead < len(self.trail):
            lit = self.trail[self.qhead]
            self.qhead += 1
            self.stats.propagations += 1
            false_lit = -lit
            watchers = self.watches.get(false_lit)
            if not watchers:
                continue
            i = 0
            j = 0
            n = len(watchers)
            while i < n:
                clause = watchers[i]
                i += 1
                # Normalize: the false watch sits at position 1.
                if clause[0] == false_lit:
                    clause[0], clause[1] = clause[1], clause[0]
                first = clause[0]
                if self._value_lit(first) == 1:
                    watchers[j] = clause
                    j += 1
                    continue
                moved = False
                for k in range(2, len(clause)):
                    if self._value_lit(clause[k]) != -1:
                        clause[1], clause[k] = clause[k], clause[1]
                        self.watches.setdefault(clause[1], []).append(clause)
                        moved = True
                        break
                if moved:
                    continue
                # Clause is unit or conflicting.
                watchers[j] = clause
                j += 1
                if self._value_lit(first) == -1:
                    while i < n:
                        watchers[j] = watchers[i]
                        i += 1
                        j += 1
                    del watchers[j:]
                    self.qhead = len(self.trail)
                    return clause
                self._enqueue(first, clause)
            del watchers[j:]
        return None

    def _theory_check(self) -> Optional[list]:
        """Feed newly-true theory variables to the theory.

        Returns a conflicting clause (all literals currently false) if the
        theory detects an inconsistency.
        """
        if self.theory is None:
            return None
        while self._theory_head < len(self.trail):
            pos = self._theory_head
            lit = self.trail[pos]
            self._theory_head += 1
            if lit > 0 and self.theory.watches_var(lit):
                conflict_vars = self.theory.assert_var(lit, pos)
                if conflict_vars is not None:
                    self.stats.theory_conflicts += 1
                    return [-v for v in conflict_vars]
        return None

    # -- conflict analysis -----------------------------------------------------

    def _analyze(self, conflict: list) -> tuple:
        """First-UIP learning; returns (learnt clause, backjump level)."""
        learnt: List[int] = []
        seen = self._seen
        touched: List[int] = []
        path_count = 0
        p = 0
        index = len(self.trail) - 1
        clause = conflict
        current = self.decision_level
        while True:
            for q in clause:
                var = q if q > 0 else -q
                if var == (p if p > 0 else -p):
                    continue
                if not seen[var] and self.levels[var] > 0:
                    seen[var] = 1
                    touched.append(var)
                    self._bump(var)
                    if self.levels[var] >= current:
                        path_count += 1
                    else:
                        learnt.append(q)
            while not seen[self.trail[index] if self.trail[index] > 0
                           else -self.trail[index]]:
                index -= 1
            p = self.trail[index]
            index -= 1
            var = p if p > 0 else -p
            seen[var] = 0
            path_count -= 1
            if path_count == 0:
                break
            clause = self.reasons[var]
        learnt.insert(0, -p)
        for var in touched:
            seen[var] = 0
        if len(learnt) == 1:
            return learnt, 0
        # Find the second-highest decision level and watch a literal there.
        max_i = 1
        for i in range(2, len(learnt)):
            if self.levels[abs(learnt[i])] > self.levels[abs(learnt[max_i])]:
                max_i = i
        learnt[1], learnt[max_i] = learnt[max_i], learnt[1]
        return learnt, self.levels[abs(learnt[1])]

    def _bump(self, var: int) -> None:
        self.activity[var] += self.var_inc
        if self.activity[var] > 1e100:
            for v in range(1, self.num_vars + 1):
                self.activity[v] *= 1e-100
            self.var_inc *= 1e-100
        if self.decision[var]:
            self._heap_push(var)

    def _decay(self) -> None:
        self.var_inc /= self.var_decay

    # -- backtracking -----------------------------------------------------------

    def _backtrack(self, level: int) -> None:
        if self.decision_level <= level:
            return
        limit = self.trail_lim[level]
        for lit in reversed(self.trail[limit:]):
            var = lit if lit > 0 else -lit
            self.values[var] = 0
            self.reasons[var] = None
            if self.decision[var]:
                self._heap_push(var)
        del self.trail[limit:]
        del self.trail_lim[level:]
        self.qhead = min(self.qhead, len(self.trail))
        if self.theory is not None:
            self.theory.backtrack(len(self.trail))
            self._theory_head = min(self._theory_head, len(self.trail))

    # -- decision heuristic -------------------------------------------------------

    def _heap_push(self, var: int) -> None:
        heapq.heappush(self._order, (-self.activity[var], var))

    def _pick_branch_var(self) -> int:
        """The unassigned decision variable of highest activity, or 0.

        The heap is lazy (stale and duplicate entries are skipped here)
        but complete: only decision variables are ever pushed, and every
        one that becomes unassigned is (``new_var``, ``_backtrack``), so
        an empty heap means none is left.
        """
        while self._order:
            _, var = heapq.heappop(self._order)
            if self.values[var] == 0:
                return var
        return 0

    # -- main loop ------------------------------------------------------------------

    def solve(self) -> bool:
        """Returns True (SAT, model available) or False (UNSAT).

        May be called repeatedly, with clauses and variables added in
        between (see :meth:`backtrack_to_root`); each call starts from
        the root level and keeps previously learned clauses.
        """
        if self._unsat:
            return False
        # Resolved once per solve call: the hot search loop only touches
        # metrics at restart boundaries and on return.
        registry = current_metrics()
        sat = self._search(registry)
        self._publish(registry)
        return sat

    def _publish(self, registry) -> None:
        """Drain the theory's own counters into the stats, then mirror
        the stats into ``registry``."""
        theory = self.theory
        if theory is not None:
            self.stats.theory_checks += theory.checks
            self.stats.theory_reorders += theory.reorders
            theory.checks = theory.reorders = 0
        self.stats.publish(registry)

    def _search(self, registry) -> bool:
        self._backtrack(0)
        if self.theory is not None:
            # Root-level theory assertions survive across calls (the
            # backtrack pops everything above them); re-feeding only the
            # yet-unseen tail of the trail keeps repeated solves cheap.
            self._theory_head = min(self._theory_head, len(self.trail))
        restart_count = 0
        conflicts_until_restart = self.RESTART_BASE * _luby(1)
        conflicts_in_round = 0
        while True:
            conflict = self._propagate()
            if conflict is None:
                conflict = self._theory_check()
            if conflict is not None:
                self.stats.conflicts += 1
                conflicts_in_round += 1
                # A theory conflict may live entirely below the current
                # decision level; resolve it at its own level.
                max_level = 0
                for lit in conflict:
                    lvl = self.levels[abs(lit)]
                    if lvl > max_level:
                        max_level = lvl
                if max_level == 0:
                    # Conflict among root-level facts: permanently UNSAT
                    # (latched, so repeated incremental solves stay False).
                    self._unsat = True
                    return False
                if max_level < self.decision_level:
                    self._backtrack(max_level)
                learnt, back_level = self._analyze(conflict)
                self._backtrack(back_level)
                if len(learnt) == 1:
                    if not self._enqueue(learnt[0], None):
                        self._unsat = True
                        return False
                else:
                    self.learned_clauses.append(learnt)
                    self._watch(learnt)
                    self._enqueue(learnt[0], learnt)
                self.stats.learned += 1
                self._decay()
                continue
            if conflicts_in_round >= conflicts_until_restart:
                self.stats.restarts += 1
                self._publish(registry)
                restart_count += 1
                conflicts_in_round = 0
                conflicts_until_restart = self.RESTART_BASE * _luby(
                    restart_count + 1
                )
                self._backtrack(0)
                continue
            var = self._pick_branch_var()
            if var == 0:
                # Every decision variable is assigned and propagation is
                # at fixpoint: the rest read false (see new_var).
                return True
            self.stats.decisions += 1
            self.trail_lim.append(len(self.trail))
            lit = var if self.phase[var] else -var
            self._enqueue(lit, None)
