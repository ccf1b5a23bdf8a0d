"""Constraint pruning (paper Section 4.3, Algorithm 2 lines 34-70).

A constraint branch is impossible when adding its edges to the *known*
part of the induced SI graph would close an undesired cycle:

- a WW edge ``from -> to`` is impossible if ``to`` already reaches
  ``from`` (Figure 4a);
- an RW edge ``from -> to`` is impossible if ``to`` reaches an immediate
  Dep-predecessor ``prec`` of ``from`` — the composition
  ``prec -Dep-> from -RW-> to`` adds a known induced edge ``prec -> to``
  which, together with the path ``to ~> prec``, closes a cycle
  (Figure 4b).

Every constraint is a writer pair with two reader lists
(:class:`~repro.core.polygraph.Constraint`), so a branch is "``first``
precedes ``second``": one WW edge and the RW edges of ``first``'s
readers, all sharing the head ``second``.  :func:`pair_impossible` asks
both questions of it without building it.  The first is about one
vertex and is one ``has`` lookup.  The second is a *set* question about
one closure row and is evaluated as such: the row of ``second`` is
fetched once and meets the union of the readers' Dep-predecessor masks
(:attr:`KnownGraph.pred_mask <repro.core.known.KnownGraph.pred_mask>`)
in int-bitset arithmetic, so the cost of a branch does not depend on
how many predecessors its readers have.

When one branch is impossible the other becomes known; when both are, the
history violates SI and a concrete witness cycle is reconstructed for the
interpretation stage.  The process iterates to a fixpoint: newly-known
edges enable further pruning.  An iteration's promoted branches go
into the known graph pair by pair, key by key, leaving out the pairs
the rest of them imply (:meth:`PruneState.promote`: the graph keeps
the closure it would have had, over a fraction of the pairs); their
typed edges are all written into ``graph.known_edges``, but only if
something reads that list
(:meth:`GeneralizedPolygraph.promote
<repro.core.polygraph.GeneralizedPolygraph.promote>`).

Reachability of the known induced graph ``KI = Dep ∪ (Dep ; AntiDep)``
is maintained *incrementally* across iterations: iteration 1 seeds the
int-bitset closure kernel (:class:`repro.utils.closure.PyBitsetClosure`)
from one exact SCC-condensed bitset closure that walks Dep and AntiDep
through hop nodes instead of composing KI
(:meth:`KnownGraph.closure <repro.core.known.KnownGraph.closure>`; the
paper uses Floyd-Warshall), and every later iteration only propagates
the edges the previous iteration promoted to known — the same
maintenance the online checker performs per transaction.
:class:`PruneState` carries the closure plus the shared
:class:`~repro.core.known.KnownGraph` (Dep / AntiDep adjacency and
immediate Dep-predecessors), all updated in place as
:func:`apply_decisions` resolves constraints, so nothing is rebuilt
from scratch after iteration 1.  This is sound in batch mode
because edges are only ever *added* (no eviction): the incrementally
maintained rows equal what a recompute over the current known edges
would produce, which the recompute-per-iteration reference fixpoint in
``tests/_helpers.py`` pins differentially.
"""

from __future__ import annotations

from collections import deque
from itertools import chain
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..obs import counter as obs_counter, trace_span
from ..utils.closure import PyBitsetClosure
from ..utils.reachability import Reachability
from .polygraph import (
    Constraint,
    Edge,
    GeneralizedPolygraph,
    KeyOrder,
    RW,
    WW,
)

#: The closure kernel batch pruning builds (DESIGN S10): lookup-bound,
#: so the int-bitset one, whose rows are ints already.
KERNEL = PyBitsetClosure

__all__ = [
    "PruneResult",
    "PruneState",
    "pair_impossible",
    "classify_constraints",
    "apply_decisions",
    "order_writers",
    "prune_constraints",
    "find_known_cycle",
]


class PruneResult:
    """Outcome of :func:`prune_constraints`."""

    __slots__ = (
        "ok",
        "iterations",
        "pruned",
        "constraints_before",
        "constraints_after",
        "unknown_deps_before",
        "unknown_deps_after",
        "violation_cycle",
        "violation_constraint",
        "known_acyclic",
        "state",
    )

    def __init__(self) -> None:
        self.ok = True
        self.iterations = 0
        self.pruned = 0
        self.constraints_before = 0
        self.constraints_after = 0
        self.unknown_deps_before = 0
        self.unknown_deps_after = 0
        self.violation_cycle: Optional[List[Edge]] = None
        self.violation_constraint: Optional[Constraint] = None
        #: True when the fixpoint ended with a closure showing the known
        #: induced graph of the *pruned* polygraph acyclic (no vertex
        #: reaches itself).  False means "not established" — a cycle, a
        #: violation, or a result not produced by a fixpoint.
        self.known_acyclic = False
        #: With :attr:`known_acyclic`, the fixpoint's final
        #: :class:`PruneState` for the next stage to ask
        #: (:func:`repro.core.encoding.encode_polygraph`).  n²/8 bytes of
        #: rows: reset to None before the result is reported or pickled.
        self.state: Optional["PruneState"] = None

    def as_dict(self) -> dict:
        """Summary counters (the Table 3 columns)."""
        return {
            "ok": self.ok,
            "iterations": self.iterations,
            "pruned": self.pruned,
            "constraints_before": self.constraints_before,
            "constraints_after": self.constraints_after,
            "unknown_deps_before": self.unknown_deps_before,
            "unknown_deps_after": self.unknown_deps_after,
        }


class PruneState:
    """Incrementally-maintained classification state for the fixpoint.

    Bundles everything one pruning iteration classifies against — the
    reachability closure of the known induced graph ``KI`` plus the
    :class:`~repro.core.known.KnownGraph` it is derived from — and
    keeps both current as edges are promoted, instead of rebuilding per
    iteration:

    - construction adopts the known graph the polygraph's
      construction installed as it emitted the edges
      (:meth:`GeneralizedPolygraph.take_known
      <repro.core.polygraph.GeneralizedPolygraph.take_known>`), pays
      for one batch closure
      (:meth:`KnownGraph.closure() <repro.core.known.KnownGraph.closure>`,
      which never builds KI) and wraps its rows into the int-bitset
      incremental kernel (:class:`~repro.utils.closure.PyBitsetClosure`:
      pruning is lookup-bound, one ``row()`` per question, and int rows
      answer without conversion — DESIGN.md S10);
    - :meth:`promote` installs an iteration's winning branches into
      the known graph pair by pair (cheap set updates), each key's as
      the chain of its version order, queues each new pair, and logs the
      branches on the graph, which writes their typed edges only if
      read; :meth:`add_known` does the same for one typed edge, written
      into the graph at once;
    - reading :attr:`reach` flushes the queued delta into the closure,
      *adaptively*.  A small delta (the typical late fixpoint
      iteration) expands each queued edge into the KI pairs it induces
      (:meth:`~repro.core.known.KnownGraph.induced_by`) and propagates
      them through :meth:`~repro.utils.closure.PyBitsetClosure.insert` —
      the maintenance the online checker performs per arriving
      transaction.  A large delta (typically iteration 1 resolving most
      constraints at once) instead reseeds the closure with the same
      batch kernel — cheaper than the per-iteration recompute it
      replaces, because the Dep / AntiDep sets it walks are already
      current.  The
      kernel's operation counters carry over a reseed, so they stay
      monotone for the whole fixpoint.

    Eviction-free batch mode is what makes carrying the rows across
    iterations sound: edges are only ever added, so the incremental rows
    always equal a from-scratch closure of the current known edges (a
    cyclic insertion leaves the cycle's members self-reaching, matching
    the SCC-condensed kernel).  :attr:`known` is reachability-equivalent
    to those edges' pair projection, not equal to it: it lacks the
    :attr:`pairs_implied` its own closure implies.
    """

    __slots__ = ("graph", "known", "pairs_implied", "pairs_ordered",
                 "constraints_built", "_reach", "_pending", "_queued",
                 "_reseed_above")

    def __init__(self, graph: GeneralizedPolygraph):
        self.graph = graph
        self.known = graph.take_known()
        self._reach = self._seed(reseed=False)
        #: How many promoted pairs (each a new Dep/AntiDep pair) are not
        #: yet in the closure.  Past ``_reseed_above`` the next flush
        #: reseeds, so only the first ``_reseed_above`` are recorded, as
        #: typed edges, in ``_pending``.
        self._queued = 0
        self._reseed_above = max(16, graph.num_vertices // 8)
        self._pending: List[Edge] = []
        #: Pairs :meth:`promote` skipped because the pairs it installed
        #: with them imply them.
        self.pairs_implied = 0
        #: Pairs :func:`order_writers` decided from the seeded order
        #: without a :class:`Constraint`, and the constraints it built.
        self.pairs_ordered = 0
        self.constraints_built = 0

    def _seed(self, reseed: bool) -> PyBitsetClosure:
        known = self.known
        with trace_span("closure-seed", reseed=reseed,
                        vertices=known.num_vertices,
                        dep=sum(map(len, known.dep)),
                        antidep=sum(map(len, known.antidep))):
            obs_counter(f"closure.{KERNEL.name}.seeds").inc()
            return KERNEL.from_rows(known.closure().rows)

    @property
    def pred_mask(self) -> List[int]:
        """Known immediate Dep-predecessors per vertex, as int bitsets."""
        return self.known.pred_mask

    @property
    def reach(self) -> PyBitsetClosure:
        """The KI closure, with any queued delta flushed in."""
        if self._queued:
            self._flush()
        return self._reach

    def _flush(self) -> None:
        pending, queued = self._pending, self._queued
        self._pending, self._queued = [], 0
        if queued > self._reseed_above:
            # Large delta: one bulk reseed over the maintained adjacency
            # costs less than a single old-style recompute iteration did.
            fresh = self._seed(reseed=True)
            fresh.adopt_counters(self._reach)
            self._reach = fresh
            return
        # Small delta: expand each promoted edge against the *current*
        # graph (a superset of what was current at promotion time —
        # monotone, and insert() dedups already-implied edges in O(1)).
        insert = self._reach.insert
        for edge in pending:
            for u, v in self.known.induced_by(edge):
                insert(u, v)

    def _queue(self, edge: Edge) -> None:
        self._queued += 1
        if self._queued <= self._reseed_above:
            self._pending.append(edge)

    def add_known(self, edge: Edge) -> None:
        """Promote one typed edge: into the graph, the known graph, and
        the (queued) incremental KI closure."""
        if self.graph.add_known(edge) and self.known.add(edge):
            self._queue(edge)

    def promote(self, winners: Sequence[Tuple[Constraint, bool]]) -> None:
        """Make the winning branches of one iteration known.

        ``winners`` are ``(constraint, either_wins)`` in constraint
        order.  Each branch is logged on the graph in that order
        (:meth:`GeneralizedPolygraph.promote
        <repro.core.polygraph.GeneralizedPolygraph.promote>`), which
        writes its typed edges only if read.  The known graph gains,
        key by key, only the pairs the rest of the iteration's winners
        do not already imply (:meth:`_install`); the closure queue
        records the pairs it gains."""
        by_key: Dict[object, Dict[Tuple[int, int], List[Sequence[int]]]] = {}
        graph_promote = self.graph.promote
        for cons, either_wins in winners:
            graph_promote(cons, either_wins)
            t, s = cons.pair
            if either_wins:
                arc, readers = (t, s), cons.readers[0]
            else:
                arc, readers = (s, t), cons.readers[1]
            by_key.setdefault(cons.key, {}).setdefault(arc, []).append(
                readers)
        for key, arcs in by_key.items():
            self._install(key, arcs, _chain_masks(arcs))

    def promote_key(self, order: KeyOrder, arcs, masks,
                    implied: int) -> None:
        """Make one key's winners known from its :func:`_order_key`
        plan: logged on the graph as one entry, installed as
        :meth:`promote` would install them all (``arcs`` leaves out
        ``implied`` pairs' worth that the chain implies anyway)."""
        self.graph.promote_key(order)
        self._install(order.key, arcs, masks)
        self.pairs_implied += implied

    def _install(self, key,
                 arcs: Dict[Tuple[int, int], List[Sequence[int]]],
                 masks) -> None:
        """Install one key's winning WW pairs ``first -> second``, each
        with the RW pairs ``r -> second`` of the readers of ``first``,
        skipping every pair the others imply (DESIGN.md S9).

        A WW pair is skipped when ``first`` reaches ``second`` through
        another successor ``c`` among the pairs, and its RW pairs with
        it: the installed chain ``first -> c ~> second`` carries
        everything they would induce.  That needs every pair of
        ``first`` to come with the same readers (a compact polygraph's
        reader list); pairs that came with different ones (the
        ablation's one-reader pieces) go in as they are, and so do
        winners that close a cycle among themselves
        (``masks``, from :func:`_chain_masks`).
        """
        bit, via = masks
        by_first: Dict[int, List[Tuple[int, List[Sequence[int]]]]] = {}
        for (first, second), reader_lists in arcs.items():
            by_first.setdefault(first, []).append((second, reader_lists))
        for first, out in by_first.items():
            shared = out[0][1][0]
            reducible = all(len(lists) == 1 and lists[0] is shared
                            for _second, lists in out)
            for second, lists in out:
                if reducible and via[first] & bit[second]:
                    self.pairs_implied += (1 + len(shared)
                                           - shared.count(second))
                else:
                    self._add_pairs(key, first, second, lists)

    def _add_pairs(self, key, first: int, second: int,
                   lists: Sequence[Sequence[int]]) -> None:
        """Install the WW pair ``first -> second`` and the RW pair
        ``r -> second`` of every reader in ``lists``, queueing the pairs
        that are new."""
        known = self.known
        if known.add_dep(first, second):
            self._queue((first, second, WW, key))
        for readers in lists:
            new = known.add_antideps(readers, second)
            if new:
                # Past the reseed threshold nothing is recorded, which
                # is where a large promotion adds most of its pairs.
                room = self._reseed_above - self._queued
                if room > 0:
                    self._pending.extend((reader, second, RW, key)
                                         for reader in new[:room])
                self._queued += len(new)


def _chain_masks(arcs: Iterable[Tuple[int, int]]):
    """For one key's winning WW pairs ``(first, second)``: a bit per
    writer, and per writer the bits of those it reaches through two or
    more of the pairs (``via``).  When the pairs close a cycle every
    mask is 0, so nothing is skipped."""
    succ: Dict[int, List[int]] = {}
    indegree: Dict[int, int] = {}
    for first, second in arcs:
        succ.setdefault(first, []).append(second)
        indegree.setdefault(first, 0)
        indegree[second] = indegree.get(second, 0) + 1
    order = [v for v, degree in indegree.items() if not degree]
    for v in order:  # Kahn's algorithm: the list grows as it is walked
        for w in succ.get(v, ()):
            indegree[w] -= 1
            if not indegree[w]:
                order.append(w)
    if len(order) < len(indegree):
        none = dict.fromkeys(indegree, 0)
        return none, none
    bit = {v: 1 << i for i, v in enumerate(order)}
    below: Dict[int, int] = {}  # reached through one or more pairs
    via: Dict[int, int] = {}
    for v in reversed(order):
        heads = through = 0
        for w in succ.get(v, ()):
            heads |= bit[w]
            through |= below[w]
        below[v] = heads | through
        via[v] = through
    return bit, via


def pair_impossible(
    first: int,
    second: int,
    readers: Iterable[int],
    reach: Reachability,
    pred_mask: Sequence[int],
) -> bool:
    """The paper's two impossibility rules (Section 4.3, Figure 4) for
    the branch "``first`` precedes ``second``", asked without building
    it; ``readers`` are ``first``'s readers of the key.

    ``reach`` is any oracle with ``has(u, v)`` and ``row(u)`` — the batch
    :class:`Reachability` or an incremental closure of either kernel;
    ``pred_mask[v]`` is the int bitset of the known immediate
    Dep-predecessors of ``v``.

    - WW ``first -> second`` is impossible iff ``second`` reaches
      ``first``: one bit, asked as ``has(second, first)`` — a branch
      with no readers (most branches of a write-heavy stream) never pays
      for a row;
    - RW ``r -> second`` (every reader ``r`` other than ``second``) is
      impossible iff ``second`` reaches, *or is*, some Dep-predecessor
      of ``r``.  The edges share their head, so they are one question:
      does ``second``'s closure row, or ``second`` itself (the composed
      edge ``second -> second`` is a self-loop, which strict
      reachability does not record), meet the union of the readers'
      masks?
    """
    if reach.has(second, first):
        return True
    preds = 0
    some = False
    for reader in readers:
        if reader != second:
            preds |= pred_mask[reader]
            some = True
    return some and bool((reach.row(second) | 1 << second) & preds)


def classify_constraints(
    constraints: List[Constraint],
    reach: Reachability,
    pred_mask: Sequence[int],
) -> List[Tuple[bool, bool]]:
    """Per-constraint ``(either_impossible, orelse_impossible)`` decisions
    against one iteration's read-only state.

    Classification reads only ``reach`` and ``pred_mask`` (both frozen
    at iteration start), never the graph, so no decision observes
    another's resolution within the iteration.
    """
    decisions = []
    for cons in constraints:
        t, s = cons.pair
        readers_t, readers_s = cons.readers
        decisions.append(
            (pair_impossible(t, s, readers_t, reach, pred_mask),
             pair_impossible(s, t, readers_s, reach, pred_mask)))
    return decisions


def _split(constraints: List[Constraint],
           decisions: List[Tuple[bool, bool]]):
    """``(winners, remaining, violating)``: the winning branches as
    ``(constraint, either_wins)`` and the undecided constraints, in
    order, up to the first constraint with both branches impossible
    (``violating``, None when there is none)."""
    winners: List[Tuple[Constraint, bool]] = []
    remaining: List[Constraint] = []
    for cons, (either_bad, orelse_bad) in zip(constraints, decisions):
        if either_bad and orelse_bad:
            return winners, remaining, cons
        if either_bad or orelse_bad:
            winners.append((cons, not either_bad))
        else:
            remaining.append(cons)
    return winners, remaining, None


def _violate(graph: GeneralizedPolygraph, result: PruneResult,
             cons: Constraint) -> None:
    """Mark ``result`` violated by ``cons``, with a witness searched
    over the known edges, every winner promoted before it included."""
    result.ok = False
    result.violation_constraint = cons
    result.violation_cycle = _violation_cycle(graph, cons)


def apply_decisions(
    graph: GeneralizedPolygraph,
    decisions: List[Tuple[bool, bool]],
    result: PruneResult,
    state: PruneState,
) -> bool:
    """Apply one iteration's classification to ``graph`` in constraint
    order; returns whether anything was resolved.

    The winning branches are collected and handed, in constraint order,
    to one :meth:`PruneState.promote`, which keeps the closure and
    adjacency current for the next iteration.  Decisions were classified
    against the state frozen at iteration start, so promoting them
    together cannot change them.

    On the first constraint with both branches impossible, the winners
    before it are promoted, ``result`` is marked violating (with a
    witness cycle reconstructed over the known edges, theirs included)
    and the remaining decisions are not applied.
    """
    winners, remaining, violating = _split(graph.constraints, decisions)
    state.promote(winners)
    result.pruned += len(winners)
    if violating is not None:
        _violate(graph, result, violating)
    else:
        graph.constraints = remaining
    return bool(winners)


class _Rows:
    """The seeded closure rows of one key's writers, each fetched with
    one ``row`` lookup, as the oracle :func:`pair_impossible` asks about
    that key's pairs: every question it asks is about two of them."""

    __slots__ = ("rows",)

    def __init__(self, rows: Dict[int, int]):
        self.rows = rows

    def has(self, u: int, v: int) -> bool:
        return bool(self.rows[u] >> v & 1)

    def row(self, u: int) -> int:
        return self.rows[u]


def order_writers(graph: GeneralizedPolygraph, state: PruneState,
                  result: PruneResult) -> bool:
    """Pruning's first iteration over a polygraph whose constraints are
    still its writer lists (:attr:`GeneralizedPolygraph.writer_lists`),
    key by key against the seeded closure (DESIGN.md S9); returns
    whether anything was resolved.

    Each key's writers' rows are fetched once (:class:`_Rows`) and
    :func:`_order_key` decides the pairs they order in bulk, building a
    :class:`Constraint` only for a pair they leave unordered.  A key
    :func:`_order_key` declines is built and classified pair by pair.
    Promotion follows, key by key, once every key is classified — or,
    on the first constraint with both branches impossible, for the
    keys and winners before it, as :func:`apply_decisions` would.  The
    constraints, winners, known pairs, queue and witness are those of
    :func:`classify_constraints` and :func:`apply_decisions` over the
    built list; fewer closure lookups are asked.
    """
    reach, pred_mask = state.reach, state.pred_mask
    readers_from = graph.readers_from
    plans: list = []
    remaining: List[Constraint] = []
    won = ordered = built = 0
    violating = None
    for key, writers in graph.writer_lists.items():
        rows = _Rows({w: reach.row(w) for w in writers})
        readers = [readers_from.get((w, key), ()) for w in writers]
        decision = _order_key(key, writers, readers, rows, pred_mask)
        if decision is not None:
            plan, pairs, decided, undecided = decision
            plans.append(plan)
            won += pairs + decided
            ordered += pairs
            built += len(undecided)
        else:
            constraints = graph.key_constraints(key, writers)
            built += len(constraints)
            winners, undecided, violating = _split(
                constraints,
                classify_constraints(constraints, rows, pred_mask))
            plans.append(winners)
            won += len(winners)
            if violating is not None:
                break
        remaining += undecided
    # The rows and pred_mask stayed frozen while every key was decided;
    # now each key's winners go in, in key order.
    for plan in plans:
        if type(plan) is list:
            state.promote(plan)
        else:
            state.promote_key(*plan)
    result.pruned += won
    state.pairs_ordered += ordered
    state.constraints_built += built
    if violating is not None:
        _violate(graph, result, violating)
    else:
        graph.constraints = remaining
    return bool(won)


def _order_key(key, writers: List[int], readers: List[Sequence[int]],
               rows: _Rows, pred_mask: Sequence[int]):
    """Decide one key's writer pairs from its writers' seeded rows.

    ``after[i]``, the writers ``writers[i]`` reaches, orders most pairs:
    the WW rule makes the other order impossible.  Sorted by how many
    writers they reach, the writers are a linear extension of that
    order, so one forward scan per writer, stopping once what it has
    found covers ``after[i]``, finds its immediate successors.  The
    winning branch of every ordered pair still has to pass the RW rule,
    asked once per writer: the union of its readers' Dep-predecessors
    against the union of its immediate successors' rows and bits, which
    contains every later writer's.  A hit is a pair with both branches
    impossible: the one reader a pair ``(t, s)`` leaves out is ``s``,
    and ``s`` reaching one of its own Dep-predecessors would make it
    reach itself.  Pairs left unordered are asked both ways with
    :func:`pair_impossible`; the undecided ones become constraints.

    Returns None — build and classify the key pair by pair — when a
    writer reaches itself, a pair has both branches impossible, or the
    winners close a cycle.  Otherwise ``(plan, ordered, decided,
    constraints)``.  ``plan`` holds the arguments of
    :meth:`PruneState.promote_key`: the :class:`KeyOrder` to log, the
    winning WW pairs to install, their :func:`_chain_masks` and the
    weight of the ordered pairs left out (each ``1 + |readers| -
    [second is a reader]``, as :meth:`PruneState._install` counts a
    skipped pair).  ``ordered`` and
    ``decided`` count the pairs the rows order and the RW rule decides;
    ``constraints`` are the undecided pairs, in pair order.
    """
    row = rows.rows
    k = len(writers)
    bits = [1 << w for w in writers]
    every = sum(bits)
    after = [row[w] & every for w in writers]
    if any(map(int.__and__, after, bits)):
        return None    # a writer that reaches itself orders nothing
    sizes = [bin(a).count("1") for a in after]
    by_reach = sorted(range(k), key=sizes.__getitem__, reverse=True)
    # succ[i]: the immediate successors of writers[i].  Over positions,
    # not vertices: bit j of earlier[i] / later[i] is writers[j]
    # preceding / following writers[i].
    succ: List[List[int]] = [[] for _ in range(k)]
    earlier = [0] * k
    later = [0] * k
    implied = 0
    for at, i in enumerate(by_reach):
        target = after[i]
        if not target:
            continue
        covered = heads = 0
        scan = at
        while covered != target:
            scan += 1
            j = by_reach[scan]
            bit = bits[j]
            if target & bit and not covered & bit:
                succ[i].append(j)
                covered |= after[j] | bit
                heads |= row[writers[j]] | bit
                earlier[j] |= earlier[i] | 1 << i
        own = readers[i]
        preds = 0
        for reader in own:
            preds |= pred_mask[reader]
        if heads & preds:
            return None
        if sizes[i] > len(succ[i]):    # ordered, not immediate: left out
            left = target
            for j in succ[i]:
                left ^= bits[j]
            implied += ((sizes[i] - len(succ[i])) * (1 + len(own))
                        - sum(1 for r in own if left >> r & 1))

    for i in reversed(by_reach):
        for j in succ[i]:
            later[i] |= later[j] | 1 << j
    decided: Dict[Tuple[int, int], bool] = {}
    undecided: List[Constraint] = []
    ahead: Dict[int, List[int]] = {}    # RW-decided arcs by first
    ordered = sum(sizes)
    if ordered < k * (k - 1) // 2:    # some pairs are left unordered
        everyone = (1 << k) - 1
        for i, t in enumerate(writers):
            # The writers after position i that i neither precedes nor
            # follows, in position order.
            free = everyone & ~(later[i] | earlier[i] | (2 << i) - 1)
            while free:
                low = free & -free
                free ^= low
                j = low.bit_length() - 1
                s = writers[j]
                either_bad = pair_impossible(t, s, readers[i], rows,
                                             pred_mask)
                orelse_bad = pair_impossible(s, t, readers[j], rows,
                                             pred_mask)
                if either_bad and orelse_bad:
                    return None
                if either_bad:
                    decided[(i, j)] = False
                    ahead.setdefault(j, []).append(i)
                elif orelse_bad:
                    decided[(i, j)] = True
                    ahead.setdefault(i, []).append(j)
                else:
                    undecided.append(Constraint(key, t, s, readers[i],
                                                readers[j]))

    # The per-pair iteration's install order: each first by the pair it
    # first wins (that with the lowest position it precedes), then by
    # position.
    firsts = []
    for i, mask in enumerate(later):
        low = (mask & -mask).bit_length() - 1 if mask else k
        if i in ahead:
            low = min(low, *ahead[i])
        if low < k:
            firsts.append((min(i, low), max(i, low), i))
    firsts.sort()
    arcs: Dict[Tuple[int, int], List[Sequence[int]]] = {}
    for _low, _high, i in firsts:
        t, lists = writers[i], [readers[i]]
        for j in sorted(succ[i] + ahead.get(i, [])):
            arcs[(t, writers[j])] = lists
    masks = _chain_masks(arcs)
    if decided and not min(masks[0].values()):
        return None    # the winners close a cycle: every pair goes in
    order = KeyOrder(key, writers, readers, after, decided)
    return (order, arcs, masks, implied), ordered, len(decided), undecided


def prune_constraints(graph: GeneralizedPolygraph) -> PruneResult:
    """Prune ``graph`` in place until no more constraints can be resolved.

    Incremental fixpoint: one :class:`PruneState` (a single batch
    closure, wrapped into the shared incremental kernel) is built up
    front, and every iteration after the first only pays for the edges
    the previous one promoted — identical decisions, counters, and
    witnesses to a fixpoint that rebuilds the closure every iteration,
    without the rebuild.

    Returns a :class:`PruneResult`; ``result.ok`` is False when some
    constraint has *both* branches impossible, i.e. the history violates
    SI.  ``result.violation_cycle`` then carries one concrete undesired
    cycle (the impossible either-branch edge closed against the known
    graph), ready for the interpretation algorithm.  An acyclic fixpoint
    hands its state on (:attr:`PruneResult.state`) to ask, and to drop.
    """
    result = PruneResult()
    result.constraints_before = graph.num_constraints
    result.unknown_deps_before = graph.num_unknown_deps

    state = PruneState(graph)
    with trace_span("prune-fixpoint", backend=KERNEL.name,
                    constraints=result.constraints_before) as span:
        while True:
            result.iterations += 1
            if graph.writer_lists is not None:
                with trace_span("classify", iteration=result.iterations):
                    changed = order_writers(graph, state, result)
            else:
                with trace_span("classify", iteration=result.iterations):
                    decisions = classify_constraints(
                        graph.constraints, state.reach, state.pred_mask
                    )
                changed = apply_decisions(graph, decisions, result,
                                          state=state)
            if not result.ok or not changed:
                break
        span.set(iterations=result.iterations, pruned=result.pruned)
        _publish_pair_counters(state, span)
        reach = state.reach
        # The rows are the exact closure of the final KI, so its
        # acyclicity is their diagonal — no second graph traversal.
        result.known_acyclic = result.ok and not reach.has_cycle()
        _publish_closure_counters(reach, span)

    if result.known_acyclic:
        result.state = state
    result.constraints_after = graph.num_constraints
    result.unknown_deps_after = graph.num_unknown_deps
    return result


def _publish_pair_counters(state: PruneState, span) -> None:
    """Snapshot the size of the known graph the fixpoint ended with, and
    the pairs its promotions skipped, onto the enclosing span and the
    ambient metrics registry."""
    known = state.known
    pairs = {
        "known_dep_pairs": sum(map(len, known.dep)),
        "known_antidep_pairs": sum(map(len, known.antidep)),
        "pairs_implied": state.pairs_implied,
        "pairs_ordered": state.pairs_ordered,
    }
    span.set(constraints_built=state.constraints_built, **pairs)
    for name, value in pairs.items():
        if value:
            obs_counter(f"prune.{name}").inc(value)


def _publish_closure_counters(reach, span) -> None:
    """Snapshot the closure kernel's insert/compact/query counters onto
    the enclosing span and the ambient metrics registry."""
    counters = reach.counters()
    span.set(**{f"closure_{k}": v for k, v in counters.items()})
    for name, value in counters.items():
        if value:
            obs_counter(f"closure.{reach.name}.{name}").inc(value)


# -- witness-cycle reconstruction -------------------------------------------------


def find_known_cycle(
    known_edges: Iterable[Edge], extra_edges: Sequence[Edge] = ()
) -> Optional[List[Edge]]:
    """A shortest undesired cycle in the induced graph of the typed
    ``known_edges`` extended with ``extra_edges``, as a list of typed
    edges, or None.

    Works on the *induced* graph (Dep composed with optional trailing RW),
    so any cycle found has no two adjacent RW edges and is therefore a
    genuine SI violation witness.

    With ``extra_edges`` (an impossible constraint branch being closed
    against the known graph), the BFS is seeded only from the branch
    edges' endpoints instead of from every vertex: any cycle that uses a
    branch edge passes through one of its endpoints as an induced-graph
    node (a Dep edge contributes hops leaving its tail; an RW edge only
    appears as the trailing half of a composed hop *arriving at* its
    head), and the impossibility rules guarantee such a cycle exists —
    so the seeded search cannot miss, and skips the all-starts sweep.
    """
    dep_adj: Dict[int, List[Edge]] = {}
    antidep_adj: Dict[int, List[Edge]] = {}
    for edge in chain(known_edges, extra_edges):
        target = antidep_adj if edge[2] == RW else dep_adj
        target.setdefault(edge[0], []).append(edge)

    # Induced edges with provenance: (dst, [typed edges making the hop]).
    induced: Dict[int, List[Tuple[int, List[Edge]]]] = {}
    for u, edges in dep_adj.items():
        hops = induced.setdefault(u, [])
        for edge in edges:
            hops.append((edge[1], [edge]))
            for rw_edge in antidep_adj.get(edge[1], ()):
                hops.append((rw_edge[1], [edge, rw_edge]))

    if extra_edges:
        endpoints = [v for edge in extra_edges for v in (edge[0], edge[1])]
        starts = [v for v in dict.fromkeys(endpoints) if v in induced]
    else:
        starts = list(induced)

    best: Optional[List[Edge]] = None
    for start in starts:
        path = _bfs_cycle(induced, start)
        if path is not None and (best is None or len(path) < len(best)):
            best = path
    return best


def _bfs_cycle(
    induced: Dict[int, List[Tuple[int, List[Edge]]]], start: int
) -> Optional[List[Edge]]:
    """Shortest induced cycle through ``start`` (BFS back to start)."""
    parents: Dict[int, Tuple[int, List[Edge]]] = {}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        for nxt, hop in induced.get(node, ()):
            if nxt == start:
                cycle = list(hop)
                cur = node
                while cur != start:
                    prev, prev_hop = parents[cur]
                    cycle = list(prev_hop) + cycle
                    cur = prev
                return cycle
            if nxt not in parents:
                parents[nxt] = (node, hop)
                queue.append(nxt)
    return None


def _violation_cycle(
    graph: GeneralizedPolygraph, cons: Constraint
) -> Optional[List[Edge]]:
    """On a both-branches-impossible constraint, close one branch's edges
    against the known graph to produce a concrete witness cycle."""
    for branch in (cons.either, cons.orelse):
        cycle = find_known_cycle(graph.known_edges, branch)
        if cycle is not None:
            return cycle
    return None
