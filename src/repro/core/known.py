"""The known part of the induced SI graph, derived in one place.

Every stage after construction reasons about the *known induced graph*
``KI = Dep ∪ (Dep ; AntiDep)`` (Theorem 6): Dep collects the SO/WR/WW
edges, AntiDep the RW edges, and an anti-dependency only ever appears
as the trailing half of a composed hop.  Pruning classifies against
KI's closure, the encoder skips induced pairs KI already contains, the
static acyclicity check runs on it, interpretation re-derives it over
the certain edges, and the online checker grows it one edge at a time.

:class:`KnownGraph` is the single owner of that derivation.  It carries
*data and derivation only*: when to derive, and what to do with an
induced pair — expand a batch of promoted edges at the next closure
flush or reseed in bulk, insert eagerly and latch a violation on a
cycle, hand the pair to a solver as a static edge — is each caller's
policy and stays with the caller.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Sequence, Set, Tuple

from ..utils.reachability import Reachability, transitive_closure_bits
from .polygraph import Edge, RW

__all__ = ["KnownGraph", "mask_of"]

Pair = Tuple[int, int]


def mask_of(vertices: Iterable[int]) -> int:
    """The int bitset with bit ``v`` set for every ``v`` in ``vertices``."""
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


class KnownGraph:
    """The pair-level sets derived from the typed known edges.

    - ``dep[u]`` / ``antidep[u]`` — Dep / AntiDep successors of ``u``;
    - ``dep_preds[v]`` — immediate Dep predecessors of ``v``;
    - ``pred_mask[v]`` — the same predecessors as an int bitset (bit
      ``p`` set iff ``p in dep_preds[v]``), the form pruning intersects
      with a closure row (:func:`repro.core.pruning.pair_impossible`).

    The typed edges themselves stay with whoever owns them (the
    polygraph, the online checker's edge table): several labels or keys
    may share one pair, and only the pair matters here, so feeding the
    same edge twice is harmless.

    ``KI`` itself is derived on demand: :meth:`induced_by` gives the
    pairs one edge induces, :meth:`induced_adjacency` the whole relation,
    :meth:`closure` its reachability without building it.

    Built by :meth:`from_edges`, :meth:`add` or construction's
    :meth:`recorder`, the graph is the pair projection of the typed
    edges.  Batch pruning's graph is not: its promotion skips the pairs
    the rest of an iteration implies
    (:meth:`PruneState.promote <repro.core.pruning.PruneState.promote>`),
    so it is *reachability-equivalent* to that projection — the same
    :meth:`closure` over fewer pairs.
    """

    __slots__ = ("dep", "dep_preds", "pred_mask", "antidep")

    def __init__(self, num_vertices: int = 0):
        self.dep: List[Set[int]] = [set() for _ in range(num_vertices)]
        self.dep_preds: List[Set[int]] = [set() for _ in range(num_vertices)]
        self.pred_mask: List[int] = [0] * num_vertices
        self.antidep: List[Set[int]] = [set() for _ in range(num_vertices)]

    @classmethod
    def from_edges(cls, num_vertices: int,
                   edges: Iterable[Edge]) -> "KnownGraph":
        """The graph over ``edges`` — what feeding them to :meth:`add`
        one at a time, in any order, arrives at."""
        # One bulk pass instead of a call per edge: this runs on every
        # check, over every known edge.
        out = cls(num_vertices)
        dep, dep_preds, antidep = out.dep, out.dep_preds, out.antidep
        for u, v, label, _key in edges:
            if label == RW:
                antidep[u].add(v)
            else:
                dep[u].add(v)
                dep_preds[v].add(u)
        out.pred_mask = [mask_of(preds) for preds in dep_preds]
        return out

    def recorder(self, log: List[Edge]) -> Callable[[Edge], None]:
        """An ``emit`` for :class:`~repro.core.polygraph.PolygraphBuilder`
        that appends each typed edge to ``log`` and installs its pair
        here — how batch construction builds the graph pruning adopts
        (:meth:`GeneralizedPolygraph.take_known
        <repro.core.polygraph.GeneralizedPolygraph.take_known>`).  Once
        the last edge is in, :meth:`seal` fills :attr:`pred_mask`; the
        graph is then :meth:`from_edges` over ``log``."""
        append = log.append
        dep, dep_preds, antidep = self.dep, self.dep_preds, self.antidep

        def emit(edge: Edge) -> None:
            append(edge)
            u, v, label, _key = edge
            if label == RW:
                antidep[u].add(v)
            else:
                dep[u].add(v)
                dep_preds[v].add(u)
        return emit

    def seal(self, num_vertices: int) -> None:
        """After a :meth:`recorder`: keep the first ``num_vertices``
        vertices (the rest received no edge) and derive
        :attr:`pred_mask`."""
        for table in (self.dep, self.dep_preds, self.antidep):
            del table[num_vertices:]
        self.pred_mask = [mask_of(preds) for preds in self.dep_preds]

    @property
    def num_vertices(self) -> int:
        return len(self.dep)

    def add_vertex(self) -> int:
        """Append an isolated vertex; returns its id."""
        for table in (self.dep, self.dep_preds, self.antidep):
            table.append(set())
        self.pred_mask.append(0)
        return len(self.dep) - 1

    def add(self, edge: Edge) -> bool:
        """Install one typed edge.  True when it added a new Dep or
        AntiDep *pair* — the only case in which it induces anything
        (:meth:`induced_by`); a repeated edge, or another label or key
        on a pair already known, changes no derived state."""
        u, v, label, _key = edge
        if label == RW:
            return self.add_antidep(u, v)
        return self.add_dep(u, v)

    def add_dep(self, u: int, v: int) -> bool:
        """Install the Dep pair ``u -> v``; True when it is new."""
        if v in self.dep[u]:
            return False
        self.dep[u].add(v)
        self.dep_preds[v].add(u)
        self.pred_mask[v] |= 1 << u
        return True

    def add_antidep(self, u: int, v: int) -> bool:
        """Install the AntiDep pair ``u -> v``; True when it is new."""
        if v in self.antidep[u]:
            return False
        self.antidep[u].add(v)
        return True

    def add_antideps(self, tails: Iterable[int], head: int) -> List[int]:
        """Install the AntiDep pair ``t -> head`` for every ``t`` in
        ``tails`` other than ``head`` (a branch's RW edges);
        returns, in order, the tails whose pair was new."""
        antidep = self.antidep
        new = []
        for tail in tails:
            if tail != head:
                succ = antidep[tail]
                if head not in succ:
                    succ.add(head)
                    new.append(tail)
        return new

    def _through(self, mids: Iterable[int]) -> Set[int]:
        """KI successors of a vertex whose Dep successors are ``mids``:
        the Dep edges themselves, each optionally followed by one
        AntiDep edge."""
        row = set(mids)
        for mid in mids:
            row |= self.antidep[mid]
        return row

    def induced_by(self, edge: Edge) -> List[Pair]:
        """The KI pairs an installed edge induces against the graph as
        it is now: a Dep edge ``u -> v`` induces ``u -> v`` and
        ``u -> w`` for every AntiDep successor ``w`` of ``v``; an
        AntiDep edge ``u -> v`` induces ``p -> v`` for every Dep
        predecessor ``p`` of ``u``.  Asked right after each
        :meth:`add`, every composition is reported once — by whichever
        of its two halves arrived second — so the multiset of pairs
        over a whole edge set does not depend on insertion order; asked
        later it reports a superset, which is harmless because KI only
        grows."""
        u, v, label, _key = edge
        if label == RW:
            return [(p, v) for p in self.dep_preds[u]]
        return [(u, w) for w in self._through((v,))]

    def induced_adjacency(
            self, within: Optional[Set[int]] = None) -> List[Set[int]]:
        """``KI`` as fresh per-vertex successor sets; with ``within``,
        its subgraph induced on those vertices (ids kept: every other
        vertex has an empty row)."""
        if within is None:
            return [self._through(succs) for succs in self.dep]
        return [self._through(succs) & within if u in within else set()
                for u, succs in enumerate(self.dep)]

    def closure(self) -> Reachability:
        """The strict closure of ``KI``, computed without composing it.

        The kernel runs over a *hop graph*: every vertex ``m`` with an
        AntiDep successor gets a hop node, which steps to ``m`` and to
        each of those successors, and a Dep pair ``(u, m)`` makes ``u``
        step to ``m``'s hop (to ``m`` itself when it has none).  A
        vertex -> vertex step or vertex -> hop -> vertex 2-step is
        exactly a KI edge, so reachability between vertices is KI's,
        over at most ``|Dep| + |AntiDep| + n`` edges instead of ``|KI|``
        composed pairs; only vertices get a bit and a row (``visible``).
        Rows equal ``transitive_closure_bits(n, induced_adjacency()).rows``.
        """
        n = len(self.dep)
        via = list(range(n))  # where a Dep step into m lands
        hops: List[Sequence[int]] = []
        for m, anti in enumerate(self.antidep):
            if anti:
                via[m] = n + len(hops)
                hops.append((m, *anti))
        succ = [[via[m] for m in mids] for mids in self.dep] + hops
        return transitive_closure_bits(len(succ), succ, visible=n)

    def compact(self, old_to_new: Sequence[int]) -> None:
        """Renumber onto the survivors of a window compaction
        (``old_to_new[v]`` is -1 for an evicted vertex): pairs with an
        evicted endpoint are dropped, everything else is renamed.
        Induced pairs between survivors survive with the vertex they
        are composed through; paths *through* an evicted vertex are the
        closure's to remember, not this graph's."""
        m = old_to_new
        size = sum(1 for new in m if new >= 0)

        def remap(table: List[Set[int]]) -> List[Set[int]]:
            out: List[Set[int]] = [set() for _ in range(size)]
            for old, row in enumerate(table):
                if m[old] >= 0:
                    out[m[old]] = {m[v] for v in row if m[v] >= 0}
            return out

        self.dep = remap(self.dep)
        self.dep_preds = remap(self.dep_preds)
        self.pred_mask = [mask_of(preds) for preds in self.dep_preds]
        self.antidep = remap(self.antidep)
