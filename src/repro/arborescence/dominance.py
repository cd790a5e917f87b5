"""Graph dominance and ``MaxDom`` — the machinery of Section 4.

Definition 4.1: in a weighted graph G with source ``n0``, node *p
dominates* node *s* iff ``minpath_G(n0, p) = minpath_G(n0, s) +
minpath_G(s, p)`` — i.e. some shortest source→p path can pass through s.
``MaxDom(p, q)`` is a node dominated by both p and q that is as far from
the source as possible; routing to it lets the two source paths overlap
maximally (the "path folding" of PFA) without violating the
shortest-paths property.

Equivalently, p dominates s iff s is an ancestor of p in the
source-rooted shortest-path DAG: the DAG of *tight* edges ``u → v`` with
``d0(v) = d0(u) + w(u, v)``.  :class:`DominanceOracle` answers MaxDom
from that DAG and the source SSSP alone, so PFA never needs an SSSP
rooted at a Steiner point; DOM/IDOM's per-sink rule keeps reading
distances from the shared :class:`ShortestPathCache`, where the
terminal SSSPs are already warm.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import islice
from typing import (
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..errors import GraphError
from ..graph.core import Graph
from ..graph.shortest_paths import ShortestPathCache

Node = Hashable
INF = float("inf")
_TOL = 1e-9


class DominanceOracle:
    """Dominance queries for one (graph, source) pair.

    All answers are in terms of the *current* graph; the underlying
    cache invalidates automatically if the graph is mutated, and the
    oracle drops everything it derived from the source SSSP with it.
    """

    def __init__(
        self,
        graph: Graph,
        source: Node,
        cache: Optional[ShortestPathCache] = None,
    ):
        if not graph.has_node(source):
            raise GraphError(f"source {source!r} not in graph")
        self.graph = graph
        self.source = source
        self.cache = cache if cache is not None else ShortestPathCache(graph)
        #: the source SSSP everything below was derived from
        self._d0: Optional[Dict[Node, float]] = None
        #: reachable nodes by descending source distance (stable, so
        #: equal distances keep ``d0``'s order) and their negated
        #: distances, ascending, for bisection
        self._order: List[Node] = []
        self._neg_d0: List[float] = []
        #: tight in-neighbours per node, filled on demand
        self._parents: Dict[Node, List[Node]] = {}
        #: per node p: (ancestor set of p, largest d0 in it)
        self._anc: Dict[Node, Tuple[Set[Node], float]] = {}

    def _source_dist_map(self) -> Dict[Node, float]:
        """The source SSSP, dropping derived state if it was recomputed."""
        d0, _ = self.cache.sssp(self.source)
        if d0 is not self._d0:
            self._d0 = d0
            self._order = []
            self._neg_d0 = []
            self._parents = {}
            self._anc = {}
        return d0

    def _ancestors(self, p: Node) -> Tuple[Set[Node], float]:
        """Ancestors of ``p`` (p included) in the shortest-path DAG.

        A reverse walk over tight edges, those with ``|d0(v) − (d0(u) +
        w)| ≤ _TOL·max(1, d0(v))``; ``s`` is an ancestor iff ``p``
        dominates ``s``.  Also returns the largest source distance in
        the set, an upper bound for MaxDom's walk.
        """
        entry = self._anc.get(p)
        if entry is not None:
            return entry
        d0 = self._d0
        neighbor_items = self.cache.graph.neighbor_items
        parents = self._parents
        anc = {p}
        top = d0[p]
        stack = [p]
        while stack:
            v = stack.pop()
            ups = parents.get(v)
            if ups is None:
                dv = d0[v]
                tol = _TOL * max(1.0, dv)
                ups = parents[v] = [
                    u
                    for u, w in neighbor_items(v)
                    if u in d0 and abs(dv - (d0[u] + w)) <= tol
                ]
            for u in ups:
                if u not in anc:
                    anc.add(u)
                    stack.append(u)
                    if d0[u] > top:
                        top = d0[u]
        entry = self._anc[p] = (anc, top)
        return entry

    def source_dist(self, node: Node) -> float:
        """``minpath_G(n0, node)`` (INF if unreachable)."""
        return self.cache.dist(self.source, node)

    def dominates(self, p: Node, s: Node) -> bool:
        """True iff ``p`` dominates ``s`` (Definition 4.1).

        Every node dominates itself and the source; the source dominates
        only itself.
        """
        dp = self.source_dist(p)
        ds = self.source_dist(s)
        if dp == INF or ds == INF:
            return False
        dsp = self.cache.dist(s, p)
        if dsp == INF:
            return False
        return abs(dp - (ds + dsp)) <= _TOL * max(1.0, dp)

    def dominated_by_both(self, p: Node, q: Node) -> List[Node]:
        """All nodes dominated by both ``p`` and ``q``, in ``d0`` order."""
        d0 = self._source_dist_map()
        if p not in d0 or q not in d0:
            return []
        ap, _ = self._ancestors(p)
        aq, _ = self._ancestors(q)
        return [m for m in d0 if m in ap and m in aq]

    def maxdom(
        self, p: Node, q: Node, restrict: Optional[Iterable[Node]] = None
    ) -> Tuple[Node, float]:
        """``MaxDom(p, q)`` and its source distance.

        The winner is the common ancestor of p and q with the largest
        source distance, the earliest in ``d0`` order on ties: a walk
        down the descending source-distance order, starting at the
        nearer of the two ancestor sets' tops.

        With ``restrict``, the winner is drawn from that node set instead
        of all of V — this is exactly DOM's restriction of MaxDom to the
        net N (Section 4.2); ties then keep the first in ``restrict``
        order.  The source always qualifies (it is dominated by
        everything), so a result always exists provided p and q are
        reachable.
        """
        d0 = self._source_dist_map()
        if p not in d0 or q not in d0:
            raise GraphError(
                f"maxdom undefined: {p!r} or {q!r} unreachable from source"
            )
        ap, top_p = self._ancestors(p)
        aq, top_q = self._ancestors(q)
        if restrict is None:
            if not self._order:
                self._order = sorted(d0, key=d0.__getitem__, reverse=True)
                self._neg_d0 = [-d0[v] for v in self._order]
            start = bisect_left(self._neg_d0, -min(top_p, top_q))
            for m in islice(self._order, start, None):
                if m in ap and m in aq:
                    return m, d0[m]
        else:
            best: Optional[Node] = None
            best_d = -1.0
            for m in restrict:
                dm = d0.get(m)
                if dm is not None and dm > best_d and m in ap and m in aq:
                    best = m
                    best_d = dm
            if best is not None:
                return best, best_d
        # the source is always a fallback when not excluded by
        # `restrict`; reaching here means restrict excluded it.
        raise GraphError(
            f"no node in restriction dominated by both {p!r} and {q!r}"
        )

    def nearest_dominated(
        self, p: Node, pool: Iterable[Node]
    ) -> Tuple[Node, float]:
        """The node in ``pool`` dominated by ``p`` that is nearest to p.

        This is DOM's per-sink connection rule ("connect each sink to the
        closest sink/source that it dominates").  ``p`` itself is skipped;
        ties prefer the candidate closer to the source, then a
        deterministic repr order.  Always succeeds when the source is in
        ``pool`` (everything dominates the source).

        To keep the connect-to relation acyclic even in graphs with
        zero-weight edges (where two nodes can dominate each other at
        equal source distance), candidates are restricted to strictly
        smaller *rank* ``(source_dist, not-source flag, repr)`` than p.
        Each connection then strictly descends toward the source, so the
        union of connection paths is always source-connected.

        When this oracle already holds p's ancestor set (PFA's collected
        nodes, all built by MaxDom), dominance is set membership and the
        distance to a dominated ``s`` is ``d0(p) − d0(s)``.  Otherwise
        (DOM/IDOM, a fresh oracle per candidate) it reads ``dist(s, p)``
        from the cache, which answers from whichever endpoint is warm.
        """
        d0 = self._source_dist_map()
        dp = d0.get(p, INF)
        if dp == INF:
            raise GraphError(f"{p!r} unreachable from source")
        entry = self._anc.get(p)
        anc = entry[0] if entry is not None else None

        def rank(node: Node, d: float) -> Tuple[float, int, str]:
            return (d, 0 if node == self.source else 1, repr(node))

        p_rank = rank(p, dp)
        best: Optional[Node] = None
        best_key: Optional[Tuple[float, float, str]] = None
        for s in pool:
            if s == p:
                continue
            ds = d0.get(s)
            if ds is None or rank(s, ds) >= p_rank:
                continue
            if anc is not None:
                if s not in anc:
                    continue
                dsp = dp - ds
            else:
                dsp = self.cache.dist(s, p)
                if dsp == INF or abs(dp - (ds + dsp)) > _TOL * max(1.0, dp):
                    continue
            key = (dsp, ds, repr(s))
            if best_key is None or key < best_key:
                best_key = key
                best = s
        if best is None:
            raise GraphError(
                f"{p!r} dominates nothing in the pool (source missing?)"
            )
        return best, best_key[0]  # type: ignore[index]

    def shortest_paths_union(
        self, connections: Sequence[Tuple[Node, Node]]
    ) -> Graph:
        """Union of one shortest path per requested (u, v) connection."""
        union = Graph()
        union.add_node(self.source)
        for u, v in connections:
            path = self.cache.path(u, v)
            if len(path) == 1:
                union.add_node(path[0])
            for a, b in zip(path, path[1:]):
                union.add_edge(a, b, self.graph.weight(a, b))
        return union
