"""Dict-adjacency reference kernels: the oracles the flat kernels replay.

The production search substrate is the frozen CSR view
(``Graph.freeze()``, :mod:`repro.graph.flat`).  The kernels below are
the dict-adjacency originals its A*, bidirectional and negotiated
kernels were derived from; they live here, next to the tests, as the
reference the flat kernels must reproduce bit for bit (same settled
sets, same tie-breaking, same IEEE doubles, same dict iteration
order).  :func:`route_with_dict_kernels` swaps them — together with the
dict :func:`~repro.graph.shortest_paths.dijkstra`, which stays in the
library — under a whole router, so differential tests can replay a
routing run on the reference path and compare signatures.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import GraphError
from repro.graph.core import Graph
from repro.graph.search import SearchPolicy
from repro.graph.shortest_paths import (
    INF,
    Node,
    ShortestPathCache,
    dijkstra,
    get_dijkstra_budget,
    get_dijkstra_counters,
    reconstruct_path,
)


def astar(
    graph: Graph,
    source: Node,
    target: Node,
    heuristic: Callable[[Node], float],
    cutoff: Optional[float] = None,
) -> Tuple[Dict[Node, float], Dict[Node, Node]]:
    """Goal-directed Dijkstra (A*) from ``source`` toward ``target``.

    ``heuristic`` must be an admissible, consistent lower bound on the
    distance to ``target``; under that contract every settled node
    carries its exact distance, and the search stops as soon as
    ``target`` is settled.  A node whose heuristic is infinite is
    provably unable to reach the target and is pruned outright.

    Returns ``(dist, pred)`` over the settled prefix, exactly like
    :func:`~repro.graph.shortest_paths.dijkstra` — but the settled
    *set* and the ``pred`` tie-breaking differ from plain Dijkstra's.
    """
    if not graph.has_node(source):
        raise GraphError(f"source {source!r} not in graph")
    if not graph.has_node(target):
        raise GraphError(f"target {target!r} not in graph")
    dist: Dict[Node, float] = {}
    pred: Dict[Node, Node] = {}
    seen = {source: 0.0}
    counter = 0
    pops = 0
    budget = get_dijkstra_budget()
    # (f = g + h, tie counter, g, node): the explicit g avoids deriving
    # it from f by float subtraction
    heap: List[Tuple[float, int, float, Node]] = [
        (heuristic(source), 0, 0.0, source)
    ]
    while heap:
        _, _, g, u = heapq.heappop(heap)
        pops += 1
        if budget is not None:
            budget.check(pops, counter, backend="astar")
        if u in dist:
            continue
        dist[u] = g
        if u == target:
            break
        for v, w in graph.neighbor_items(u):
            if v in dist:
                continue
            ng = g + w
            if cutoff is not None and ng > cutoff:
                continue
            if v not in seen or ng < seen[v]:
                hv = heuristic(v)
                if hv == INF:
                    continue
                seen[v] = ng
                pred[v] = u
                counter += 1
                heapq.heappush(heap, (ng + hv, counter, ng, v))
    counters = get_dijkstra_counters()
    if counters is not None:
        counters.record(pops, counter, len(heap))
    return dist, pred


def bidirectional_dijkstra(
    graph: Graph, source: Node, target: Node
) -> Tuple[float, Optional[List[Node]]]:
    """Two-frontier Dijkstra for a single ``source → target`` query.

    Expands the frontier with the smaller tentative key (forward on
    ties) and stops once the frontier keys sum past the best meeting
    cost — the standard exact stopping rule.  Returns ``(distance,
    path)``; ``(inf, None)`` when the endpoints are disconnected.  The
    distance is re-accumulated in forward edge order along the found
    path so it is bit-identical to what any forward kernel computes for
    that path (the meeting-rule sum adds the backward half in reverse
    order, which float non-associativity can shift by one ulp).  The
    path is *a* shortest path whose tie-breaking differs from plain
    Dijkstra's, so it is never used where canonical paths are required.
    """
    if not graph.has_node(source):
        raise GraphError(f"source {source!r} not in graph")
    if not graph.has_node(target):
        raise GraphError(f"target {target!r} not in graph")
    if source == target:
        return 0.0, [source]
    budget = get_dijkstra_budget()
    dist_f: Dict[Node, float] = {}
    dist_b: Dict[Node, float] = {}
    seen_f = {source: 0.0}
    seen_b = {target: 0.0}
    pred_f: Dict[Node, Node] = {}
    pred_b: Dict[Node, Node] = {}
    heap_f: List[Tuple[float, int, Node]] = [(0.0, 0, source)]
    heap_b: List[Tuple[float, int, Node]] = [(0.0, 0, target)]
    counter = 0
    pops = 0
    best = INF
    meet: Optional[Node] = None
    while heap_f and heap_b:
        if heap_f[0][0] + heap_b[0][0] >= best:
            break
        if heap_f[0][0] <= heap_b[0][0]:
            heap, dist, seen = heap_f, dist_f, seen_f
            pred, other_dist, other_seen = pred_f, dist_b, seen_b
        else:
            heap, dist, seen = heap_b, dist_b, seen_b
            pred, other_dist, other_seen = pred_b, dist_f, seen_f
        d, _, u = heapq.heappop(heap)
        pops += 1
        if budget is not None:
            budget.check(pops, counter, backend="bidir")
        if u in dist:
            continue
        dist[u] = d
        du_other = other_dist.get(u)
        if du_other is not None and d + du_other < best:
            best = d + du_other
            meet = u
        for v, w in graph.neighbor_items(u):
            if v in dist:
                continue
            nd = d + w
            if v not in seen or nd < seen[v]:
                seen[v] = nd
                pred[v] = u
                counter += 1
                heapq.heappush(heap, (nd, counter, v))
            dv_other = other_seen.get(v)
            if dv_other is not None and nd + dv_other < best:
                # any tentative other-side label is a realizable path
                # length, so this only ever tightens the bound
                best = nd + dv_other
                meet = v
    counters = get_dijkstra_counters()
    if counters is not None:
        counters.record(pops, counter, len(heap_f) + len(heap_b))
    if meet is None:
        return INF, None
    path = reconstruct_path(pred_f, source, meet)
    node = meet
    while node != target:
        node = pred_b[node]
        path.append(node)
    # re-accumulate the distance in forward order along the found path:
    # ``best`` sums the backward half in reverse edge order, and float
    # addition is not associative, so it can sit one ulp away from the
    # forward-order sum every other kernel produces
    d = 0.0
    for a, b in zip(path, path[1:]):
        d += graph.weight(a, b)
    return d, path


def negotiated_search(
    graph: Graph,
    sources: Sequence[Node],
    target: Node,
    factor: Callable[[Node], float],
    criticality: float = 0.0,
    heuristic: Optional[Callable[[Node], float]] = None,
    offsets: Optional[Dict[Node, float]] = None,
) -> Tuple[Dict[Node, float], Dict[Node, Node]]:
    """Multi-source shortest path under negotiated node costs.

    The PathFinder connection kernel: every node of the current routing
    tree is a source, and edge ``(u, v)`` with base weight ``w`` costs

        w · (crit + (1 − crit) · (factor(u) + factor(v)) / 2)

    — the timing blend of the base metric against the negotiated
    congestion metric.  ``factor`` is the cost provider's per-node
    present × history multiplier and must return values ``>= 1`` so the
    blended cost never drops below the base weight; with ``heuristic``
    an admissible lower bound on *base* distance to ``target``, it is
    therefore also admissible for the blended metric, and the search is
    exact goal-directed A*.  Without a heuristic this is plain
    multi-source Dijkstra.  The graph itself is never mutated or
    re-weighted — congestion lives entirely in ``factor``.

    ``offsets`` seeds sources with a non-zero starting cost (default
    ``g = 0`` for all).  Timing-driven negotiation passes
    ``crit · tree_distance(source → seed)`` so a critical connection
    pays for the delay already accrued at its attachment point —
    equivalent to a super-source with weighted seed edges, so A*
    exactness is unaffected.  A seeded node may be settled through a
    cheaper path from another seed; its ``pred`` entry is set like any
    relaxed node's.

    Returns ``(dist, pred)`` over the settled prefix; the search stops
    once ``target`` settles.  Unrelaxed seeds carry no predecessor, so
    walking ``pred`` back from ``target`` ends at a seed.  Seed order
    breaks cost ties (first seed wins), so callers must pass
    ``sources`` in a deterministic order.
    """
    if not graph.has_node(target):
        raise GraphError(f"target {target!r} not in graph")
    if not 0.0 <= criticality <= 1.0:
        raise GraphError(
            f"criticality must be in [0, 1], got {criticality}"
        )
    crit = criticality
    mix = (1.0 - crit) * 0.5
    fcache: Dict[Node, float] = {}

    def f(node: Node) -> float:
        v = fcache.get(node)
        if v is None:
            v = factor(node)
            if v < 1.0:
                raise GraphError(
                    f"cost provider returned factor {v} < 1 for "
                    f"{node!r}; the blended metric would undercut the "
                    f"base weight and break heuristic admissibility"
                )
            fcache[node] = v
        return v

    dist: Dict[Node, float] = {}
    pred: Dict[Node, Node] = {}
    seen: Dict[Node, float] = {}
    heap: List[Tuple[float, int, float, Node]] = []
    counter = 0
    for s in sources:
        if not graph.has_node(s):
            raise GraphError(f"source {s!r} not in graph")
        if s in seen:
            continue
        g0 = offsets.get(s, 0.0) if offsets else 0.0
        if g0 < 0.0:
            raise GraphError(f"negative source offset {g0} for {s!r}")
        seen[s] = g0
        hs = heuristic(s) if heuristic is not None else 0.0
        heap.append((g0 + hs, counter, g0, s))
        counter += 1
    if not heap:
        raise GraphError("negotiated search needs at least one source")
    heapq.heapify(heap)
    pops = 0
    budget = get_dijkstra_budget()
    while heap:
        _, _, g, u = heapq.heappop(heap)
        pops += 1
        if budget is not None:
            budget.check(pops, counter, backend="negotiate")
        if u in dist:
            continue
        dist[u] = g
        if u == target:
            break
        fu = f(u)
        for v, w in graph.neighbor_items(u):
            if v in dist:
                continue
            ng = g + w * (crit + mix * (fu + f(v)))
            if v not in seen or ng < seen[v]:
                if heuristic is not None:
                    hv = heuristic(v)
                    if hv == INF:
                        continue
                else:
                    hv = 0.0
                seen[v] = ng
                pred[v] = u
                counter += 1
                heapq.heappush(heap, (ng + hv, counter, ng, v))
    counters = get_dijkstra_counters()
    if counters is not None:
        counters.record(pops, counter, len(heap))
    return dist, pred


# ----------------------------------------------------------------------
# the reference router: every search on the dict kernels
# ----------------------------------------------------------------------
def _plain_run(self, source, targets=None, cutoff=None):
    return dijkstra(self._graph, source, targets=targets, cutoff=cutoff)


def _plain_sssp(self, graph, source, targets=None, cutoff=None):
    return dijkstra(graph, source, targets=targets, cutoff=cutoff)


def _pair_distance(self, graph, u, v):
    if self.backend == "dijkstra":
        dist, _ = dijkstra(graph, u, targets=[v])
        return dist.get(v, INF)
    if self.backend in ("astar", "auto"):
        h = self.heuristic_for(graph, v)
        if h is not None:
            dist, _ = astar(graph, u, v, h)
            return dist.get(v, INF)
    d, _ = bidirectional_dijkstra(graph, u, v)
    return d


def _negotiated_search(
    self, graph, sources, target, provider, criticality=0.0, offsets=None
):
    heuristic = None
    if self.backend in ("astar", "auto"):
        heuristic = self.heuristic_for(graph, target)
    return negotiated_search(
        graph,
        sources,
        target,
        provider.node_factor,
        criticality,
        heuristic=heuristic,
        offsets=offsets,
    )


def route_with_dict_kernels(monkeypatch) -> None:
    """Point every library search at the dict reference kernels.

    Patches the cache's canonical runs, the policy's plain and pair
    queries and the negotiated connection search; the graph, the cache
    logic and the engine are untouched, so a routing run under this
    patch is the dict reference for the same configuration.  Process
    pools fork after the patch is applied, so workers inherit it.
    """
    monkeypatch.setattr(ShortestPathCache, "_plain_run", _plain_run)
    monkeypatch.setattr(SearchPolicy, "plain_sssp", _plain_sssp)
    monkeypatch.setattr(SearchPolicy, "pair_distance", _pair_distance)
    monkeypatch.setattr(
        SearchPolicy, "negotiated_search", _negotiated_search
    )
