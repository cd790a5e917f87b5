"""Property-based tests (hypothesis) on the core invariants.

These cover the algebraic properties every component must satisfy on
*arbitrary* inputs: metric properties of shortest paths, tree-ness and
spanning of every heuristic's output, the GSA pathlength constraint,
bound relationships between heuristics and exact optima, and the
dominance relation's defining equalities.
"""

from __future__ import annotations

import random
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.arborescence import (
    DominanceOracle,
    djka,
    dom,
    dom_tree_graph,
    idom,
    optimal_arborescence_cost,
    pfa,
    pfa_tree_graph,
)
from repro.errors import GraphError
from repro.graph import (
    Graph,
    ShortestPathCache,
    dijkstra,
    grid_graph,
    is_tree,
    prim_mst,
    random_connected_graph,
)
from repro.net import Net
from repro.steiner import (
    ikmb,
    kmb,
    optimal_steiner_cost,
    zel,
)

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def weighted_graph_and_net(draw, max_nodes=24, max_pins=5):
    """A connected random weighted graph plus a net within it."""
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = random.Random(seed)
    n = draw(st.integers(min_value=4, max_value=max_nodes))
    extra = draw(st.integers(min_value=0, max_value=2 * n))
    m = min(n - 1 + extra, n * (n - 1) // 2)
    g = random_connected_graph(n, m, rng)
    pins = draw(
        st.integers(min_value=2, max_value=min(max_pins, n))
    )
    terminals = rng.sample(range(n), pins)
    return g, Net(source=terminals[0], sinks=tuple(terminals[1:]))


@st.composite
def perturbed_grid_and_net(draw, size=6, max_pins=4):
    """A weight-perturbed grid graph plus a net (tie-free instances)."""
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = random.Random(seed)
    g = grid_graph(size, size)
    for u, v, _ in list(g.edges()):
        g.set_weight(u, v, 1.0 + rng.random())
    pins = draw(st.integers(min_value=2, max_value=max_pins))
    terminals = rng.sample(list(g.nodes), pins)
    return g, Net(source=terminals[0], sinks=tuple(terminals[1:]))


@st.composite
def tied_graph_and_net(draw):
    """Small-integer weights with zeros: equal-distance ties everywhere.

    Integer sums are exact in floating point, so the distance test and
    the shortest-path-DAG test of dominance must agree node for node.
    """
    g, net = draw(
        st.one_of(
            weighted_graph_and_net(max_nodes=16),
            perturbed_grid_and_net(size=4, max_pins=5),
        )
    )
    rng = random.Random(draw(st.integers(min_value=0, max_value=10_000)))
    for u, v, _ in list(g.edges()):
        g.set_weight(u, v, float(rng.choice((0, 1, 1, 1, 2, 3))))
    return g, net


@st.composite
def congested_graph_and_net(draw):
    """Routing-graph-like weights: pin/switch/segment bases times
    congestion factors ``1 + 2u`` — none of them exact in binary."""
    g, net = draw(weighted_graph_and_net(max_nodes=20))
    rng = random.Random(draw(st.integers(min_value=0, max_value=10_000)))
    for u, v, _ in list(g.edges()):
        base = rng.choice((0.1, 0.5, 1.0, 1.0, 1.0))
        g.set_weight(u, v, base * (1.0 + 2.0 * rng.randrange(6) / 5))
    return g, net


class TestShortestPathProperties:
    @SETTINGS
    @given(weighted_graph_and_net())
    def test_triangle_inequality(self, gn):
        g, net = gn
        cache = ShortestPathCache(g)
        a, b = net.source, net.sinks[0]
        for c in list(g.nodes)[:6]:
            dab = cache.dist(a, b)
            dac = cache.dist(a, c)
            dcb = cache.dist(c, b)
            assert dab <= dac + dcb + 1e-9

    @SETTINGS
    @given(weighted_graph_and_net())
    def test_symmetry(self, gn):
        g, net = gn
        cache = ShortestPathCache(g)
        assert cache.dist(net.source, net.sinks[0]) == pytest.approx(
            cache.dist(net.sinks[0], net.source)
        )

    @SETTINGS
    @given(weighted_graph_and_net())
    def test_path_cost_equals_distance(self, gn):
        g, net = gn
        cache = ShortestPathCache(g)
        path = cache.path(net.source, net.sinks[0])
        cost = sum(g.weight(u, v) for u, v in zip(path, path[1:]))
        assert cost == pytest.approx(cache.dist(net.source, net.sinks[0]))


class TestMSTProperties:
    @SETTINGS
    @given(weighted_graph_and_net())
    def test_mst_is_spanning_tree(self, gn):
        g, _ = gn
        edges, cost = prim_mst(g)
        assert len(edges) == g.num_nodes - 1
        t = Graph()
        for u, v, w in edges:
            t.add_edge(u, v, w)
        for node in g.nodes:
            t.add_node(node)
        assert is_tree(t)

    @SETTINGS
    @given(weighted_graph_and_net())
    def test_mst_lower_bounds_no_edge_removal(self, gn):
        # removing any MST edge and reconnecting costs at least as much
        g, _ = gn
        edges, cost = prim_mst(g)
        assert cost <= g.total_weight() + 1e-9


class TestSteinerProperties:
    @SETTINGS
    @given(weighted_graph_and_net())
    def test_heuristics_produce_valid_steiner_trees(self, gn):
        g, net = gn
        for algo in (kmb, zel, ikmb):
            tree = algo(g, net)
            assert is_tree(tree.tree)
            for t in net.terminals:
                assert tree.tree.has_node(t)

    @SETTINGS
    @given(weighted_graph_and_net(max_nodes=16, max_pins=4))
    def test_heuristics_respect_bounds(self, gn):
        g, net = gn
        opt = optimal_steiner_cost(g, net.terminals)
        assert kmb(g, net).cost <= 2.0 * opt + 1e-6
        assert zel(g, net).cost <= (11.0 / 6.0) * opt + 1e-6
        assert ikmb(g, net).cost <= 2.0 * opt + 1e-6
        for algo in (kmb, zel, ikmb):
            assert algo(g, net).cost >= opt - 1e-6

    @SETTINGS
    @given(weighted_graph_and_net())
    def test_iteration_never_hurts(self, gn):
        g, net = gn
        cache = ShortestPathCache(g)
        assert ikmb(g, net, cache=cache).cost <= (
            kmb(g, net, cache).cost + 1e-9
        )

    @SETTINGS
    @given(weighted_graph_and_net())
    def test_two_pin_equals_shortest_path(self, gn):
        g, net = gn
        if len(net.sinks) != 1:
            return
        dist, _ = dijkstra(g, net.source)
        for algo in (kmb, zel, ikmb):
            assert algo(g, net).cost == pytest.approx(
                dist[net.sinks[0]]
            )


class TestArborescenceProperties:
    @SETTINGS
    @given(weighted_graph_and_net())
    def test_shortest_path_property(self, gn):
        g, net = gn
        dist, _ = dijkstra(g, net.source)
        for algo in (djka, dom, pfa, idom):
            tree = algo(g, net)
            assert is_tree(tree.tree)
            for sink in net.sinks:
                assert tree.pathlength(sink) == pytest.approx(dist[sink])

    @SETTINGS
    @given(weighted_graph_and_net(max_nodes=16, max_pins=4))
    def test_gsa_cost_ordering(self, gn):
        g, net = gn
        opt_gsa = optimal_arborescence_cost(g, net)
        opt_gmst = optimal_steiner_cost(g, net.terminals)
        # GMST optimum <= GSA optimum <= every GSA heuristic
        assert opt_gmst <= opt_gsa + 1e-6
        for algo in (djka, dom, pfa, idom):
            assert algo(g, net).cost >= opt_gsa - 1e-6

    @SETTINGS
    @given(weighted_graph_and_net())
    def test_idom_no_worse_than_dom(self, gn):
        g, net = gn
        cache = ShortestPathCache(g)
        assert idom(g, net, cache=cache).cost <= (
            dom(g, net, cache).cost + 1e-9
        )


class TestDominanceProperties:
    @SETTINGS
    @given(perturbed_grid_and_net())
    def test_dominance_definition(self, gn):
        g, net = gn
        oracle = DominanceOracle(g, net.source)
        cache = oracle.cache
        nodes = list(g.nodes)[:8]
        for p in nodes:
            for s in nodes:
                claimed = oracle.dominates(p, s)
                d0p = cache.dist(net.source, p)
                d0s = cache.dist(net.source, s)
                dsp = cache.dist(s, p)
                actual = abs(d0p - (d0s + dsp)) <= 1e-9 * max(1.0, d0p)
                assert claimed == actual

    @SETTINGS
    @given(perturbed_grid_and_net())
    def test_maxdom_is_dominated_by_both(self, gn):
        g, net = gn
        if len(net.sinks) < 2:
            return
        oracle = DominanceOracle(g, net.source)
        p, q = net.sinks[0], net.sinks[1]
        m, d = oracle.maxdom(p, q)
        assert oracle.dominates(p, m)
        assert oracle.dominates(q, m)
        assert d == pytest.approx(oracle.source_dist(m))


# The distance-scan dominance oracle: Definition 4.1 evaluated over all
# of V with SSSPs rooted at p and q.  This is the O(|V|)-per-query
# reference the shortest-path-DAG oracle must reproduce exactly.


def _scan_dominated(dp, dm, dmp):
    return dmp is not None and abs(dp - (dm + dmp)) <= 1e-9 * max(1.0, dp)


def _scan_dominated_by_both(cache, source, p, q):
    d0, _ = cache.sssp(source)
    dp_all, _ = cache.sssp(p)
    dq_all, _ = cache.sssp(q)
    dp, dq = d0[p], d0[q]
    return [
        m
        for m, dm in d0.items()
        if _scan_dominated(dp, dm, dp_all.get(m))
        and _scan_dominated(dq, dm, dq_all.get(m))
    ]


def _scan_maxdom(cache, source, p, q, restrict=None):
    """(node, d0) of the old ascending scan; None if nothing qualifies."""
    d0, _ = cache.sssp(source)
    dp_all, _ = cache.sssp(p)
    dq_all, _ = cache.sssp(q)
    dp, dq = d0[p], d0[q]
    best, best_d = None, -1.0
    for m in d0.keys() if restrict is None else restrict:
        dm = d0.get(m)
        if dm is None or dm <= best_d:
            continue
        if _scan_dominated(dp, dm, dp_all.get(m)) and _scan_dominated(
            dq, dm, dq_all.get(m)
        ):
            best, best_d = m, dm
    return None if best is None else (best, best_d)


def _scan_nearest_dominated(cache, source, p, pool):
    d0, _ = cache.sssp(source)
    dp = d0[p]

    def rank(node, d):
        return (d, 0 if node == source else 1, repr(node))

    best_key, best = None, None
    for s in pool:
        if s == p:
            continue
        ds = d0.get(s)
        if ds is None or rank(s, ds) >= rank(p, dp):
            continue
        dsp = cache.dist(s, p)
        if not _scan_dominated(dp, ds, dsp):
            continue
        key = (dsp, ds, repr(s))
        if best_key is None or key < best_key:
            best_key, best = key, s
    return best, best_key[0]


class TestDominanceMatchesDistanceScan:
    """The shortest-path-DAG oracle picks the very node the scan picks."""

    @SETTINGS
    @given(tied_graph_and_net(), st.integers(min_value=0, max_value=999))
    def test_maxdom_and_dominated_by_both(self, gn, seed):
        g, net = gn
        rng = random.Random(seed)
        oracle = DominanceOracle(g, net.source)
        ref = ShortestPathCache(g)
        nodes = list(net.terminals) + rng.sample(
            list(g.nodes), min(4, g.num_nodes)
        )
        for p, q in combinations(dict.fromkeys(nodes), 2):
            assert oracle.maxdom(p, q) == _scan_maxdom(
                ref, net.source, p, q
            )
            assert oracle.dominated_by_both(p, q) == (
                _scan_dominated_by_both(ref, net.source, p, q)
            )
            restrict = rng.sample(
                list(g.nodes), rng.randint(1, min(6, g.num_nodes))
            )
            want = _scan_maxdom(ref, net.source, p, q, restrict)
            if want is None:
                with pytest.raises(GraphError):
                    oracle.maxdom(p, q, restrict=restrict)
            else:
                assert oracle.maxdom(p, q, restrict=restrict) == want

    @SETTINGS
    @given(tied_graph_and_net(), st.integers(min_value=0, max_value=999))
    def test_nearest_dominated_both_paths(self, gn, seed):
        g, net = gn
        rng = random.Random(seed)
        ref = ShortestPathCache(g)
        extra = rng.sample(list(g.nodes), min(4, g.num_nodes))
        pool = list(dict.fromkeys([net.source, *net.sinks, *extra]))
        # an oracle that holds every pool member's ancestor set (the
        # PFA situation) and a fresh one that reads distances (DOM)
        held = DominanceOracle(g, net.source)
        for p, q in combinations(pool, 2):
            held.maxdom(p, q)
        fresh = DominanceOracle(g, net.source)
        for node in pool[1:]:
            want = _scan_nearest_dominated(ref, net.source, node, pool)
            assert held.nearest_dominated(node, pool) == want
            assert fresh.nearest_dominated(node, pool) == want

    @SETTINGS
    @given(tied_graph_and_net())
    def test_pfa_connection_choices(self, gn):
        g, net = gn
        ref = ShortestPathCache(g)
        original = DominanceOracle.nearest_dominated
        calls = []

        def checked(oracle, p, pool):
            pool = list(pool)
            got = original(oracle, p, pool)
            calls.append(p)
            assert got == _scan_nearest_dominated(
                ref, oracle.source, p, pool
            )
            return got

        with mock.patch.object(
            DominanceOracle, "nearest_dominated", checked
        ):
            pfa_tree_graph(g, net)
        assert set(net.sinks) <= set(calls)


class TestFloatSafeDominance:
    """Scaling every weight by 2^k is exact in floating point, so no
    dominance decision and no PFA/DOM tree may change under it."""

    @staticmethod
    def _decisions(g, net, nodes):
        oracle = DominanceOracle(g, net.source)
        return (
            [oracle.dominates(p, s) for p in nodes for s in nodes],
            [oracle.dominated_by_both(p, p) for p in nodes],
            [oracle.maxdom(p, q)[0] for p, q in combinations(nodes, 2)],
        )

    @staticmethod
    def _edges(tree):
        return {frozenset((u, v)) for u, v, _ in tree.edges()}

    @SETTINGS
    @given(congested_graph_and_net(), st.integers(min_value=0, max_value=999))
    def test_power_of_two_scaling(self, gn, seed):
        g, net = gn
        rng = random.Random(seed)
        nodes = list(
            dict.fromkeys(list(net.terminals) + rng.sample(list(g.nodes), 4))
        )
        base = self._decisions(g, net, nodes)
        base_pfa = self._edges(pfa_tree_graph(g, net))
        base_dom = self._edges(dom_tree_graph(g, net.source, net.sinks))
        for k in range(-4, 5):
            scaled = g.copy()
            for u, v, w in g.edges():
                scaled.set_weight(u, v, w * 2.0**k)
            assert self._decisions(scaled, net, nodes) == base, k
            assert self._edges(pfa_tree_graph(scaled, net)) == base_pfa, k
            assert self._edges(
                dom_tree_graph(scaled, net.source, net.sinks)
            ) == base_dom, k
