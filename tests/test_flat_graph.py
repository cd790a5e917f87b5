"""Unit tests for the flat CSR graph core and its integration seams.

Covers what the property suite (test_flat_properties.py) does not:
the deprecated ``Graph._adj`` escape hatch, pickling, the cache's use
of the frozen view, the worker's flat materialization, the CLI
surface, and the package exports.
"""

from __future__ import annotations

import pickle
import warnings

import pytest

import repro
from repro.errors import GraphError
from repro.fpga import xc4000
from repro.fpga.routing_graph import RoutingResourceGraph
from repro.graph import (
    FlatGraph,
    Graph,
    GraphView,
    SearchPolicy,
    ShortestPathCache,
    dijkstra,
    grid_graph,
)
from repro.net import Net
from repro.router import RouterConfig


def small_graph():
    g = Graph()
    g.add_edge("a", "b", 1.0)
    g.add_edge("b", "c", 2.0)
    g.add_edge("a", "c", 5.0)
    g.add_node("lone")
    return g


def assert_same_adjacency(g, h):
    assert list(g.nodes) == list(h.nodes)
    assert g.num_edges == h.num_edges
    for node in g.nodes:
        assert list(g.neighbor_items(node)) == list(h.neighbor_items(node))


# ----------------------------------------------------------------------
# the deprecated dict-adjacency escape hatch
# ----------------------------------------------------------------------
def test_direct_adj_access_warns():
    g = small_graph()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        adj = g._adj
    assert any(
        issubclass(w.category, DeprecationWarning) for w in caught
    )
    assert adj is g._adjacency  # still functional, just deprecated


def test_internal_code_does_not_warn():
    """The library itself must stay off the deprecated property —
    routing a grid end to end emits no DeprecationWarning."""
    g = grid_graph(4, 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        view = g.freeze()
        view.sssp((0, 0))
        view.thaw()


# ----------------------------------------------------------------------
# pickling (process-engine shipping)
# ----------------------------------------------------------------------
def test_flatgraph_pickle_round_trip():
    g = small_graph()
    flat = g.freeze().flat
    flat.rows()  # populate a lazy mirror; it must not travel
    clone = pickle.loads(pickle.dumps(flat))
    assert isinstance(clone, FlatGraph)
    assert clone.nodes == flat.nodes
    assert clone.num_edges == flat.num_edges
    assert_same_adjacency(g, clone.thaw())


def test_pickle_is_base_arrays_only():
    flat = grid_graph(6, 6).freeze().flat
    flat.rows()
    flat.index  # populate both lazies
    state = flat.__getstate__()
    blob_with_lazies = pickle.dumps(flat)
    fresh = FlatGraph.from_graph(grid_graph(6, 6))
    assert len(blob_with_lazies) == len(pickle.dumps(fresh))
    assert "rows" not in str(state)


# ----------------------------------------------------------------------
# freeze()/GraphView lifecycle
# ----------------------------------------------------------------------
def test_weights_coerce_to_float64():
    g = Graph()
    g.add_edge(1, 2, 2)  # int weight
    h = g.freeze().thaw()
    (nbr, w), = h.neighbor_items(1)
    assert nbr == 2 and w == 2.0 and isinstance(w, float)


def test_view_fresh_tracks_other_graphs():
    g = small_graph()
    view = g.freeze()
    other = small_graph()
    assert view.fresh(g)
    assert not view.fresh(other)  # same version, different object


# ----------------------------------------------------------------------
# the cache searches the frozen view, with or without a policy
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "search", [None, SearchPolicy("dijkstra"), SearchPolicy("astar")]
)
def test_cache_runs_on_frozen_view(search):
    g = small_graph()
    cache = ShortestPathCache(g, search=search)
    dist, pred = cache.sssp("a")
    # the full run froze the graph, and equals the dict reference
    # down to iteration order
    assert g._frozen is not None and g._frozen.fresh(g)
    ref_dist, ref_pred = dijkstra(g, "a")
    assert list(dist.items()) == list(ref_dist.items())
    assert list(pred.items()) == list(ref_pred.items())


def test_full_entry_served_across_policy_swap():
    """One substrate: a stored full run stays valid whichever search
    policy is attached afterwards."""
    g = small_graph()
    cache = ShortestPathCache(g, search=SearchPolicy("dijkstra"))
    first = cache.sssp("a")
    cache._search = SearchPolicy("bidir")
    assert cache.sssp("a") is first
    assert cache.stats()["hits"] == 1


# ----------------------------------------------------------------------
# worker materialization == session snapshot
# ----------------------------------------------------------------------
def _rrg_and_net():
    rrg = RoutingResourceGraph(xc4000(2, 2, 3))
    rrg.detach_all_pins()
    pins = sorted(rrg._pin_edges)[:3]
    return rrg, Net(pins[0], pins[1:], name="n0")


def test_materialize_flat_matches_dict_snapshot():
    from repro.engine.worker import NetTask, materialize_graph

    rrg, net = _rrg_and_net()
    snapshot = rrg.graph.copy()
    rrg.attach_pins(net.terminals, graph=snapshot)
    task = NetTask(
        name="n0",
        net=net,
        algo="djka",
        config=RouterConfig(),
        flat=rrg.graph.freeze().flat,
        pin_taps={pn: rrg.pin_taps(pn) for pn in net.terminals},
    )
    assert_same_adjacency(snapshot, materialize_graph(task))


def test_materialize_requires_some_shipping():
    """Every terminal's connection-block taps must ship with the task."""
    from repro.engine.worker import NetTask, materialize_graph

    rrg, net = _rrg_and_net()
    task = NetTask(
        name="n0",
        net=net,
        algo="djka",
        config=RouterConfig(),
        flat=rrg.graph.freeze().flat,
        pin_taps={net.source: rrg.pin_taps(net.source)},
    )
    with pytest.raises(GraphError):
        materialize_graph(task)


def test_pin_taps_rejects_non_pin():
    rrg, _ = _rrg_and_net()
    with pytest.raises(GraphError):
        rrg.pin_taps(("J", 0, 0, "E", 0))


# ----------------------------------------------------------------------
# package surface
# ----------------------------------------------------------------------
def test_public_exports():
    for name in ("GraphView", "FlatGraph", "SearchPolicy", "RouterConfig",
                 "Diagnostic"):
        assert name in repro.__all__
        assert getattr(repro, name) is not None
    assert repro.GraphView is GraphView
    assert repro.FlatGraph is FlatGraph


def test_cli_legacy_aliases_warn():
    from repro.cli import _build_parser

    parser = _build_parser()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        args = parser.parse_args(
            ["route", "busc", "--max-passes", "4", "--trace-file", "t.json"]
        )
    assert args.passes == 4 and args.trace == "t.json"
    messages = [
        str(w.message) for w in caught
        if issubclass(w.category, DeprecationWarning)
    ]
    assert any("--passes" in m for m in messages)
    assert any("--trace" in m for m in messages)
