"""Which calls the traced run wraps, and the per-layer metrics it reports.

Layers are named by module (``repro.steiner``, ``repro.arborescence``,
``repro.graph``, ``repro.fpga``, ``repro.router``, ``repro.engine``,
``repro.validate``, ``repro.service``); each span name starts with a
short form of its layer.  A function is wrapped in every module that
calls it through a module-level name, because that is the attribute the
caller resolves at call time; a method is wrapped once, on its class.
"""

from __future__ import annotations

import importlib
from typing import Any, Dict, List, Tuple

from tracer import Tracer, percentile


def _job_of_record(_args, record) -> Any:
    return getattr(record, "job_id", None)


def _job_of_doc(_args, doc) -> Any:
    return doc.get("job_id") if isinstance(doc, dict) else None


def _job_arg(args, _result) -> Any:
    return args[1]


def _event_job(args, _result) -> Any:
    event = args[1]
    return event.get("job") if isinstance(event, dict) else None


def _session_totals(args, _result) -> Any:
    trace = args[0].trace
    if trace is None:
        return None
    totals = trace.totals()
    return {
        "hits": totals["cache"]["hits"],
        "misses": totals["cache"]["misses"],
        "heap_pops": totals["dijkstra"]["heap_pops"],
    }


#: (module, class or None, attribute, span name, span key)
ROUTING_WRAPS: List[Tuple[str, Any, str, str, Any]] = [
    ("repro.engine.session", "RoutingSession", "route", "engine.route",
     _session_totals),
    ("repro.engine.session", None, "save_checkpoint", "engine.checkpoint",
     None),
    ("repro.engine.session", None, "validate_circuit", "validate.lint",
     None),
    ("repro.engine.session", None, "route_connections",
     "negotiate.route_connections", None),
    ("repro.router.router", None, "route_net_tree", "router.tree", None),
    ("repro.router.router", None, "pfa", "arbor.pfa", None),
    ("repro.router.router", None, "idom", "arbor.idom", None),
    ("repro.router.router", None, "igmst", "steiner.igmst", None),
    ("repro.router.router", None, "kmb", "steiner.kmb", None),
    ("repro.router.router", None, "dom_tree_graph", "arbor.dom_tree", None),
    ("repro.arborescence.idom", None, "dom_tree_graph", "arbor.dom_tree",
     None),
    ("repro.arborescence.dom", None, "dom_tree_graph", "arbor.dom_tree",
     None),
    ("repro.router.router", None, "kmb_tree_graph", "steiner.kmb_tree",
     None),
    ("repro.steiner.kmb", None, "kmb_tree_graph", "steiner.kmb_tree", None),
    ("repro.arborescence.dominance", "DominanceOracle", "maxdom",
     "arbor.maxdom", None),
    ("repro.arborescence.dominance", "DominanceOracle", "nearest_dominated",
     "arbor.nearest_dominated", None),
    ("repro.arborescence.dominance", "DominanceOracle",
     "shortest_paths_union", "arbor.sp_union", None),
    ("repro.router.negotiation", "NegotiationState", "factor_table",
     "negotiate.factor_table", None),
    ("repro.router.negotiation", "NegotiationState", "update_history",
     "negotiate.update_history", None),
    ("repro.router.timing", "SlackTable", "from_trees", "timing.slack", None),
    ("repro.graph.shortest_paths", "ShortestPathCache", "sssp",
     "graph.sssp", None),
    ("repro.graph.search", "SearchPolicy", "plain_sssp", "graph.sssp",
     None),
    ("repro.graph.search", "SearchPolicy", "negotiated_search",
     "graph.search.negotiated", None),
    ("repro.graph.core", "Graph", "freeze", "graph.freeze", None),
    ("repro.fpga.routing_graph", "RoutingResourceGraph", "__init__",
     "fpga.rrg_build", None),
    ("repro.fpga.routing_graph", "RoutingResourceGraph", "commit",
     "fpga.commit", None),
    ("repro.fpga.routing_graph", "RoutingResourceGraph", "uncommit",
     "fpga.commit", None),
    ("repro.fpga.routing_graph", "RoutingResourceGraph", "reset",
     "fpga.commit", None),
    ("repro.fpga.routing_graph", "RoutingResourceGraph", "attach_pins",
     "fpga.pins", None),
    ("repro.fpga.routing_graph", "RoutingResourceGraph", "detach_pins",
     "fpga.pins", None),
    ("repro.fpga.routing_graph", "RoutingResourceGraph", "detach_all_pins",
     "fpga.pins", None),
    ("repro.validate", None, "verify_result", "validate.verify", None),
    ("repro.engine.session", None, "verify_result", "validate.verify", None),
]

SERVICE_WRAPS: List[Tuple[str, Any, str, str, Any]] = [
    ("repro.service.api", None, "verify_result", "validate.verify", None),
    ("repro.service.supervisor", None, "verify_result", "validate.verify",
     None),
    ("repro.service.api", "RoutingService", "submit", "service.submit",
     _job_of_record),
    ("repro.service.api", "RoutingService", "result", "service.result",
     _job_arg),
    ("repro.service.supervisor", "JobSupervisor", "claim_next",
     "service.claim", _job_of_record),
    ("repro.service.supervisor", "JobSupervisor", "run_job",
     "service.run_job", _job_of_record),
    ("repro.service.journal", "Journal", "append", "journal.append",
     _event_job),
    ("repro.service.store", "JobStore", "write_result", "store.write_result",
     _job_arg),
    ("repro.service.store", "JobStore", "finish_done", "store.finish_done",
     _job_arg),
    ("repro.service.client", "ServiceClient", "submit", "client.submit",
     _job_of_doc),
    ("repro.service.client", "ServiceClient", "result", "client.result",
     _job_arg),
]


def install(tracer: Tracer, wraps) -> None:
    for module_name, class_name, attr, name, key in wraps:
        owner = importlib.import_module(module_name)
        if class_name is not None:
            owner = getattr(owner, class_name)
        tracer.wrap(owner, attr, name, key)


#: timed layers: span name -> extra statistics beyond calls and busy_s
TIMED = {
    "arbor.pfa": ("self_s",),
    "arbor.maxdom": (),
    "arbor.idom": ("self_s",),
    "arbor.dom_tree": (),
    "arbor.nearest_dominated": (),
    "arbor.sp_union": (),
    "steiner.igmst": ("self_s",),
    "steiner.kmb_tree": (),
    "steiner.kmb": ("self_s",),
    "graph.sssp": (),
    "graph.search.negotiated": (),
    "graph.freeze": (),
    "fpga.rrg_build": (),
    "fpga.commit": (),
    "fpga.pins": (),
    "router.tree": ("self_s", "p50_ms", "p90_ms"),
    "negotiate.route_connections": ("self_s",),
    "negotiate.factor_table": (),
    "negotiate.update_history": (),
    "timing.slack": (),
    "engine.route": ("self_s",),
    "engine.checkpoint": (),
    "validate.verify": ("p50_ms",),
    "validate.lint": (),
    "service.submit": ("p50_ms",),
    "service.run_job": ("p50_ms",),
    "journal.append": ("p50_ms",),
    "store.write_result": ("p50_ms",),
}

#: per-layer metrics that are not per-span statistics, with their units
DERIVED = {
    "graph.cache.hit_ratio": "ratio",
    "graph.heap_pops": "count",
    "negotiate.iterations": "count",
    "engine.passes": "count",
    "service.queue_wait.p50_ms": "ms",
    "journal.appends_per_job": "count",
    "sse.terminal_lag.p50_ms": "ms",
    "http.overhead.p50_ms": "ms",
    "dedupe.hit_ratio": "ratio",
    "other.self_s": "s",
    "trace.overhead_pct": "%",
}

#: counts that must repeat exactly between traced runs on one seed
EXACT_COUNTS = (
    "engine.passes",
    "negotiate.iterations",
    "arbor.maxdom.calls",
    "steiner.kmb_tree.calls",
    "arbor.dom_tree.calls",
    "graph.sssp.calls",
    "graph.freeze.calls",
    "journal.appends_per_job",
)

_UNITS = {"calls": "count", "busy_s": "s", "self_s": "s",
          "p50_ms": "ms", "p90_ms": "ms"}


def per_layer_names() -> Dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    names: Dict[str, str] = {}
    for layer, extra in TIMED.items():
        for stat in ("calls", "busy_s") + extra:
            names[f"{layer}.{stat}"] = _UNITS[stat]
    names.update(DERIVED)
    return names


def span_metrics(layers: Dict[str, Dict[str, Any]], units: int) -> Dict[str, float]:
    """Per-unit span statistics for every timed layer (0 when unused).

    ``units`` is how many units of work the spans cover (routing
    rounds, or fresh service jobs); calls and seconds are divided by
    it, percentiles are per call.
    """
    out: Dict[str, float] = {}
    for layer, extra in TIMED.items():
        row = layers.get(layer)
        calls = row["calls"] if row else 0
        out[f"{layer}.calls"] = calls / units
        out[f"{layer}.busy_s"] = row["busy_s"] / units if row else 0.0
        for stat in extra:
            if stat == "self_s":
                out[f"{layer}.self_s"] = row["self_s"] / units if row else 0.0
            else:
                q = 50 if stat == "p50_ms" else 90
                out[f"{layer}.{stat}"] = (
                    percentile(row["durations"], q) * 1e3 if row else 0.0
                )
    return out
