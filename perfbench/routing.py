"""The three routing workloads: fixed circuits routed round after round.

A round routes every circuit of the workload once, each through a fresh
serial :class:`~repro.engine.RoutingSession`.  Rounds repeat until the
run's time is up.  The routed results are checked outside the timed
window: the independent checker (``verify_result(level="full")``) must
certify each one, every round must reproduce the same result
signature, and on the default circuit seeds that signature must equal
the one pinned in ``RECORD.json``.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import layers
from hostspeed import Sampler, pin_to_one_cpu
from tracer import Tracer, covered_s, layer_stats, percentile


@dataclass(frozen=True)
class RoutingWorkload:
    name: str
    cols: int
    rows: int
    width: int
    #: nets per pin-count bucket: 2-3, 4-10, over 10
    nets: Tuple[int, int, int]
    #: default circuit seeds, one circuit each
    circuit_seeds: Tuple[int, ...]
    config: Dict[str, Any] = field(default_factory=dict)


WORKLOADS = {
    w.name: w
    for w in (
        # paper move-to-front with PFA on the 30% longest nets: the
        # slowest performance-driven mode, almost all MaxDom scans
        RoutingWorkload(
            "mtf_pfa_16x16", 16, 16, 8, (30, 12, 4), (7,),
            {"algorithm": "kmb", "critical_algorithm": "pfa",
             "critical_fraction": 0.3},
        ),
        # paper move-to-front with IKMB, and IDOM on 1 net in 8: the
        # iterated templates (IGMST delta-H, IDOM dominance) over cached
        # distance reads.  At 1 in 8 IDOM holds about 2/3 of route_s and
        # IGMST 1/3; at 1 in 5 IGMST falls to about 1/5.
        RoutingWorkload(
            "mtf_iterated_8x8", 8, 8, 5, (16, 6, 2), (7,),
            {"algorithm": "ikmb", "critical_algorithm": "idom",
             "critical_fraction": 0.125},
        ),
        # timing-driven PathFinder: the negotiated search kernel,
        # repricing and refreeze write the graph; no tree construction.
        # Three circuits, because one alone is short and spreads widely.
        RoutingWorkload(
            "negotiate_16x16", 16, 16, 5, (30, 12, 4), (7, 8, 9),
            {"mode": "negotiate", "timing": True},
        ),
    )
}

#: after each round, its results are verified (the read path: certify a
#: finished result), each once and then round-robin until verification
#: has taken this share of the round's routing time, so the samples of
#: ``hit_p50_ms`` are spread over the run like those of ``route_s``,
#: and are many: each is short, so its host-speed window is noisy
VERIFY_SHARE = 0.25


def build_inputs(workload: RoutingWorkload, circuit_seed: Optional[int]):
    """(architecture, circuits, config) for one workload.

    ``circuit_seed`` replaces the default seeds with consecutive seeds
    starting there, keeping the circuit count.
    """
    from repro.fpga import CircuitSpec, synthesize_circuit, xc4000
    from repro.router import RouterConfig

    seeds = workload.circuit_seeds
    if circuit_seed is not None:
        seeds = tuple(circuit_seed + i for i in range(len(seeds)))
    n23, n410, n10 = workload.nets
    spec = CircuitSpec(
        name=f"bench-{workload.cols}x{workload.rows}", family="xc4000",
        cols=workload.cols, rows=workload.rows, nets_2_3=n23,
        nets_4_10=n410, nets_over_10=n10, published={},
    )
    circuits = [synthesize_circuit(spec, seed=s) for s in seeds]
    arch = xc4000(workload.cols, workload.rows, workload.width)
    return arch, circuits, RouterConfig(**workload.config)


def signature(results) -> Dict[str, Any]:
    """Passes, wirelength, pathlength and a digest of every net's edges."""
    digest = hashlib.sha256()
    for result in results:
        for route in sorted(result.routes, key=lambda r: r.name):
            edges = sorted(
                "{}|{}|{!r}".format(*sorted((repr(u), repr(v))), w)
                for u, v, w in route.edges
            )
            digest.update(f"{result.circuit}/{route.name}\n".encode())
            digest.update("\n".join(edges).encode())
    return {
        "passes": [r.passes_used for r in results],
        "wirelength": round(sum(r.total_wirelength for r in results), 6),
        "pathlength": round(
            sum(r.total_max_pathlength for r in results), 6
        ),
        "edges_sha256": digest.hexdigest(),
    }


def critical_delay(result, circuit) -> float:
    """Largest Elmore sink delay over the routed nets."""
    from repro.analysis.delay import max_sink_delay

    nets = {n.name: n.to_graph_net() for n in circuit.nets}
    return max(
        max_sink_delay(route.tree(), nets[route.name])
        for route in result.routes
    )


def _route_round(arch, circuits, config):
    """Route each circuit once; per circuit (CPU seconds, wall start,
    wall end), results and trace totals."""
    from repro.engine import RoutingSession

    timings, results, totals = [], [], []
    for circuit in circuits:
        session = RoutingSession(arch, config, engine="serial")
        began = time.perf_counter()
        cpu = time.thread_time()
        result = session.route(circuit)
        timings.append((time.thread_time() - cpu, began, time.perf_counter()))
        results.append(result)
        totals.append(session.trace.totals())
    return timings, results, totals


def run(workload, inputs, seconds: float, trace: bool, pinned, spans_path):
    """Measure one run; returns (metrics, attempted, failed, notes)."""
    arch, circuits, config = inputs
    tracer = Tracer() if trace else None
    pin_to_one_cpu()
    with Sampler() as speed:
        rounds, verifications, attempted, failed, notes = _rounds(
            arch, circuits, config, seconds, tracer
        )
    if not rounds:
        return {}, attempted, failed, notes
    # every timing is CPU seconds divided by the host's slowness while
    # it ran (hostspeed.py)
    for r in rounds:
        r["times"] = [cpu / speed.slowness(b, e) for cpu, b, e in r["timings"]]
        r["seconds"] = sum(r["times"])
    verify_ms = [
        cpu / speed.slowness(b, e) * 1e3 for cpu, b, e in verifications
    ]

    reference = signature(rounds[0]["results"])
    for index, r in enumerate(rounds[1:], 1):
        if signature(r["results"]) != reference:
            failed += 1
            notes.append(f"round {index} result signature differs")
    if pinned is not None and reference != pinned:
        failed += 1
        notes.append(f"signature {reference} differs from pinned {pinned}")
    results = rounds[0]["results"]
    quality = {
        "wirelength": reference["wirelength"],
        "pathlength": reference["pathlength"],
        "critical_delay": max(
            critical_delay(res, c) for res, c in zip(results, circuits)
        ),
    }
    notes.append(f"signature {reference}")

    plain = [r for r in rounds if not r["traced"]]
    route_s = statistics.median(r["seconds"] for r in plain)
    if trace:
        metrics, unstable = _per_layer(
            tracer, rounds, route_s, spans_path, notes
        )
        return metrics, attempted, failed + unstable, notes
    jobs = [t for r in plain for t in r["times"]]
    metrics = {
        "route_s": route_s,
        "job_p50_ms": statistics.median(jobs) * 1e3,
        "job_p90_ms": percentile(jobs, 90) * 1e3,
        "hit_p50_ms": statistics.median(verify_ms),
        "jobs_per_min": 60.0 * len(jobs) / sum(jobs),
        "peak_rss_mb": rounds[0]["rss_mb"],
        **quality,
    }
    cpu = [c for r in plain for c, _, _ in r["timings"]]
    notes.append(
        f"{len(plain)} round(s), {len(jobs)} route(s), "
        f"{len(verify_ms)} verification(s); route CPU {sum(cpu):.2f} s "
        f"in {sum(r['wall'][1] - r['wall'][0] for r in plain):.2f} s wall, "
        f"{sum(jobs):.2f} s at reference speed"
    )
    return metrics, attempted, failed, notes


def _rounds(arch, circuits, config, seconds: float, tracer):
    """Route rounds until ``seconds`` pass, each checked outside its
    timed window; (rounds, verifications, attempted, failed, notes)."""
    from repro.errors import ReproError
    from repro import validate

    trace = tracer is not None
    rounds: List[Dict[str, Any]] = []
    verifications: List[Tuple[float, float, float]] = []
    attempted = failed = 0
    notes: List[str] = []
    start = time.perf_counter()
    # the traced run alternates untraced and traced rounds, so both
    # see the same conditions and their ratio is the tracing overhead;
    # a round starts if at least half of it fits in the run's time
    while len(rounds) < (2 if trace else 1) or (
        time.perf_counter() - start
        + statistics.median(r["wall_s"] for r in rounds) / 2
        <= seconds
    ):
        traced = trace and len(rounds) % 2 == 1
        if traced:
            first = len(tracer.spans)
            layers.install(tracer, layers.ROUTING_WRAPS)
        gc.collect()
        attempted += len(circuits)
        began = time.perf_counter()
        try:
            timings, results, totals = _route_round(arch, circuits, config)
        except ReproError as exc:
            failed += len(circuits)
            notes.append(f"round {len(rounds)}: {type(exc).__name__}: {exc}")
            break
        finally:
            ended = time.perf_counter()
            if traced:
                tracer.restore()
        if not rounds:
            # each round leaves the allocator about 1 MB higher, and how
            # many rounds fit in a run depends on the host's speed
            first_rss_mb = peak_rss_mb()
        # ---- correctness, outside the timed window ----
        routed_s = sum(cpu for cpu, _, _ in timings)
        verified_s = 0.0
        for i in itertools.count():
            if i >= len(circuits) and verified_s >= VERIFY_SHARE * routed_s:
                break
            k = i % len(circuits)
            attempted += 1
            t = time.perf_counter()
            cpu = time.thread_time()
            report = validate.verify_result(
                results[k], circuits[k], arch, config, level="full"
            )
            took = time.thread_time() - cpu
            verified_s += took
            verifications.append((took, t, time.perf_counter()))
            if not report.ok:
                failed += 1
                notes.append(f"checker rejected {circuits[k].name}")
        rounds.append({
            "traced": traced, "timings": timings,
            "wall": (began, ended), "results": results, "totals": totals,
            "spans": (first, len(tracer.spans)) if traced else None,
            "wall_s": time.perf_counter() - began,
        })
    if rounds:
        notes.append(f"peak RSS {first_rss_mb:.1f} MB after the first "
                     f"round, {peak_rss_mb():.1f} MB after the run")
        rounds[0]["rss_mb"] = first_rss_mb
    return rounds, verifications, attempted, failed, notes


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _per_layer(tracer: Tracer, rounds, route_s: float, spans_path, notes):
    """Per-round layer statistics from the traced rounds; the count of
    exact counts that differ between traced rounds."""
    from repro.router.negotiation import NEGOTIATE_ALGORITHM

    traced = [r for r in rounds if r["traced"]]
    per_round: List[Dict[str, float]] = []
    for r in traced:
        lo, hi = r["spans"]
        spans = tracer.spans[lo:hi]
        stats = layers.span_metrics(layer_stats(spans), 1)
        began, ended = r["wall"]
        stats["other.self_s"] = (ended - began) - covered_s(
            spans, began, ended
        )
        hits = sum(t["cache"]["hits"] for t in r["totals"])
        misses = sum(t["cache"]["misses"] for t in r["totals"])
        stats["graph.cache.hit_ratio"] = (
            hits / (hits + misses) if hits + misses else 0.0
        )
        stats["graph.heap_pops"] = sum(
            t["dijkstra"]["heap_pops"] for t in r["totals"]
        )
        passes = sum(res.passes_used for res in r["results"])
        stats["engine.passes"] = passes
        stats["negotiate.iterations"] = sum(
            res.passes_used for res in r["results"]
            if res.algorithm == NEGOTIATE_ALGORITHM
        )
        per_round.append(stats)
    tracer.write(spans_path)
    metrics = {
        name: statistics.median(s[name] for s in per_round)
        for name in per_round[0]
    }
    traced_s = statistics.median(r["seconds"] for r in traced)
    metrics["trace.overhead_pct"] = 100.0 * (traced_s / route_s - 1.0)
    for name in ("service.queue_wait.p50_ms", "journal.appends_per_job",
                 "sse.terminal_lag.p50_ms", "http.overhead.p50_ms",
                 "dedupe.hit_ratio"):
        metrics[name] = 0.0
    unstable = 0
    for name in layers.EXACT_COUNTS:
        values = {s.get(name) for s in per_round}
        if len(values) != 1:
            unstable += 1
            notes.append(f"{name} differs between traced rounds: {values}")
    return metrics, unstable
