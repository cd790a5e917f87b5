"""The ``service_jobs`` workload: a closed loop against the job service.

The server runs in this process: a :class:`RoutingService` on a fresh
store root, its HTTP front end on a :class:`BackgroundServer`, and one
worker (``serve(workers=1)``) polling at the CLI's default interval.
One client thread, with its own :class:`ServiceClient` over loopback
HTTP, submits one job at a time after a short random think time, waits
for the terminal SSE ``state`` event and fetches the result.  The
process is pinned to one CPU, as the routing workloads are.  Jobs are distinct ``term1``
circuits at fraction 0.22, routed with KMB at channel width 6; one
submission in four repeats a circuit whose job that client already saw
finish, so it is served by dedupe (re-verify and adopt).

Checked outside the timed window: every job ends ``done`` and
``verified``, every fresh result passes ``verify_result(level="full")``
here too, and every dedupe hit returns exactly its donor's result.
"""

from __future__ import annotations

import gc
import random
import shutil
import statistics
import tempfile
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

import layers
from hostspeed import Sampler, pin_to_one_cpu
from routing import critical_delay, signature
from tracer import Tracer, layer_stats, percentile

#: closed-loop client threads.  One: with two, a dedupe hit either ran
#: alone (about 100 ms) or shared the interpreter with the other
#: client's route (about 250 ms), and the median hit flipped between
#: the two from run to run
CLIENTS = 1
REPEAT_EVERY = 4
WIDTH = 6
FAMILY = "xc3000"
CONFIG = {"algorithm": "kmb"}
#: the CLI's default worker poll interval (``RoutingService.serve``)
POLL_S = 0.1
#: the server's SSE hub reads a job's log when a client subscribes and
#: then every this-many seconds (``ServiceHTTP`` default)
SSE_TICK_S = 0.2
#: before each submission the client thinks for a random time up to
#: this long, so a job's submission does not keep one phase against the
#: worker's claim poll; a job then waits for a claim uniformly between
#: 0 and ``POLL_S``.  Think time is not part of any latency.
THINK_S = POLL_S
#: per client, the first this-many fresh jobs route a fixed reference
#: set of circuits, in an order the seed shuffles; the quality metrics
#: sum over it, so they are exact across seeds
REFERENCE_JOBS = 100 // CLIENTS
#: the loop runs for the run's seconds and on until every client has
#: had this many fresh jobs: at least the reference set, 100 fresh jobs
#: in all, so p90 has ten samples beyond it, and about 33 dedupe hits
MIN_FRESH = REFERENCE_JOBS
#: fresh circuits beyond the reference set synthesized at set-up
EXTRA = 35
#: the loop never runs longer than the run's seconds plus this
OVERRUN_S = 60.0
#: traced run, submissions per client: an untraced warm-up, then the
#: traced phase.  Both are fixed counts, so one seed always traces the
#: same jobs and the per-job counts repeat exactly.
WARMUP_SUBMISSIONS = 2
TRACED_SUBMISSIONS = 12


def circuit_seed(seed: Optional[int], client: int, index: int) -> int:
    """Reference circuits (``seed=None``) or the seed's extra circuits."""
    base = 0 if seed is None else (seed + 1) * 1_000_000
    return base + client * 10_000 + index


class Inputs:
    """Circuits and a running server; :meth:`close` stops everything."""

    def __init__(self, seed: int, workdir: str) -> None:
        from repro.fpga import circuit_spec, scaled_spec, synthesize_circuit

        self.seed = seed
        self._spec = scaled_spec(circuit_spec("term1"), 0.22)
        self._synth = synthesize_circuit
        self.pools = []
        for c in range(CLIENTS):
            reference = [
                self._synth(self._spec, seed=circuit_seed(None, c, k))
                for k in range(REFERENCE_JOBS)
            ]
            random.Random(f"{seed}/{c}").shuffle(reference)
            self.pools.append(reference)
            for _ in range(EXTRA):
                self.circuit(c, len(reference))
        self.root = tempfile.mkdtemp(prefix="service-", dir=workdir)
        self.service = None
        self.background = None
        self.pool_thread: Optional[threading.Thread] = None
        try:
            self._start()
        except BaseException:
            self.close()
            raise

    def circuit(self, client: int, index: int):
        """The circuit of a client's ``index``-th fresh job."""
        pool = self.pools[client]
        while len(pool) <= index:
            pool.append(self._synth(
                self._spec, seed=circuit_seed(self.seed, client, len(pool))
            ))
        return pool[index]

    def _start(self) -> None:
        from repro.service import BackgroundServer, RoutingService, ServiceClient

        self.service = RoutingService(self.root)
        self.background = BackgroundServer(self.service)
        host, port = self.background.start()
        self.url = f"http://{host}:{port}"
        self.pool_thread = threading.Thread(
            target=self.service.serve,
            kwargs={"workers": 1, "poll_s": POLL_S,
                    "install_signal_handlers": False},
            name="bench-worker-pool",
        )
        self.pool_thread.start()
        ServiceClient(self.url).healthz()

    def close(self) -> None:
        if self.service is not None:
            self.service.supervisor.request_drain()
        if self.pool_thread is not None:
            self.pool_thread.join(timeout=60)
        if self.background is not None:
            self.background.stop()
        shutil.rmtree(self.root, ignore_errors=True)


class Client:
    """One closed-loop client; its circuit sequence spans the whole run."""

    def __init__(self, inputs: Inputs, index: int) -> None:
        self.inputs = inputs
        self.index = index
        self.rng = random.Random(inputs.seed * 7919 + index)
        self.think = random.Random(f"think/{inputs.seed}/{index}")
        #: circuit indices whose fresh job this client saw finish
        self.finished: List[int] = []
        self.fresh = 0
        self.submitted = 0

    def loop(self, deadline: float, hard_deadline: float, need_fresh: int,
             limit: Optional[int], jobs: List[Dict[str, Any]],
             errors: List[str]) -> None:
        """Submit jobs one at a time; append a record per finished job.

        Stops at ``limit`` submissions if given, else once ``deadline``
        has passed and ``need_fresh`` fresh jobs were submitted.
        """
        from repro.errors import ReproError
        from repro.service import ServiceClient

        api = ServiceClient(self.inputs.url)
        first_fresh, first_submitted = self.fresh, self.submitted
        while True:
            now = time.perf_counter()
            if limit is not None:
                if self.submitted - first_submitted >= limit:
                    return
            elif now >= deadline and self.fresh - first_fresh >= need_fresh:
                return
            if now >= hard_deadline:
                return
            time.sleep(self.think.uniform(0.0, THINK_S))
            repeat = bool(self.finished) and (
                self.submitted % REPEAT_EVERY == REPEAT_EVERY - 1
            )
            index = self.rng.choice(self.finished) if repeat else self.fresh
            if not repeat:
                self.fresh += 1
            self.submitted += 1
            circuit = self.inputs.circuit(self.index, index)
            job = {"client": self.index, "index": index, "repeat": repeat}
            try:
                job["t0"] = time.perf_counter()
                record = api.submit(
                    circuit, config=CONFIG, width=WIDTH, family=FAMILY,
                    tenant=f"client-{self.index}",
                )
                job["job_id"] = record["job_id"]
                job["deduped"] = record.get("deduped_from") is not None
                if not job["deduped"]:
                    # subscribe at a random phase of the hub's tick: a
                    # subscription made at once sees a job finishing
                    # ~200 ms after submission either at the first tick
                    # or a whole tick later, and the median latency
                    # flipped between the two from run to run
                    time.sleep(self.think.uniform(0.0, SSE_TICK_S))
                final = None
                for event, data, _ in api.events(
                    record["job_id"], heartbeats=False
                ):
                    if event == "state":
                        final = data
                job["t_state"] = time.perf_counter()
                job["result"] = api.result(record["job_id"])
                job["t1"] = time.perf_counter()
            except (ReproError, OSError) as exc:
                errors.append(
                    f"client {self.index}: {type(exc).__name__}: {exc}"
                )
                continue
            job["final"] = final
            jobs.append(job)
            if not repeat:
                self.finished.append(index)


def _closed_loop(clients: List[Client], seconds: float, need_fresh: int,
                 limit: Optional[int] = None):
    """Run every client until ``seconds`` pass and each has submitted
    ``need_fresh`` fresh jobs in this loop, or until each has made
    ``limit`` submissions; (jobs, errors, (start, end) perf_counter)."""
    jobs: List[Dict[str, Any]] = []
    errors: List[str] = []
    gc.collect()
    began = time.perf_counter()
    threads = [
        threading.Thread(
            target=client.loop,
            args=(began + seconds, began + seconds + OVERRUN_S, need_fresh,
                  limit, jobs, errors),
            name=f"bench-client-{client.index}",
        )
        for client in clients
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return jobs, errors, (began, time.perf_counter())


def _check(inputs: Inputs, jobs, errors, notes) -> int:
    """Failures among ``jobs``; also records each fresh job's signature."""
    from repro import validate
    from repro.fpga import xc3000
    from repro.router import RouterConfig

    failed = len(errors)
    notes.extend(errors[:5])
    config = RouterConfig(**CONFIG)
    donors: Dict[Any, Dict[str, Any]] = {}
    for job in jobs:
        final = job["final"] or {}
        if final.get("state") != "done" or not final.get("verified"):
            failed += 1
            notes.append(f"{job['job_id']} ended {final.get('state')}")
            continue
        circuit = inputs.circuit(job["client"], job["index"])
        job["signature"] = signature([job["result"]])
        if job["repeat"]:
            continue
        arch = xc3000(circuit.rows, circuit.cols, WIDTH)
        report = validate.verify_result(
            job["result"], circuit, arch, config, level="full"
        )
        if not report.ok:
            failed += 1
            notes.append(f"checker rejected {job['job_id']}")
        donors[(job["client"], job["index"])] = job
    for job in jobs:
        if job["repeat"] and "signature" in job:
            donor = donors.get((job["client"], job["index"]))
            if donor is None or donor["signature"] != job["signature"]:
                failed += 1
                notes.append(f"{job['job_id']} differs from its donor")
    return failed


def run(inputs: Inputs, seconds: float, trace: bool, spans_path):
    """Measure one run; returns (metrics, attempted, failed, notes)."""
    from repro.engine import session as engine_session

    notes: List[str] = []
    pin_to_one_cpu()
    clients = [Client(inputs, c) for c in range(CLIENTS)]
    if trace:
        # untraced warm-up, a fixed traced phase, then untraced jobs for
        # the rest of the run as the base of the tracing overhead
        began = time.perf_counter()
        warm, errors, _ = _closed_loop(clients, 0, 0, WARMUP_SUBMISSIONS)
        tracer = Tracer()
        layers.install(tracer, layers.ROUTING_WRAPS + layers.SERVICE_WRAPS)
        try:
            traced, more, _ = _closed_loop(clients, 0, 0, TRACED_SUBMISSIONS)
        finally:
            tracer.restore()
        errors += more
        left = seconds - (time.perf_counter() - began)
        plain, more, _ = _closed_loop(
            clients, left, TRACED_SUBMISSIONS * (REPEAT_EVERY - 1)
            // REPEAT_EVERY,
        )
        errors += more
        jobs = warm + traced + plain
    else:
        # route_s times the worker's RoutingSession.route calls in the
        # worker thread's CPU time, so the other threads sharing the CPU
        # do not count; this is the only wrapper an untraced run installs
        routes: List[Tuple[float, float, float]] = []
        route = engine_session.RoutingSession.route

        def timed_route(session, *args, **kwargs):
            began, cpu = time.perf_counter(), time.thread_time()
            try:
                return route(session, *args, **kwargs)
            finally:
                routes.append(
                    (time.thread_time() - cpu, began, time.perf_counter())
                )

        engine_session.RoutingSession.route = timed_route
        try:
            with Sampler() as speed:
                jobs, errors, loop = _closed_loop(
                    clients, seconds, MIN_FRESH
                )
        finally:
            engine_session.RoutingSession.route = route
    attempted = len(jobs) + len(errors)
    failed = _check(inputs, jobs, errors, notes)
    # refusals the client's retries may have hidden still count
    stats = inputs.background.frontend.stats
    refused = (stats.shed_connections + stats.shed_inflight
               + stats.shed_submits + stats.shed_sse)
    if refused:
        failed += refused
        notes.append(f"server refused {refused} request(s) with 429/503")
    if trace:
        metrics = _per_layer(tracer, plain, traced, spans_path)
        return metrics, attempted, failed, notes

    fresh = [j for j in jobs if not j["repeat"]]
    hits = [j for j in jobs if j["repeat"]]
    reference = [j for j in fresh if j["index"] < REFERENCE_JOBS]
    if len(reference) < CLIENTS * REFERENCE_JOBS or not hits:
        notes.append(
            f"only {len(reference)} reference jobs and {len(hits)} hits"
        )
        return {}, attempted, failed + 1, notes
    # every timing is divided by the host's slowness while it ran
    # (hostspeed.py)
    def reference_s(start: float, end: float) -> float:
        return (end - start) / speed.slowness(start, end)

    latency = [reference_s(j["t0"], j["t1"]) * 1e3 for j in fresh]
    window = reference_s(*loop)
    metrics = {
        "route_s": statistics.median(
            cpu / speed.slowness(b, e) for cpu, b, e in routes
        ),
        "job_p50_ms": statistics.median(latency),
        "job_p90_ms": percentile(latency, 90),
        "hit_p50_ms": statistics.median(
            reference_s(j["t0"], j["t1"]) * 1e3 for j in hits
        ),
        "jobs_per_min": 60.0 * len(jobs) / window,
        "wirelength": sum(j["result"].total_wirelength for j in reference),
        "pathlength": sum(j["result"].total_max_pathlength for j in reference),
        "critical_delay": max(
            critical_delay(j["result"], inputs.circuit(j["client"], j["index"]))
            for j in reference
        ),
    }
    notes.append(
        f"{len(fresh)} fresh job(s), {len(hits)} repeat(s) in "
        f"{loop[1] - loop[0]:.1f} s wall, {window:.1f} s at reference speed"
    )
    return metrics, attempted, failed, notes


def _per_layer(tracer: Tracer, plain, traced, spans_path) -> Dict[str, float]:
    """Per-fresh-job layer statistics from the traced phase."""
    tracer.write(spans_path)
    fresh = [j for j in traced if not j["repeat"]]
    repeats = [j for j in traced if j["repeat"]]
    units = max(1, len(fresh))
    metrics = layers.span_metrics(layer_stats(tracer.spans), units)
    starts: Dict[str, Dict[Any, float]] = {}
    ends: Dict[str, Dict[Any, float]] = {}
    appends: Dict[Any, int] = {}
    totals = {"hits": 0, "misses": 0, "heap_pops": 0}
    for _, name, s, e, _, key in tracer.spans:
        if name == "engine.route":
            for field in totals:
                totals[field] += key[field] if key else 0
            continue
        starts.setdefault(name, {})[key] = s
        ends.setdefault(name, {})[key] = e
        if name == "journal.append":
            appends[key] = appends.get(key, 0) + 1
    looked_up = totals["hits"] + totals["misses"]
    metrics["graph.cache.hit_ratio"] = (
        totals["hits"] / looked_up if looked_up else 0.0
    )
    metrics["graph.heap_pops"] = totals["heap_pops"] / units

    def took(name: str, job_id) -> float:
        return ends[name][job_id] - starts[name][job_id]

    def per_job(fn) -> float:
        values = []
        for job in fresh:
            try:
                values.append(fn(job["job_id"], job))
            except KeyError:
                continue
        return statistics.median(values) if values else 0.0

    def steps(j, job):
        """The intervals a fresh job's latency is made of, in order."""
        return [
            (starts["client.submit"][j], ends["client.submit"][j]),
            (ends["service.submit"][j], ends["service.claim"][j]),
            (starts["service.run_job"][j], ends["service.run_job"][j]),
            (ends["store.finish_done"][j], job["t_state"]),
            (starts["client.result"][j], ends["client.result"][j]),
        ]

    metrics["service.queue_wait.p50_ms"] = per_job(
        lambda j, _: (ends["service.claim"][j] - ends["service.submit"][j]) * 1e3
    )
    metrics["sse.terminal_lag.p50_ms"] = per_job(
        lambda j, job: (job["t_state"] - ends["store.finish_done"][j]) * 1e3
    )
    metrics["http.overhead.p50_ms"] = per_job(
        lambda j, _: (
            took("client.submit", j) - took("service.submit", j)
            + took("client.result", j) - took("service.result", j)
        ) * 1e3
    )
    metrics["other.self_s"] = per_job(
        lambda j, job: (job["t1"] - job["t0"]) - _union_s(steps(j, job))
    )
    metrics["journal.appends_per_job"] = per_job(lambda j, _: appends[j])
    metrics["dedupe.hit_ratio"] = (
        sum(j["deduped"] for j in repeats) / len(repeats) if repeats else 0.0
    )
    metrics["engine.passes"] = sum(
        j["result"].passes_used for j in fresh
    ) / units
    metrics["negotiate.iterations"] = 0.0
    plain_p50 = statistics.median(
        (j["t1"] - j["t0"]) for j in plain if not j["repeat"]
    )
    traced_p50 = statistics.median((j["t1"] - j["t0"]) for j in fresh)
    metrics["trace.overhead_pct"] = 100.0 * (traced_p50 / plain_p50 - 1.0)
    return metrics


def _union_s(intervals) -> float:
    """Seconds covered by the union of ``(start, end)`` intervals."""
    covered, reach = 0.0, float("-inf")
    for s, e in sorted(intervals):
        if e > reach:
            covered += e - max(s, reach)
            reach = e
    return covered
