"""Overload protection: SSE broadcast hub, governance, shedding,
and the client-side circuit breaker.

Five contracts under test:

* **fan-out** — N concurrent SSE subscribers on one job are served by
  exactly one shared tailer task with bounded per-subscriber queues;
* **shed-and-resume** — a stalled subscriber is disconnected without
  affecting healthy ones, and a reconnect with ``Last-Event-ID``
  recovers the dropped window losslessly;
* **governance** — keep-alive with idle reaping, connection caps with
  503 + ``Retry-After``, slow-loris header deadlines, per-tenant
  in-flight caps, and structured 413/411/501 request refusals;
* **load shedding** — a degraded node sheds low-priority submits with
  429 + ``Retry-After``, says so on ``/v1/healthz``, and counts every
  refusal under ``/v1/metrics``'s ``http`` key;
* **client resilience** — ``Retry-After`` overrides the backoff
  schedule, non-idempotent ``cancel`` is never retried on ambiguous
  transport failure, and the circuit breaker fails fast while open.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import socket
import threading
import time

import pytest

from repro.errors import AdmissionError
from repro.fpga import circuit_spec, scaled_spec, synthesize_circuit
from repro.router import RouterConfig
from repro.service import (
    AdmissionPolicy,
    BackgroundServer,
    CircuitBreaker,
    CircuitOpenError,
    OverloadPolicy,
    RoutingService,
    ServerLimits,
    ServiceClient,
    TransportError,
)
from repro.service.http import MAX_BODY_BYTES

KMB = RouterConfig(algorithm="kmb")


@pytest.fixture(scope="module")
def small_circuit():
    spec = scaled_spec(circuit_spec("term1"), 0.22)
    return synthesize_circuit(spec, seed=1)


class _Server:
    """A served RoutingService with tunable limits (no worker pool)."""

    def __init__(self, root, *, policy=None, **http_kwargs):
        self.service = RoutingService(str(root), policy=policy)
        http_kwargs.setdefault("sse_poll_s", 0.05)
        self.background = BackgroundServer(self.service, **http_kwargs)
        self.host, self.port = self.background.start()
        self.url = f"http://{self.host}:{self.port}"
        self.client = ServiceClient(self.url, backoff_s=0.05)

    @property
    def frontend(self):
        return self.background.frontend

    def connect(self, *, rcvbuf=None) -> socket.socket:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        if rcvbuf is not None:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, rcvbuf)
        sock.connect((self.host, self.port))
        return sock

    def close(self) -> None:
        self.background.stop()


def _read_response(sock, timeout=10.0):
    """``(status, headers, body)`` of one HTTP response on a socket."""
    sock.settimeout(timeout)
    buf = b""
    while b"\r\n\r\n" not in buf:
        chunk = sock.recv(4096)
        if not chunk:
            break
        buf += chunk
    head, _, rest = buf.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    headers = {}
    for line in head.split(b"\r\n")[1:]:
        name, _, value = line.partition(b":")
        headers[name.decode().strip().lower()] = value.decode().strip()
    length = int(headers.get("content-length", "0"))
    while len(rest) < length:
        chunk = sock.recv(4096)
        if not chunk:
            break
        rest += chunk
    return status, headers, rest[:length]


def _append_log(path: str, count: int, start: int = 0) -> None:
    """Synthetic trace lines, straight onto the job's append-only log."""
    with open(path, "a", encoding="utf-8") as fh:
        for i in range(start, start + count):
            fh.write(json.dumps(
                {"type": "synthetic", "i": i, "pad": "x" * 80}
            ) + "\n")


def _wait_until(predicate, timeout=30.0, interval=0.02, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval)
    raise AssertionError(f"timed out waiting for {message}")


# ----------------------------------------------------------------------
# SSE fan-out: one tailer, many subscribers
# ----------------------------------------------------------------------
class TestFanout:
    N = 256
    LINES = 40

    def test_many_subscribers_one_tailer(self, tmp_path, small_circuit):
        server = _Server(tmp_path / "store")
        try:
            job = server.client.submit(
                small_circuit, config=KMB, width=3
            )["job_id"]
            log_path = server.service.store.log_path(job)
            results = [None] * self.N

            def watch(index):
                got = []
                try:
                    for event, _data, eid in server.client.events(
                        job, heartbeats=False
                    ):
                        got.append((event, eid))
                except Exception as exc:  # surfaced via the assertion
                    got.append(("error", repr(exc)))
                results[index] = got

            threads = [
                threading.Thread(target=watch, args=(i,), daemon=True)
                for i in range(self.N)
            ]
            for t in threads:
                t.start()
            hub = server.frontend.hub
            _wait_until(
                lambda: hub.stats()["subscribers"] == self.N,
                message=f"{self.N} subscribers attached",
            )
            # the acceptance bar: every subscriber shares ONE tailer
            stats = hub.stats()
            assert stats["tails"] == 1
            assert stats["tails_started"] == 1
            _append_log(log_path, self.LINES)
            # terminal state fans out and ends every stream
            server.client.cancel(job)
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads)
            expected = [
                ("trace", i) for i in range(1, self.LINES + 1)
            ] + [("state", 0)]
            for got in results:
                assert got == expected
            stats = hub.stats()
            assert stats["tails_started"] == 1  # never a second tailer
            assert stats["subscribers"] == 0  # all detached
            assert stats["subscribers_peak"] == self.N
        finally:
            server.close()

    def test_terminal_job_replays_without_tailer(
        self, tmp_path, small_circuit
    ):
        server = _Server(tmp_path / "store")
        try:
            job = server.client.submit(
                small_circuit, config=KMB, width=3
            )["job_id"]
            _append_log(server.service.store.log_path(job), 7)
            server.client.cancel(job)
            events = list(server.client.events(job, heartbeats=False))
            assert [e[2] for e in events[:-1]] == list(range(1, 8))
            assert events[-1][0] == "state"
            assert server.frontend.hub.stats()["tails_started"] == 0
        finally:
            server.close()


# ----------------------------------------------------------------------
# shed-and-resume: slow consumers are dropped, not buffered
# ----------------------------------------------------------------------
class TestSlowConsumer:
    LINES = 1500

    def test_stalled_subscriber_shed_and_lossless_resume(
        self, tmp_path, small_circuit
    ):
        server = _Server(
            tmp_path / "store",
            limits=ServerLimits(
                sse_queue_limit=32,
                sse_write_timeout_s=0.5,
                sse_send_buffer_bytes=8192,
            ),
        )
        try:
            job = server.client.submit(
                small_circuit, config=KMB, width=3
            )["job_id"]
            log_path = server.service.store.log_path(job)

            healthy = []
            finished = threading.Event()

            def watch():
                try:
                    for event, _data, eid in server.client.events(
                        job, heartbeats=False
                    ):
                        healthy.append((event, eid))
                finally:
                    finished.set()

            watcher = threading.Thread(target=watch, daemon=True)
            watcher.start()

            # the stalled subscriber: sends the request, never reads
            quoted = f"/v1/jobs/{job}/events"
            stalled = server.connect(rcvbuf=4096)
            stalled.sendall(
                f"GET {quoted} HTTP/1.1\r\nHost: t\r\n\r\n".encode()
            )
            hub = server.frontend.hub
            _wait_until(
                lambda: hub.stats()["subscribers"] == 2,
                message="both subscribers attached",
            )
            assert hub.stats()["tails"] == 1

            _append_log(log_path, self.LINES)
            _wait_until(
                lambda: len(healthy) >= self.LINES,
                timeout=60,
                message="healthy subscriber caught up",
            )
            # the healthy stream was never affected by the stall
            assert [e for e in healthy[:self.LINES]] == [
                ("trace", i) for i in range(1, self.LINES + 1)
            ]
            # the stalled one was disconnected (write stall past the
            # deadline) and the shed is visible in metrics; the burst
            # also shows up as queue-overflow lag (recovered from the
            # file without a disconnect)
            _wait_until(
                lambda: server.client.metrics()["http"]["sse"][
                    "dropped_slow"
                ] >= 1,
                message="shed counted in metrics",
            )
            assert server.client.metrics()["http"]["sse"]["lagged"] >= 1

            # drain what the kernel had buffered for the stalled socket
            # until EOF proves the server disconnected it
            stalled.settimeout(30)
            blob = b""
            while True:
                try:
                    chunk = stalled.recv(65536)
                except socket.timeout:
                    raise AssertionError(
                        "stalled subscriber was not disconnected"
                    )
                if not chunk:
                    break
                blob += chunk
            stalled.close()
            ids = [int(m) for m in re.findall(rb"id: (\d+)", blob)]
            assert ids == sorted(ids)
            last_seen = max(ids) if ids else 0
            assert last_seen < self.LINES  # it genuinely missed a window

            # reconnect with Last-Event-ID while the job is still live:
            # the handler catches up from the file, then goes live
            resumed = []
            resumed_done = threading.Event()

            def resume():
                try:
                    for event, _data, eid in server.client.events(
                        job,
                        last_event_id=last_seen,
                        heartbeats=False,
                    ):
                        resumed.append((event, eid))
                finally:
                    resumed_done.set()

            resumer = threading.Thread(target=resume, daemon=True)
            resumer.start()
            _wait_until(
                lambda: len(resumed) >= self.LINES - last_seen,
                timeout=60,
                message="resumed subscriber caught up",
            )
            # lossless: the union of both connections is dense
            assert [e[1] for e in resumed[:self.LINES - last_seen]] == (
                list(range(last_seen + 1, self.LINES + 1))
            )
            assert server.client.metrics()["http"]["sse"]["resumes"] >= 1

            server.client.cancel(job)
            assert finished.wait(30) and resumed_done.wait(30)
            assert healthy[-1][0] == "state"
            assert resumed[-1][0] == "state"
        finally:
            server.close()


# ----------------------------------------------------------------------
# connection and request governance
# ----------------------------------------------------------------------
class TestGovernance:
    def test_keep_alive_then_idle_reap(self, tmp_path):
        server = _Server(
            tmp_path / "store",
            limits=ServerLimits(idle_timeout_s=0.5),
        )
        try:
            sock = server.connect()
            request = b"GET /v1/healthz HTTP/1.1\r\nHost: t\r\n\r\n"
            for _ in range(2):  # two requests on ONE connection
                sock.sendall(request)
                status, headers, body = _read_response(sock)
                assert status == 200
                assert headers["connection"] == "keep-alive"
                assert json.loads(body)["ok"] is True
            # idle past the deadline: the server reaps the connection
            sock.settimeout(10)
            assert sock.recv(1) == b""
            sock.close()
        finally:
            server.close()

    def test_connection_limit_sheds_with_retry_after(self, tmp_path):
        server = _Server(
            tmp_path / "store",
            limits=ServerLimits(max_connections=2, idle_timeout_s=30),
        )
        try:
            request = b"GET /v1/healthz HTTP/1.1\r\nHost: t\r\n\r\n"
            held = []
            for _ in range(2):
                sock = server.connect()
                sock.sendall(request)
                status, headers, _ = _read_response(sock)
                assert status == 200
                held.append(sock)  # keep-alive: still occupying a slot
            extra = server.connect()
            extra.sendall(request)
            status, headers, body = _read_response(extra)
            assert status == 503
            assert float(headers["retry-after"]) > 0
            assert json.loads(body)["error"]["type"] == "ServiceError"
            extra.close()
            for sock in held:
                sock.close()
            _wait_until(
                lambda: server.client.metrics()["http"]["shed"][
                    "connections"
                ] >= 1,
                message="shed connection counted",
            )
        finally:
            server.close()

    def test_slow_loris_header_deadline(self, tmp_path):
        server = _Server(
            tmp_path / "store",
            limits=ServerLimits(header_timeout_s=0.3, idle_timeout_s=30),
        )
        try:
            sock = server.connect()
            sock.sendall(b"GET /v1/he")  # ...and never finish the head
            sock.settimeout(10)
            begin = time.monotonic()
            assert sock.recv(1) == b""  # cut off, no response
            assert time.monotonic() - begin < 5
            sock.close()
        finally:
            server.close()

    def test_oversize_body_is_structured_413(self, tmp_path):
        server = _Server(tmp_path / "store")
        try:
            sock = server.connect()
            sock.sendall(
                b"POST /v1/jobs HTTP/1.1\r\nHost: t\r\n"
                b"Content-Length: " +
                str(MAX_BODY_BYTES + 1).encode() + b"\r\n\r\n"
            )
            status, _, body = _read_response(sock)
            assert status == 413
            err = json.loads(body)["error"]
            assert err["type"] == "ServiceError"
            assert err["message"] == "request body too large"
            sock.close()
        finally:
            server.close()

    def test_post_without_length_is_411(self, tmp_path):
        server = _Server(tmp_path / "store")
        try:
            sock = server.connect()
            sock.sendall(b"POST /v1/jobs HTTP/1.1\r\nHost: t\r\n\r\n")
            status, _, body = _read_response(sock)
            assert status == 411
            assert json.loads(body)["error"]["type"] == "ServiceError"
            sock.close()
        finally:
            server.close()

    def test_chunked_upload_is_501(self, tmp_path):
        server = _Server(tmp_path / "store")
        try:
            sock = server.connect()
            sock.sendall(
                b"POST /v1/jobs HTTP/1.1\r\nHost: t\r\n"
                b"Transfer-Encoding: chunked\r\n\r\n"
            )
            status, _, body = _read_response(sock)
            assert status == 501
            assert json.loads(body)["error"]["type"] == "ServiceError"
            sock.close()
        finally:
            server.close()

    def test_per_tenant_inflight_cap(self, tmp_path, small_circuit):
        server = _Server(
            tmp_path / "store",
            limits=ServerLimits(max_inflight_per_tenant=2),
        )
        try:
            gate = threading.Event()
            original = server.service.submit

            def slow_submit(*args, **kwargs):
                gate.wait(30)
                return original(*args, **kwargs)

            server.service.submit = slow_submit
            outcomes = []

            def submit(seed):
                client = ServiceClient(server.url, retries=0)
                try:
                    outcomes.append(
                        ("ok", client.submit(
                            small_circuit, config=KMB, width=3,
                            tenant="noisy", priority=seed,
                        ))
                    )
                except AdmissionError as exc:
                    outcomes.append(("refused", exc.code))

            threads = [
                threading.Thread(target=submit, args=(i,), daemon=True)
                for i in range(2)
            ]
            for t in threads:
                t.start()
            _wait_until(
                lambda: server.frontend._inflight.get("noisy", 0) == 2,
                message="two submits in flight",
            )
            blocked = ServiceClient(server.url, retries=0)
            with pytest.raises(AdmissionError) as caught:
                blocked.submit(
                    small_circuit, config=KMB, width=3, tenant="noisy"
                )
            assert caught.value.code == "INFLIGHT_LIMIT"
            gate.set()
            for t in threads:
                t.join(timeout=60)
            assert [o[0] for o in outcomes] == ["ok", "ok"]
            metrics = server.client.metrics()
            assert metrics["http"]["shed"]["inflight"] >= 1
        finally:
            server.close()


# ----------------------------------------------------------------------
# load shedding with honest signals
# ----------------------------------------------------------------------
class TestShedding:
    def test_degraded_health_sheds_low_priority(self, tmp_path):
        spec = scaled_spec(circuit_spec("term1"), 0.22)
        server = _Server(
            tmp_path / "store",
            policy=AdmissionPolicy(
                max_queue_depth=8, tenant_priorities={"vip": 5}
            ),
            overload=OverloadPolicy(
                queue_shed_fraction=0.5,
                shed_priority_floor=1,
                retry_after_s=0.25,
            ),
        )
        try:
            # healthy first
            doc = server.client.healthz()
            assert doc["ok"] is True and doc["status"] == "ok"
            # fill half the queue with high-priority work -> degraded
            for seed in range(4):
                server.client.submit(
                    synthesize_circuit(spec, seed=10 + seed),
                    config=KMB, width=3, tenant="vip",
                )
            doc = server.client.healthz()
            assert doc["ok"] is True  # alive, merely degraded
            assert doc["status"] == "degraded"
            assert any("queue depth" in r for r in doc["reasons"])
            assert doc["pressure"]["queue_depth"] == 4

            # a low-priority submit is shed with 429 + Retry-After
            low = ServiceClient(server.url, retries=0)
            with pytest.raises(AdmissionError) as caught:
                low.submit(
                    synthesize_circuit(spec, seed=20),
                    config=KMB, width=3, tenant="walkin",
                )
            assert caught.value.code == "OVERLOADED"
            # ... and the header is on the wire
            conn = http.client.HTTPConnection(server.host, server.port)
            conn.request(
                "POST", "/v1/jobs",
                body=json.dumps({
                    "circuit": {}, "tenant": "walkin",
                }).encode(),
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            response.read()
            assert response.status == 429
            assert float(response.headers["Retry-After"]) > 0
            conn.close()

            # high-priority work is still admitted while degraded
            record = server.client.submit(
                synthesize_circuit(spec, seed=21),
                config=KMB, width=3, tenant="vip",
            )
            assert record["state"] == "queued"

            metrics = server.client.metrics()
            assert metrics["http"]["shed"]["submits"] >= 1
            assert metrics["http"]["degraded"] is True
            assert metrics["http"]["overload_reasons"]
        finally:
            server.close()


# ----------------------------------------------------------------------
# client: Retry-After, idempotency, circuit breaker
# ----------------------------------------------------------------------
class _ScriptedServer:
    """Answers each accepted connection with the next scripted part.

    A part is either response bytes to write after reading the request
    head, or ``None`` to slam the connection shut (ambiguous failure).
    The arrival time and first request line of every connection are
    recorded.  Once the script is exhausted the listener closes, so any
    further attempt is refused at once instead of waiting in the accept
    backlog for the client's timeout.
    """

    def __init__(self, parts):
        self.parts = list(parts)
        self.seen = []
        self.listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.listener.bind(("127.0.0.1", 0))
        self.listener.listen(16)
        self.host, self.port = self.listener.getsockname()
        self.url = f"http://{self.host}:{self.port}"
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self):
        for part in self.parts:
            try:
                conn, _ = self.listener.accept()
            except OSError:
                return
            try:
                conn.settimeout(10)
                buf = b""
                while b"\r\n\r\n" not in buf:
                    chunk = conn.recv(4096)
                    if not chunk:
                        break
                    buf += chunk
                self.seen.append(
                    (time.monotonic(), buf.split(b"\r\n", 1)[0])
                )
                if part is not None:
                    conn.sendall(part)
            except OSError:
                pass
            finally:
                try:
                    conn.close()
                except OSError:
                    pass
        try:
            self.listener.close()
        except OSError:
            pass

    def close(self):
        try:
            self.listener.close()
        except OSError:
            pass
        self._thread.join(timeout=5)


def _response(status, reason, doc, extra=""):
    body = json.dumps(doc).encode()
    return (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: close\r\n{extra}\r\n"
    ).encode() + body


class TestClientResilience:
    def test_retry_after_overrides_backoff_on_429(self):
        refusal = _response(
            429, "Too Many Requests",
            {"error": {"type": "AdmissionError",
                       "message": "shed", "code": "OVERLOADED"}},
            extra="Retry-After: 0.3\r\n",
        )
        stub = _ScriptedServer([refusal, _response(200, "OK", {})])
        try:
            client = ServiceClient(
                stub.url, retries=2, backoff_s=5.0, max_backoff_s=9.0,
            )
            assert client.metrics() == {}
            assert len(stub.seen) == 2
            gap = stub.seen[1][0] - stub.seen[0][0]
            # honored the server's 0.3s, not the 5s schedule
            assert 0.25 <= gap < 2.5
        finally:
            stub.close()

    def test_retry_after_honored_on_503(self):
        refusal = _response(
            503, "Service Unavailable",
            {"error": {"type": "ServiceError", "message": "full"}},
            extra="Retry-After: 0.3\r\n",
        )
        stub = _ScriptedServer([refusal, _response(200, "OK", {})])
        try:
            client = ServiceClient(
                stub.url, retries=2, backoff_s=5.0, max_backoff_s=9.0,
            )
            assert client.metrics() == {}
            gap = stub.seen[1][0] - stub.seen[0][0]
            assert 0.25 <= gap < 2.5
        finally:
            stub.close()

    def test_429_without_retry_after_raises_immediately(self):
        refusal = _response(
            429, "Too Many Requests",
            {"error": {"type": "AdmissionError",
                       "message": "queue full", "code": "QUEUE_FULL"}},
        )
        stub = _ScriptedServer([refusal])
        try:
            client = ServiceClient(stub.url, retries=3, backoff_s=0.01)
            with pytest.raises(AdmissionError) as caught:
                client.metrics()
            assert caught.value.code == "QUEUE_FULL"
            assert len(stub.seen) == 1  # no blind 429 retries
        finally:
            stub.close()

    def test_cancel_not_retried_on_ambiguous_failure(self):
        # the server reads the DELETE, then dies without answering:
        # the cancel may or may not have been applied
        stub = _ScriptedServer([None, None, None])
        try:
            client = ServiceClient(
                stub.url, retries=2, backoff_s=0.01, breaker=None,
            )
            with pytest.raises(TransportError) as caught:
                client.cancel("job-1")
            assert "not retried" in str(caught.value)
            time.sleep(0.2)
            assert len(stub.seen) == 1  # exactly one attempt
            # an idempotent GET under the same failure IS retried
            with pytest.raises(TransportError):
                client.status("job-1")
            assert len(stub.seen) == 3  # 1 cancel + 2 of 3 GET attempts
        finally:
            stub.close()

    def test_breaker_unit_transitions(self):
        clock = [0.0]
        breaker = CircuitBreaker(
            failure_threshold=3, reset_after_s=10.0,
            clock=lambda: clock[0],
        )
        assert breaker.state == "closed"
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == "closed"  # not yet at the threshold
        breaker.record_failure()
        assert breaker.state == "open"
        with pytest.raises(CircuitOpenError) as caught:
            breaker.before_attempt()
        assert caught.value.retry_after_s > 0
        clock[0] = 10.0
        assert breaker.state == "half-open"
        breaker.before_attempt()  # the single probe goes through
        with pytest.raises(CircuitOpenError):
            breaker.before_attempt()  # concurrent probe refused
        breaker.record_failure()  # probe failed: re-open the window
        clock[0] = 15.0
        assert breaker.state == "open"
        clock[0] = 20.0
        breaker.before_attempt()
        breaker.record_success()
        assert breaker.state == "closed"

    def test_breaker_fails_fast_against_dead_server(self):
        # grab a port nothing listens on
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        probe.bind(("127.0.0.1", 0))
        host, port = probe.getsockname()
        probe.close()
        client = ServiceClient(
            f"http://{host}:{port}",
            retries=3, backoff_s=0.01,
            breaker=CircuitBreaker(
                failure_threshold=2, reset_after_s=60.0
            ),
        )
        with pytest.raises(CircuitOpenError):
            client.healthz()  # trips mid-retry-loop, then fails fast
        begin = time.monotonic()
        with pytest.raises(CircuitOpenError):
            client.healthz()  # open: no connection attempt, no sleeps
        assert time.monotonic() - begin < 0.5

    def test_healthz_closes_breaker_again(self, tmp_path):
        server = _Server(tmp_path / "store")
        try:
            breaker = CircuitBreaker(
                failure_threshold=1, reset_after_s=0.05
            )
            client = ServiceClient(
                server.url, retries=0, breaker=breaker
            )
            breaker.record_failure()  # open it artificially
            assert breaker.state == "open"
            time.sleep(0.1)  # window elapses -> half-open probe
            assert client.healthz()["ok"] is True
            assert breaker.state == "closed"
        finally:
            server.close()
