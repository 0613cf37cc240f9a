"""Cross-process distributed tracing + fleet metrics (PR 9).

The differential at the heart of this file: N concurrent clients issue
queries over both transports (binary protocol and HTTP/JSON), and for
*every* response the ``trace_id`` it carries must resolve — in the
frontend's ring buffer — to one stitched trace whose worker spans
(``server.worker`` → ``compile``/``query``/``execute``) are nested
under that request's ``server.dispatch`` span, exportable as valid
Chrome trace-event JSON.

Also here: the fleet ``/metrics`` merge (sum of every worker's
``repro_queries_total`` equals the requests served, and the merged
text passes the exposition validator), the sampling=0 no-tearing /
zero-overhead case, the trace ring-buffer bound, and the
admission-stage deadline (a request that exhausts its budget queuing
is rejected ``TIMEOUT`` *before* any execution).
"""

import json
import socket
import threading
import time

import pytest

from repro.engine.database import Database
from repro.errors import QueryTimeoutError
from repro.server import ServerClient, ServerFrontend, protocol
from repro.workload import generate_xmark
from repro.xml.serializer import serialize
from tests.observability.test_metrics import assert_valid_exposition

SCALE = 8
CLIENTS = 8
QUERIES_EACH = 3


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("tracedb") / "xmark.db"
    database = Database.open(str(directory))
    database.load(serialize(generate_xmark(scale=SCALE, seed=7)),
                  uri="xmark.xml")
    database.checkpoint()
    database.close()
    return str(directory)


@pytest.fixture(scope="module")
def traced_frontend(data_dir):
    frontend = ServerFrontend(data_dir=data_dir, workers=2,
                              trace_sample=1.0,
                              trace_capacity=512).start()
    yield frontend
    frontend.stop()


def _http_post_query(address, text, extra_headers=()):
    host, port = address
    body = json.dumps({"text": text}).encode("utf-8")
    head = (f"POST /query HTTP/1.1\r\nHost: {host}\r\n"
            f"Content-Length: {len(body)}\r\n")
    for name, value in extra_headers:
        head += f"{name}: {value}\r\n"
    sock = socket.create_connection(address, timeout=30.0)
    try:
        sock.sendall(head.encode("latin-1") + b"\r\n" + body)
        buffer = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            buffer += chunk
    finally:
        sock.close()
    header_block, _, payload = buffer.partition(b"\r\n\r\n")
    headers = {}
    for line in header_block.decode("latin-1").split("\r\n")[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return headers, json.loads(payload)


def _http_get(address, path):
    sock = socket.create_connection(address, timeout=30.0)
    try:
        sock.sendall(f"GET {path} HTTP/1.1\r\nHost: x\r\n\r\n"
                     .encode("latin-1"))
        buffer = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            buffer += chunk
    finally:
        sock.close()
    header_block, _, payload = buffer.partition(b"\r\n\r\n")
    status = int(header_block.decode("latin-1").split(" ", 2)[1])
    return status, payload


def _span_names(span):
    names = {span.name}
    for child in span.children:
        names |= _span_names(child)
    return names


def _find_spans(span, name):
    found = [span] if span.name == name else []
    for child in span.children:
        found.extend(_find_spans(child, name))
    return found


def _assert_stitched(frontend, trace_id):
    """One response's trace id must resolve to one complete
    cross-process tree: admit + dispatch under the root, the worker's
    fragment (with its engine spans) nested under dispatch."""
    trace = frontend.tracer.find_trace(trace_id)
    assert trace is not None, f"trace {trace_id} not in ring buffer"
    assert trace.name == "server.request"
    assert trace.attributes.get("node") == "frontend"
    child_names = {child.name for child in trace.children}
    assert {"server.admit", "server.dispatch"} <= child_names
    (admit,) = _find_spans(trace, "server.admit")
    assert admit.attributes.get("queue_wait_seconds") is not None
    (dispatch,) = _find_spans(trace, "server.dispatch")
    workers = _find_spans(dispatch, "server.worker")
    assert len(workers) == 1, "worker fragment not under dispatch"
    worker_span = workers[0]
    assert str(worker_span.attributes.get("node", "")) \
        .startswith("worker-")
    # The engine's own spans rode back inside the fragment (an
    # ``execute`` child appears only on result-cache misses, so the
    # invariant is the ``query`` span itself).
    assert "query" in _span_names(worker_span)
    # Rebasing kept the fragment inside the dispatch window.
    assert worker_span.started >= dispatch.started
    assert worker_span.ended <= dispatch.ended
    return trace


class TestCrossProcessStitching:
    def test_differential_binary_transport(self, traced_frontend):
        """8 concurrent binary clients: every response's trace_id
        resolves to one stitched cross-process trace."""
        host, port = traced_frontend.address
        collected = []
        errors = []

        def worker_body():
            try:
                with ServerClient(host, port) as client:
                    for _ in range(QUERIES_EACH):
                        response = client.query("//item/name")
                        collected.append(response["trace_id"])
            except Exception as exc:  # pragma: no cover - diagnostics
                errors.append(exc)

        threads = [threading.Thread(target=worker_body)
                   for _ in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(collected) == CLIENTS * QUERIES_EACH
        assert len(set(collected)) == len(collected), \
            "trace ids must be unique per request"
        for trace_id in collected:
            _assert_stitched(traced_frontend, trace_id)

    def test_differential_http_transport(self, traced_frontend):
        """The same stitching guarantee over HTTP/JSON, including the
        response header echo."""
        for _ in range(CLIENTS):
            headers, payload = _http_post_query(
                traced_frontend.address, "//person/name")
            assert payload["ok"]
            trace_id = payload["trace_id"]
            assert headers[protocol.TRACE_HEADER.lower()] == trace_id
            _assert_stitched(traced_frontend, trace_id)

    def test_http_header_trace_id_is_adopted(self, traced_frontend):
        trace_id = "feedface00112233"
        _headers, payload = _http_post_query(
            traced_frontend.address, "//item/name",
            extra_headers=((protocol.TRACE_HEADER, trace_id),))
        assert payload["trace_id"] == trace_id
        _assert_stitched(traced_frontend, trace_id)

    def test_chrome_export_is_valid_json(self, traced_frontend):
        with ServerClient(*traced_frontend.address) as client:
            trace_id = client.query("//item/name")["trace_id"]
        chrome = traced_frontend.chrome_trace(trace_id)
        assert chrome is not None
        encoded = json.dumps(chrome)  # must be JSON-serializable
        decoded = json.loads(encoded)
        events = decoded["traceEvents"]
        phases = {event["ph"] for event in events}
        assert phases == {"X", "M"}
        lanes = {event["args"]["name"] for event in events
                 if event["ph"] == "M"}
        assert "frontend" in lanes
        assert any(lane.startswith("worker-") for lane in lanes)
        for event in events:
            if event["ph"] == "X":
                assert event["dur"] >= 0

    def test_chrome_export_over_http(self, traced_frontend):
        with ServerClient(*traced_frontend.address) as client:
            trace_id = client.query("//item/name")["trace_id"]
        status, payload = _http_get(traced_frontend.address,
                                    f"/debug/traces/{trace_id}")
        assert status == 200
        assert json.loads(payload)["otherData"]["trace_id"] == trace_id
        status, _payload = _http_get(traced_frontend.address,
                                     "/debug/traces/unknown-id")
        assert status == 404

    def test_debug_traces_endpoint_newest_first(self, traced_frontend):
        with ServerClient(*traced_frontend.address) as client:
            first = client.query("//item/name")["trace_id"]
            second = client.query("//person/name")["trace_id"]
        status, payload = _http_get(traced_frontend.address,
                                    "/debug/traces?limit=2")
        assert status == 200
        traces = json.loads(payload)["traces"]
        listed = [trace["trace_id"] for trace in traces]
        assert listed == [second, first]

    def test_slowlog_entries_carry_trace_ids(self, data_dir):
        frontend = ServerFrontend(data_dir=data_dir, workers=1,
                                  trace_sample=1.0,
                                  slow_query_seconds=0.0).start()
        try:
            with ServerClient(*frontend.address) as client:
                trace_id = client.query("//item/name")["trace_id"]
            status, payload = _http_get(frontend.address,
                                        "/debug/slowlog")
            assert status == 200
            entries = json.loads(payload)["entries"]
            assert entries, "0.0 threshold must record every query"
            assert any(entry.get("trace_id") == trace_id
                       for entry in entries)
            assert all(entry["worker"] == "0" for entry in entries)
        finally:
            frontend.stop()


class TestSamplingEdge:
    def test_sample_zero_never_tears_and_costs_workers_nothing(
            self, data_dir):
        """With sampling off, responses still carry a trace id (it is
        minted regardless) but no trace is recorded anywhere — the
        frontend's buffer stays empty and the workers never start a
        span, which is the zero-overhead contract."""
        frontend = ServerFrontend(data_dir=data_dir, workers=2,
                                  trace_sample=0.0).start()
        try:
            with ServerClient(*frontend.address) as client:
                for _ in range(6):
                    response = client.query("//item/name")
                    assert response["ok"]
                    assert response["trace_id"]
                    assert "spans" not in response
            assert frontend.tracer.finished_traces() == []
            assert frontend.tracer.traces_finished == 0
            merged = frontend.metrics_text()
            assert "repro_spans_started_total 0" in merged
        finally:
            frontend.stop()

    def test_ring_buffer_is_bounded(self, data_dir):
        frontend = ServerFrontend(data_dir=data_dir, workers=1,
                                  trace_sample=1.0,
                                  trace_capacity=4).start()
        try:
            trace_ids = []
            with ServerClient(*frontend.address) as client:
                for _ in range(10):
                    trace_ids.append(
                        client.query("//item/name")["trace_id"])
            buffered = frontend.tracer.finished_traces()
            assert len(buffered) == 4
            assert frontend.tracer.find_trace(trace_ids[-1]) is not None
            assert frontend.tracer.find_trace(trace_ids[0]) is None
            assert frontend.tracer.traces_finished == 10
        finally:
            frontend.stop()


class _StallingDatabase:
    """An inline stand-in whose queries block until released."""

    def __init__(self):
        self.release = threading.Event()
        self.executed = 0

    def execute_request(self, request):
        if request.get("verb") == "query":
            self.executed += 1
            self.release.wait(timeout=30.0)
            return {"ok": True, "items": [], "verb": "query"}
        return {"ok": True, "verb": request.get("verb")}


class TestAdmissionDeadline:
    def test_budget_exhausted_queuing_is_rejected_before_execution(
            self):
        """A request whose wall-clock budget runs out while it waits
        for a slot must come back ``TIMEOUT`` without ever executing,
        counted under the ``stage="admission"`` label — the worker
        only ever sees the *remaining* deadline, never the original
        timeout."""
        stalling = _StallingDatabase()
        frontend = ServerFrontend(database=stalling, workers=0,
                                  inline_concurrency=1, max_queue=4,
                                  trace_sample=0.0)
        try:
            blocker = threading.Thread(
                target=frontend.handle_request,
                args=({"verb": "query", "text": "//a",
                       "timeout_seconds": 30.0},))
            blocker.start()
            deadline = time.monotonic() + 5.0
            while stalling.executed == 0:
                assert time.monotonic() < deadline, \
                    "blocker never reached execution"
                time.sleep(0.002)
            # The slot is held: this request's whole 0.15s budget
            # burns in the admission queue — and the answer comes when
            # the budget runs out, not when the blocker frees the slot.
            asked = time.monotonic()
            response = frontend.handle_request(
                {"verb": "query", "text": "//a",
                 "timeout_seconds": 0.15})
            assert time.monotonic() - asked < 2.0
            assert response["ok"] is False
            assert response["code"] == "TIMEOUT"
            assert "admission" in response["error"]
            assert stalling.executed == 1, \
                "timed-out request must never execute"
            assert frontend.timeouts_total.value(
                stage="admission") == 1
            with pytest.raises(QueryTimeoutError):
                protocol.raise_for_response(response)
        finally:
            stalling.release.set()
            blocker.join(10.0)
            frontend.stop()

    def test_worker_sees_remaining_budget_not_original(self):
        """The deadline forwarded to execution is what is left after
        queuing, so server-side enforcement matches the client's
        wall-clock expectation."""
        seen = {}

        class Recorder(_StallingDatabase):
            def execute_request(self, request):
                if request.get("verb") == "query":
                    seen["timeout"] = request.get("timeout_seconds")
                    return {"ok": True, "items": [],
                            "verb": "query"}
                return {"ok": True}

        frontend = ServerFrontend(database=Recorder(), workers=0,
                                  inline_concurrency=1,
                                  trace_sample=0.0)
        try:
            response = frontend.handle_request(
                {"verb": "query", "text": "//a",
                 "timeout_seconds": 5.0})
            assert response["ok"]
            assert 0 < seen["timeout"] <= 5.0
        finally:
            frontend.stop()


class TestFleetMetrics:
    def test_four_worker_scrape_sums_to_requests_served(self,
                                                        data_dir):
        """Acceptance: ``GET /metrics`` on a 4-worker server reflects
        every worker — the fleet-wide ``repro_queries_total`` equals
        the number of query requests served, and the merged exposition
        passes the validator."""
        frontend = ServerFrontend(data_dir=data_dir, workers=4,
                                  trace_sample=0.0).start()
        try:
            host, port = frontend.address
            total_queries = 12
            errors = []

            def client_body():
                try:
                    with ServerClient(host, port) as client:
                        for _ in range(3):
                            assert client.query("//item/name")["ok"]
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [threading.Thread(target=client_body)
                       for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not errors
            status, payload = _http_get(frontend.address, "/metrics")
            assert status == 200
            text = payload.decode("utf-8")
            assert_valid_exposition(text)
            import re
            fleet_total = sum(
                float(value) for value in re.findall(
                    r"^repro_queries_total(?:\{[^}]*\})? (\S+)$",
                    text, re.MULTILINE))
            assert fleet_total == total_queries
            assert text.count("# TYPE repro_queries_total counter") \
                == 1
        finally:
            frontend.stop()

    def test_healthz_and_varz(self, traced_frontend):
        status, payload = _http_get(traced_frontend.address,
                                    "/healthz")
        assert status == 200
        assert json.loads(payload)["status"] == "serving"
        status, payload = _http_get(traced_frontend.address, "/varz")
        assert status == 200
        varz = json.loads(payload)
        report = varz["report"]
        assert report["workers_alive"] == 2
        assert "queue_wait" in report
        assert "tracing" in report
        assert "repro_server_requests_total" in varz["metrics"]
