"""End-to-end server tests: admission, timeouts, drain, reload, and a
multi-client differential check against the in-process engine.

Worker-mode tests fork real processes over a shared durable directory;
inline-mode tests exercise admission control deterministically by
stubbing the execute path with controllable sleeps.
"""

import json
import socket
import threading
import time
import urllib.request

import pytest

from repro.engine.database import Database
from repro.errors import (
    QueryTimeoutError,
    RemoteQueryError,
    ServerBusyError,
    ServerDrainingError,
    ServerError,
)
from repro.server import ServerClient, ServerFrontend, protocol
from repro.workload import generate_xmark
from repro.xml.serializer import serialize

SCALE = 15
QUERIES = [
    "//item/name",
    "//item[payment = 'Creditcard']",
    "count(//item)",
    "//person/name",
    "//open_auction[initial > 100]",
]


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("serverdb") / "xmark.db"
    database = Database.open(str(directory))
    database.load(serialize(generate_xmark(scale=SCALE, seed=42)),
                  uri="xmark.xml")
    database.checkpoint()
    database.close()
    return str(directory)


@pytest.fixture(scope="module")
def reference_db(data_dir):
    database = Database.open(data_dir, read_only=True)
    yield database
    database.close()


@pytest.fixture(scope="module")
def worker_frontend(data_dir):
    frontend = ServerFrontend(data_dir=data_dir, workers=2, max_queue=8)
    with frontend:
        yield frontend


@pytest.fixture(scope="module")
def worker_client(worker_frontend):
    host, port = worker_frontend.address
    with ServerClient(host, port, timeout_seconds=30.0) as client:
        yield client


def make_inline(database, **kwargs):
    return ServerFrontend(database=database, **kwargs)


class TestWorkerServing:
    def test_ping_and_stats(self, worker_client):
        pong = worker_client.ping()
        assert pong["pong"] and pong["read_only"]
        stats = worker_client.stats()["stats"]
        assert list(stats["documents"]) == ["xmark.xml"]
        assert stats["read_only"] is True
        generation = worker_client.generation()
        assert generation["durable"] and generation["generation"] >= 1

    def test_query_parity_with_in_process_engine(self, worker_client,
                                                 reference_db):
        for query in QUERIES:
            over_wire = worker_client.query_values(query)
            local = reference_db.query(query).values()
            wire_safe = [v if isinstance(v, (int, float, bool))
                         else str(v) for v in local]
            assert over_wire == wire_safe, query

    def test_multi_client_differential(self, worker_frontend,
                                       reference_db):
        """Eight concurrent clients hammer mixed verbs; every answer
        must equal the in-process engine's, and nothing may error."""
        host, port = worker_frontend.address
        expected = {q: reference_db.query(q).values() for q in QUERIES}
        expected = {q: [v if isinstance(v, (int, float, bool))
                        else str(v) for v in values]
                    for q, values in expected.items()}
        mismatches, errors = [], []

        def hammer(offset):
            with ServerClient(host, port) as client:
                for index in range(10):
                    query = QUERIES[(offset + index) % len(QUERIES)]
                    try:
                        if index % 5 == 4:
                            client.ping()
                        got = client.query_values(query)
                    except Exception as exc:  # noqa: BLE001
                        errors.append(repr(exc))
                        continue
                    if got != expected[query]:
                        mismatches.append(query)

        threads = [threading.Thread(target=hammer, args=(i,))
                   for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, errors[:3]
        assert not mismatches, mismatches[:3]

    def test_bad_query_is_typed(self, worker_client):
        with pytest.raises(RemoteQueryError) as info:
            worker_client.query("//item[")
        assert info.value.remote_type == "QuerySyntaxError"

    def test_per_request_timeout_over_the_wire(self, worker_client):
        with pytest.raises(QueryTimeoutError):
            # A query no other test caches: the deadline check fires at
            # plan entry, before any result could be produced.
            worker_client.query("//closed_auction//itemref",
                                timeout_seconds=1e-9)
        # The connection survives a timeout: next request works.
        assert worker_client.ping()["pong"]

    def test_write_verbs_do_not_exist_on_the_wire(self, worker_client):
        """The protocol exposes no mutating verb at all — workers are
        read-only by construction, not by runtime checks alone."""
        with pytest.raises(RemoteQueryError, match="unknown request"):
            worker_client.request({"verb": "load",
                                   "text": "<a/>", "uri": "new.xml"})
        with pytest.raises(RemoteQueryError, match="unknown request"):
            worker_client.request({"verb": "insert"})

    def test_worker_reload_picks_up_new_generation(self, data_dir,
                                                   worker_client):
        before = worker_client.generation()["generation"]
        writer = Database.open(data_dir)
        writer.insert("/site/regions/europe",
                      '<item id="reload-probe"><name>fresh</name>'
                      "</item>")
        writer.checkpoint()
        writer.close()
        outcome = worker_client.reload()
        assert outcome["ok"]
        assert outcome["workers"] == 2
        assert outcome["reloaded"] == [True, True]
        assert all(g > before for g in outcome["generations"])
        hits = worker_client.query_values(
            '//item[@id = "reload-probe"]/name')
        assert hits == ["fresh"]
        # A second reload is a no-op: already on the newest generation.
        assert worker_client.reload()["reloaded"] == [False, False]


class TestHTTPTransport:
    def test_http_query_and_metrics_same_port(self, worker_frontend,
                                              worker_client):
        host, port = worker_frontend.address
        body = json.dumps({"text": "count(//item)"}).encode()
        request = urllib.request.Request(
            f"http://{host}:{port}/query", data=body,
            headers={"Content-Type": "application/json"})
        with urllib.request.urlopen(request) as reply:
            payload = json.loads(reply.read())
        assert payload["ok"] and payload["items"] == [float(
            worker_client.query_values("count(//item)")[0])]

        with urllib.request.urlopen(
                f"http://{host}:{port}/metrics") as reply:
            text = reply.read().decode()
        assert "repro_server_requests_total" in text
        assert "repro_server_workers 2" in text
        assert "repro_queries_total" in text  # engine families too

    def test_http_errors_are_status_coded(self, worker_frontend):
        host, port = worker_frontend.address
        body = json.dumps({"text": "//item["}).encode()
        request = urllib.request.Request(
            f"http://{host}:{port}/query", data=body)
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(request)
        assert info.value.code == 400
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(f"http://{host}:{port}/nope")
        assert info.value.code == 404


class TestProtocolRobustness:
    def test_corrupt_frame_gets_typed_error_then_close(
            self, worker_frontend):
        host, port = worker_frontend.address
        sock = socket.create_connection((host, port), timeout=10)
        try:
            sock.sendall(protocol.MAGIC)
            frame = bytearray(protocol.pack_frame({"verb": "metrics"}))
            frame[-1] ^= 0xFF
            sock.sendall(bytes(frame))
            response = protocol.read_frame(sock)
            assert response["ok"] is False
            assert response["error_type"] == "ProtocolError"
            # The stream is unframed garbage from here: server hangs up.
            assert protocol.read_frame(sock) is None
        finally:
            sock.close()

    def test_unknown_transport_is_dropped(self, worker_frontend):
        host, port = worker_frontend.address
        sock = socket.create_connection((host, port), timeout=10)
        try:
            sock.sendall(b"GIBBERISH")
            sock.settimeout(10)
            # Closed without an answer — a FIN, or an RST if our ninth
            # byte was still unread in the server's buffer.
            try:
                assert sock.recv(1) == b""
            except ConnectionResetError:
                pass
        finally:
            sock.close()


class SleepyDatabase(Database):
    """Inline-mode stub: a request carrying ``sleep`` holds its
    execution slot for that many seconds (deterministic admission
    pressure without depending on machine speed)."""

    def execute_request(self, request):
        delay = request.get("sleep")
        if delay is not None:
            time.sleep(float(delay))
            return {"ok": True, "verb": "query", "items": ["slept"],
                    "count": 1, "strategy": "stub",
                    "elapsed_seconds": float(delay), "stats": {},
                    "source": "stub"}
        return super().execute_request(request)


@pytest.fixture()
def sleepy_db():
    database = SleepyDatabase(result_cache_size=0)
    database.load("<doc><a>1</a></doc>", uri="tiny.xml")
    yield database
    database.close()


class TestAdmissionControl:
    def test_overload_is_bounded_and_typed(self, sleepy_db):
        frontend = make_inline(sleepy_db, inline_concurrency=1,
                               max_queue=1)
        outcomes = {"ok": 0, "busy": 0, "other": 0}
        lock = threading.Lock()
        with frontend:
            host, port = frontend.address

            def slam():
                with ServerClient(host, port, retries=0) as client:
                    for _ in range(4):
                        try:
                            client.request({"verb": "query",
                                            "sleep": 0.05})
                            key = "ok"
                        except ServerBusyError:
                            key = "busy"
                        except Exception:  # noqa: BLE001
                            key = "other"
                        with lock:
                            outcomes[key] += 1

            threads = [threading.Thread(target=slam) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            exposition = frontend.registry.render_prometheus()
        assert outcomes["other"] == 0, outcomes
        assert outcomes["busy"] > 0, outcomes  # overload was rejected
        assert outcomes["ok"] > 0, outcomes    # but service continued
        assert ('repro_server_rejections_total{reason="queue_full"} '
                f'{outcomes["busy"]}') in exposition

    def test_default_timeout_is_injected(self, sleepy_db):
        frontend = make_inline(sleepy_db, default_timeout_seconds=1e-9)
        with frontend:
            host, port = frontend.address
            with ServerClient(host, port) as client:
                with pytest.raises(QueryTimeoutError):
                    client.query("//doc/a")  # no explicit timeout


class TestStop:
    def test_stop_wakes_the_blocked_acceptor(self, reference_db):
        frontend = make_inline(reference_db)
        frontend.start()
        host, port = frontend.address
        with ServerClient(host, port) as client:
            assert client.ping()["pong"]   # acceptor is back in accept()
        acceptor = frontend._acceptor
        started = time.monotonic()
        frontend.stop()
        assert time.monotonic() - started < 1.0
        assert not acceptor.is_alive()


class TestDrain:
    def test_drain_finishes_inflight_and_rejects_new(self, sleepy_db):
        frontend = make_inline(sleepy_db, inline_concurrency=2)
        inflight_result = {}
        with frontend:
            host, port = frontend.address
            client = ServerClient(host, port, retries=0)

            def long_request():
                inflight_result["response"] = client.request(
                    {"verb": "query", "sleep": 0.4})

            thread = threading.Thread(target=long_request)
            thread.start()
            deadline = time.monotonic() + 5.0
            while (frontend.report()["running"] == 0
                   and time.monotonic() < deadline):
                time.sleep(0.005)

            report = frontend.drain(timeout=10.0)
            thread.join(5.0)
            assert report["drained"] is True
            assert report["inflight_at_drain"] >= 1
            assert report["inflight_remaining"] == 0
            # The in-flight request finished with a real answer.
            assert inflight_result["response"]["items"] == ["slept"]
            # Anything new gets the typed DRAINING rejection (over the
            # pooled connection) or a refusal (listener is closed).
            with pytest.raises((ServerDrainingError, ServerError)):
                client.request({"verb": "query", "sleep": 0.01})
            client.close()

    def test_connection_limit(self, sleepy_db):
        frontend = make_inline(sleepy_db, max_connections=1)
        with frontend:
            host, port = frontend.address
            first = socket.create_connection((host, port), timeout=5)
            first.sendall(protocol.MAGIC)
            protocol.send_frame(first, {"verb": "admin",
                                        "action": "ping"})
            assert protocol.read_frame(first)["ok"]
            second = socket.create_connection((host, port), timeout=5)
            second.settimeout(5)
            assert second.recv(1) == b""  # closed by the limit
            first.close()
            second.close()
