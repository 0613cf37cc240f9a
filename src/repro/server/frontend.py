"""The server frontend: accept, admit, dispatch, drain.

One :class:`ServerFrontend` owns the listening socket and the worker
pool.  Its life cycle::

    frontend = ServerFrontend(data_dir="xmark.db", workers=4, port=8471)
    frontend.start()          # spawn workers, bind, accept
    ...
    frontend.drain()          # stop accepting, finish in-flight
    frontend.stop()           # stop workers, close everything

Request flow per connection (each connection gets a handler thread;
the first eight bytes select the transport — the binary ``MAGIC``
hello or an HTTP request line):

1. **Admission.**  At most ``max_connections`` sockets are open (the
   acceptor closes excess ones immediately).  Execution slots are a
   semaphore sized to the worker count (or ``inline_concurrency``
   when ``workers=0`` runs queries in-process); at most ``max_queue``
   requests may wait for a slot — one more is rejected with the typed
   ``BUSY`` error *without blocking*, which keeps overload bounded in
   both memory and latency.
2. **Dispatch.**  Admitted requests go to the *least-loaded* live
   worker (smallest in-flight count).  Query requests without their
   own ``timeout_seconds`` get the server default, so the engine's
   cooperative τ-batch deadline checks bound every execution.
3. **Drain.**  ``drain()`` (wired to SIGTERM in ``serve_forever``)
   closes the listener, lets every in-flight request finish, and
   answers anything new with the typed ``DRAINING`` error — zero
   in-flight queries are lost.

Observability (PR 9) is end-to-end:

* **Traces** — every request runs under a ``server.request`` root span
  (adopting the client-minted ``trace_id`` from the request's
  ``trace`` field or the ``X-Repro-Trace-Id`` header) with
  ``server.admit`` (slot/queue wait, measured separately) and
  ``server.dispatch`` children; the worker adopts the propagated
  context in ``Database.execute_request`` and ships its finished span
  fragment back piggybacked on the response, which the frontend
  stitches into one cross-process trace tree in its ring buffer.
* **Fleet metrics** — ``GET /metrics`` scrapes *every* live worker and
  merges the expositions through
  :class:`~repro.observability.metrics.MetricsAggregator` (counters
  and histograms summed fleet-wide, gauges per-``worker`` labelled,
  one ``# HELP``/``# TYPE`` per family), so the merged text stays
  valid Prometheus and ``repro_queries_total`` is the whole fleet's.
* **Debug surface** — ``GET /healthz``, ``/varz``, ``/debug/traces``
  (stitched traces, newest first; ``/debug/traces/<id>`` exports one
  as Chrome trace-event JSON), ``/debug/slowlog`` and
  ``/debug/errors`` (worker journals merged, joined to traces by
  ``trace_id``).
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time
from typing import Optional

from repro.errors import (
    ExecutionError,
    ProtocolError,
    QueryTimeoutError,
    ServerBusyError,
    ServerDrainingError,
)
from repro.observability.metrics import MetricsAggregator, MetricsRegistry
from repro.observability.tracing import (
    Tracer,
    span_from_dict,
    to_chrome_trace,
)
from repro.server import protocol
from repro.server.worker import WorkerHandle, spawn_worker

__all__ = ["ServerFrontend"]


class ServerFrontend:
    """Threaded acceptor + admission control + worker dispatch.

    Parameters
    ----------
    host, port:
        Bind address; ``port=0`` picks a free port (see ``address``).
    data_dir:
        Durable database directory the workers (or the inline engine)
        open **read-only**.  Required when ``workers > 0``.
    database:
        An already-open :class:`~repro.engine.database.Database` for
        inline mode (``workers=0``) — what tests and benchmarks use to
        serve in-memory documents without a data directory.
    workers:
        Worker *processes*; ``0`` executes requests on the connection
        threads against the inline database.
    max_connections:
        Open-socket cap; excess connections are closed on accept.
    max_queue:
        Requests allowed to wait for an execution slot; one more gets
        the typed ``BUSY`` rejection immediately.
    default_timeout_seconds:
        Deadline given to query requests that do not carry their own.
    inline_concurrency:
        Execution slots in inline mode (worker mode uses one slot per
        worker).
    trace_sample:
        Fraction of requests traced end-to-end (the frontend's root
        span flips the coin; workers always follow, so traces are
        never torn).  The default 0.01 keeps the measured overhead
        under the E17 3% bar; 0.0 disables tracing entirely.
    trace_capacity:
        Stitched traces kept in the frontend's ring buffer.
    slow_query_seconds:
        When set, forwarded to every worker's ``Database`` as its
        slow-query threshold (``/debug/slowlog`` drill-down).
    db_kwargs:
        Extra :class:`Database` constructor kwargs for worker opens
        (e.g. ``{"result_cache_size": 0}`` for benchmark honesty).
    publish:
        Serve the ``repl`` verb (snapshot fetch / WAL tail /
        registration) over this server's ``data_dir`` — makes this
        frontend a replication **primary** (see
        :mod:`repro.replication`).
    replica:
        A started :class:`~repro.replication.replica.Replica` this
        frontend serves reads *for* — makes it a replica server: the
        inline database is the replica's, and the ``repl`` verb
        answers its status.  The replica's lifecycle belongs to the
        caller (the CLI's ``--replica-of`` starts/stops it).
    replicas:
        Initial :class:`~repro.replication.router.ReplicaRouter`
        targets — ``(host, port)`` pairs or in-process databases —
        that stale-bounded reads (``max_staleness_seconds > 0``) may
        be routed to.  Replicas registering over the wire with an
        ``address`` are added dynamically.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 data_dir=None, database=None, workers: int = 0,
                 max_connections: int = 64, max_queue: int = 16,
                 default_timeout_seconds: float = 30.0,
                 inline_concurrency: int = 4,
                 trace_sample: float = 0.01,
                 trace_capacity: int = 256,
                 slow_query_seconds: Optional[float] = None,
                 db_kwargs: Optional[dict] = None,
                 publish: bool = False, replica=None,
                 replicas=None,
                 router_health_interval: float = 0.25):
        if replica is not None and database is None:
            database = replica.database
        if workers > 0 and data_dir is None:
            raise ExecutionError(
                "worker processes need a data_dir to open read-only")
        if workers == 0 and database is None and data_dir is None:
            raise ExecutionError(
                "inline mode needs a database or a data_dir")
        self.host = host
        self.port = port
        self.data_dir = data_dir
        self.database = database
        self.workers = workers
        self.max_connections = max_connections
        self.max_queue = max_queue
        self.default_timeout_seconds = default_timeout_seconds
        self.inline_concurrency = max(1, inline_concurrency)
        self.db_kwargs = dict(db_kwargs or {})
        if slow_query_seconds is not None:
            self.db_kwargs.setdefault("slow_query_seconds",
                                      float(slow_query_seconds))
        self.tracer = Tracer(sample_rate=trace_sample,
                             capacity=trace_capacity)
        self._owns_database = False

        # Replication roles (all optional; see the class docstring).
        self.replica = replica
        self.publisher = None
        if publish:
            from repro.replication.primary import ReplicationPublisher
            if database is not None and database.durability is not None:
                self.publisher = ReplicationPublisher(database)
            elif data_dir is not None:
                self.publisher = ReplicationPublisher(
                    directory=data_dir)
            else:
                raise ExecutionError(
                    "publish=True needs a data_dir or a durable "
                    "database to ship WAL from")
        self.router = None
        self._router_health_interval = router_health_interval
        self._router_lock = threading.Lock()
        self._initial_replicas = list(replicas or [])

        self._handles: list[WorkerHandle] = []
        self._listener: Optional[socket.socket] = None
        self._acceptor: Optional[threading.Thread] = None
        self._connections: set[socket.socket] = set()
        self._conn_lock = threading.Lock()
        self._admission_lock = threading.Lock()
        self._waiting = 0
        self._running = 0
        slots = workers if workers > 0 else self.inline_concurrency
        self._slots = threading.Semaphore(slots)
        self._slot_count = slots
        self._draining = False
        self._stopped = False
        self._started = False
        self._stop_event = threading.Event()

        registry = MetricsRegistry()
        self.registry = registry
        self.connections_total = registry.counter(
            "repro_server_connections_total",
            "Connections accepted, by transport.",
            labelnames=("transport",))
        self.requests_total = registry.counter(
            "repro_server_requests_total",
            "Requests handled, by verb and outcome (ok or wire error "
            "code).", labelnames=("verb", "outcome"))
        self.request_latency = registry.histogram(
            "repro_server_request_latency_seconds",
            "Frontend-side request latency (admission wait included), "
            "by verb.", labelnames=("verb",))
        self.rejections_total = registry.counter(
            "repro_server_rejections_total",
            "Requests/connections rejected, by reason.",
            labelnames=("reason",))
        self.errors_total = registry.counter(
            "repro_server_errors_total",
            "Requests answered with a typed error, by verb and wire "
            "error code.", labelnames=("verb", "code"))
        self.timeouts_total = registry.counter(
            "repro_server_timeouts_total",
            "Requests rejected at their wall-clock deadline, by stage "
            "(admission = budget exhausted queuing, before any "
            "execution).", labelnames=("stage",))
        self.queue_wait = registry.histogram(
            "repro_server_queue_wait_seconds",
            "Time spent waiting for an execution slot (measured for "
            "every admitted request, traced or not).")
        self.worker_rtt = registry.histogram(
            "repro_server_worker_rtt_seconds",
            "Round-trip time of worker pipe calls, by worker.",
            labelnames=("worker",))
        registry.register_pull(
            "repro_server_queue_depth", "gauge",
            "Requests waiting for an execution slot.",
            lambda: self._waiting)
        registry.register_pull(
            "repro_server_inflight", "gauge",
            "Requests currently executing, by worker (inline mode "
            "executes on connection threads).",
            self._inflight_by_worker, labelnames=("worker",))
        registry.register_pull(
            "repro_server_traces_stitched_total", "counter",
            "Cross-process traces stitched into the ring buffer.",
            lambda: self.tracer.traces_finished)
        registry.register_pull(
            "repro_server_open_connections", "gauge",
            "Client connections currently open.",
            lambda: len(self._connections))
        registry.register_pull(
            "repro_server_workers", "gauge",
            "Live worker processes (0 = inline mode).",
            lambda: sum(1 for h in self._handles if h.alive))
        registry.register_pull(
            "repro_server_draining", "gauge",
            "Whether the server is draining (0/1).",
            lambda: 1 if self._draining else 0)

        # Replication families (flat zeros until a role is active).
        for metric_name, attr, help_text in (
                ("repro_repl_routed_total", "routed_to_replica",
                 "Stale-bounded reads served by a replica."),
                ("repro_repl_fallbacks_total", "fallbacks_to_primary",
                 "Stale-bounded reads that fell back to the primary."),
                ("repro_repl_failovers_total", "failovers",
                 "Replica failures failed over during dispatch."),
                ("repro_repl_stale_rejections_total",
                 "stale_rejections",
                 "Authoritative REPLICA_STALE rejections at dispatch.")):
            registry.register_pull(
                metric_name, "counter", help_text,
                (lambda a=attr: getattr(self.router, a, 0)
                 if self.router is not None else 0))
        registry.register_pull(
            "repro_repl_replica_healthy", "gauge",
            "Routable replica health (1 healthy / 0 not), by replica.",
            lambda: {e.name: (1 if e.healthy else 0)
                     for e in (self.router.endpoints()
                               if self.router is not None else [])},
            labelnames=("replica",))
        registry.register_pull(
            "repro_repl_replica_staleness_seconds", "gauge",
            "Router's aged staleness estimate per replica (-1 "
            "unknown).", lambda: {
                e.name: (-1.0 if est == float("inf") else est)
                for e in (self.router.endpoints()
                          if self.router is not None else [])
                for est in (e.staleness_estimate(),)},
            labelnames=("replica",))
        for metric_name, attr, help_text in (
                ("repro_repl_batches_shipped_total", "batches_shipped",
                 "WAL ship batches served to replicas."),
                ("repro_repl_records_shipped_total",
                 "records_shipped", "WAL records shipped to replicas."),
                ("repro_repl_bytes_shipped_total", "bytes_shipped",
                 "Snapshot + WAL bytes shipped to replicas."),
                ("repro_repl_snapshots_shipped_total",
                 "snapshots_shipped",
                 "Bootstrap snapshots served to replicas.")):
            registry.register_pull(
                metric_name, "counter", help_text,
                (lambda a=attr: getattr(self.publisher, a, 0)
                 if self.publisher is not None else 0))
        registry.register_pull(
            "repro_repl_registered_replicas", "gauge",
            "Replicas registered with this primary's publisher.",
            lambda: (len(self.publisher.replicas)
                     if self.publisher is not None else 0))

    # -- life cycle ----------------------------------------------------------------

    def start(self) -> "ServerFrontend":
        """Spawn workers (or open the inline database), bind, accept."""
        if self._started:
            return self
        if self.workers > 0:
            self._handles = [spawn_worker(self.data_dir, index,
                                          self.db_kwargs)
                             for index in range(self.workers)]
        elif self.database is None:
            from repro.engine.database import Database
            self.database = Database.open(self.data_dir, read_only=True,
                                          **self.db_kwargs)
            self._owns_database = True
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen(128)
        self._listener = listener
        self.port = listener.getsockname()[1]
        self._acceptor = threading.Thread(
            target=self._accept_loop, name="repro-server-accept",
            daemon=True)
        self._acceptor.start()
        for target in self._initial_replicas:
            self._add_router_target(target)
        self._started = True
        return self

    def _add_router_target(self, target, name=None) -> None:
        """Make ``target`` routable (creating/starting the router on
        first use)."""
        with self._router_lock:
            if self.router is None:
                from repro.replication.router import ReplicaRouter
                self.router = ReplicaRouter(
                    health_interval=self._router_health_interval)
            router = self.router
        router.add_replica(target, name=name)
        router.start()

    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self.port)

    def __enter__(self) -> "ServerFrontend":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def drain(self, timeout: float = 30.0) -> dict:
        """Graceful shutdown phase one: stop accepting, finish
        in-flight requests (new ones get the typed ``DRAINING``
        error).  Returns a report with the in-flight count observed at
        entry and whether everything finished inside ``timeout``."""
        with self._admission_lock:
            inflight_at_drain = self._running + self._waiting
        self._draining = True
        self._close_listener()
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with self._admission_lock:
                if self._running == 0 and self._waiting == 0:
                    break
            time.sleep(0.005)
        with self._admission_lock:
            remaining = self._running + self._waiting
        return {"drained": remaining == 0,
                "inflight_at_drain": inflight_at_drain,
                "inflight_remaining": remaining}

    def stop(self) -> None:
        """Full shutdown: listener, workers, open connections."""
        if self._stopped:
            return
        self._stopped = True
        self._draining = True
        self._close_listener()
        if self.router is not None:
            self.router.stop()
        for handle in self._handles:
            handle.stop()
        self._handles = []
        with self._conn_lock:
            doomed = list(self._connections)
            self._connections.clear()
        for sock in doomed:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass
        if self._acceptor is not None:
            self._acceptor.join(5.0)
            self._acceptor = None
        if self._owns_database and self.database is not None:
            self.database.close()
            self.database = None
        self._stop_event.set()

    def serve_forever(self) -> None:
        """Block until SIGTERM/SIGINT, then drain and stop."""
        import signal

        def on_signal(signum, frame):
            self._stop_event.set()

        try:
            signal.signal(signal.SIGTERM, on_signal)
            signal.signal(signal.SIGINT, on_signal)
        except ValueError:
            pass  # not the main thread: caller manages signals
        self.start()
        self._stop_event.wait()
        self.drain()
        self.stop()

    def _close_listener(self) -> None:
        listener, self._listener = self._listener, None
        if listener is not None:
            # close() alone does not wake a thread blocked in accept()
            # on Linux; shutdown() does, so stop() need not wait out
            # the acceptor join timeout.
            try:
                listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                listener.close()
            except OSError:
                pass

    # -- accepting -----------------------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._draining:
            listener = self._listener
            if listener is None:
                return
            try:
                sock, _addr = listener.accept()
            except OSError:
                return  # listener closed: drain/stop in progress
            with self._conn_lock:
                if len(self._connections) >= self.max_connections:
                    over = True
                else:
                    over = False
                    self._connections.add(sock)
            if over:
                self.rejections_total.inc(1, reason="connection_limit")
                try:
                    sock.close()
                except OSError:
                    pass
                continue
            threading.Thread(target=self._handle_connection,
                             args=(sock,), daemon=True,
                             name="repro-server-conn").start()

    def _handle_connection(self, sock: socket.socket) -> None:
        try:
            sock.settimeout(300.0)
            head = protocol.recv_exact(sock, len(protocol.MAGIC))
            if head is None:
                return
            if head == protocol.MAGIC:
                self.connections_total.inc(1, transport="binary")
                self._serve_binary(sock)
            elif head[:4] in protocol.HTTP_METHODS:
                self.connections_total.inc(1, transport="http")
                self._serve_http(sock, initial=head)
            else:
                self.connections_total.inc(1, transport="unknown")
        except (ProtocolError, OSError):
            pass  # connection-level failure: nothing left to say
        finally:
            with self._conn_lock:
                self._connections.discard(sock)
            try:
                sock.close()
            except OSError:
                pass

    def _serve_binary(self, sock: socket.socket) -> None:
        while True:
            try:
                request = protocol.read_frame(sock)
            except ProtocolError as exc:
                # Best effort: tell the client why, then hang up (the
                # stream is unframed garbage from here on).
                try:
                    protocol.send_frame(sock, protocol.error_payload(exc))
                except OSError:
                    pass
                return
            if request is None:
                return
            response = self.handle_request(request)
            protocol.send_frame(sock, response)

    def _serve_http(self, sock: socket.socket, initial: bytes) -> None:
        parsed = protocol.read_http_request(sock, initial=initial)
        if parsed is None:
            return
        method, path, headers, body = parsed
        path, _, query_string = path.partition("?")
        if method == "GET" and path == "/metrics":
            sock.sendall(protocol.http_response(
                200, "OK", self.metrics_text().encode("utf-8"),
                content_type="text/plain; version=0.0.4"))
            return
        debug = self._serve_debug_endpoint(method, path, query_string)
        if debug is not None:
            sock.sendall(debug)
            return
        try:
            if method == "GET" and path == "/ping":
                request = {"verb": "admin", "action": "ping"}
            elif method == "GET" and path == "/stats":
                request = {"verb": "admin", "action": "stats"}
            elif method == "POST" and path in ("/query", "/prepare",
                                               "/explain"):
                request = protocol.parse_json_body(body)
                request["verb"] = path[1:]
            else:
                sock.sendall(protocol.http_response(
                    404, "Not Found",
                    b'{"ok": false, "error": "no such endpoint"}\n'))
                return
        except ExecutionError as exc:
            sock.sendall(protocol.http_json_response(
                protocol.error_payload(exc)))
            return
        header_trace = headers.get(protocol.TRACE_HEADER.lower())
        if header_trace and not isinstance(request.get("trace"), dict):
            request["trace"] = {"trace_id": header_trace}
        response = self.handle_request(request)
        sock.sendall(protocol.http_json_response(response))

    @staticmethod
    def _query_limit(query_string: str, default: int = 32) -> int:
        """The ``limit=N`` query parameter, clamped to sanity."""
        for pair in query_string.split("&"):
            name, _, value = pair.partition("=")
            if name == "limit":
                try:
                    return max(1, min(int(value), 1024))
                except ValueError:
                    break
        return default

    def _serve_debug_endpoint(self, method: str, path: str,
                              query_string: str) -> Optional[bytes]:
        """The live debug surface; ``None`` when ``path`` is not ours."""
        if method != "GET":
            return None
        if path == "/healthz":
            if self._draining:
                return protocol.http_response(
                    503, "Service Unavailable",
                    b'{"ok": false, "status": "draining"}\n')
            return protocol.http_response(
                200, "OK", b'{"ok": true, "status": "serving"}\n')
        limit = self._query_limit(query_string)
        if path == "/varz":
            payload = self.debug_report()
        elif path == "/debug/traces":
            payload = {"ok": True, "traces": self.traces(limit=limit)}
        elif path.startswith("/debug/traces/"):
            trace_id = path[len("/debug/traces/"):]
            chrome = self.chrome_trace(trace_id)
            if chrome is None:
                return protocol.http_response(
                    404, "Not Found",
                    json.dumps({"ok": False,
                                "error": f"no stitched trace "
                                         f"{trace_id!r} in the ring "
                                         f"buffer"}).encode("utf-8")
                    + b"\n")
            payload = chrome
        elif path == "/debug/slowlog":
            payload = {"ok": True,
                       "entries": self._collect_journal("slowlog",
                                                        limit)}
        elif path == "/debug/errors":
            payload = {"ok": True,
                       "entries": self._collect_journal("errors",
                                                        limit)}
        else:
            return None
        body = json.dumps(payload, indent=2,
                          default=str).encode("utf-8") + b"\n"
        return protocol.http_response(200, "OK", body)

    # -- admission + dispatch ------------------------------------------------------

    def _inflight_by_worker(self) -> dict:
        if self._handles:
            return {str(handle.index): handle.inflight
                    for handle in self._handles}
        return {"inline": self._running}

    def handle_request(self, request: dict) -> dict:
        """Admit, dispatch, and account one request; always returns a
        response dict (errors as typed payloads, never raises).

        The whole exchange runs under a ``server.request`` root span
        adopting the client-minted trace id (``request["trace"]``);
        every response dict carries that ``trace_id`` back so callers
        can join answers to stitched traces in ``/debug/traces``."""
        verb = str(request.get("verb") or "?")
        started = time.perf_counter()
        trace_context = request.get("trace")
        if not isinstance(trace_context, dict):
            trace_context = {}
        trace_id = trace_context.get("trace_id")
        if not isinstance(trace_id, str) or not trace_id:
            trace_id = os.urandom(8).hex()
        with self.tracer.adopt(
                "server.request", trace_id=trace_id, verb=verb,
                request_id=trace_context.get("request_id"),
                node="frontend") as root_span:
            response = self._admit_and_dispatch(request, trace_id)
            outcome = ("ok" if response.get("ok")
                       else response.get("code", "INTERNAL"))
            root_span.set(outcome=outcome)
        self.requests_total.inc(1, verb=verb, outcome=outcome)
        if outcome != "ok":
            self.errors_total.inc(1, verb=verb, code=outcome)
        self.request_latency.observe(time.perf_counter() - started,
                                     verb=verb)
        if isinstance(response, dict):
            response.setdefault("trace_id", trace_id)
        return response

    def _admit_and_dispatch(self, request: dict,
                            trace_id: str) -> dict:
        if request.get("verb") == "repl":
            # Replication control plane: answered before admission (no
            # query slot consumed) and *before* the draining check — a
            # draining primary keeps shipping WAL so its replicas can
            # finish catching up.
            return self._handle_repl(request)
        if self._draining:
            self.rejections_total.inc(1, reason="draining")
            return protocol.error_payload(ServerDrainingError(
                "server is draining; retry against another replica"))
        # The request's whole wall-clock budget starts *here*: time
        # spent queuing for a slot is charged against it, so a request
        # that exhausted its budget waiting is rejected before any
        # execution and the worker only ever sees the *remaining*
        # deadline.
        timeout = None
        if request.get("verb") == "query":
            timeout = request.get("timeout_seconds")
            if timeout is None and self.default_timeout_seconds:
                timeout = self.default_timeout_seconds
        deadline = (None if timeout is None
                    else time.monotonic() + float(timeout))
        with self._admission_lock:
            if self._waiting >= self.max_queue:
                over = True
            else:
                over = False
                self._waiting += 1
        if over:
            self.rejections_total.inc(1, reason="queue_full")
            return protocol.error_payload(ServerBusyError(
                f"admission queue full ({self.max_queue} waiting); "
                f"retry after backoff"))
        wait_started = time.perf_counter()
        acquired = False
        try:
            with self.tracer.span("server.admit") as admit_span:
                # Wait no longer than the budget: a request whose
                # deadline passes in the queue gives up its place then,
                # not when a slot eventually frees.
                acquired = self._slots.acquire(
                    timeout=None if deadline is None
                    else max(0.0, deadline - time.monotonic()))
                waited = time.perf_counter() - wait_started
                admit_span.set(queue_wait_seconds=waited)
        finally:
            if not acquired:
                waited = time.perf_counter() - wait_started
            with self._admission_lock:
                self._waiting -= 1
                if acquired:
                    self._running += 1
        self.queue_wait.observe(waited)
        if not acquired:
            return self._admission_timeout(timeout, waited)
        try:
            if self._draining:
                self.rejections_total.inc(1, reason="draining")
                return protocol.error_payload(ServerDrainingError(
                    "server began draining while this request was "
                    "queued"))
            if deadline is not None \
                    and time.monotonic() >= deadline:
                return self._admission_timeout(timeout, waited)
            return self._dispatch(request, deadline, trace_id)
        finally:
            with self._admission_lock:
                self._running -= 1
            self._slots.release()

    def _admission_timeout(self, timeout: float, waited: float) -> dict:
        """Typed ``TIMEOUT`` for a request whose budget ran out in the
        admission queue — it never reaches execution."""
        self.timeouts_total.inc(1, stage="admission")
        return protocol.error_payload(QueryTimeoutError(
            f"request exhausted its {timeout:.3f}s budget after "
            f"{waited:.3f}s in the admission queue; rejected before "
            f"execution"))

    def _handle_repl(self, request: dict) -> dict:
        """The ``repl`` verb: publisher on a primary, status on a
        replica (typed error payload anywhere else)."""
        try:
            if self.publisher is not None:
                response = self.publisher.handle(request)
                address = request.get("address")
                if (request.get("action") == "register"
                        and isinstance(address, str) and ":" in address):
                    # The replica told us where it serves reads: make
                    # it routable for stale-bounded queries.
                    host, _, port = address.rpartition(":")
                    self._add_router_target(
                        (host, int(port)),
                        name=request.get("replica_id"))
                return response
            if self.replica is not None:
                return self.replica.handle(request)
            raise ExecutionError(
                "this server has no replication role (primaries need "
                "publish=True / repro-server --publish; replicas are "
                "started with --replica-of)")
        except Exception as exc:
            return protocol.error_payload(exc)

    def _dispatch(self, request: dict, deadline: Optional[float],
                  trace_id: str) -> dict:
        request = dict(request)
        if deadline is not None:
            # Remaining budget only — the admission wait already
            # consumed part of it.
            request["timeout_seconds"] = max(
                deadline - time.monotonic(), 1e-6)
        wait = (request.get("timeout_seconds")
                or self.default_timeout_seconds or 30.0)
        if self.router is not None:
            # Stale-bounded reads may be served by a replica; any
            # replica trouble degrades transparently to the primary
            # path below (only query-shaped errors surface).
            try:
                routed = self.router.maybe_route(request)
            except Exception as exc:
                return protocol.error_payload(exc)
            if routed is not None:
                return routed
        if self._handles:
            if (request.get("verb") == "admin"
                    and request.get("action") == "reload"):
                return self._reload_workers(wait)
            handle = self._least_loaded()
            if handle is None:
                return protocol.error_payload(
                    RuntimeError("no live worker processes"))
            with self.tracer.span("server.dispatch",
                                  worker=handle.index) as dispatch_span:
                self._attach_trace(request, dispatch_span, trace_id,
                                   node=f"worker-{handle.index}")
                call_started = time.perf_counter()
                response = handle.call(request, timeout=wait)
                rtt = time.perf_counter() - call_started
                self.worker_rtt.observe(rtt, worker=str(handle.index))
                dispatch_span.set(rtt_seconds=rtt)
                self._stitch(dispatch_span, response)
            return response
        with self.tracer.span("server.dispatch",
                              worker="inline") as dispatch_span:
            self._attach_trace(request, dispatch_span, trace_id,
                               node="inline")
            try:
                response = self.database.execute_request(request)
            except Exception as exc:
                response = protocol.error_payload(exc)
            self._stitch(dispatch_span, response)
        return response

    def _attach_trace(self, request: dict, dispatch_span,
                      trace_id: str, node: str) -> None:
        """Propagate the trace context one hop down — or strip it, so
        an unsampled request costs the worker nothing."""
        if dispatch_span.is_recording:
            request["trace"] = {"trace_id": trace_id,
                                "span_id": dispatch_span.span_id,
                                "sampled": True, "node": node}
        else:
            request.pop("trace", None)

    def _stitch(self, dispatch_span, response) -> None:
        """Graft the worker's piggybacked span fragment under the
        dispatch span, rebased onto this process's timeline (the
        fragment is centred in the dispatch window: the network/pipe
        time is split symmetrically around it)."""
        if not isinstance(response, dict):
            return
        fragment = response.pop("spans", None)
        if not fragment or not dispatch_span.is_recording:
            return
        try:
            imported = span_from_dict(fragment)
        except (TypeError, ValueError):
            return  # a malformed fragment must never fail the request
        window = time.perf_counter() - dispatch_span.started
        slack = max(0.0, window - imported.duration_seconds)
        imported.shift(dispatch_span.started + slack / 2.0
                       - imported.started)
        imported.parent_id = dispatch_span.span_id
        dispatch_span.children.append(imported)

    def _least_loaded(self) -> Optional[WorkerHandle]:
        live = [h for h in self._handles if h.alive]
        if not live:
            return None
        return min(live, key=lambda h: (h.inflight, h.index))

    def _reload_workers(self, wait: float) -> dict:
        """Broadcast the reload RPC; aggregate per-worker outcomes."""
        results = []
        for handle in self._handles:
            if not handle.alive:
                continue
            results.append(handle.call(
                {"verb": "admin", "action": "reload"}, timeout=wait))
        reloaded = [bool(r.get("reloaded")) for r in results
                    if r.get("ok")]
        generations = [r.get("generation") for r in results
                       if r.get("ok")]
        return {"ok": all(r.get("ok") for r in results) if results
                else False,
                "verb": "admin", "action": "reload",
                "workers": len(results),
                "reloaded": reloaded, "generations": generations}

    # -- observability -------------------------------------------------------------

    def metrics_text(self) -> str:
        """The fleet exposition: the frontend's ``repro_server_*``
        families merged with *every* live worker's engine exposition
        (counters/histograms summed, gauges per-``worker`` labelled)
        into one valid Prometheus text — never a concatenation with
        duplicate ``# HELP``/``# TYPE`` families."""
        aggregator = MetricsAggregator()
        aggregator.ingest(self.registry.render_prometheus())
        if self._handles:
            for handle in self._handles:
                if not handle.alive:
                    continue
                try:
                    response = handle.call({"verb": "metrics"},
                                           timeout=10.0)
                except Exception:
                    continue  # scrape is best-effort during shutdown
                if response.get("ok"):
                    try:
                        aggregator.ingest(response["text"],
                                          worker=str(handle.index))
                    except ValueError:
                        continue
        elif self.database is not None:
            try:
                aggregator.ingest(self.database.metrics_text(),
                                  worker="inline")
            except Exception:
                pass
        if self.router is not None:
            # Fleet view includes every reachable replica's engine +
            # repro_repl_* families, labelled per replica.
            for name, text in self.router.metrics_expositions().items():
                try:
                    aggregator.ingest(text, worker=f"replica-{name}")
                except ValueError:
                    continue
        return aggregator.render()

    def report(self) -> dict:
        """Live serving state for tests/benchmarks and ``/stats``."""
        with self._admission_lock:
            waiting, running = self._waiting, self._running
        return {
            "address": list(self.address),
            "workers": self.workers,
            "workers_alive": sum(1 for h in self._handles if h.alive),
            "slots": self._slot_count,
            "max_queue": self.max_queue,
            "waiting": waiting,
            "running": running,
            "draining": self._draining,
            "open_connections": len(self._connections),
            "requests_served": [h.requests_served
                                for h in self._handles],
            "worker_rtt_last_seconds": [h.last_rtt_seconds
                                        for h in self._handles],
            "inflight_by_worker": self._inflight_by_worker(),
            "queue_wait": {"count": self.queue_wait.count(),
                           "sum_seconds": self.queue_wait.sum()},
            "admission_timeouts": self.timeouts_total.value(
                stage="admission"),
            "tracing": self.tracer.report(),
            "replication": self.replication_report(),
        }

    def replication_report(self) -> Optional[dict]:
        """This server's replication roles, or ``None`` when it has
        none (keeps ``/varz`` quiet for plain deployments)."""
        if (self.publisher is None and self.replica is None
                and self.router is None):
            return None
        report: dict = {}
        if self.publisher is not None:
            report["publisher"] = self.publisher.report()
        if self.replica is not None:
            report["replica"] = self.replica.status()
        if self.router is not None:
            report["router"] = self.router.report()
        return report

    # -- debug surface -------------------------------------------------------------

    def traces(self, limit: Optional[int] = None) -> list[dict]:
        """Stitched traces, newest first (``/debug/traces``)."""
        exported = [span.to_dict()
                    for span in reversed(self.tracer.finished_traces())]
        return exported if limit is None else exported[:limit]

    def chrome_trace(self, trace_id) -> Optional[dict]:
        """One stitched trace as Chrome trace-event JSON, or ``None``
        when the id is unknown (fell out of the ring buffer, or was
        never sampled)."""
        span = self.tracer.find_trace(trace_id)
        return None if span is None else to_chrome_trace(span)

    def _collect_journal(self, action: str, limit: int) -> list[dict]:
        """Merge every worker's slowlog/error journal, newest first,
        each entry labelled with the worker that recorded it."""
        entries: list[dict] = []
        if self._handles:
            sources = [(str(handle.index), handle)
                       for handle in self._handles if handle.alive]
            for label, handle in sources:
                try:
                    response = handle.call(
                        {"verb": "admin", "action": action,
                         "limit": limit}, timeout=10.0)
                except Exception:
                    continue
                if response.get("ok"):
                    for entry in response.get("entries", []):
                        entries.append(dict(entry, worker=label))
        elif self.database is not None:
            try:
                response = self.database.execute_request(
                    {"verb": "admin", "action": action,
                     "limit": limit})
            except Exception:
                response = {}
            for entry in response.get("entries", []):
                entries.append(dict(entry, worker="inline"))
        entries.sort(key=lambda e: e.get("recorded_at", 0.0),
                     reverse=True)
        return entries[:limit]

    def debug_report(self) -> dict:
        """The ``/varz`` payload: serving state + metric snapshot."""
        return {
            "ok": True,
            "report": self.report(),
            "metrics": self.registry.snapshot(),
        }
