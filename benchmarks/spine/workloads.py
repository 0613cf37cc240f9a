"""The five workloads of the spine benchmark.

Each workload is a class with the same five steps:

``setup``     everything before the first timed operation (``setup_s``)
``gate``      correctness before timing: every ``Q20`` answer is
              compared item for item with the reference evaluator
``measure``   the measured run — no shims, yields the end-to-end metrics
``trace``     the traced run — a short unshimmed calibration loop, then
              the same loop under the benchmark's span recorder; yields
              the per-layer metrics
``teardown``  stop every process, remove the data directory

Why each workload exists is recorded in ``BENCHMARK.json`` and in
``README.md``; sizing is ``ISSUE``-scale (20 s, 192 updates, 24-record
tail) times ``seconds / 20``.
"""

from __future__ import annotations

import gc
import json
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from repro.durability.format import crc32, unpack_obj
from repro.engine.database import Database
from repro.errors import ReproError
from repro.physical.planner import STRATEGIES
from repro.replication import LocalSource, Replica, ReplicationPublisher
from repro.server import ServerClient, ServerFrontend, protocol
from repro.xml import model
from repro.xml.serializer import serialize

from benchmarks.spine import SPINE_DIR, stats
from benchmarks.spine.inputs import (
    DOC_URI,
    Q20,
    SPINE_ITEMS_QUERY,
    UpdateStream,
    ZipfQueries,
    apply_update,
    shuffled_queries,
    xmark_xml,
)
from benchmarks.spine.spans import (
    SpanRecorder,
    counting_opener,
    install_engine_shims,
)

FULL_SECONDS = 20          # the sizing every count below is stated for
CHECKPOINT_EVERY = 32      # write.durable flush policy: fsync per record,
KEEP_GENERATIONS = 2       # checkpoint every 32 ops, keep 2 generations
FULL_UPDATES = 192         # write.durable operations at FULL_SECONDS
FULL_TAIL = 24             # recover.replay WAL tail at FULL_SECONDS
RECOVER_OPENS = 5          # timed opens (one more is discarded first)
UPDATE_EVERY = 20          # mixed.inproc: one U every 20 operations
TRACE_SHARE = 0.25         # traced/calibration loops run seconds/4 each

_clock = time.perf_counter


@dataclass
class Context:
    seed: int
    seconds: float
    tmp: Path                      # scratch directory inside the checkout

    def scaled(self, full_count: int, multiple: int = 1) -> int:
        """``full_count`` scaled by the duration factor ``seconds /
        FULL_SECONDS``, rounded to a positive multiple of
        ``multiple``."""
        factor = self.seconds / FULL_SECONDS
        return max(1, round(full_count * factor / multiple)) * multiple


@dataclass
class Measured:
    latencies: list[float]         # seconds, correct operations only
    ops: int                       # operations completed in ``elapsed``
    elapsed: float
    attempted: int
    failed: int


def values_of(items) -> list:
    return [item.string_value() if isinstance(item, model.Node) else item
            for item in items]


def gate_queries(database, run_query) -> tuple[int, int, dict]:
    """Compare ``run_query(q)`` with the reference evaluator for every
    ``Q20`` query; returns (attempted, failed, expected lengths)."""
    failed = 0
    expected = {}
    for query in Q20:
        want = values_of(database.reference_query(query))
        expected[query] = len(want)
        try:
            got = run_query(query)
        except ReproError:
            got = None
        if got != want:
            failed += 1
    return len(Q20), failed, expected


def read_cycles(run_query, order, expected, seconds) -> Measured:
    """One closed-loop caller: whole passes over ``order`` until
    ``seconds`` have passed, so every query keeps its 1/20 share."""
    latencies: list[float] = []
    attempted = failed = 0
    started = _clock()
    deadline = started + seconds
    while True:
        for query in order:
            attempted += 1
            begin = _clock()
            try:
                count = len(run_query(query))
            except ReproError:
                count = -1
            end = _clock()
            if count == expected[query]:
                latencies.append(end - begin)
            else:
                failed += 1
        if end >= deadline:
            break
    return Measured(latencies, attempted, end - started, attempted, failed)


def traced_call(recorder: SpanRecorder, name: str, call):
    def run(argument):
        with recorder.op(name):
            return call(argument)
    return run


# -- shared per-layer accounting --------------------------------------------------


class EngineWindow:
    """Public-report counters of one database over one traced loop."""

    def __init__(self, database):
        self.database = database
        self.pages = database.pages.report()
        self.caches = database.cache_report()
        self.publishes = database.version_publishes

    def metrics(self, queries: int) -> dict:
        database = self.database
        pages = database.pages.report()
        caches = database.cache_report()

        def delta(cache: str, key: str) -> int:
            return caches[cache][key] - self.caches[cache][key]

        reads = pages["page_reads"] - self.pages["page_reads"]
        hits = pages["pool_hits"] - self.pages["pool_hits"]
        grown = pages["pool_pages"] - self.pages["pool_pages"]
        plan_hits = delta("plan_cache", "hits")
        result_hits = delta("result_cache", "hits")
        return {
            "compile.plan_cache_hit_ratio": stats.ratio(
                plan_hits, plan_hits + delta("plan_cache", "misses")),
            "engine.result_cache_hit_ratio": stats.ratio(
                result_hits,
                result_hits + delta("result_cache", "misses")),
            "engine.version_publishes":
                database.version_publishes - self.publishes,
            "storage.page_reads_per_query": stats.ratio(reads, queries),
            "storage.pool_hit_ratio": stats.ratio(hits, hits + reads),
            # An LRU pool at capacity evicts one page per miss.
            "storage.evictions": reads - grown,
        }


def storage_bytes(database) -> dict:
    report = database.storage_report()
    view = database.document().runtime.columnar_view()
    return {
        "storage.bytes.succinct": report["succinct"]["total"],
        "storage.bytes.interval": report["interval"]["total"],
        "storage.bytes.tag_index": report["tag_index_bytes"],
        "storage.bytes.value_index": report["value_index_bytes"],
        "storage.bytes.columnar": view.size_bytes(),
    }


def compile_metrics(recorder: SpanRecorder) -> dict:
    """``Database.compile_text`` once per ``Q20`` query (the timed
    loops never compile: their plan cache is warm)."""
    for query in Q20:
        with recorder.span("xquery.compile"):
            Database.compile_text(query)
    return {"compile.ms_per_query":
            stats.median_ms(recorder.durations("xquery.compile"))}


def span_metrics(recorder: SpanRecorder) -> dict:
    """Per-layer self times and counts out of the recorded spans."""
    queries = recorder.layer_self_by_op("loop.query")
    updates = recorder.layer_self_by_op("loop.update")
    counts = recorder.counts
    metrics = {
        "physical.match_ms": stats.median_ms(queries.get("physical", [])),
        "engine.query_self_ms": stats.median_ms(queries.get("engine", [])),
        "engine.update_self_ms":
            stats.median_ms(updates.get("engine", [])),
        "physical.nodes_visited_per_result": stats.ratio(
            counts["physical.nodes_visited"], counts["physical.results"]),
    }
    for strategy in STRATEGIES:
        if strategy != "auto":
            metrics[f"physical.strategy.{strategy}"] = \
                counts[f"physical.strategy.{strategy}"]
    return metrics


def planner_regret(database, recorder: SpanRecorder) -> dict:
    """``auto``'s time over the best forced strategy's time, per query.

    A forced strategy whose first run is already four times slower
    than ``auto`` cannot be the best one and is not repeated."""
    regrets = []
    for query in Q20:
        def timed(strategy: str) -> float:
            with recorder.span(f"regret.{strategy}") as span:
                database.query(query, strategy=strategy)
            return span[3] - span[2]

        timed("auto")
        auto = stats.median([timed("auto") for _ in range(3)])
        best = float("inf")
        for strategy in STRATEGIES:
            if strategy == "auto":
                continue
            try:
                seconds = timed(strategy)
                if seconds < 4 * auto:
                    seconds = min(timed(strategy), timed(strategy))
            except ReproError:
                continue
            best = min(best, seconds)
        regrets.append(auto / best)
    return {"physical.regret_max": max(regrets),
            "physical.regret_median": stats.median(regrets)}


def overhead(traced: list[float], plain: list[float]) -> dict:
    """Shimmed over unshimmed latency of the same loop (by the same
    centre ``op_mid_ms`` uses)."""
    return {"trace_overhead_ratio": stats.Sampled(
        stats.middle_mean(traced) / stats.middle_mean(plain), len(traced))}


class Workload:
    """What the five workloads share: the context, and the tally of
    attempted and failed operations over gate, loops and checks."""

    def __init__(self, context: Context):
        self.context = context
        self.attempted = 0
        self.failed = 0
        self.expected: dict = {}       # query -> reference answer length
        self.ladder: dict = {}         # read.served: rung -> seconds/request

    def prepare_trace(self) -> None:
        """Resize for a traced run (called before ``setup``)."""

    def tally(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed

    def counted(self, measured: Measured) -> Measured:
        self.tally(measured.attempted, measured.failed)
        return measured

    def gate_on(self, database, run_query) -> None:
        attempted, failed, self.expected = gate_queries(database,
                                                        run_query)
        self.tally(attempted, failed)


# -- read.inproc ------------------------------------------------------------------


class ReadInproc(Workload):
    name = "read.inproc"
    scale = 1200

    def __init__(self, context: Context):
        super().__init__(context)
        self.database = None

    def setup(self) -> None:
        database = Database(result_cache_size=0)
        database.load(xmark_xml(self.scale), uri=DOC_URI)
        for query in Q20:     # plan cache, strategy memo, columnar view
            database.query(query).values()
        self.database = database

    def teardown(self) -> None:
        self.database = None

    def run_query(self, query: str) -> list:
        return self.database.query(query).values()

    def gate(self) -> None:
        self.gate_on(self.database, self.run_query)

    def cycles(self, run_query, seconds: float) -> Measured:
        return self.counted(read_cycles(
            run_query, shuffled_queries(self.context.seed), self.expected,
            seconds))

    def measure(self) -> Measured:
        return self.cycles(self.run_query, self.context.seconds)

    def describe(self) -> dict:
        return {"scale": self.scale, "loop": "closed", "callers": 1,
                "duration_s": self.context.seconds}

    def trace(self, recorder: SpanRecorder) -> dict:
        share = self.context.seconds * TRACE_SHARE
        plain = self.cycles(self.run_query, share)
        metrics = compile_metrics(recorder)
        window = EngineWindow(self.database)
        install_engine_shims(recorder)
        try:
            traced = self.cycles(
                traced_call(recorder, "loop.query", self.run_query), share)
        finally:
            recorder.unwrap_all()
        metrics.update(window.metrics(traced.ops))
        metrics.update(span_metrics(recorder))
        metrics.update(storage_bytes(self.database))
        metrics.update(planner_regret(self.database, recorder))
        metrics.update(overhead(traced.latencies, plain.latencies))
        return metrics


# -- read.served ------------------------------------------------------------------


def build_directory(directory: Path, scale: int, **open_kwargs) -> Database:
    """A fresh durable database holding the scale-``scale`` document
    (``load`` checkpoints, so the XML never has to be replayed)."""
    database = Database.open(directory, **open_kwargs)
    database.load(xmark_xml(scale), uri=DOC_URI)
    return database


class ReadServed(Workload):
    name = "read.served"
    scale = 120
    connections = 2

    def __init__(self, context: Context):
        super().__init__(context)
        self.directory = context.tmp / "served"
        self.frontend = None
        self.clients: list[ServerClient] = []

    def setup(self) -> None:
        build_directory(self.directory, self.scale).close()
        self.frontend = ServerFrontend(
            data_dir=str(self.directory), workers=1, max_queue=64,
            db_kwargs={"result_cache_size": 0}).start()
        host, port = self.frontend.address
        self.clients = [ServerClient(host, port)
                        for _ in range(self.connections)]
        for client in self.clients:   # connect + warm the worker
            for query in Q20:
                client.query_values(query)

    def teardown(self) -> None:
        for client in self.clients:
            client.close()
        self.clients = []
        if self.frontend is not None:
            # ``stop`` joins the acceptor thread for 5 s: closing the
            # listener does not wake a thread blocked in ``accept``.
            # Draining first and connecting once lets it see the drain
            # flag and leave, so ``stop`` returns at once.
            self.frontend.drain(timeout=0.0)
            try:
                socket.create_connection(self.frontend.address,
                                         timeout=1.0).close()
            except OSError:
                pass
            self.frontend.stop()
            self.frontend = None
        shutil.rmtree(self.directory, ignore_errors=True)

    def local(self) -> Database:
        """The same directory opened the way the worker opens it."""
        return Database.open(self.directory, read_only=True,
                             result_cache_size=0)

    def gate(self) -> None:
        database = self.local()
        try:
            self.gate_on(database, lambda q: database.query(q).values())
            for query in Q20:     # served answers against in-process
                try:
                    served = self.clients[0].query_values(query)
                except ReproError:
                    served = None
                self.tally(1, served != database.query(query).values())
        finally:
            database.close()

    def wire_loop(self, seconds: float, wrap=None) -> Measured:
        """``connections`` closed-loop callers, one thread each."""
        barrier = threading.Barrier(self.connections + 1)
        results: list = [None] * self.connections

        def caller(index: int) -> None:
            call = self.clients[index].query_values
            if wrap is not None:
                call = wrap(call)
            order = shuffled_queries(self.context.seed + index)
            barrier.wait()
            results[index] = read_cycles(call, order, self.expected,
                                         seconds)

        threads = [threading.Thread(target=caller, args=(index,))
                   for index in range(self.connections)]
        for thread in threads:
            thread.start()
        barrier.wait()
        started = _clock()
        for thread in threads:
            thread.join()
        elapsed = _clock() - started
        return self.counted(Measured(
            [s for part in results for s in part.latencies],
            sum(part.ops for part in results), elapsed,
            sum(part.attempted for part in results),
            sum(part.failed for part in results)))

    def measure(self) -> Measured:
        return self.wire_loop(self.context.seconds)

    def describe(self) -> dict:
        return {"scale": self.scale, "loop": "closed",
                "callers": self.connections, "workers": 1,
                "duration_s": self.context.seconds}

    def trace(self, recorder: SpanRecorder) -> dict:
        share = self.context.seconds * TRACE_SHARE
        totals = self._frontend_totals()
        plain = self.wire_loop(share)
        wire = self.wire_loop(
            share, lambda call: traced_call(recorder, "wire.request",
                                            call))
        metrics = compile_metrics(recorder)
        metrics.update(overhead(wire.latencies, plain.latencies))
        metrics.update(self._frontend_metrics(totals))

        # The rungs below the wire, on an identical read-only open in
        # this process (the worker is another process and cannot be
        # shimmed from here).
        database = self.local()
        try:
            requests = [{"verb": "query", "text": query,
                         "strategy": "auto", "output": "values"}
                        for query in shuffled_queries(self.context.seed)]
            for request in requests:
                database.execute_request(request)
            window = EngineWindow(database)
            install_engine_shims(recorder)
            try:
                passes = max(3, int(share * 10))
                for _ in range(passes):
                    for request in requests:
                        with recorder.op("loop.query"):
                            database.execute_request(request)
            finally:
                recorder.unwrap_all()
            metrics.update(window.metrics(passes * len(requests)))
            metrics.update(span_metrics(recorder))
            metrics.update(storage_bytes(database))
            metrics.update(planner_regret(database, recorder))
            codec = [self._codec_seconds(recorder, request,
                                         database.execute_request(request))
                     for request in requests]
        finally:
            database.close()
        verb_ms = stats.median_ms(recorder.durations("server.verb"))
        wire_ms = stats.median_ms(plain.latencies)
        metrics.update({
            "server.verb_ms": verb_ms,
            "server.codec_ms": stats.median_ms(codec),
            "server.wire_tax_ms": wire_ms - verb_ms,
        })
        self.ladder = {
            "kernel": recorder.layer_self_by_op("loop.query")["physical"],
            "query": recorder.durations("engine.query"),
            "verb": recorder.durations("server.verb"),
            "wire": plain.latencies,
        }
        return metrics

    @staticmethod
    def _codec_seconds(recorder: SpanRecorder, request: dict,
                       response: dict) -> float:
        """Encode + decode of one exchange's two frames."""
        with recorder.span("server.codec") as span:
            for payload in (request, response):
                frame = protocol.pack_frame(payload)
                length, checksum = protocol.FRAME_HEADER.unpack_from(frame)
                body = frame[protocol.FRAME_HEADER.size:]
                if len(body) != length or crc32(body) != checksum:
                    raise ReproError("frame did not survive the codec")
                unpack_obj(body)
        return span[3] - span[2]

    def _frontend_totals(self) -> dict:
        """Running totals of the frontend's own instruments (the ones
        ``GET /metrics`` renders)."""
        frontend = self.frontend
        queue = frontend.queue_wait.snapshot()
        workers = frontend.worker_rtt.snapshot().values()
        return {
            "queue_sum": queue["sum"], "queue_count": queue["count"],
            "rtt_sum": sum(series["sum"] for series in workers),
            "rtt_count": sum(series["count"] for series in workers),
            "rejections": sum(
                frontend.rejections_total.snapshot().values()),
        }

    def _frontend_metrics(self, before: dict) -> dict:
        after = self._frontend_totals()
        delta = {key: after[key] - before[key] for key in after}
        return {
            "server.queue_wait_ms": 1e3 * stats.ratio(
                delta["queue_sum"], delta["queue_count"]),
            "server.worker_rtt_ms": 1e3 * stats.ratio(
                delta["rtt_sum"], delta["rtt_count"]),
            "server.rejections": delta["rejections"],
        }


# -- mixed.inproc -----------------------------------------------------------------


def check_spine_items(database, updates: UpdateStream) -> bool:
    """Every acknowledged insert not later deleted is present and every
    acknowledged delete is absent, by the reference evaluator."""
    live = values_of(database.reference_query(SPINE_ITEMS_QUERY))
    return sorted(live) == updates.live_sequences()


class MixedInproc(Workload):
    name = "mixed.inproc"
    scale = 400

    def __init__(self, context: Context):
        super().__init__(context)
        self.database = None
        self.updates = None

    def setup(self) -> None:
        database = Database()          # result cache on, default size
        database.load(xmark_xml(self.scale), uri=DOC_URI)
        self.updates = UpdateStream(self.context.seed)
        apply_update(database, self.updates.sentinel())
        for query in Q20:
            database.query(query).values()
        self.database = database

    def teardown(self) -> None:
        self.database = None

    def run_query(self, query: str) -> list:
        return self.database.query(query).values()

    def gate(self) -> None:
        self.gate_on(self.database, self.run_query)

    def loop(self, seconds: float, draws: ZipfQueries,
             recorder: SpanRecorder = None) -> Measured:
        """19 Zipf reads then one ``U``, in whole rounds."""
        database = self.database
        read = self.run_query

        def update(op: tuple) -> None:
            apply_update(database, op)

        if recorder is not None:
            read = traced_call(recorder, "loop.query", read)
            update = traced_call(recorder, "loop.update", update)
        reads: list[float] = []
        attempted = failed = 0
        started = _clock()
        deadline = started + seconds
        while True:
            for _ in range(UPDATE_EVERY - 1):
                query = draws.draw()
                begin = _clock()
                try:
                    count = len(read(query))
                except ReproError:
                    count = -1
                end = _clock()
                if count == self.expected[query]:
                    reads.append(end - begin)
                else:
                    failed += 1
            try:
                update(self.updates.next_op())
            except ReproError:
                failed += 1
            end = _clock()
            attempted += UPDATE_EVERY
            if end >= deadline:
                break
        return self.counted(Measured(reads, attempted, end - started,
                                     attempted, failed))

    def final_check(self) -> None:
        """After a loop: all of ``Q20`` and the spine items against the
        reference on the final version."""
        self.gate_on(self.database, self.run_query)
        self.tally(1, not check_spine_items(self.database, self.updates))

    def measure(self) -> Measured:
        measured = self.loop(self.context.seconds,
                             ZipfQueries(self.context.seed))
        self.final_check()
        return measured

    def describe(self) -> dict:
        return {"scale": self.scale, "loop": "closed", "callers": 1,
                "duration_s": self.context.seconds,
                "update_share": 1 / UPDATE_EVERY, "zipf_exponent": 1.1}

    def trace(self, recorder: SpanRecorder) -> dict:
        draws = ZipfQueries(self.context.seed)
        share = self.context.seconds * TRACE_SHARE
        plain = self.loop(share, draws)
        metrics = compile_metrics(recorder)
        window = EngineWindow(self.database)
        install_engine_shims(recorder)
        try:
            traced = self.loop(share, draws, recorder)
        finally:
            recorder.unwrap_all()
        self.final_check()
        metrics.update(window.metrics(len(traced.latencies)))
        metrics.update(span_metrics(recorder))
        metrics.update(storage_bytes(self.database))
        metrics.update(overhead(traced.latencies, plain.latencies))
        return metrics


# -- write.durable ----------------------------------------------------------------


def directory_bytes(directory: Path) -> int:
    return sum(entry.stat().st_size for entry in directory.iterdir()
               if entry.is_file())


DURABLE_OPEN = {"fsync": True, "checkpoint_every": CHECKPOINT_EVERY,
                "keep_generations": KEEP_GENERATIONS}


class WriteDurable(Workload):
    """The writer is a child process: it opens the directory, applies
    ``U`` operations, prints one line per acknowledged operation and
    then waits to be killed.  This process is the supervisor: it reads
    the acknowledgements, sends ``SIGKILL`` after the last one, reopens
    the directory and checks it."""

    name = "write.durable"
    scale = 400

    def __init__(self, context: Context):
        super().__init__(context)
        self.directory = context.tmp / "durable"
        self.child = None
        self.operations = context.scaled(FULL_UPDATES, CHECKPOINT_EVERY)
        self.calibration = 0           # unshimmed ops among the traced ones
        self.child_trace = None

    def setup(self) -> None:
        database = build_directory(self.directory, self.scale,
                                   **DURABLE_OPEN)
        apply_update(database, UpdateStream(self.context.seed).sentinel())
        database.close()
        command = [sys.executable, str(SPINE_DIR / "run.py"), "_writer",
                   "--directory", str(self.directory),
                   "--seed", str(self.context.seed),
                   "--operations", str(self.operations),
                   "--calibration", str(self.calibration)]
        if self.child_trace is not None:
            command += ["--trace-file", str(self.child_trace)]
        self.child = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True)
        if self.child.stdout.readline().strip() != "ready":
            raise RuntimeError("write.durable: the writer did not start")

    def teardown(self) -> None:
        if self.child is not None:
            self.child.kill()
            self.child.wait()
            self.child.stdin.close()
            self.child.stdout.close()
            self.child = None
        shutil.rmtree(self.directory, ignore_errors=True)

    def gate(self) -> None:
        """``Q20`` is gated on the reopened directory, after the kill
        (see ``verify``)."""

    def run_child(self) -> tuple[list[float], float]:
        """Start the writer's loop, collect one latency per
        acknowledged operation, kill it after the last one."""
        child = self.child
        started = _clock()
        child.stdin.write("go\n")
        child.stdin.flush()
        latencies = []
        total = self.calibration + self.operations
        while len(latencies) < total:
            line = child.stdout.readline()
            if not line:
                break              # the writer died: the rest is missing
            if line.startswith("ack "):
                latencies.append(float(line.split()[1]))
        elapsed = _clock() - started
        if self.child_trace is not None and len(latencies) == total:
            child.stdout.readline()          # "traced": span file is written
        child.send_signal(signal.SIGKILL)
        child.wait()
        self.tally(total, total - len(latencies))
        return latencies, elapsed

    def verify(self, acknowledged: int) -> Database:
        """Reopen after the kill: the acknowledged state must be there
        and ``Q20`` must still agree with the reference.  (A process
        kill keeps the OS page cache, so this is the sandbox's
        durability, not a device's.)"""
        updates = UpdateStream(self.context.seed)
        updates.sentinel()
        for _ in range(acknowledged):
            updates.next_op()
        database = Database.open(self.directory, read_only=True)
        self.gate_on(database, lambda q: database.query(q).values())
        self.tally(1, not check_spine_items(database, updates))
        return database

    def measure(self) -> Measured:
        latencies, elapsed = self.run_child()
        self.verify(len(latencies)).close()
        return Measured(latencies, len(latencies), elapsed,
                        self.operations, self.operations - len(latencies))

    def describe(self) -> dict:
        return {"scale": self.scale, "loop": "closed", "callers": 1,
                "operations": self.operations, "fsync": "per record",
                "checkpoint_every": CHECKPOINT_EVERY,
                "keep_generations": KEEP_GENERATIONS}

    def prepare_trace(self) -> None:
        """One unshimmed checkpoint cycle for calibration, and half
        the measured cycles under shims."""
        self.calibration = CHECKPOINT_EVERY
        cycles = self.operations // CHECKPOINT_EVERY
        self.operations = CHECKPOINT_EVERY * max(1, (cycles + 1) // 2)
        self.child_trace = self.context.tmp / "writer_trace.json"

    def trace(self, recorder: SpanRecorder) -> dict:
        latencies, _ = self.run_child()
        first = first_traced_block(self.operations)
        plain = latencies[first:first + self.calibration]
        traced = latencies[:first] + latencies[first + self.calibration:]
        with open(self.child_trace, encoding="utf-8") as handle:
            child = json.load(handle)
        recorder.spans.extend(child["spans"])
        recorder.counts.update(child["counts"])
        database = self.verify(len(latencies))
        try:
            live_xml = len(serialize(database.document().tree))
        finally:
            database.close()
        counts = recorder.counts
        checkpoints = recorder.durations("durability.checkpoint")
        written = counts["durability.bytes_written"]
        wal_bytes = counts["durability.wal_bytes"]
        metrics = span_metrics(recorder)
        metrics.update({
            "durability.wal_append_ms":
                stats.median_ms(recorder.durations("durability.log")),
            "durability.fsyncs":
                len(recorder.durations("durability.fsync")),
            "durability.wal_bytes": wal_bytes,
            "durability.checkpoints": len(checkpoints),
            "durability.checkpoint_ms": stats.median_ms(checkpoints),
            "durability.checkpoint_bytes": stats.ratio(
                written - wal_bytes, len(checkpoints)),
            "durability.write_amp": stats.ratio(
                written, counts["durability.inserted_bytes"]),
            "durability.space_amp": stats.ratio(
                directory_bytes(self.directory), live_xml),
            "engine.version_publishes": counts["engine.version_publishes"],
        })
        metrics.update(overhead(traced, plain))
        return metrics


def first_traced_block(operations: int) -> int:
    """Traced operations that run before the calibration block (whole
    checkpoint cycles, so every block holds its own checkpoints)."""
    return operations // 2 // CHECKPOINT_EVERY * CHECKPOINT_EVERY


def writer_main(directory: str, seed: int, operations: int,
                calibration: int, trace_file) -> None:
    """Body of the ``write.durable`` child process.

    Traced, the unshimmed calibration operations run *between* two
    halves of the shimmed ones, so the slow drift of update latency
    over a run (cyclic garbage piling up) weighs on both alike."""
    recorder = SpanRecorder() if trace_file else None
    kwargs = dict(DURABLE_OPEN)
    if recorder is not None:
        kwargs["wal_opener"] = kwargs["snapshot_opener"] = \
            counting_opener(recorder)
    database = Database.open(directory, **kwargs)
    updates = UpdateStream(seed)
    updates.sentinel()                  # applied by the supervisor
    print("ready", flush=True)
    sys.stdin.readline()

    def run(count: int, apply) -> None:
        for _ in range(count):
            op = updates.next_op()
            begin = _clock()
            apply(op)
            print("ack", repr(_clock() - begin), flush=True)

    def plain(count: int) -> None:
        run(count, lambda op: apply_update(database, op))

    def totals() -> dict:
        return {
            "durability.bytes_written":
                recorder.counts["durability.bytes_written"],
            "durability.inserted_bytes": updates.inserted_bytes,
            "durability.wal_bytes":
                database.durability_report()["bytes_logged"],
            "engine.version_publishes": database.version_publishes,
        }

    def traced(count: int) -> None:
        before = totals()
        install_engine_shims(recorder)
        try:
            run(count, traced_call(
                recorder, "loop.update",
                lambda op: apply_update(database, op)))
        finally:
            recorder.unwrap_all()
        for name, value in totals().items():
            window[name] += value - before[name]

    if recorder is None:
        plain(calibration + operations)
    else:
        window = dict.fromkeys(totals(), 0)
        first = first_traced_block(operations)
        traced(first)
        plain(calibration)
        traced(operations - first)
        recorder.counts.update(window)
        recorder.write(trace_file)
        print("traced", flush=True)
    sys.stdin.read()                    # acknowledged; wait for SIGKILL


# -- recover.replay ---------------------------------------------------------------


class RecoverReplay(Workload):
    name = "recover.replay"
    scale = 400

    def __init__(self, context: Context):
        super().__init__(context)
        self.directory = context.tmp / "recover"
        self.tail = context.scaled(FULL_TAIL)
        self.updates = None

    def setup(self) -> None:
        database = build_directory(self.directory, self.scale,
                                   fsync=True, checkpoint_every=0)
        self.updates = UpdateStream(self.context.seed)
        apply_update(database, self.updates.sentinel())
        for _ in range(self.tail - 1):
            apply_update(database, self.updates.next_op())
        database.close()

    def teardown(self) -> None:
        shutil.rmtree(self.context.tmp / "recover", ignore_errors=True)
        shutil.rmtree(self.context.tmp / "recover-zero",
                      ignore_errors=True)

    def timed_open(self, directory: Path) -> tuple[float, Database]:
        gc.collect()
        begin = _clock()
        database = Database.open(directory, read_only=True)
        return _clock() - begin, database

    def gate(self) -> None:
        """The discarded first open doubles as the gate."""
        _, database = self.timed_open(self.directory)
        try:
            self.gate_on(database, lambda q: database.query(q).values())
        finally:
            database.close()

    def opens(self, directory: Path, count: int, records: int,
              recorder: SpanRecorder = None) -> Measured:
        latencies = []
        failed = 0
        started = _clock()
        for _ in range(count):
            if recorder is None:
                seconds, database = self.timed_open(directory)
            else:
                with recorder.op("loop.open"):
                    seconds, database = self.timed_open(directory)
            replayed = database.durability.last_recovery[
                "wal_records_replayed"]
            if replayed == records \
                    and check_spine_items(database, self.updates):
                latencies.append(seconds)
            else:
                failed += 1
            database.close()
            del database
        return self.counted(Measured(latencies, count, _clock() - started,
                                     count, failed))

    def measure(self) -> Measured:
        return self.opens(self.directory, RECOVER_OPENS, self.tail)

    def describe(self) -> dict:
        return {"scale": self.scale, "tail_records": self.tail,
                "opens": RECOVER_OPENS, "discarded_opens": 1}

    def trace(self, recorder: SpanRecorder) -> dict:
        zero = self.context.tmp / "recover-zero"
        shutil.copytree(self.directory, zero)
        database = Database.open(zero, fsync=True, checkpoint_every=0)
        database.checkpoint()
        database.close()
        self.timed_open(zero)[1].close()           # discarded
        cold = self.opens(zero, 2, 0)
        plain = self.opens(self.directory, 2, self.tail)
        install_engine_shims(recorder)
        try:
            traced = self.opens(self.directory, 2, self.tail, recorder)
        finally:
            recorder.unwrap_all()
        cold_s = stats.median(cold.latencies)
        recover_s = stats.median(plain.latencies)

        publisher = ReplicationPublisher(directory=self.directory)
        replica = Replica(LocalSource(publisher), replica_id="spine")
        replica.bootstrap()
        with recorder.span("replication.apply") as span:
            applied = 0
            while applied < self.tail:
                batch = replica.poll_once()
                if not batch:
                    break
                applied += batch
        publisher.handle({"verb": "repl", "action": "detach",
                          "replica_id": "spine"})
        self.tally(1, not check_spine_items(replica.database, self.updates))
        metrics = span_metrics(recorder)
        metrics.update(overhead(traced.latencies, plain.latencies))
        metrics.update({
            "durability.cold_open_s": cold_s,
            "durability.replay_ms_per_record":
                (recover_s - cold_s) / self.tail * 1e3,
            "replication.apply_records_per_s":
                stats.ratio(applied, span[3] - span[2]),
        })
        return metrics


WORKLOADS = {cls.name: cls for cls in (ReadInproc, ReadServed, MixedInproc,
                                       WriteDurable, RecoverReplay)}
