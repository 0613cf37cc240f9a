"""Database-level observability integration tests.

* query metrics (latency histogram, per-strategy/source counters);
* the error path: executor exceptions settle the per-thread I/O ledger
  and count in ``repro_query_errors_total`` by exception class;
* span nesting across ``query_many`` worker threads;
* the writer-mutex wait histogram;
* slow-query log through the facade;
* WAL/checkpoint pull metrics on a durable database;
* ``observability_report()`` and the Prometheus endpoint text.
"""

import pytest

from repro.engine.database import Database
from repro.errors import ExecutionError

from tests.observability.test_metrics import assert_valid_exposition

BIB = """
<bib>
  <book year="1994"><title>TCP/IP</title>
    <author><last>Stevens</last></author><price>65.95</price></book>
  <book year="2000"><title>Data on the Web</title>
    <author><last>Abiteboul</last></author>
    <author><last>Buneman</last></author><price>39.95</price></book>
  <book year="1999"><title>Economics</title><price>129.95</price></book>
</bib>
"""


def make_db(**kwargs) -> Database:
    database = Database(**kwargs)
    database.load(BIB, uri="bib.xml")
    return database


class TestQueryMetrics:
    def test_latency_histogram_and_counters(self):
        db = make_db()
        db.query("/bib/book/title", strategy="nok")
        db.query("/bib/book/title", strategy="nok")  # result-cache hit
        registry = db.observability.registry
        latency = registry.get("repro_query_latency_seconds")
        assert latency.count() >= 2
        assert registry.value("repro_queries_total", strategy="nok",
                              source="execute") == 1
        assert registry.value("repro_queries_total", strategy="nok",
                              source="result-cache") == 1

    def test_cache_and_page_pull_metrics(self):
        db = make_db()
        db.query("//book[price > 50]/title")
        registry = db.observability.registry
        assert registry.value("repro_documents_loaded") == 1
        assert registry.value("repro_pages_read_total") >= 0
        assert registry.value("repro_logical_touches_total") > 0
        assert registry.value("repro_cache_misses_total",
                              cache="result") >= 1
        db.query("//book[price > 50]/title")
        assert registry.value("repro_cache_hits_total",
                              cache="result") >= 1

    def test_prometheus_endpoint_is_valid_exposition(self):
        db = make_db()
        db.query("//last")
        try:
            db.query("$undefined")
        except ExecutionError:
            pass
        text = db.metrics_text()
        assert_valid_exposition(text)
        assert "repro_query_latency_seconds_bucket" in text
        assert "repro_pages_read_total" in text
        assert 'repro_query_errors_total{exception="ExecutionError"} 1' \
            in text


class TestErrorPath:
    def test_executor_error_counts_and_settles_io(self):
        db = make_db()
        with pytest.raises(ExecutionError):
            db.query("$undefined")
        registry = db.observability.registry
        assert registry.value("repro_query_errors_total",
                              exception="ExecutionError") == 1
        report = db.observability_report()
        assert report["errors"]["recorded_total"] == 1
        [entry] = report["errors"]["recent"]
        assert entry["exception"] == "ExecutionError"
        assert entry["text"] == "$undefined"
        assert "io" in entry
        # The thread's I/O ledger was settled by the finally diff: a
        # subsequent query reports only its own I/O (smoke check — the
        # strong invariant is the concurrency suite's ledger test).
        result = db.query("//last")
        assert result.io["logical_touches"] >= 0

    def test_error_log_is_bounded(self):
        db = make_db(slow_log_capacity=4)
        db.observability.error_log.capacity  # exists
        for _ in range(3):
            with pytest.raises(ExecutionError):
                db.query("$undefined")
        assert db.observability.registry.value(
            "repro_query_errors_total",
            exception="ExecutionError") == 3


class TestTracingThroughEngine:
    def test_query_trace_structure(self):
        db = make_db(trace_sample=1.0)
        db.clear_caches()
        db.query("//book[price > 50]/title")
        traces = db.observability.tracer.finished_traces()
        query_roots = [t for t in traces if t.name == "query"]
        assert query_roots
        root = query_roots[-1]
        execute = root.find("execute")
        assert execute is not None
        tau = execute.find("execute.tau")
        assert tau is not None
        assert tau.attributes["rows"] == 2  # 65.95 and 129.95
        assert tau.find("plan") is None  # plan precedes the tau span
        assert root.find("construct") is not None

    def test_compile_spans(self):
        db = make_db(trace_sample=1.0)
        db.clear_caches()
        db.query("//distinct-query-for-compile-span/x")
        traces = db.observability.tracer.finished_traces()
        compile_roots = [t for t in traces if t.name == "compile"]
        assert compile_roots
        names = {c.name for c in compile_roots[-1].children}
        assert {"parse", "translate", "rewrite"} <= names

    def test_span_nesting_across_query_many_threads(self):
        db = make_db(trace_sample=1.0)
        queries = ["/bib/book/title", "//last", "//book[author]/price",
                   "/bib/book[@year = '1994']", "//book/price",
                   "//author/last"]
        db.query_many(queries, max_workers=4)
        traces = db.observability.tracer.finished_traces()
        query_roots = [t for t in traces if t.name == "query"]
        assert len(query_roots) >= len(queries)
        # Every trace is a complete, well-nested tree: distinct trace
        # ids, children sharing the root's trace id.
        trace_ids = [t.trace_id for t in query_roots]
        assert len(set(trace_ids)) == len(trace_ids)

        def check(span, trace_id):
            assert span.trace_id == trace_id
            for child in span.children:
                assert child.parent_id == span.span_id
                check(child, trace_id)

        for root in query_roots:
            check(root, root.trace_id)

    def test_sampling_off_produces_no_traces(self):
        db = make_db()  # trace_sample defaults to 0.0
        db.query("//last")
        assert db.observability.tracer.finished_traces() == []


class TestLockObservability:
    def test_wait_histogram_counts_writers_only(self):
        db = make_db()
        lock_wait = db.observability.registry.get(
            "repro_lock_wait_seconds")
        count_before = lock_wait.count()
        # MVCC: queries pin snapshots and never touch the writer mutex;
        # only the writer path (insert) adds to the histogram.
        db.query("//last")
        assert lock_wait.count() == count_before
        db.insert("/bib", "<book><title>New</title></book>")
        assert lock_wait.count() == count_before + 1


class TestSlowQueryLogThroughEngine:
    def test_every_query_is_slow_at_zero_threshold(self):
        db = make_db(slow_query_seconds=0.0)
        db.query("//last")
        report = db.observability_report()
        assert report["slow_queries"]["recorded_total"] >= 1
        entry = report["slow_queries"]["recent"][-1]
        assert entry["text"] == "//last"
        assert entry["strategy"]
        assert "io" in entry and "stats" in entry

    def test_slow_entry_carries_trace_when_sampled(self):
        db = make_db(slow_query_seconds=0.0, trace_sample=1.0)
        db.query("//author/last")
        entries = db.observability.slow_log.entries()
        traced = [e for e in entries if e.get("trace")]
        assert traced
        assert traced[-1]["trace"]["name"] == "query"

    def test_default_threshold_records_nothing_fast(self):
        db = make_db()  # 0.25s default threshold
        db.query("//last")
        assert db.observability_report()["slow_queries"][
            "recorded_total"] == 0


class TestDurabilityMetrics:
    def test_wal_and_checkpoint_pulls(self, tmp_path):
        db = Database.open(tmp_path / "data", checkpoint_every=0)
        try:
            db.load(BIB, uri="bib.xml")
            db.insert("/bib", "<book><title>Extra</title></book>")
            registry = db.observability.registry
            assert registry.value("repro_wal_records_total") >= 2
            assert registry.value("repro_wal_bytes_total") > 0
            assert registry.value("repro_checkpoints_total") >= 1
            assert registry.value("repro_checkpoint_last_seconds") > 0
            assert db.durability.bytes_logged > 0
            assert db.durability.last_checkpoint is not None
            stats = db.durability.wal.stats()
            assert stats["records_appended"] >= 0
        finally:
            db.close()

    def test_wal_spans_when_traced(self, tmp_path):
        db = Database.open(tmp_path / "data", checkpoint_every=0,
                           trace_sample=1.0)
        try:
            db.load(BIB, uri="bib.xml")
            db.insert("/bib", "<book><title>Extra</title></book>")
            traces = db.observability.tracer.finished_traces()
            names = {t.name for t in traces}
            assert "wal.append" in names or any(
                t.find("wal.append") for t in traces)
            assert "checkpoint" in names or any(
                t.find("checkpoint") for t in traces)
        finally:
            db.close()

    def test_in_memory_database_renders_zero_durability(self):
        db = make_db()
        text = db.metrics_text()
        assert "repro_wal_records_total 0" in text


class TestObservabilityReport:
    def test_report_shape(self):
        db = make_db(trace_sample=1.0, slow_query_seconds=0.0)
        db.query("//last")
        report = db.observability_report()
        assert set(report) == {"tracing", "slow_queries", "errors",
                               "metrics"}
        assert report["tracing"]["sample_rate"] == 1.0
        assert report["tracing"]["traces_finished"] >= 1
        assert "repro_query_latency_seconds" in report["metrics"]

    def test_cache_report_exposes_hit_rate(self):
        db = make_db()
        db.query("//last")
        db.query("//last")
        report = db.cache_report()
        assert 0.0 <= report["result_cache"]["hit_rate"] <= 1.0
        assert report["plan_cache"]["hit_rate"] >= 0.0

    def test_pages_report(self):
        db = make_db()
        db.query("//last")
        report = db.pages.report()
        assert report["logical_touches"] > 0
        assert report["pool_capacity"] > 0
        assert report["pool_pages"] <= report["pool_capacity"]
