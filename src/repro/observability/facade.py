"""The per-database observability facade.

One :class:`Observability` object bundles the three primitives —
:class:`~repro.observability.tracing.Tracer`,
:class:`~repro.observability.metrics.MetricsRegistry`,
:class:`~repro.observability.slowlog.SlowQueryLog` (plus the error
journal) — creates the engine's core instruments, and *binds* the
existing per-layer counters (plan/result caches, page manager, writer
lock, WAL/checkpoint accounting) into the registry as pull metrics, so
the whole engine exports one coherent ``repro_*`` namespace without
any layer paying per-operation mirroring costs.

The module imports nothing from the engine/storage layers: binding is
duck-typed against the ``Database`` attributes, which keeps the
dependency direction strictly ``engine -> observability``.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import QueryTimeoutError
from repro.observability.metrics import MetricsRegistry
from repro.observability.slowlog import QueryErrorLog, SlowQueryLog
from repro.observability.tracing import Tracer

__all__ = ["Observability"]

# Wait-time buckets for lock acquisition (seconds): contention shows up
# in the sub-millisecond to tens-of-milliseconds range here.
LOCK_WAIT_BUCKETS = (0.00001, 0.0001, 0.0005, 0.001, 0.005, 0.01,
                     0.05, 0.1, 0.5, 1.0)


class Observability:
    """Tracing + metrics + slow-query log for one database."""

    def __init__(self, trace_sample: float = 0.0,
                 trace_capacity: int = 512,
                 slow_query_seconds: float = 0.25,
                 slow_log_capacity: int = 128,
                 error_log_capacity: int = 64):
        self.tracer = Tracer(sample_rate=trace_sample,
                             capacity=trace_capacity)
        self.registry = MetricsRegistry()
        self.slow_log = SlowQueryLog(threshold_seconds=slow_query_seconds,
                                     capacity=slow_log_capacity)
        self.error_log = QueryErrorLog(capacity=error_log_capacity)

        registry = self.registry
        self.query_latency = registry.histogram(
            "repro_query_latency_seconds",
            "Wall time of Database.query executions (cache hits "
            "included).")
        self.queries_total = registry.counter(
            "repro_queries_total",
            "Queries served, by physical strategy and result source.",
            labelnames=("strategy", "source"))
        self.query_errors_total = registry.counter(
            "repro_query_errors_total",
            "Queries that raised, by exception class.",
            labelnames=("exception",))
        self.query_timeouts_total = registry.counter(
            "repro_query_timeouts_total",
            "Queries aborted at their wall-clock deadline (cooperative "
            "tau-batch checks; see Database.query timeout_seconds).")
        self.lock_wait = registry.histogram(
            "repro_lock_wait_seconds",
            "Writer-mutex acquisition wait time.",
            buckets=LOCK_WAIT_BUCKETS)
        self.explain_analyze_total = registry.counter(
            "repro_explain_analyze_total",
            "EXPLAIN ANALYZE executions.")

    # -- hot-path hooks (called by the engine) -----------------------------------

    def observe_query(self, elapsed_seconds: float, strategy: str,
                      source: str, text: str, io: dict, stats: dict,
                      span=None) -> None:
        """Record one finished query: latency histogram, throughput
        counter, and (over threshold) a slow-query log entry carrying
        the ``trace_id`` and span tree when tracing sampled this query
        (the id joins slowlog lines to their cross-process traces —
        see ``/debug/slowlog`` on the server frontend)."""
        self.query_latency.observe(elapsed_seconds)
        self.queries_total.inc(1, strategy=str(strategy), source=source)
        if elapsed_seconds >= self.slow_log.threshold_seconds:
            trace = None
            trace_id = None
            if span is not None and getattr(span, "is_recording", False):
                trace = span.to_dict()
                trace_id = str(span.trace_id)
            self.slow_log.maybe_record(
                elapsed_seconds, text=text, strategy=strategy,
                source=source, io=dict(io), stats=dict(stats),
                trace=trace, trace_id=trace_id)

    def record_query_error(self, exception: BaseException, text: str,
                           elapsed_seconds: float, io: dict,
                           span=None) -> None:
        """Count + journal one failed execution (the I/O it consumed is
        preserved here so it never leaks out of every ledger; the
        ``trace_id`` — when tracing sampled the query — joins error
        lines to their traces)."""
        self.query_errors_total.inc(
            1, exception=type(exception).__name__)
        if isinstance(exception, QueryTimeoutError):
            self.query_timeouts_total.inc(1)
        trace_id = None
        if span is not None and getattr(span, "is_recording", False):
            trace_id = str(span.trace_id)
        self.error_log.record(exception, text=text,
                              elapsed_seconds=elapsed_seconds,
                              io=dict(io), trace_id=trace_id)

    def on_lock_wait(self, waited_seconds: float) -> None:
        """One writer-mutex acquisition (see
        ``Database.write_locked``)."""
        self.lock_wait.observe(waited_seconds)

    # -- binding existing layer counters -----------------------------------------

    def bind_database(self, database) -> None:
        """Register pull metrics over the database's live counters.

        Everything here is evaluated at *collection* time only — the
        query hot path never touches these.
        """
        registry = self.registry

        def cache_stat(stat: str):
            def pull() -> dict:
                return {
                    "plan": database.plan_cache.report().get(stat, 0),
                    "result": database.result_cache.report().get(stat, 0),
                }
            return pull

        for stat, kind in (("hits", "counter"), ("misses", "counter"),
                           ("evictions", "counter"),
                           ("invalidations", "counter"),
                           ("entries", "gauge")):
            registry.register_pull(
                f"repro_cache_{stat}" + ("_total" if kind == "counter"
                                         else ""),
                kind, f"Serving-layer cache {stat}, by cache.",
                cache_stat(stat), labelnames=("cache",))

        pages = database.pages
        for metric_name, field_name, help_text in (
                ("repro_pages_read_total", "page_reads",
                 "Buffer-pool misses (device reads)."),
                ("repro_pages_written_total", "page_writes",
                 "Dirty pages written back."),
                ("repro_pool_hits_total", "pool_hits",
                 "Touches satisfied from the pool."),
                ("repro_logical_touches_total", "logical_touches",
                 "Byte-range touches requested.")):
            registry.register_pull(
                metric_name, "counter", help_text,
                (lambda f=field_name:
                 getattr(pages.counters, f)))
        registry.register_pull(
            "repro_buffer_pool_pages", "gauge",
            "Pages resident in the buffer pool.",
            lambda: len(pages.pool))
        registry.register_pull(
            "repro_buffer_pool_capacity", "gauge",
            "Buffer pool capacity in pages.",
            lambda: pages.pool.capacity)

        # MVCC: how often writers publish new snapshots, how many
        # queries hold a pinned one right now, and which version each
        # document is at.
        registry.register_pull(
            "repro_version_publishes_total", "counter",
            "Snapshot publishes (load/insert/delete/rebuild/restore).",
            lambda: database.version_publishes)
        registry.register_pull(
            "repro_version_pins", "gauge",
            "Queries currently executing against a pinned snapshot.",
            lambda: database.active_pins)
        registry.register_pull(
            "repro_document_version", "gauge",
            "Current version id per loaded document.",
            lambda: {uri: doc.version_id
                     for uri, doc in database.documents.items()},
            labelnames=("uri",))

        registry.register_pull(
            "repro_documents_loaded", "gauge",
            "Documents currently loaded.",
            lambda: len(database.documents))
        registry.register_pull(
            "repro_document_nodes", "gauge",
            "Storage nodes per loaded document.",
            lambda: {uri: len(doc.interval)
                     for uri, doc in database.documents.items()},
            labelnames=("uri",))

        # Columnar (vectorized) execution: view rebuild counts and the
        # resident bytes of the materialised label columns per document
        # make columnar wins (and their memory price) attributable.
        registry.register_pull(
            "repro_columnar_view_builds_total", "counter",
            "Columnar label-column view (re)builds, by document.",
            lambda: {uri: doc.runtime.column_builds
                     for uri, doc in database.documents.items()
                     if doc.runtime is not None},
            labelnames=("uri",))
        registry.register_pull(
            "repro_columnar_view_bytes", "gauge",
            "Resident bytes of the cached label columns, by document.",
            lambda: {uri: (0 if doc.runtime is None
                           or doc.runtime._columns is None
                           else doc.runtime._columns.size_bytes())
                     for uri, doc in database.documents.items()},
            labelnames=("uri",))

        registry.register_pull(
            "repro_slow_queries_total", "counter",
            "Queries recorded in the slow-query log.",
            lambda: self.slow_log.recorded_total)
        registry.register_pull(
            "repro_traces_finished_total", "counter",
            "Traces recorded into the ring buffer.",
            lambda: self.tracer.traces_finished)
        registry.register_pull(
            "repro_spans_started_total", "counter",
            "Spans started (sampled traces only).",
            lambda: self.tracer.spans_started)
        registry.register_pull(
            "repro_trace_buffer_spans", "gauge",
            "Root spans currently buffered.",
            lambda: len(self.tracer.finished_traces()))

        # Durability counters: guarded, because ``database.durability``
        # is None for in-memory databases and only set by
        # ``Database.open`` after construction.
        def durability_stat(fn, default=0):
            def pull():
                manager = database.durability
                return default if manager is None else fn(manager)
            return pull

        registry.register_pull(
            "repro_wal_records_total", "counter",
            "Logical WAL records appended.",
            durability_stat(lambda m: m.records_logged))
        registry.register_pull(
            "repro_wal_bytes_total", "counter",
            "WAL bytes appended (across rotations).",
            durability_stat(lambda m: getattr(m, "bytes_logged", 0)))
        registry.register_pull(
            "repro_wal_size_bytes", "gauge",
            "Current WAL file size.",
            durability_stat(
                lambda m: 0 if m.wal is None else m.wal.size_bytes))
        registry.register_pull(
            "repro_checkpoints_total", "counter",
            "Checkpoints written.",
            durability_stat(lambda m: m.checkpoints_written))
        registry.register_pull(
            "repro_checkpoint_last_seconds", "gauge",
            "Wall time of the most recent checkpoint.",
            durability_stat(
                lambda m: (m.last_checkpoint or {}).get(
                    "elapsed_seconds", 0.0)
                if hasattr(m, "last_checkpoint") else 0.0))

    # -- reporting ---------------------------------------------------------------

    def report(self) -> dict:
        """The aggregate panel behind ``Database.observability_report``."""
        return {
            "tracing": self.tracer.report(),
            "slow_queries": {
                **self.slow_log.report(),
                "recent": self.slow_log.entries(limit=16),
            },
            "errors": {
                "recorded_total": self.error_log.recorded_total,
                "recent": self.error_log.entries(limit=16),
            },
            "metrics": self.registry.snapshot(),
        }

    def render_prometheus(self) -> str:
        return self.registry.render_prometheus()
