"""The Database facade — the library's main entry point.

Typical use::

    from repro import Database

    db = Database()
    db.load(xml_text, uri="bib.xml")
    result = db.query("/bib/book[price > 50]/title")
    for node in result.items:
        print(node.string_value())
    print(result.strategy, result.stats, result.io)

    hot = db.prepare("//book/title")       # compiled once
    hot.run(); hot.run()                   # served from the caches
    print(db.cache_report())

A loaded document materialises the full storage stack: the model tree
(reference semantics, residual checks), the succinct store (NoK), the
interval store + tag index (join strategies), the content value indexes
(index-scan), one-pass statistics (cost model), all charging I/O to the
database's page manager.

Serving layer
-------------

Repeated queries hit two LRU caches (:mod:`repro.engine.cache`): a
**plan cache** (compiled logical plans keyed by normalized text) and a
generation-stamped **result cache** for read-only executions.  Structural
updates bump the owning document's ``generation``, which invalidates
result-cache entries lazily and expires memoized strategy choices.

Updates are **incremental**: ``insert``/``delete`` splice the primary
stores locally and apply *deltas* to every derived structure (tag index
postings, statistics counters, value indexes, node list, pre-order map)
instead of rebuilding them from scratch.  ``rebuild_derived(force=True)``
remains as an escape hatch, and ``debug_checks=True`` (or the
``REPRO_DEBUG_UPDATES`` environment variable) cross-checks the
incremental state against a fresh rebuild after every update.

Durability
----------

``Database.open(directory)`` returns a database whose state survives
process crashes: every ``load``/``insert``/``delete`` is appended to a
write-ahead log and fsynced *before* any in-memory structure changes,
and ``checkpoint()`` (explicit, or automatic every
``checkpoint_every`` logged operations) publishes an atomic snapshot
and rotates the log.  Re-opening the directory restores the newest
valid snapshot — bypassing XML parsing and ``rebuild_derived``
entirely — and replays the WAL suffix, one batch per WAL file (one
clone per document, one publish: :meth:`Database._replay_records`); a
corrupt newest snapshot falls back to the previous generation.  See
:mod:`repro.durability`.

Concurrency — MVCC snapshot reads
---------------------------------

The database is safe to share across threads and queries **never take
a lock**.  All per-document state lives in immutable
:class:`DocumentVersion` objects collected in an immutable
:class:`DatabaseSnapshot`; the database holds exactly one mutable
reference, ``_snapshot``, which readers *pin* with a single attribute
read at query start and then use exclusively — a reader always sees
one consistent version of every document, however long it runs and
however many updates land meanwhile.

Writers (``load``/``insert``/``delete``/``rebuild_derived``) serialize
against *each other* on the write side of ``rwlock``, build a complete
new :class:`DocumentVersion` by cloning the current one and splicing
the copy (copy-on-write — the pinned version is never touched), and
publish with one atomic assignment of a new snapshot object (a pointer
swap under the GIL).  The write-ahead log record is fsynced before the
clone is mutated and the checkpoint hook runs after the publish, so
recovery can never observe a version the WAL does not explain.  The
plan/result caches and the per-version strategy memo are internally
locked; per-query I/O is accounted on per-thread counters; and
:meth:`Database.query_many` fans a batch of read-only queries across a
thread pool.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Iterable, Optional, Union

from repro.errors import ExecutionError, RecoveryError, StorageError
from repro.xml import model
from repro.xml.parser import parse
from repro.xml.serializer import serialize
from repro.xpath.semantics import Context, sequence_boolean
from repro.storage.interval import IntervalDocument
from repro.storage.pages import PageManager
from repro.storage.stats import DocumentStatistics
from repro.storage.succinct import SuccinctDocument
from repro.storage.tagindex import TagIndex
from repro.storage.valueindex import ContentIndex
from repro.algebra.backward import backward_translate
from repro.algebra.cost import CostModel
from repro.algebra.plan import explain_plan
from repro.algebra.rewrite import rewrite_plan
from repro.engine.cache import (
    PlanCache,
    PreparedQuery,
    ResultCache,
)
from repro.durability.manager import DurabilityManager
from repro.durability.snapshot import materialise_tree
from repro.engine.concurrency import RWLock
from repro.engine.executor import PhysicalExecutionContext, run_plan
from repro.engine.mapping import (
    apply_delete_mapping,
    apply_insert_mapping,
    storage_node_list,
    storage_preorder_map,
)
from repro.observability import Observability
from repro.observability.analyze import ExplainAnalysis
from repro.physical.base import MatchRuntime
from repro.physical.planner import (
    COLUMNAR_MODES,
    STRATEGIES,
    PhysicalPlanner,
)
from repro.xquery.parser import parse_xquery

__all__ = ["Database", "DatabaseSnapshot", "DocumentVersion",
           "QueryResult", "LoadedDocument", "PreparedQuery"]


@dataclass
class DocumentVersion:
    """One immutable generation of everything the engine keeps per
    document.

    Under MVCC a version is **frozen once published**: structural
    updates clone it, splice the clone, and publish the clone as a new
    version — readers pinned on this one keep a fully consistent view
    of every field below for as long as they hold the reference.  (The
    ``runtime``'s lazily built columnar view and the strategy memo are
    internal caches with their own locks; they memoize pure functions
    of the frozen state, so sharing them among that version's readers
    is safe.)
    """

    uri: str
    tree: model.Document
    succinct: SuccinctDocument
    interval: IntervalDocument
    tag_index: TagIndex
    statistics: DocumentStatistics
    value_index: ContentIndex
    numeric_index: ContentIndex
    runtime: MatchRuntime
    node_list: list            # storage pre-order id -> model node
    preorder_map: dict         # model node_id -> storage pre-order id
    # Monotonically increasing update stamp; any structural change bumps
    # it in the successor version.  Kept distinct from ``version_id``
    # because the WAL records it (replay verification) and it restarts
    # from the snapshot on recovery.
    generation: int = 0
    # Database-wide unique id of this version object, assigned at
    # publish time; result-cache stamps are built from these, so a
    # cache entry can never be served across a version swap.
    version_id: int = 0
    # (pattern signature, statistics generation, columnar mode)
    # -> chosen strategy.
    strategy_memo: dict = field(default_factory=dict)
    # Guards strategy_memo: concurrent readers memoize choices for the
    # same hot pattern (see PhysicalPlanner).
    memo_lock: threading.Lock = field(default_factory=threading.Lock,
                                      repr=False, compare=False)

    def node_for(self, preorder: int) -> model.Node:
        """The model node behind a storage pre-order id."""
        return self.node_list[preorder]


#: Backwards-compatible alias — a "loaded document" is one pinned
#: version of it now.
LoadedDocument = DocumentVersion


class DatabaseSnapshot:
    """An immutable view of the whole database at one instant.

    ``Database._snapshot`` always points at one of these; readers pin
    it with a single attribute read (atomic under the GIL) and resolve
    every document through it.  ``stamp`` is the precomputed
    result-cache stamp: the load epoch plus each document's
    ``version_id`` — any publish produces a snapshot with a different
    stamp, so stale cache entries can never be served.
    """

    __slots__ = ("documents", "default_uri", "load_epoch", "stamp")

    def __init__(self, documents: dict, default_uri: Optional[str],
                 load_epoch: int):
        self.documents = documents
        self.default_uri = default_uri
        self.load_epoch = load_epoch
        self.stamp = (load_epoch,) + tuple(
            sorted((uri, version.version_id)
                   for uri, version in documents.items()))

    def version_for_tree(self, tree: model.Document
                         ) -> Optional[DocumentVersion]:
        """The version whose model tree is ``tree`` (identity match)."""
        for version in self.documents.values():
            if version.tree is tree:
                return version
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<DatabaseSnapshot docs={len(self.documents)} "
                f"epoch={self.load_epoch}>")


@dataclass
class QueryResult:
    """A query's result sequence plus its execution report."""

    items: list
    strategy: Optional[str] = None
    elapsed_seconds: float = 0.0
    stats: dict = field(default_factory=dict)
    io: dict = field(default_factory=dict)

    def values(self) -> list:
        """String values of nodes / raw atomics — handy in examples."""
        return [item.string_value() if isinstance(item, model.Node)
                else item for item in self.items]

    def serialize(self, indent: Optional[str] = None) -> str:
        """The result sequence as XML text."""
        parts = []
        for item in self.items:
            if isinstance(item, model.Node):
                parts.append(serialize(item, indent=indent))
            else:
                parts.append(str(item))
        return "\n".join(parts)

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self):
        return iter(self.items)


class Database:
    """An in-memory XML database with pluggable execution strategies.

    Cache knobs: ``plan_cache_size`` / ``result_cache_size`` bound the
    two serving-layer caches (0 disables a cache).  ``debug_checks=True``
    cross-checks every incremental update against a fresh rebuild of the
    derived structures (slow; meant for tests — also enabled by setting
    the ``REPRO_DEBUG_UPDATES`` environment variable).

    Thread safety: queries are lock-free — each pins the current
    :class:`DatabaseSnapshot` and runs entirely against it.  Structural
    changes (``load``/``insert``/``delete``/``rebuild_derived``)
    serialize against each other on the write side of ``rwlock``,
    build a new :class:`DocumentVersion` copy-on-write, and publish it
    with one atomic snapshot swap; the caches and the page manager are
    internally locked; per-query I/O is accounted per thread.  See
    :mod:`repro.engine.concurrency` and :meth:`query_many`.
    """

    def __init__(self, page_size: int = 4096, pool_pages: int = 256,
                 plan_cache_size: int = 128,
                 result_cache_size: int = 256,
                 debug_checks: bool = False,
                 trace_sample: float = 0.0,
                 trace_capacity: int = 512,
                 slow_query_seconds: float = 0.25,
                 slow_log_capacity: int = 128,
                 columnar: str = "auto"):
        if columnar not in COLUMNAR_MODES:
            raise ExecutionError(
                f"columnar mode must be one of {COLUMNAR_MODES}, "
                f"got {columnar!r}")
        # Vectorized-execution knob: "auto" lets the cost model compare
        # the columnar path, "on" forces it for eligible patterns,
        # "off" removes it from planning.  See set_columnar().
        self.columnar = columnar
        self.pages = PageManager(page_size=page_size, pool_pages=pool_pages)
        # THE mutable cell of the MVCC design: everything a query needs
        # hangs off this one reference.  Writers replace it wholesale
        # (attribute assignment is atomic under the GIL); readers pin it
        # once per query.
        self._snapshot = DatabaseSnapshot({}, None, 0)
        self._version_counter = 0   # only advanced under the write lock
        self._publishes = 0         # snapshot swaps (metrics)
        # uri -> unpublished successor while a WAL replay batch runs
        # (see _replay_records); None outside one.
        self._replay_pending: Optional[dict] = None
        # Version-pin gauge: how many queries currently hold a pinned
        # snapshot (repro_version_pins).
        self._pin_lock = threading.Lock()
        self._active_pins = 0
        self.plan_cache = PlanCache(plan_cache_size)
        self.result_cache = ResultCache(result_cache_size)
        # Set by Database.open(read_only=True); guards every public
        # structural-update entry point (_check_writable).
        self.read_only = False
        self.debug_checks = (debug_checks
                             or bool(os.environ.get("REPRO_DEBUG_UPDATES")))
        # Set by Database.open(); None = a purely in-memory database.
        self.durability: Optional[DurabilityManager] = None
        # Tracing + metrics + slow-query log.  ``trace_sample`` is the
        # fraction of queries traced (0.0 = off: the hot path sees only
        # a couple of attribute checks); the metrics registry mirrors
        # every layer's counters as collection-time pull metrics.
        self.observability = Observability(
            trace_sample=trace_sample, trace_capacity=trace_capacity,
            slow_query_seconds=slow_query_seconds,
            slow_log_capacity=slow_log_capacity)
        # The writer mutex: load/insert/delete/rebuild take the write
        # side so at most one new version is built and published at a
        # time.  Queries never touch it (they pin snapshots); the read
        # side remains for external callers needing a writer-quiescent
        # window.  The observer feeds the lock-wait histograms
        # (repro_lock_wait_seconds) — under pure query load the "read"
        # series stays empty, which E15 asserts.
        self.rwlock = RWLock(observer=self.observability.on_lock_wait)
        self.observability.bind_database(self)

    # -- MVCC plumbing ------------------------------------------------------------

    @property
    def documents(self) -> dict:
        """The current snapshot's documents (do not mutate — writers
        publish whole new snapshots)."""
        return self._snapshot.documents

    @property
    def _default_uri(self) -> Optional[str]:
        return self._snapshot.default_uri

    @property
    def _load_epoch(self) -> int:
        return self._snapshot.load_epoch

    @property
    def version_publishes(self) -> int:
        """Total snapshot swaps since construction (metrics)."""
        return self._publishes

    @property
    def active_pins(self) -> int:
        """Queries currently executing against a pinned snapshot."""
        with self._pin_lock:
            return self._active_pins

    def _pin(self, snapshot: Optional[DatabaseSnapshot] = None
             ) -> DatabaseSnapshot:
        """Pin the current snapshot (or a caller's private one) for one
        query (gauge bookkeeping; the pin itself is just the attribute
        read)."""
        if snapshot is None:
            snapshot = self._snapshot
        with self._pin_lock:
            self._active_pins += 1
        return snapshot

    def _unpin(self) -> None:
        with self._pin_lock:
            self._active_pins -= 1

    def _next_version_id(self) -> int:
        """A fresh version id (caller holds the write lock)."""
        self._version_counter += 1
        return self._version_counter

    def _publish(self, documents: dict, default_uri: Optional[str],
                 load_epoch: int) -> None:
        """Atomically swap in a new snapshot (caller holds the write
        lock and passes a dict nobody else references)."""
        self._snapshot = DatabaseSnapshot(documents, default_uri,
                                          load_epoch)
        self._publishes += 1

    def _with_versions(self, versions: Iterable[DocumentVersion]
                       ) -> DatabaseSnapshot:
        """A successor of the current snapshot holding ``versions``
        (not published)."""
        snapshot = self._snapshot
        documents = dict(snapshot.documents)
        documents.update((version.uri, version) for version in versions)
        return DatabaseSnapshot(documents, snapshot.default_uri,
                                snapshot.load_epoch)

    def _publish_version(self, *versions: DocumentVersion) -> None:
        """Publish new document versions in one successor snapshot."""
        successor = self._with_versions(versions)
        self._publish(successor.documents, successor.default_uri,
                      successor.load_epoch)

    # -- durability ---------------------------------------------------------------

    @classmethod
    def open(cls, directory, *, checkpoint_every: int = 256,
             fsync: bool = True, keep_generations: int = 2,
             wal_opener=None, snapshot_opener=None,
             read_only: bool = False, **kwargs) -> "Database":
        """Open (or create) a *durable* database backed by ``directory``.

        Recovery runs before this returns: the newest valid snapshot is
        restored verbatim — no XML parsing, no ``rebuild_derived`` — and
        the write-ahead log suffix is replayed on top (truncating a torn
        tail record left by a crash mid-append).  A corrupt newest
        snapshot falls back to the previous retained generation.

        ``checkpoint_every`` logged operations trigger an automatic
        snapshot + WAL rotation (0 disables; ``db.checkpoint()`` always
        works).  ``wal_opener`` / ``snapshot_opener`` are injectable
        file factories for the crash-injection test harness.  Remaining
        ``kwargs`` go to the :class:`Database` constructor.

        ``read_only=True`` opens the directory without mutating it at
        all: recovery replays the WAL suffix in memory but never
        truncates torn tails, no WAL is opened for appending, and every
        structural update (``load``/``insert``/``delete``/
        ``rebuild_derived``/``checkpoint``) raises.  This is how the
        query server's worker processes share one data directory with a
        writing primary — each worker serves its pinned snapshot
        generation and re-opens on reload (see
        :mod:`repro.server.worker`).
        """
        database = cls(**kwargs)
        database.read_only = read_only
        manager = DurabilityManager(
            directory, checkpoint_every=checkpoint_every, fsync=fsync,
            keep_generations=keep_generations, wal_opener=wal_opener,
            snapshot_opener=snapshot_opener, read_only=read_only)
        database.durability = manager
        manager.tracer = database.observability.tracer
        with database.rwlock.write_locked():
            manager.attach(database)
        return database

    def _check_writable(self, operation: str) -> None:
        if self.read_only:
            raise ExecutionError(
                f"{operation} is not allowed: this database was opened "
                f"read-only (a server worker sharing the data "
                f"directory)")

    def close(self) -> None:
        """Close the durable backing (flushes nothing — every logged
        operation is already fsynced).  No-op for in-memory databases."""
        if self.durability is None:
            return
        with self.rwlock.write_locked():
            self.durability.close()

    def checkpoint(self) -> dict:
        """Write a snapshot generation and rotate the WAL (exclusive)."""
        self._check_writable("checkpoint")
        if self.durability is None:
            raise ExecutionError(
                "checkpoint() requires a durable database — use "
                "Database.open(directory)")
        with self.rwlock.write_locked():
            return self.durability.checkpoint(self)

    def durability_report(self) -> Optional[dict]:
        """Generation, WAL and checkpoint accounting (None if
        in-memory)."""
        if self.durability is None:
            return None
        with self.rwlock.read_locked():
            return self.durability.report()

    def _log_update(self, record: dict) -> None:
        """Append + fsync one logical WAL record *before* the caller
        mutates any in-memory state (no-op for in-memory databases and
        during recovery replay)."""
        if self.durability is not None:
            self.durability.log(record)

    def _restore_from_snapshot(self, state: dict) -> None:
        """Install a decoded snapshot (see
        :func:`repro.durability.snapshot.read_snapshot`) verbatim.

        Every derived structure — tag index, statistics, value indexes —
        is restored through its ``from_snapshot``/``restore``
        constructor; only the model tree is rebuilt, by a pre-order walk
        of the succinct store (no XML tokenizer).  Called by recovery
        under the write lock; the restored state is published as one
        fresh snapshot (queries racing recovery see either nothing or
        everything).
        """
        documents: dict[str, DocumentVersion] = {}
        for parts in state["documents"]:
            header = parts["header"]
            uri = header["uri"]
            succinct = SuccinctDocument.from_snapshot(parts["succinct"])
            interval = IntervalDocument.from_snapshot(parts["interval"],
                                                      succinct)
            tag_index = TagIndex.restore(interval, parts["tagindex"],
                                         pages=self.pages)
            statistics = DocumentStatistics.from_snapshot(
                parts["statistics"])
            value_index = ContentIndex.restore(
                succinct.content, parts["valueindex"],
                segment=self.pages.segment(f"value-btree:{uri}"))
            numeric_index = ContentIndex.restore(
                succinct.content, parts["numericindex"],
                segment=self.pages.segment(f"numeric-btree:{uri}"))
            tree, node_list = materialise_tree(interval, uri)
            document = DocumentVersion(
                uri=uri, tree=tree, succinct=succinct, interval=interval,
                tag_index=tag_index, statistics=statistics,
                value_index=value_index, numeric_index=numeric_index,
                runtime=None,  # type: ignore[arg-type]
                node_list=node_list,
                preorder_map={node.node_id: pre for pre, node
                              in enumerate(node_list)},
                generation=header["generation"],
                version_id=self._next_version_id())
            document.runtime = MatchRuntime(
                succinct, interval, tag_index, pages=self.pages,
                residual_check=self._residual_checker(document),
                value_index=value_index, numeric_index=numeric_index,
                statistics=statistics)
            documents[uri] = document
        self._publish(documents, state["default_uri"],
                      state["load_epoch"])

    def install_snapshot_state(self, state: dict) -> None:
        """Install a decoded snapshot as the new current state without
        reopening the database (one atomic snapshot publish).

        This is the replication bootstrap/catch-up path: a replica
        fetches the primary's newest checkpoint over the wire, decodes
        it with :func:`repro.durability.snapshot.read_snapshot`, and
        installs it here — live queries pinned on the old snapshot
        finish against it; everything after sees the shipped state.
        Deliberately allowed on read-only databases (replicas *are*
        read-only; the shipped state originates from the primary's own
        WAL-explained checkpoints, not from a local mutation).
        """
        with self.rwlock.write_locked():
            self._restore_from_snapshot(state)

    def version_vector(self) -> dict:
        """The current snapshot's observable version vector:
        per-document update generations plus the load epoch.

        Generations advance deterministically with each applied
        operation, so a replica that replayed the same WAL prefix as
        the primary reports an identical vector — the replication
        harness quiesces on equality here before demanding item-level
        parity (version ids are *not* included: they are local
        counters, not part of the logical state).
        """
        snapshot = self._snapshot
        return {
            "load_epoch": snapshot.load_epoch,
            "generations": {uri: document.generation
                            for uri, document
                            in sorted(snapshot.documents.items())},
        }

    def _replay_records(self, records: list[dict]) -> int:
        """Replay a batch of logged operations and publish the result
        once; returns the number of records replayed.

        The caller holds the write lock (recovery, replica apply).
        The batch's first ``insert``/``delete`` on a document clones
        its published version; every later record of the batch splices
        that private successor in place, so a batch costs one
        O(document) clone per document instead of one per record.  The
        successors are published together, in one snapshot swap, after
        the last record (or before a ``load`` record).  Any exception —
        including a record whose generation stamp disagrees
        (:class:`RecoveryError`) — drops the unpublished successors, so
        readers never see the records that preceded a failure in them.
        """
        self._replay_pending = {}
        try:
            for record in records:
                self._replay_record(record)
            self._publish_pending()
        finally:
            self._replay_pending = None
        return len(records)

    def _publish_pending(self) -> None:
        """Publish the running replay batch's successors (if any)."""
        pending = self._replay_pending
        if pending:
            self._publish_version(*pending.values())
            pending.clear()

    def _replay_record(self, record: dict) -> None:
        """Re-apply one logged operation (the manager's ``replaying``
        flag suppresses re-logging and checkpoints).

        The single applier of recovery and replica catch-up.  Inside
        :meth:`_replay_records` the update lands in the batch's
        unpublished successor; called on its own it is a batch of one.
        A ``load`` record first publishes the successors pending so
        far, then loads and publishes as a live load does.
        """
        if self._replay_pending is None:
            self._replay_records([record])
            return
        op = record.get("op")
        if op == "load":
            self._publish_pending()
            tree = parse(record["xml"], keep_whitespace=True,
                         uri=record["uri"])
            self._load_tree_locked(tree, record["uri"])
            return
        if op == "insert":
            self._insert_locked(record["parent_path"],
                                record["fragment"],
                                record["position"], record["uri"])
        elif op == "delete":
            self._delete_locked(record["path"], record["uri"])
        else:
            raise RecoveryError(f"unknown WAL record op {op!r}")
        document = self._replay_pending.get(record["uri"])
        if document is None or document.generation != record["generation"]:
            got = None if document is None else document.generation
            raise RecoveryError(
                f"replaying {op!r} on {record['uri']!r} produced "
                f"generation {got}, WAL expected {record['generation']}")

    # -- loading ---------------------------------------------------------------

    def load(self, text: str, uri: str = "doc.xml",
             keep_whitespace: bool = False) -> LoadedDocument:
        """Parse and load XML text under ``uri``."""
        return self.load_tree(parse(text, keep_whitespace=keep_whitespace,
                                    uri=uri), uri=uri)

    def load_file(self, path, uri: Optional[str] = None) -> LoadedDocument:
        """Load an XML file (``uri`` defaults to the path)."""
        with open(path, "r", encoding="utf-8") as handle:
            return self.load(handle.read(), uri=uri or str(path))

    def load_tree(self, tree: model.Document,
                  uri: str = "doc.xml") -> LoadedDocument:
        """Load an already-built model tree (takes the write lock).

        On a durable database the load is logged (the serialized tree
        replays with whitespace preserved) and immediately followed by
        a checkpoint, so the bulk XML text never has to be replayed on
        the common recovery path — reopening restores the snapshot.
        """
        self._check_writable("load")
        with self.rwlock.write_locked():
            self._log_update({"op": "load", "uri": uri,
                              "xml": serialize(tree)})
            document = self._load_tree_locked(tree, uri)
            if (self.durability is not None
                    and not self.durability.replaying):
                self.durability.checkpoint(self)
            return document

    def _load_tree_locked(self, tree: model.Document,
                          uri: str) -> LoadedDocument:
        succinct = SuccinctDocument.from_document(tree)
        interval = IntervalDocument.from_document(tree)
        # Simulated I/O segments are named by the stores' uri.
        succinct.uri = interval.uri = uri
        tag_index = TagIndex(interval, pages=self.pages)
        statistics = DocumentStatistics(interval)
        value_index, numeric_index = self._build_value_indexes(succinct,
                                                               uri)
        node_list = storage_node_list(tree)
        preorder_map = storage_preorder_map(tree)
        document = DocumentVersion(
            uri=uri, tree=tree, succinct=succinct, interval=interval,
            tag_index=tag_index, statistics=statistics,
            value_index=value_index, numeric_index=numeric_index,
            runtime=None,  # type: ignore[arg-type]
            node_list=node_list, preorder_map=preorder_map,
            version_id=self._next_version_id())
        document.runtime = MatchRuntime(
            succinct, interval, tag_index, pages=self.pages,
            residual_check=self._residual_checker(document),
            value_index=value_index, numeric_index=numeric_index,
            statistics=statistics)
        snapshot = self._snapshot
        documents = dict(snapshot.documents)
        documents[uri] = document
        # A (re)load changes what any query can see: new stamp epoch.
        self._publish(documents, snapshot.default_uri or uri,
                      snapshot.load_epoch + 1)
        return document

    def _build_value_indexes(self, succinct: SuccinctDocument,
                             uri: str) -> tuple[ContentIndex, ContentIndex]:
        """The two content value indexes (string + numeric) over one
        succinct store's content heap.  One shared constructor — the
        string/numeric duplication that used to live in both
        ``load_tree`` and the rebuild path is gone."""
        value_index = ContentIndex(
            succinct.content,
            segment=self.pages.segment(f"value-btree:{uri}"))
        # A second, typed index for numeric range predicates: string
        # order is wrong for numbers ("9" > "10"), so values that parse
        # as numbers are indexed by their float key too.
        numeric_index = ContentIndex(
            succinct.content, numeric=True,
            segment=self.pages.segment(f"numeric-btree:{uri}"))
        return value_index, numeric_index

    def _residual_checker(self, document: LoadedDocument):
        from repro.xpath.semantics import XPathEvaluator

        evaluator = XPathEvaluator()

        def check(vertex, preorder: int) -> bool:
            node = document.node_for(preorder)
            for expr in vertex.residual:
                value = evaluator.evaluate(expr, Context(node))
                if not sequence_boolean(value):
                    return False
            return True

        return check

    def document(self, uri: Optional[str] = None) -> DocumentVersion:
        """The current version of ``uri``'s document (default: first
        loaded)."""
        return self._document_in(self._snapshot, uri)

    @staticmethod
    def _document_in(snapshot: DatabaseSnapshot,
                     uri: Optional[str]) -> DocumentVersion:
        """Resolve ``uri`` inside one pinned snapshot (one consistent
        read — never mixes two snapshots' default uri and documents)."""
        target = uri or snapshot.default_uri
        if target is None or target not in snapshot.documents:
            raise ExecutionError(f"document {target!r} is not loaded")
        return snapshot.documents[target]

    # -- compilation ------------------------------------------------------------

    @staticmethod
    def compile_text(text: str):
        """The full compilation pipeline: parse → backward-translate →
        rewrite.  Pure function of the query text (the backward
        output-to-input analysis prunes dead let-bindings before the
        forward translation, Section 6)."""
        return rewrite_plan(backward_translate(parse_xquery(text)))

    def _compiled_plan(self, text: str):
        """``(plan, was_cache_hit)`` through the plan cache."""
        return self.plan_cache.get_or_compile(text, self._compile_traced)

    def _compile_traced(self, text: str):
        """:meth:`compile_text` wrapped in parse/translate/rewrite
        spans (only runs on a plan-cache miss)."""
        tracer = self.observability.tracer
        with tracer.span("compile", query=text[:120]):
            with tracer.span("parse"):
                ast = parse_xquery(text)
            with tracer.span("translate"):
                plan = backward_translate(ast)
            with tracer.span("rewrite"):
                return rewrite_plan(plan)

    def prepare(self, text: str) -> PreparedQuery:
        """Compile ``text`` once and return a reusable
        :class:`~repro.engine.cache.PreparedQuery` handle."""
        plan, _ = self._compiled_plan(text)
        return PreparedQuery(self, text, plan)

    def _generation_stamp(self) -> tuple:
        """The stamp result-cache entries carry: the load epoch plus
        every loaded document's **version id** (precomputed on the
        snapshot — every publish changes it)."""
        return self._snapshot.stamp

    # -- querying ---------------------------------------------------------------

    def query(self, text: str, strategy: str = "auto",
              uri: Optional[str] = None,
              variables: Optional[dict] = None,
              timeout_seconds: Optional[float] = None) -> QueryResult:
        """Run an XPath/XQuery expression.

        ``strategy`` selects the physical pattern-matching strategy (one
        of ``repro.physical.planner.STRATEGIES``); ``auto`` uses the cost
        model.  ``uri`` picks the context document for absolute paths.
        ``variables`` provides external bindings, e.g.
        ``db.query("//book[title = $t]", variables={"t": ["TCP/IP"]})``.

        ``timeout_seconds`` sets a wall-clock deadline for the
        execution: the executor checks it cooperatively between τ
        batches and raises :class:`~repro.errors.QueryTimeoutError`
        once exceeded (counted in ``repro_query_timeouts_total``).  The
        network server threads each request's deadline through here so
        a slow query cannot pin a worker forever.

        Compilation goes through the plan cache; read-only executions
        without variables additionally consult the result cache (see
        ``QueryResult.stats["cache"]`` and :meth:`cache_report`).
        """
        if strategy not in STRATEGIES:
            raise ExecutionError(
                f"unknown strategy {strategy!r}; pick one of {STRATEGIES}")
        plan, plan_hit = self._compiled_plan(text)
        return self._run_compiled(text, plan, plan_hit=plan_hit,
                                  strategy=strategy, uri=uri,
                                  variables=variables,
                                  timeout_seconds=timeout_seconds)

    def query_many(self,
                   queries: Iterable[Union[str, PreparedQuery]],
                   strategy: str = "auto", uri: Optional[str] = None,
                   max_workers: int = 4) -> list[QueryResult]:
        """Run a batch of read-only queries across a thread pool.

        Each element of ``queries`` is a query text or a
        :class:`~repro.engine.cache.PreparedQuery`; results come back
        in input order.  Every query executes as a shared reader under
        the database's reader-writer lock, so batches interleave safely
        with concurrent ``insert``/``delete`` calls from other threads
        (each query sees a consistent snapshot).  Per-query ``io``
        accounting stays exact: counters are tracked per worker thread.

        ``max_workers <= 1`` (or a single-element batch) degenerates to
        serial execution on the calling thread.
        """
        entries = list(queries)

        def one(entry: Union[str, PreparedQuery]) -> QueryResult:
            if isinstance(entry, PreparedQuery):
                return entry.run(strategy=strategy, uri=uri)
            return self.query(entry, strategy=strategy, uri=uri)

        if max_workers <= 1 or len(entries) <= 1:
            return [one(entry) for entry in entries]
        with ThreadPoolExecutor(max_workers=max_workers,
                                thread_name_prefix="repro-query") as pool:
            return list(pool.map(one, entries))

    def _run_compiled(self, text: str, plan, plan_hit: bool,
                      strategy: str, uri: Optional[str],
                      variables: Optional[dict],
                      timeout_seconds: Optional[float] = None,
                      snapshot: Optional[DatabaseSnapshot] = None
                      ) -> QueryResult:
        """Execute a compiled plan through the result cache.

        **Lock-free**: the query pins the current
        :class:`DatabaseSnapshot` once and executes entirely against
        it; concurrent updates publish new snapshots without ever
        touching the pinned one.  The result-cache stamp is the pinned
        snapshot's, so a result computed here can only ever be served
        to queries seeing the same versions.

        ``snapshot`` runs the plan over a private, unpublished snapshot
        instead (an update resolving its target inside a replay batch);
        such a run bypasses the result cache.
        """
        if strategy not in STRATEGIES:
            raise ExecutionError(
                f"unknown strategy {strategy!r}; pick one of {STRATEGIES}")
        started = time.perf_counter()
        deadline = (None if timeout_seconds is None
                    else time.monotonic() + timeout_seconds)
        cacheable = not variables and snapshot is None
        observability = self.observability
        with observability.tracer.span("query", strategy=strategy) \
                as query_span:
            snapshot = self._pin(snapshot)
            try:
                stamp = snapshot.stamp
                key = ResultCache.key(text, strategy,
                                      uri or snapshot.default_uri)
                if cacheable:
                    cached = self.result_cache.lookup(key, stamp)
                    if cached is not None:
                        items, used_strategy = cached
                        stats = {"nodes_visited": 0,
                                 "postings_scanned": 0,
                                 "intermediate_results": 0,
                                 "structural_joins": 0,
                                 "solutions": len(items)}
                        stats["cache"] = self._cache_info(
                            plan="hit" if plan_hit else "miss",
                            result="hit")
                        elapsed = time.perf_counter() - started
                        if query_span.is_recording:
                            query_span.set(source="result-cache",
                                           rows=len(items))
                        observability.observe_query(
                            elapsed, strategy=used_strategy,
                            source="result-cache", text=text,
                            io={}, stats=stats, span=query_span)
                        return QueryResult(
                            items=items, strategy=used_strategy,
                            elapsed_seconds=elapsed,
                            stats=stats,
                            io={k: 0 for k in
                                self.pages.thread_snapshot()})
                context = self._execution_context(uri, strategy,
                                                  variables=variables,
                                                  snapshot=snapshot,
                                                  deadline=deadline)
                # Snapshot-and-diff the calling thread's *own* I/O
                # counters (the seed diffed — and before that reset —
                # the shared ones, which races under concurrent
                # queries).  The diff runs in ``finally`` so a raising
                # executor still settles the thread's I/O ledger (the
                # seed skipped it, leaving the next query on this
                # thread to inherit the orphaned counts).
                io_before = self.pages.thread_snapshot()
                io_delta: dict = {}
                error: Optional[BaseException] = None
                try:
                    with observability.tracer.span("execute"):
                        items = run_plan(plan, context)
                except Exception as exc:
                    error = exc
                finally:
                    elapsed = time.perf_counter() - started
                    io_after = self.pages.thread_snapshot()
                    io_delta = {k: io_after[k] - io_before[k]
                                for k in io_after}
                if error is not None:
                    if query_span.is_recording:
                        query_span.set(
                            error=type(error).__name__)
                    observability.record_query_error(
                        error, text=text, elapsed_seconds=elapsed,
                        io=io_delta, span=query_span)
                    raise error
                if cacheable:
                    # Stamped with the *pinned* snapshot's stamp: if a
                    # writer published meanwhile, the very next lookup
                    # sees a different stamp and discards this entry.
                    self.result_cache.store(key, stamp, items,
                                            context.last_strategy)
            finally:
                self._unpin()
            stats = context.accumulated_stats.snapshot()
            stats["cache"] = self._cache_info(
                plan="hit" if plan_hit else "miss",
                result="miss" if cacheable else "bypass")
            if query_span.is_recording:
                query_span.set(source="execute", rows=len(items),
                               physical_strategy=context.last_strategy)
            observability.observe_query(
                elapsed, strategy=context.last_strategy or strategy,
                source="execute", text=text, io=io_delta, stats=stats,
                span=query_span)
            return QueryResult(
                items=items,
                strategy=context.last_strategy,
                elapsed_seconds=elapsed,
                stats=stats,
                io=io_delta,
            )

    def _cache_info(self, plan: str, result: str) -> dict:
        """The per-query cache report embedded in ``QueryResult.stats``:
        this query's plan/result cache outcome plus the cumulative
        hit/miss/eviction counters."""
        return {
            "plan": plan,
            "result": result,
            "plan_cache": self.plan_cache.report(),
            "result_cache": self.result_cache.report(),
        }

    def observability_report(self) -> dict:
        """Tracing, slow-query, error, and metric state in one dict
        (see :class:`repro.observability.Observability`)."""
        return self.observability.report()

    def metrics_text(self) -> str:
        """Every registered metric in Prometheus text exposition
        format (``MetricsRegistry.render_prometheus``)."""
        return self.observability.render_prometheus()

    # -- network entry point -------------------------------------------------------

    def execute_request(self, request: dict) -> dict:
        """Execute one server-shaped request and return a response
        dict of wire-safe primitives (str/int/float/bool/None and
        lists/dicts of them) — the query server's single engine entry
        point, used identically by the in-process frontend and by
        worker processes (see :mod:`repro.server`).

        ``request["verb"]`` selects the operation:

        ``query``
            ``text`` plus optional ``strategy``/``uri``/``variables``/
            ``timeout_seconds``/``output`` (``"values"`` — node string
            values, the default — or ``"xml"`` — one serialized
            document fragment per item).
        ``prepare``
            Compile ``text`` into the plan cache (warms the serving
            path; the plan itself stays server-side).
        ``explain``
            The logical plan + per-τ strategy explanation for ``text``.
        ``metrics``
            The Prometheus exposition text (``metrics_text``).
        ``admin``
            ``action`` in ``ping`` / ``stats`` / ``generation`` /
            ``slowlog`` / ``errors``.

        **Trace adoption** — a request may carry a ``trace`` dict
        (``trace_id``, ``span_id``, ``sampled``, ``node``) propagated
        by the server frontend.  When ``sampled`` is true, execution
        runs under an adopted root span joining that cross-process
        trace (the nested compile/plan/execute spans join with it),
        and the finished span tree ships back piggybacked on the
        response under ``"spans"`` for the frontend to stitch.  When
        absent or unsampled, nothing here allocates.

        Failures raise the engine's normal typed exceptions
        (:class:`~repro.errors.QuerySyntaxError`,
        :class:`~repro.errors.QueryTimeoutError`, ...); the protocol
        layer maps them to wire error codes — this method knows
        nothing about framing.
        """
        if not isinstance(request, dict):
            raise ExecutionError("request must be a dictionary")
        trace_context = request.get("trace")
        if isinstance(trace_context, dict) \
                and trace_context.get("sampled"):
            span = self.observability.tracer.adopt(
                "server.worker",
                trace_id=trace_context.get("trace_id"),
                parent_id=trace_context.get("span_id"),
                sampled=True,
                node=str(trace_context.get("node") or "worker"),
                verb=str(request.get("verb")))
            with span:
                response = self._execute_verb(request)
            if isinstance(response, dict) and span.is_recording:
                response["spans"] = span.to_dict()
            return response
        return self._execute_verb(request)

    def _execute_verb(self, request: dict) -> dict:
        """:meth:`execute_request` minus the trace adoption wrapper."""
        verb = request.get("verb")
        if verb == "query":
            return self._query_request(request)
        if verb == "prepare":
            text = self._request_text(request)
            _, was_hit = self._compiled_plan(text)
            return {"ok": True, "verb": "prepare",
                    "cached": bool(was_hit)}
        if verb == "explain":
            text = self._request_text(request)
            explanation = self.explain(
                text, strategy=request.get("strategy") or "auto",
                uri=request.get("uri"))
            return {"ok": True, "verb": "explain",
                    "explanation": str(explanation)}
        if verb == "metrics":
            return {"ok": True, "verb": "metrics",
                    "text": self.metrics_text()}
        if verb == "admin":
            return self._admin_request(request)
        raise ExecutionError(
            f"unknown request verb {verb!r}; expected one of "
            f"query/prepare/explain/metrics/admin")

    @staticmethod
    def _request_text(request: dict) -> str:
        text = request.get("text")
        if not isinstance(text, str) or not text.strip():
            raise ExecutionError(
                "request needs a non-empty string 'text'")
        return text

    def _query_request(self, request: dict) -> dict:
        text = self._request_text(request)
        variables = request.get("variables")
        if variables is not None and not isinstance(variables, dict):
            raise ExecutionError("'variables' must be a dictionary")
        timeout = request.get("timeout_seconds")
        if timeout is not None:
            timeout = float(timeout)
            if timeout <= 0:
                raise ExecutionError(
                    "'timeout_seconds' must be positive")
        result = self.query(
            text, strategy=request.get("strategy") or "auto",
            uri=request.get("uri"), variables=variables,
            timeout_seconds=timeout)
        output = request.get("output") or "values"
        if output == "xml":
            items = [serialize(item) if isinstance(item, model.Node)
                     else str(item) for item in result.items]
        elif output == "values":
            items = [item if isinstance(
                         item, (str, int, float, bool, type(None)))
                     else item.string_value()
                     if isinstance(item, model.Node) else str(item)
                     for item in result.values()]
        else:
            raise ExecutionError(
                f"unknown output mode {output!r}; expected "
                f"'values' or 'xml'")
        stats = {key: result.stats.get(key, 0)
                 for key in ("nodes_visited", "postings_scanned",
                             "intermediate_results",
                             "structural_joins", "solutions")}
        cache = result.stats.get("cache", {})
        return {"ok": True, "verb": "query", "items": items,
                "count": len(items), "strategy": result.strategy,
                "elapsed_seconds": result.elapsed_seconds,
                "stats": stats,
                "source": cache.get("result", "miss")}

    def _admin_request(self, request: dict) -> dict:
        action = request.get("action") or "ping"
        if action == "ping":
            return {"ok": True, "verb": "admin", "action": "ping",
                    "pong": True, "read_only": self.read_only,
                    "documents": len(self.documents)}
        if action == "stats":
            snapshot = self._snapshot
            report = {
                "documents": {uri: doc.succinct.node_count
                              for uri, doc
                              in snapshot.documents.items()},
                "load_epoch": snapshot.load_epoch,
                "version_publishes": self._publishes,
                "plan_cache": self.plan_cache.report(),
                "result_cache": self.result_cache.report(),
                "read_only": self.read_only,
            }
            return {"ok": True, "verb": "admin", "action": "stats",
                    "stats": report}
        if action == "generation":
            manager = self.durability
            recovery = (manager.last_recovery or {}) \
                if manager is not None else {}
            return {
                "ok": True, "verb": "admin", "action": "generation",
                "durable": manager is not None,
                "generation": (manager.generation
                               if manager is not None else None),
                "snapshot_generation": recovery.get(
                    "snapshot_generation"),
                "wal_records_replayed": recovery.get(
                    "wal_records_replayed", 0),
            }
        if action == "slowlog":
            log = self.observability.slow_log
            return {"ok": True, "verb": "admin", "action": "slowlog",
                    "threshold_seconds": log.threshold_seconds,
                    "recorded_total": log.recorded_total,
                    "entries": log.entries(
                        limit=self._entry_limit(request))}
        if action == "errors":
            log = self.observability.error_log
            return {"ok": True, "verb": "admin", "action": "errors",
                    "recorded_total": log.recorded_total,
                    "entries": log.entries(
                        limit=self._entry_limit(request))}
        raise ExecutionError(
            f"unknown admin action {action!r}; expected one of "
            f"ping/stats/generation/slowlog/errors")

    @staticmethod
    def _entry_limit(request: dict, default: int = 32) -> int:
        limit = request.get("limit", default)
        try:
            limit = int(limit)
        except (TypeError, ValueError):
            raise ExecutionError("'limit' must be an integer")
        if limit < 1:
            raise ExecutionError("'limit' must be >= 1")
        return limit

    def cache_report(self) -> dict:
        """Counters and occupancy of every serving-layer cache."""
        snapshot = self._snapshot
        return {
            "plan_cache": self.plan_cache.report(),
            "result_cache": self.result_cache.report(),
            "strategy_memo": {
                uri: len(document.strategy_memo)
                for uri, document in snapshot.documents.items()},
            "generations": {
                uri: document.generation
                for uri, document in snapshot.documents.items()},
            "versions": {
                uri: document.version_id
                for uri, document in snapshot.documents.items()},
        }

    def clear_caches(self) -> None:
        """Drop every cached plan, result, and strategy choice."""
        with self.rwlock.write_locked():
            self.plan_cache.clear()
            self.result_cache.clear()
            for document in self.documents.values():
                with document.memo_lock:
                    document.strategy_memo.clear()

    def xpath(self, text: str, strategy: str = "auto",
              uri: Optional[str] = None) -> QueryResult:
        """Alias of :meth:`query` (the XPath fragment is a subset)."""
        return self.query(text, strategy=strategy, uri=uri)

    def reference_query(self, text: str,
                        uri: Optional[str] = None) -> list:
        """Evaluate with the reference interpreter only (ground truth)."""
        from repro.xquery.interpreter import evaluate_xquery

        snapshot = self._snapshot
        trees = {loaded_uri: doc.tree
                 for loaded_uri, doc in snapshot.documents.items()}
        context_node = None
        if uri is not None:
            context_node = self._document_in(snapshot, uri).tree
        elif snapshot.default_uri is not None:
            context_node = self._document_in(snapshot, None).tree
        return evaluate_xquery(text, documents=trees,
                               context_node=context_node)

    def explain(self, text: str, strategy: str = "auto",
                uri: Optional[str] = None,
                analyze: bool = False) -> Union[str, ExplainAnalysis]:
        """The logical plan, the chosen physical strategy per τ, and the
        cost estimates.

        With ``analyze=True`` the plan is additionally *executed* with
        per-operator instrumentation: the returned
        :class:`~repro.observability.analyze.ExplainAnalysis` carries,
        for every τ, the planner's estimated cardinality and page cost
        next to the measured rows, nodes visited, postings scanned,
        pages read, and wall time (``str()`` renders the table).  The
        analyzed execution bypasses the result cache so the actuals
        reflect real operator work.
        """
        plan, _ = self._compiled_plan(text)
        lines = [explain_plan(plan)]
        snapshot = self._pin()
        try:
            document = self._document_in(snapshot, uri)
            cost_model = CostModel(document.statistics)
            planner = PhysicalPlanner(cost_model,
                                      choice_memo=document.strategy_memo,
                                      memo_lock=document.memo_lock,
                                      columnar=self.columnar)
            plan_text = self._explain_walk(plan, lines, planner,
                                           cost_model, strategy)
            if not analyze:
                return plan_text
            context = self._execution_context(uri, strategy,
                                              snapshot=snapshot)
            context.analyze_records = []
            io_before = self.pages.thread_snapshot()
            started = time.perf_counter()
            with self.observability.tracer.span("explain.analyze",
                                                query=text[:120]):
                items = run_plan(plan, context)
            elapsed = time.perf_counter() - started
            io_after = self.pages.thread_snapshot()
        finally:
            self._unpin()
        self.observability.explain_analyze_total.inc()
        return ExplainAnalysis(
            plan_text=plan_text,
            operators=context.analyze_records,
            result_rows=len(items),
            elapsed_seconds=elapsed,
            io={k: io_after[k] - io_before[k] for k in io_after},
            strategy=context.last_strategy,
            text=text)

    def _explain_walk(self, plan, lines: list, planner: PhysicalPlanner,
                      cost_model: CostModel, strategy: str) -> str:
        from repro.algebra.plan import PlanNode, Tau

        def walk(node: PlanNode) -> None:
            if isinstance(node, Tau):
                chosen = (strategy if strategy != "auto"
                          else planner.choose(node.pattern))
                estimate = cost_model.result_cardinality(node.pattern)
                lines.append("")
                lines.append(f"tau strategy: {chosen} "
                             f"(est. {estimate:.1f} matches)")
                lines.append(node.pattern.describe())
                if chosen == "partitioned":
                    from repro.physical.partition import partition_pattern
                    partitions = partition_pattern(node.pattern)
                    cuts = ", ".join(p.cut_edge.relation
                                     for p in partitions[1:])
                    lines.append(
                        f"partitions: {len(partitions)} NoK units over "
                        f"one shared scan; joins on cut edges [{cuts}]")
            for child in node.inputs:
                walk(child)

        walk(plan)
        return "\n".join(lines)

    # -- helpers ------------------------------------------------------------------

    def _execution_context(self, uri: Optional[str], strategy: str,
                           variables: Optional[dict] = None,
                           snapshot: Optional[DatabaseSnapshot] = None,
                           deadline: Optional[float] = None
                           ) -> PhysicalExecutionContext:
        """An execution context over one pinned snapshot (defaults to
        pinning the current one) — every document the plan touches
        resolves inside that snapshot."""
        if snapshot is None:
            snapshot = self._snapshot
        document = self._document_in(snapshot, uri)
        trees = {loaded_uri: doc.tree
                 for loaded_uri, doc in snapshot.documents.items()}
        return PhysicalExecutionContext(
            database=self, documents=trees,
            context_node=document.tree, strategy=strategy,
            variables=variables, snapshot=snapshot, deadline=deadline)

    def planner_for(self, document: DocumentVersion) -> PhysicalPlanner:
        """A physical planner over one version's statistics, with that
        version's strategy memo (and its lock, so concurrent readers
        can memoize safely) attached."""
        return PhysicalPlanner(CostModel(document.statistics),
                               choice_memo=document.strategy_memo,
                               memo_lock=document.memo_lock,
                               columnar=self.columnar)

    def set_columnar(self, mode: str) -> None:
        """Switch the vectorized-execution mode at runtime.

        No cache surgery is needed: planner memo keys include the mode,
        so choices memoized under another mode can never be served."""
        if mode not in COLUMNAR_MODES:
            raise ExecutionError(
                f"columnar mode must be one of {COLUMNAR_MODES}, "
                f"got {mode!r}")
        self.columnar = mode

    # -- updates -------------------------------------------------------------------

    def insert(self, parent_path: str, fragment: str,
               position: Optional[int] = None,
               uri: Optional[str] = None) -> dict:
        """Insert an XML ``fragment`` as a child of the (single) element
        ``parent_path`` selects, keeping every storage structure aligned.

        Copy-on-write: the current :class:`DocumentVersion` is cloned,
        the clone's succinct and interval stores are spliced (their
        update metrics are returned) and every derived structure — tag
        index, statistics, value indexes, pre-order maps — absorbs a
        *local delta* for the inserted subtree; the finished clone is
        then published as a new snapshot.  Queries pinned on the old
        version never observe a mid-splice store — or this change at
        all.

        Takes the write lock only to serialize against other writers.
        """
        self._check_writable("insert")
        with self.rwlock.write_locked():
            return self._insert_locked(parent_path, fragment, position,
                                       uri)

    def _insert_locked(self, parent_path: str, fragment: str,
                       position: Optional[int],
                       uri: Optional[str]) -> dict:
        document, targets = self._update_targets(parent_path, uri)
        if len(targets) != 1 or not isinstance(targets[0], model.Element):
            raise ExecutionError(
                f"insert target {parent_path!r} must select exactly one "
                f"element (got {len(targets)} items)")
        parent = targets[0]
        fragment_tree = parse(f"<wrap>{fragment}</wrap>")
        children = list(fragment_tree.root.children())
        if len(children) != 1 or not isinstance(children[0], model.Element):
            raise ExecutionError(
                "fragment must contain exactly one element")
        subtree = fragment_tree.root.remove(children[0])

        element_children = [c for c in parent.children()]
        if position is None:
            position = len(element_children)
        if position < 0 or position > len(element_children):
            raise ExecutionError(f"child position {position} out of range")

        # Every validation passed: make the operation durable *before*
        # building the successor version (write-ahead invariant — the
        # WAL always explains the snapshot that readers can see).  The
        # position is the normalized one, so replay is deterministic;
        # the generation stamp lets replay verify it reproduced this
        # exact state transition.
        self._log_update({
            "op": "insert", "uri": document.uri,
            "parent_path": parent_path, "fragment": fragment,
            "position": position,
            "generation": document.generation + 1,
        })

        # Copy-on-write: all splicing happens on a private successor;
        # the published version (and everything readers may have
        # pinned) stays untouched.  The target maps to the successor
        # through its storage pre-order id.
        parent_pre = document.preorder_map[parent.node_id]
        version = self._successor(document)
        clone_parent = version.node_list[parent_pre]

        # Primary stores: local splices, with the paper's cost metrics.
        succinct_metrics = version.succinct.insert_subtree(
            parent_pre, position, subtree)
        interval_metrics = version.interval.insert_subtree(
            parent_pre, position, subtree)
        # The clone's model tree mirrors the change (it owns reference
        # semantics).
        clone_children = [c for c in clone_parent.children()]
        clone_parent.insert(position if position < len(clone_children)
                            else len(clone_children), subtree)

        self._apply_insert_deltas(
            version, subtree,
            insert_pre=interval_metrics["inserted_at"],
            count=interval_metrics["inserted_nodes"],
            content_appended=succinct_metrics["content_appended"])
        return {"succinct": succinct_metrics, "interval": interval_metrics}

    def delete(self, path: str, uri: Optional[str] = None) -> dict:
        """Delete the (single) element ``path`` selects, keeping every
        storage structure aligned.  Returns the stores' update metrics.

        Copy-on-write like :meth:`insert`: the splice happens on a
        clone published as a new snapshot; pinned readers keep the
        deleted subtree.  Takes the write lock only to serialize
        against other writers.
        """
        self._check_writable("delete")
        with self.rwlock.write_locked():
            return self._delete_locked(path, uri)

    def _delete_locked(self, path: str, uri: Optional[str]) -> dict:
        document, targets = self._update_targets(path, uri)
        if len(targets) != 1 or not isinstance(targets[0], model.Element):
            raise ExecutionError(
                f"delete target {path!r} must select exactly one element "
                f"(got {len(targets)} items)")
        victim = targets[0]
        if victim.parent is None:
            raise ExecutionError("cannot delete the document element's "
                                 "parent")
        # Validated: log + fsync before building the successor version.
        self._log_update({
            "op": "delete", "uri": document.uri, "path": path,
            "generation": document.generation + 1,
        })
        preorder = document.preorder_map[victim.node_id]
        version = self._successor(document)
        clone_victim = version.node_list[preorder]

        # Derived deltas that need pre-splice labels run first: the tag
        # index drops the doomed postings and the statistics retract the
        # subtree's contributions while every ``pre`` is still valid.
        count = version.interval.end[preorder] - preorder + 1
        version.tag_index.apply_delete(preorder, count)
        version.statistics.apply_delete(version.interval, preorder)
        doomed_content = version.succinct.content_ids_in(preorder, count)

        succinct_metrics = version.succinct.delete_subtree(preorder)
        interval_metrics = version.interval.delete_subtree(preorder)
        clone_victim.parent.remove(clone_victim)

        self._apply_delete_deltas(version, preorder, count,
                                  doomed_content)
        return {"succinct": succinct_metrics, "interval": interval_metrics}

    # -- copy-on-write version construction ---------------------------------------

    def _update_targets(self, path: str, uri: Optional[str]
                        ) -> tuple[DocumentVersion, list]:
        """The version an update starts from and the items ``path``
        selects in it.

        Normally the published version, resolved through
        :meth:`query`.  Inside a replay batch that already spliced some
        documents, the path is evaluated over a private snapshot
        holding the batch's unpublished successors (not through
        :meth:`query`, which would pin the published one).
        """
        pending = self._replay_pending
        if not pending:
            return self.document(uri), self.query(path, uri=uri).items
        view = self._with_versions(pending.values())
        plan, plan_hit = self._compiled_plan(path)
        result = self._run_compiled(path, plan, plan_hit=plan_hit,
                                    strategy="auto", uri=uri,
                                    variables=None, snapshot=view)
        return self._document_in(view, uri), result.items

    def _successor(self, document: DocumentVersion) -> DocumentVersion:
        """The private version an update splices: a fresh clone, or —
        when ``document`` already is the running replay batch's
        unpublished successor — ``document`` itself, under a new
        version id."""
        pending = self._replay_pending
        if pending is not None and pending.get(document.uri) is document:
            document.version_id = self._next_version_id()
            return document
        return self._clone_version(document)

    def _clone_version(self, base: DocumentVersion) -> DocumentVersion:
        """An independent successor of ``base`` for a writer to splice.

        Primary stores are cloned (succinct and interval column copies
        — updates splice them in place); derived structures are rebuilt
        from their snapshot forms (the same restore constructors
        recovery uses, so no index is recomputed from scratch); the
        model tree is re-materialised from the cloned interval
        columns.  Immutable leaves (strings, the
        balanced-parens directory) stay shared.  The clone starts with
        a fresh strategy memo — its statistics generation carries over,
        so hot patterns re-memoize after one cost-model pass.
        """
        uri = base.uri
        succinct = base.succinct.clone()
        interval = base.interval.clone()
        tag_index = base.tag_index.clone(interval)
        statistics = DocumentStatistics.from_snapshot(
            base.statistics.to_snapshot())
        value_index = ContentIndex.restore(
            succinct.content, base.value_index.to_snapshot(),
            segment=self.pages.segment(f"value-btree:{uri}"))
        numeric_index = ContentIndex.restore(
            succinct.content, base.numeric_index.to_snapshot(),
            segment=self.pages.segment(f"numeric-btree:{uri}"))
        tree, node_list = materialise_tree(interval, uri)
        version = DocumentVersion(
            uri=uri, tree=tree, succinct=succinct, interval=interval,
            tag_index=tag_index, statistics=statistics,
            value_index=value_index, numeric_index=numeric_index,
            runtime=None,  # type: ignore[arg-type]
            node_list=node_list,
            preorder_map={node.node_id: pre for pre, node
                          in enumerate(node_list)},
            generation=base.generation,
            version_id=self._next_version_id())
        version.runtime = MatchRuntime(
            succinct, interval, tag_index, pages=self.pages,
            residual_check=self._residual_checker(version),
            value_index=value_index, numeric_index=numeric_index,
            statistics=statistics)
        return version

    # -- incremental derived maintenance ------------------------------------------

    def _apply_insert_deltas(self, document: LoadedDocument,
                             subtree: model.Element, insert_pre: int,
                             count: int, content_appended: int) -> None:
        """Absorb one inserted subtree into every derived structure."""
        document.tag_index.apply_insert(insert_pre, count)
        document.statistics.apply_insert(document.interval, insert_pre,
                                         count)
        document.statistics.finalize_update()
        # The content heap is append-only: the new leaf values are
        # exactly the last ``content_appended`` ids.
        total = len(document.succinct.content)
        for content_id in range(total - content_appended, total):
            document.value_index.add_content(content_id)
            document.numeric_index.add_content(content_id)
        apply_insert_mapping(document.node_list, document.preorder_map,
                             subtree, insert_pre, count)
        self._finish_update(document)

    def _apply_delete_deltas(self, document: LoadedDocument,
                             delete_pre: int, count: int,
                             doomed_content: list[int]) -> None:
        """Absorb one deleted subtree into every derived structure
        (tag index + statistics already retracted pre-splice)."""
        document.statistics.finalize_update()
        document.value_index.drop_content(doomed_content)
        document.numeric_index.drop_content(doomed_content)
        apply_delete_mapping(document.node_list, document.preorder_map,
                             delete_pre, count)
        self._finish_update(document)

    def _finish_update(self, version: DocumentVersion) -> None:
        """Seal a fully spliced clone and make it the current version:
        bump its generation, verify (in debug mode), publish the new
        snapshot, and only then offer the checkpoint policy a safe
        point (a checkpoint serializes ``self.documents``, so it must
        run after the publish to capture what it just made durable).
        Inside a replay batch the sealed version is kept as the batch's
        successor instead; the batch publishes it."""
        version.generation += 1
        version.runtime.refresh_segments()
        if self.debug_checks:
            self.verify_derived(version)
        if self._replay_pending is not None:
            self._replay_pending[version.uri] = version
            return
        self._publish_version(version)
        if self.durability is not None:
            # The logged operation is fully applied and visible: safe
            # point for the automatic checkpoint policy (suppressed
            # during replay).
            self.durability.maybe_checkpoint(self)

    def rebuild_derived(self, uri: Optional[str] = None,
                        force: bool = True) -> DocumentVersion:
        """Escape hatch: rebuild every derived structure of ``uri``'s
        document from the primary stores (the pre-incremental
        behaviour), published as a new version.  Takes the write lock
        (writer serialization only).
        """
        self._check_writable("rebuild_derived")
        with self.rwlock.write_locked():
            document = self.document(uri)
            if force:
                return self._rebuild_derived(document)
            return document

    def _rebuild_derived(self, base: DocumentVersion) -> DocumentVersion:
        """A successor version with freshly built derived structures.

        The primary stores and the model tree are *shared* with
        ``base``: writers only ever mutate clones, so sharing the
        frozen primaries between versions is safe, and every derived
        constructor here reads them without modification.
        """
        statistics = DocumentStatistics(base.interval)
        # Keep the statistics generation monotonic across rebuilds so
        # memoized strategy choices from older states cannot resurface.
        statistics.generation = base.statistics.generation + 1
        tag_index = TagIndex(base.interval, pages=self.pages)
        value_index, numeric_index = self._build_value_indexes(
            base.succinct, base.uri)
        version = DocumentVersion(
            uri=base.uri, tree=base.tree, succinct=base.succinct,
            interval=base.interval, tag_index=tag_index,
            statistics=statistics, value_index=value_index,
            numeric_index=numeric_index,
            runtime=None,  # type: ignore[arg-type]
            node_list=storage_node_list(base.tree),
            preorder_map=storage_preorder_map(base.tree),
            generation=base.generation + 1,
            version_id=self._next_version_id())
        version.runtime = MatchRuntime(
            base.succinct, base.interval, tag_index, pages=self.pages,
            residual_check=self._residual_checker(version),
            value_index=value_index, numeric_index=numeric_index,
            statistics=statistics)
        self._publish_version(version)
        return version

    def verify_derived(self, document: LoadedDocument) -> None:
        """Debug cross-check: every incrementally maintained structure
        must equal a fresh rebuild from the primary stores.  Raises
        :class:`~repro.errors.StorageError` on divergence."""
        fresh_stats = DocumentStatistics(document.interval)
        mine, fresh = (document.statistics.comparable_state(),
                       fresh_stats.comparable_state())
        if mine != fresh:
            diverged = [key for key in fresh if mine.get(key) != fresh[key]]
            raise StorageError(
                f"incremental statistics diverged on {diverged}")
        fresh_tags = TagIndex(document.interval).postings_snapshot()
        if document.tag_index.postings_snapshot() != fresh_tags:
            raise StorageError("incremental tag index diverged")
        for index in (document.value_index, document.numeric_index):
            fresh_index = ContentIndex(document.succinct.content,
                                       numeric=index.numeric)
            if sorted(index.entries()) != sorted(fresh_index.entries()):
                flavour = "numeric" if index.numeric else "string"
                raise StorageError(
                    f"incremental {flavour} value index diverged")
        if document.node_list != storage_node_list(document.tree):
            raise StorageError("incremental node list diverged")
        if document.preorder_map != storage_preorder_map(document.tree):
            raise StorageError("incremental preorder map diverged")

    def loaded_for_tree(self, tree: model.Document
                        ) -> Optional[DocumentVersion]:
        """The version wrapping ``tree`` in the *current* snapshot
        (identity match).  Executors resolve through their pinned
        snapshot instead; this is the fallback for contexts built
        without one."""
        return self._snapshot.version_for_tree(tree)

    def storage_report(self, uri: Optional[str] = None) -> dict:
        """Byte accounting of every storage structure (experiment E1)."""
        return self._storage_report_locked(uri)

    def _storage_report_locked(self, uri: Optional[str]) -> dict:
        document = self.document(uri)
        succinct_sizes = document.succinct.size_bytes()
        interval_sizes = document.interval.size_bytes()
        report = {
            "nodes": document.succinct.node_count,
            "succinct": succinct_sizes,
            "interval": interval_sizes,
            "tag_index_bytes": document.tag_index.size_bytes(),
            "value_index_bytes": document.value_index.size_bytes(),
        }
        if self.durability is not None:
            report["durability"] = self.durability.report()
        return report
