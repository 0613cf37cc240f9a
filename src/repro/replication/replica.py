"""The replica side: bootstrap from a snapshot, tail + replay the WAL.

A :class:`Replica` owns a :class:`ReplicaDatabase` — an **in-memory**,
read-only :class:`~repro.engine.database.Database` — and keeps it
converged with a primary through a :class:`ReplicationSource`:

1. **bootstrap** — fetch the primary's newest checkpoint image
   (``repl snapshot``), decode it with
   :func:`repro.durability.snapshot.read_snapshot` (which accepts raw
   bytes), and install it atomically
   (:meth:`Database.install_snapshot_state`); the cursor starts at that
   generation's WAL floor.
2. **tail** — poll ``repl wal`` batches from the cursor and replay each
   batch's new records through :meth:`Database._replay_records` under
   the write lock, exactly as crash recovery replays a WAL file: one
   copy-on-write successor per document, published once per batch.
   MVCC makes this safe under load: queries run against pinned
   snapshots and never block on the replay writer.  Replay is
   **idempotent** — a record whose LSN is at or below ``applied_lsn``
   (a duplicated ship batch) is skipped, and ``applied_lsn`` advances
   to the batch's last record only after the batch is published.  A
   generation-stamp mismatch (divergence, e.g. after a gap) drops the
   whole unpublished batch and triggers a fresh bootstrap instead of
   corrupting state.

**Staleness.**  Every WAL record carries the primary's append wall
clock (``ts``); the replica's *freshness* is the latest of (a) the last
applied record's ``ts`` and (b) the local time of the last poll that
found it fully caught up.  ``staleness = now - freshness``.  A query
request carrying ``max_staleness_seconds`` (or a ``min_lsn``
read-your-writes token) is checked against these before execution and
rejected with the typed, retryable
:class:`~repro.errors.ReplicaStaleError` when the replica cannot honor
the bound — ``max_staleness_seconds=0`` *always* rejects: zero
staleness is a primary read by definition.

Sources come in two flavors: :class:`LocalSource` calls a
:class:`~repro.replication.primary.ReplicationPublisher` in-process
(the chaos harness uses this to run hundreds of schedules without
sockets) and :class:`RemoteSource` speaks the binary protocol through
:class:`~repro.server.client.ServerClient`.  Fault injection wraps a
source, which is why the replica treats *any* source exception as a
transient connection problem: count a reconnect, back off, retry.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Optional

from repro.engine.database import Database
from repro.errors import (
    ExecutionError,
    RecoveryError,
    ReplicaStaleError,
    ReproError,
)
from repro.durability.snapshot import read_snapshot
from repro.replication.log import (
    LSN_START,
    format_lsn,
    lsn_from_wire,
    lsn_to_wire,
)

__all__ = ["Replica", "ReplicaDatabase", "LocalSource", "RemoteSource"]


# -- sources ----------------------------------------------------------------------


class LocalSource:
    """In-process source: direct calls into a publisher (tests)."""

    def __init__(self, publisher):
        self.publisher = publisher

    def register(self, replica_id: str,
                 address: Optional[str] = None) -> dict:
        return self.publisher.handle({
            "verb": "repl", "action": "register",
            "replica_id": replica_id, "address": address})

    def snapshot(self, replica_id: str) -> dict:
        return self.publisher.handle({
            "verb": "repl", "action": "snapshot",
            "replica_id": replica_id})

    def wal(self, replica_id: str, lsn, max_records: int) -> dict:
        return self.publisher.handle({
            "verb": "repl", "action": "wal", "replica_id": replica_id,
            "lsn": lsn_to_wire(lsn), "max_records": max_records})

    def detach(self, replica_id: str) -> dict:
        return self.publisher.handle({
            "verb": "repl", "action": "detach",
            "replica_id": replica_id})

    def close(self) -> None:
        pass


class RemoteSource:
    """Network source: the ``repl`` verb over the binary protocol."""

    def __init__(self, host: str, port: int,
                 timeout_seconds: float = 30.0):
        from repro.server.client import ServerClient
        self.client = ServerClient(host, port,
                                   timeout_seconds=timeout_seconds,
                                   pool_size=1)

    def register(self, replica_id: str,
                 address: Optional[str] = None) -> dict:
        return self.client.request({
            "verb": "repl", "action": "register",
            "replica_id": replica_id, "address": address})

    def snapshot(self, replica_id: str) -> dict:
        return self.client.request({
            "verb": "repl", "action": "snapshot",
            "replica_id": replica_id})

    def wal(self, replica_id: str, lsn, max_records: int) -> dict:
        return self.client.request({
            "verb": "repl", "action": "wal", "replica_id": replica_id,
            "lsn": lsn_to_wire(lsn), "max_records": max_records})

    def detach(self, replica_id: str) -> dict:
        return self.client.request({
            "verb": "repl", "action": "detach",
            "replica_id": replica_id})

    def close(self) -> None:
        self.client.close()


# -- the replica database ---------------------------------------------------------


class ReplicaDatabase(Database):
    """An in-memory read-only database fed by a :class:`Replica`.

    Adds two things over a plain :class:`Database`:

    * query requests are checked against their staleness bound /
      read-your-writes token *before* execution (typed
      ``REPLICA_STALE`` rejection), and successful query responses are
      annotated with ``served_by`` / ``applied_lsn`` /
      ``staleness_seconds`` so clients and tests can verify where a
      read landed and how fresh it was;
    * the ``repl`` verb answers replication status (role ``replica``).
    """

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.read_only = True
        self.replica: Optional["Replica"] = None

    def execute_request(self, request: dict) -> dict:
        if isinstance(request, dict) and request.get("verb") == "repl":
            if self.replica is None:
                raise ExecutionError(
                    "this replica database has no attached Replica")
            return self.replica.handle(request)
        is_query = isinstance(request, dict) \
            and request.get("verb") == "query"
        annotation = None
        if is_query and self.replica is not None:
            # Check the bound AND capture the annotation in one shot:
            # the staleness a client sees on the response is exactly
            # the value that was admitted against the bound, not a
            # later re-measurement inflated by execution time.
            annotation = self.replica.admit_query(request)
        response = super().execute_request(request)
        if annotation is not None and isinstance(response, dict) \
                and response.get("ok"):
            response.update(annotation)
        return response


# -- the replica ------------------------------------------------------------------


class Replica:
    """Bootstraps and tails one primary into a :class:`ReplicaDatabase`.

    ``source`` is a :class:`LocalSource`/:class:`RemoteSource` (or any
    fault-injecting wrapper with the same five methods).  The replica
    can be driven manually (:meth:`bootstrap` + :meth:`poll_once` —
    what the deterministic tests do) or by its background tail thread
    (:meth:`start`/:meth:`stop`).  Each poll replays its ship batch as
    one engine batch; ``applied_lsn`` moves only after that batch is
    published.
    """

    def __init__(self, source, replica_id: Optional[str] = None,
                 database: Optional[ReplicaDatabase] = None,
                 address: Optional[str] = None,
                 poll_interval: float = 0.05,
                 batch_records: int = 512):
        self.source = source
        self.replica_id = replica_id or f"replica-{os.getpid()}"
        self.database = database or ReplicaDatabase()
        self.database.replica = self
        self.address = address
        self.poll_interval = poll_interval
        self.batch_records = batch_records
        self.state = "init"  # init/bootstrapping/tailing/stopped
        self.applied_lsn: tuple[int, int] = LSN_START
        self.primary_lsn: Optional[tuple[int, int]] = None
        #: The newest instant this replica is *known* to reflect: the
        #: last applied record's primary append-clock, or the local
        #: time of the last fully-caught-up poll, whichever is later.
        self.freshness_ts: Optional[float] = None
        self.records_applied = 0
        self.batches_received = 0
        self.bytes_received = 0
        self.duplicates_skipped = 0
        self.reconnects = 0
        self.bootstraps = 0
        self.gaps = 0
        self.queries_rejected_stale = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._register_metrics()

    # -- bootstrap + replay -------------------------------------------------------

    def bootstrap(self) -> dict:
        """Install the primary's newest checkpoint image and reset the
        cursor to it.  Also the divergence/gap recovery path — any
        previous in-memory state is discarded wholesale."""
        self.state = "bootstrapping"
        self.freshness_ts = None
        response = self.source.snapshot(self.replica_id)
        data = response.get("data")
        lsn = lsn_from_wire(response["lsn"])
        database = self.database
        if data:
            state = read_snapshot(data)
            database.install_snapshot_state(state)
            self.bytes_received += len(data)
        else:
            # No checkpoint on the primary yet: start empty and replay
            # the log from its very beginning.
            with database.write_locked():
                database._publish({}, None, 0)
        self.applied_lsn = lsn
        self.primary_lsn = lsn_from_wire(response["primary_lsn"])
        self.bootstraps += 1
        self.state = "tailing"
        return response

    def poll_once(self) -> int:
        """Fetch + replay one ship batch; returns records applied.

        Raises whatever the source raises (connection trouble) — the
        tail loop catches those; deterministic tests see them directly.
        """
        fetch_ts = time.time()
        sent_cursor = self.applied_lsn
        batch = self.source.wal(self.replica_id, sent_cursor,
                                self.batch_records)
        self.batches_received += 1
        # A duplicated (re-delivered old) response carries the cursor
        # of some *earlier* request.  Its records replay idempotently,
        # but it must never count as evidence of current freshness,
        # and its stale primary_lsn must not shrink the known lag.
        echoed = batch.get("cursor")
        fresh_response = (echoed is None
                          or lsn_from_wire(echoed) == sent_cursor)
        reported = lsn_from_wire(batch["primary_lsn"])
        if self.primary_lsn is None or reported > self.primary_lsn:
            self.primary_lsn = reported
        if batch.get("gap"):
            # Our WAL segment was pruned (lost/expired pin): the only
            # safe continuation is a fresh snapshot.
            self.gaps += 1
            self.bootstrap()
            return 0
        applied = self._apply_records(batch)
        next_lsn = lsn_from_wire(batch["lsn"])
        if not batch["records"] and batch.get("rotated") \
                and next_lsn > self.applied_lsn:
            # Rotation: the cursor jumps to the next generation's
            # floor.  Safe even for a duplicated (re-delivered)
            # rotation batch: once the writer rotated, the old
            # generation never grows again, so "exhausted at
            # production time" means exhausted forever.  The cursor is
            # NEVER advanced from a non-rotation batch's claimed LSN —
            # only to the last record of a published batch — so a
            # truncated/garbled batch can at worst delay replay, never
            # skip records.
            self.applied_lsn = next_lsn
        if fresh_response and self.applied_lsn >= self.primary_lsn:
            # Fully caught up as of the moment we *started* the fetch:
            # everything the primary acknowledged before then is
            # applied here (pre-fetch local clock, so a skewed remote
            # clock can only make us report ourselves staler).
            self._advance_freshness(fetch_ts)
        return applied

    def _apply_records(self, batch: dict) -> int:
        """Replay a ship batch's new records as one engine batch.

        Records at or below the cursor (a duplicated ship batch, or
        overlap after a retried poll) are skipped; the rest go to
        :meth:`Database._replay_records`, which publishes them in one
        snapshot swap.  The cursor and freshness advance only after
        that publish, so an ``admit_query`` ``min_lsn`` check never
        admits a read the published snapshot cannot satisfy.
        """
        generation = lsn_from_wire(batch["lsn"])[0]
        fresh = []
        last_lsn = self.applied_lsn
        for record, end in zip(batch["records"], batch["offsets"]):
            lsn = (generation, end)
            if lsn <= last_lsn:
                self.duplicates_skipped += 1
                continue
            fresh.append(record)
            last_lsn = lsn
        if not fresh:
            return 0
        database = self.database
        try:
            with database.write_locked():
                database._replay_records(fresh)
        except RecoveryError:
            # Divergence: a record's generation stamp disagrees with
            # our state (e.g. records lost across a gap we failed to
            # notice).  The batch was dropped unpublished; re-bootstrap
            # rather than serve wrong answers.
            self.bootstrap()
            return 0
        self.applied_lsn = last_lsn
        self.records_applied += len(fresh)
        stamps = [float(record["ts"]) for record in fresh
                  if isinstance(record.get("ts"), (int, float))]
        if stamps:
            self._advance_freshness(max(stamps))
        return len(fresh)

    def _advance_freshness(self, ts: float) -> None:
        if self.freshness_ts is None or ts > self.freshness_ts:
            self.freshness_ts = ts

    # -- staleness ----------------------------------------------------------------

    def staleness_seconds(self, now: Optional[float] = None) -> float:
        """Seconds behind the primary this replica may be (infinite
        until the first bootstrap/catch-up establishes freshness)."""
        if self.freshness_ts is None:
            return float("inf")
        if now is None:
            now = time.time()
        return max(0.0, now - self.freshness_ts)

    def admit_query(self, request: dict) -> dict:
        """Check a query's staleness bound / read-your-writes token and
        return the serving annotation measured *at admission* (typed
        ``REPLICA_STALE`` rejection when the bound cannot be met)."""
        staleness = self.staleness_seconds()
        min_lsn = request.get("min_lsn")
        if min_lsn is not None:
            required = lsn_from_wire(min_lsn)
            if self.applied_lsn < required:
                self.queries_rejected_stale += 1
                raise ReplicaStaleError(
                    f"replica {self.replica_id} applied "
                    f"{format_lsn(self.applied_lsn)} but the request "
                    f"requires {format_lsn(required)} "
                    f"(read-your-writes)",
                    applied_lsn=lsn_to_wire(self.applied_lsn),
                    staleness_seconds=staleness)
        bound = request.get("max_staleness_seconds")
        if bound is not None:
            bound = float(bound)
            if bound <= 0 or staleness > bound:
                self.queries_rejected_stale += 1
                raise ReplicaStaleError(
                    f"replica {self.replica_id} is {staleness:.3f}s "
                    f"stale (bound {bound:g}s; zero means "
                    f"primary-only)",
                    applied_lsn=lsn_to_wire(self.applied_lsn),
                    staleness_seconds=staleness)
        return {
            "served_by": self.replica_id,
            "role": "replica",
            "applied_lsn": lsn_to_wire(self.applied_lsn),
            "staleness_seconds": (staleness
                                  if staleness != float("inf")
                                  else None),
        }

    def check_bound(self, request: dict) -> None:
        """Reject a query whose staleness bound / read-your-writes
        token this replica cannot honor (``REPLICA_STALE``)."""
        self.admit_query(request)

    # -- lifecycle ----------------------------------------------------------------

    def register(self) -> dict:
        return self.source.register(self.replica_id,
                                    address=self.address)

    def start(self) -> None:
        """Register, bootstrap, and tail in a daemon thread."""
        if self._thread is not None:
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name=f"repl-{self.replica_id}",
            daemon=True)
        self._thread.start()

    def _run(self) -> None:
        backoff = self.poll_interval
        while not self._stop.is_set():
            try:
                if self.state != "tailing":
                    # First start, restart after stop, or a bootstrap
                    # that failed mid-flight: (re)establish the cursor.
                    self.register()
                    self.bootstrap()
                applied = self.poll_once()
                backoff = self.poll_interval
                if applied and self.applied_lsn < (self.primary_lsn
                                                   or LSN_START):
                    continue  # more to drain: no sleep between batches
            except ReproError:
                self.reconnects += 1
                backoff = min(backoff * 2, 1.0)
            except (ConnectionError, OSError):
                self.reconnects += 1
                backoff = min(backoff * 2, 1.0)
            self._stop.wait(backoff)

    def stop(self, detach: bool = False) -> None:
        """Stop tailing.  ``detach=True`` additionally drops the
        primary-side registration + retention pin (clean shutdown); a
        plain stop models a crash — the pin survives until its TTL."""
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=5.0)
            self._thread = None
        self.state = "stopped"
        if detach:
            try:
                self.source.detach(self.replica_id)
            except (ReproError, ConnectionError, OSError):
                pass
        self.source.close()

    # -- status / metrics ---------------------------------------------------------

    def lag_lsn(self) -> Optional[int]:
        """Bytes between the primary's position and ours, when both are
        in the same generation (None across a generation boundary —
        byte math is meaningless there)."""
        if self.primary_lsn is None:
            return None
        if self.primary_lsn[0] != self.applied_lsn[0]:
            return None
        return max(0, self.primary_lsn[1] - self.applied_lsn[1])

    def status(self) -> dict:
        staleness = self.staleness_seconds()
        return {
            "replica_id": self.replica_id,
            "state": self.state,
            "address": self.address,
            "applied_lsn": lsn_to_wire(self.applied_lsn),
            "primary_lsn": (lsn_to_wire(self.primary_lsn)
                            if self.primary_lsn else None),
            "lag_bytes": self.lag_lsn(),
            "staleness_seconds": (staleness
                                  if staleness != float("inf")
                                  else None),
            "records_applied": self.records_applied,
            "batches_received": self.batches_received,
            "bytes_received": self.bytes_received,
            "duplicates_skipped": self.duplicates_skipped,
            "reconnects": self.reconnects,
            "bootstraps": self.bootstraps,
            "gaps": self.gaps,
            "queries_rejected_stale": self.queries_rejected_stale,
            "documents": len(self.database.documents),
        }

    def handle(self, request: dict) -> dict:
        """The ``repl`` verb on the *replica* side (status only — a
        replica does not publish)."""
        action = request.get("action") or "status"
        if action == "status":
            return {"ok": True, "verb": "repl", "action": "status",
                    "role": "replica", **self.status()}
        raise ExecutionError(
            f"unknown repl action {action!r} on a replica; only "
            f"'status' is served here")

    def _register_metrics(self) -> None:
        registry = self.database.observability.registry
        registry.register_pull(
            "repro_repl_staleness_seconds", "gauge",
            "Upper bound on this replica's staleness (-1 until the "
            "first bootstrap establishes freshness).",
            lambda: (self.staleness_seconds()
                     if self.freshness_ts is not None else -1.0))
        registry.register_pull(
            "repro_repl_applied_generation", "gauge",
            "WAL generation of the replica's applied LSN.",
            lambda: self.applied_lsn[0])
        registry.register_pull(
            "repro_repl_applied_offset", "gauge",
            "Byte offset of the replica's applied LSN.",
            lambda: self.applied_lsn[1])
        registry.register_pull(
            "repro_repl_records_applied_total", "counter",
            "WAL records replayed on this replica.",
            lambda: self.records_applied)
        registry.register_pull(
            "repro_repl_batches_total", "counter",
            "Ship batches fetched from the primary.",
            lambda: self.batches_received)
        registry.register_pull(
            "repro_repl_bytes_received_total", "counter",
            "Snapshot + WAL bytes received from the primary.",
            lambda: self.bytes_received)
        registry.register_pull(
            "repro_repl_duplicates_skipped_total", "counter",
            "Duplicated shipped records skipped idempotently.",
            lambda: self.duplicates_skipped)
        registry.register_pull(
            "repro_repl_reconnects_total", "counter",
            "Source failures that triggered a reconnect/backoff.",
            lambda: self.reconnects)
        registry.register_pull(
            "repro_repl_bootstraps_total", "counter",
            "Snapshot bootstraps (initial + divergence/gap recovery).",
            lambda: self.bootstraps)
        registry.register_pull(
            "repro_repl_stale_rejections_total", "counter",
            "Queries rejected for exceeding their staleness bound.",
            lambda: self.queries_rejected_stale)
