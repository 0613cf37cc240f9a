"""Query compilation & result caching — the serving layer.

The seed engine treated every :meth:`Database.query` call as a batch job:
lex → parse → backward-translate → rewrite → plan → run, with nothing
remembered between calls.  Repeated-query traffic (the ROADMAP's
"millions of users" workload) re-pays the whole front half of that
pipeline per call even though it is a pure function of the query text.

Three caches fix that:

:class:`PlanCache`
    A size-bounded LRU mapping *normalized query text* to the compiled
    logical plan (``rewrite_plan(backward_translate(parse_xquery(q)))``).
    Plans are immutable after compilation, so one compiled plan serves
    any number of concurrent executions, strategies, and documents.

:class:`ResultCache`
    A size-bounded LRU of fully materialised result sequences for
    *read-only* executions, keyed by (normalized text, strategy, target
    document) and stamped with the pinned snapshot's **version
    vector** — the load epoch plus every loaded document's unique
    ``version_id`` (precomputed on each
    :class:`~repro.engine.database.DatabaseSnapshot`).  Any
    ``insert``/``delete``/``load``/``rebuild_derived`` publishes new
    version ids, so stale hits are structurally impossible: a stamp
    mismatch is treated as a miss and the dead entry is dropped, and
    each publish drops every stale entry at once
    (:meth:`ResultCache.drop_stale`), so cached node handles never keep
    a retired version alive.
    Queries with external variable bindings bypass this cache (bindings
    are not part of the key).

Strategy memo (wired in :class:`repro.physical.planner.PhysicalPlanner`)
    ``auto``-mode strategy choice is memoized per document, keyed on the
    pattern signature and the statistics generation, so a hot query does
    not re-cost every strategy on every call.

Every cache exposes hit/miss/eviction counters; the database aggregates
them in :meth:`Database.cache_report` and per-query in
``QueryResult.stats["cache"]``.

All three caches are **thread-safe**: every :class:`LRUCache` operation
holds an internal RLock, and the result cache's compound
stamp-check-then-promote runs under that same lock, so the serving
layer's concurrent readers (see :meth:`Database.query_many`) can
share them without external synchronization.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Optional

__all__ = ["CacheStats", "LRUCache", "PlanCache", "ResultCache",
           "PreparedQuery", "normalize_query"]


def _scan_string_literal(text: str, start: int) -> int:
    """The index one past the string literal opening at ``start``.

    Follows the lexer's rules: single- or double-quoted, with a doubled
    quote as the escape (``"a""b"`` is one literal).  An unterminated
    literal swallows the rest of the text (the lexer will reject the
    query anyway; the key just has to be deterministic).
    """
    quote = text[start]
    position = start + 1
    length = len(text)
    while position < length:
        if text[position] == quote:
            if position + 1 < length and text[position + 1] == quote:
                position += 2  # doubled-quote escape, still inside
                continue
            return position + 1
        position += 1
    return length


def normalize_query(text: str) -> str:
    """The cache key for a query text: whitespace-collapsed *outside*
    string literals.

    Only runs of whitespace between tokens are folded (to one space,
    with the ends stripped), so two texts normalize equal only when
    they tokenize identically.  Whitespace **inside** ``"…"``/``'…'``
    literals is significant — ``//book[title="a  b"]`` and
    ``//book[title="a b"]`` are different queries and must not collide
    on one plan-cache/result-cache key — so literal bodies are copied
    through verbatim (doubled-quote escapes included).
    """
    parts: list[str] = []
    position = 0
    length = len(text)
    while position < length:
        character = text[position]
        if character in ("'", '"'):
            end = _scan_string_literal(text, position)
            parts.append(text[position:end])
            position = end
        elif character.isspace():
            end = position
            while end < length and text[end].isspace():
                end += 1
            if parts and end < length:
                parts.append(" ")  # neither leading nor trailing
            position = end
        else:
            end = position
            while end < length and not text[end].isspace() \
                    and text[end] not in ("'", '"'):
                end += 1
            parts.append(text[position:end])
            position = end
    return "".join(parts)


class CacheStats:
    """Hit/miss/eviction/invalidation counters for one cache."""

    __slots__ = ("hits", "misses", "evictions", "invalidations")

    def __init__(self):
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def snapshot(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
        }

    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0.0 before any lookup) — the figure the
        observability layer's cache panel exports."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0


class LRUCache:
    """A size-bounded, **thread-safe** LRU map with counter accounting.

    ``capacity <= 0`` disables the cache entirely (every lookup is a
    recorded miss, nothing is stored) — that is the documented way to
    switch a cache off.

    Every operation holds ``self.lock`` (an :class:`threading.RLock`),
    so entries, LRU order, and the hit/miss/eviction counters stay
    mutually consistent under concurrent readers.  Compound operations
    that need several steps to be atomic (e.g. the result cache's
    stamp-check-then-promote) take the same lock around the sequence —
    the RLock makes the nested method calls free.
    """

    def __init__(self, capacity: int, stats: Optional[CacheStats] = None):
        self.capacity = capacity
        self.stats = stats if stats is not None else CacheStats()
        self.lock = threading.RLock()
        self._entries: OrderedDict[Any, Any] = OrderedDict()

    def get(self, key: Any) -> Any:
        """The cached value, or ``None`` on a miss (counted)."""
        with self.lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return entry

    def peek(self, key: Any) -> Any:
        """Like :meth:`get` but without touching LRU order or counters."""
        with self.lock:
            return self._entries.get(key)

    def put(self, key: Any, value: Any) -> None:
        """Store ``value``, evicting the LRU entry beyond capacity."""
        if self.capacity <= 0:
            return
        with self.lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = value
            if len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    def invalidate(self, key: Any) -> None:
        """Drop one entry (counted as an invalidation if present)."""
        with self.lock:
            if self._entries.pop(key, None) is not None:
                self.stats.invalidations += 1

    def clear(self) -> int:
        """Drop everything; returns the number of entries dropped."""
        with self.lock:
            dropped = len(self._entries)
            self.stats.invalidations += dropped
            self._entries.clear()
            return dropped

    def __len__(self) -> int:
        with self.lock:
            return len(self._entries)

    def report(self) -> dict[str, int]:
        """Counters plus occupancy, for :meth:`Database.cache_report`."""
        with self.lock:
            report = self.stats.snapshot()
            report["entries"] = len(self._entries)
            report["capacity"] = self.capacity
            report["hit_rate"] = self.stats.hit_rate
            return report


class PlanCache:
    """LRU of compiled logical plans keyed by normalized query text."""

    def __init__(self, capacity: int = 128):
        self._lru = LRUCache(capacity)

    def get_or_compile(self, text: str,
                       compiler: Callable[[str], Any]) -> tuple[Any, bool]:
        """``(plan, was_hit)`` — compiles (and stores) on a miss.

        Compilation runs *outside* the cache lock: holding it would
        serialize every concurrent compile behind the slowest one.  Two
        threads racing on the same cold key may both compile; plans are
        pure values, so the last ``put`` winning is harmless.
        """
        key = normalize_query(text)
        plan = self._lru.get(key)
        if plan is not None:
            return plan, True
        plan = compiler(text)
        self._lru.put(key, plan)
        return plan, False

    def clear(self) -> int:
        return self._lru.clear()

    def __len__(self) -> int:
        return len(self._lru)

    def report(self) -> dict[str, int]:
        return self._lru.report()


class ResultCache:
    """Version-stamped LRU of materialised read-only results.

    Entries are ``(stamp, items, strategy)``, the stamp being the
    pinned snapshot's version vector; a lookup whose stamp does not
    exactly match the current snapshot's drops the entry and reports a
    miss, so results can never survive a snapshot publish (update,
    load, or derived rebuild) on any loaded document.
    """

    def __init__(self, capacity: int = 256):
        self._lru = LRUCache(capacity)

    @staticmethod
    def key(text: str, strategy: str, uri: Optional[str]) -> tuple:
        return (normalize_query(text), strategy, uri)

    def lookup(self, key: tuple, stamp: tuple) -> Optional[tuple]:
        """``(items, strategy)`` on a fresh hit, else ``None``.

        The returned ``items`` list is a **copy**: ``store`` copies on
        the way in, so returning the cached list by reference would let
        one caller's ``result.items`` mutation corrupt every later hit.
        The stamp-check / invalidate / LRU-promote sequence holds the
        cache lock so a concurrent ``store`` or ``clear`` cannot
        interleave between the peek and the promote.
        """
        with self._lru.lock:
            entry = self._lru.peek(key)
            if entry is None:
                self._lru.stats.misses += 1
                return None
            cached_stamp, items, strategy = entry
            if cached_stamp != stamp:
                self._lru.invalidate(key)
                self._lru.stats.misses += 1
                return None
            # Re-record as a genuine hit (peek skipped the counters).
            self._lru.get(key)
            return list(items), strategy

    def store(self, key: tuple, stamp: tuple, items: list,
              strategy: Optional[str]) -> None:
        self._lru.put(key, (stamp, list(items), strategy))

    def drop_stale(self, stamp: tuple) -> int:
        """Drop every entry whose stamp is not ``stamp`` (the database
        calls this at each publish, so no retired version stays pinned
        by a cached result); returns the number dropped."""
        lru = self._lru
        with lru.lock:
            stale = [key for key, (cached_stamp, _, _)
                     in lru._entries.items() if cached_stamp != stamp]
            for key in stale:
                lru.invalidate(key)
        return len(stale)

    def clear(self) -> int:
        return self._lru.clear()

    def __len__(self) -> int:
        return len(self._lru)

    def report(self) -> dict[str, int]:
        return self._lru.report()


class PreparedQuery:
    """A pre-compiled query bound to a database — the serving-path API.

    Obtained from :meth:`Database.prepare`; holds the compiled logical
    plan so repeated :meth:`run` calls skip the whole compilation
    pipeline (and still benefit from the result cache)::

        hot = db.prepare("//item[price > 50]/name")
        for _ in range(10_000):
            result = hot.run()
    """

    __slots__ = ("database", "text", "plan")

    def __init__(self, database, text: str, plan):
        self.database = database
        self.text = text
        self.plan = plan

    def run(self, strategy: str = "auto", uri: Optional[str] = None,
            variables: Optional[dict] = None,
            timeout_seconds: Optional[float] = None):
        """Execute; same contract as :meth:`Database.query`."""
        return self.database._run_compiled(
            self.text, self.plan, plan_hit=True, strategy=strategy,
            uri=uri, variables=variables,
            timeout_seconds=timeout_seconds)

    __call__ = run

    def explain(self, strategy: str = "auto",
                uri: Optional[str] = None) -> str:
        """The plan + strategy explanation for this prepared query."""
        return self.database.explain(self.text, strategy=strategy, uri=uri)

    def __repr__(self) -> str:
        return f"<PreparedQuery {normalize_query(self.text)!r}>"
