"""Page manager and LRU buffer pool with I/O counters.

The paper argues about *I/O cost*: a single sequential scan of the succinct
structure versus many index probes and list merges for join-based plans.
This environment has no real disk, so — per the substitution table in
DESIGN.md — we count page accesses instead of timing a device.

A :class:`PageManager` hands out named **segments** (byte extents standing
in for files: the BP bits, the tag array, each tag's posting list, B+ tree
levels...).  Operators *touch* byte ranges of a segment; a touch resolves
to page ids, which hit or miss an LRU :class:`BufferPool`.  Misses count as
page reads.  The resulting counters are what the E-series benchmarks
report alongside wall-clock time.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

__all__ = ["IOCounters", "BufferPool", "PageManager", "Segment",
           "miss_rate"]

DEFAULT_PAGE_SIZE = 4096
DEFAULT_POOL_PAGES = 256

COUNTER_FIELDS = ("page_reads", "page_writes", "pool_hits",
                  "logical_touches")


def miss_rate(charged_pages: int, capacity: int) -> float:
    """Expected share of ``charged_pages`` that miss an LRU pool of
    ``capacity`` pages: 0 when they all fit, else the share that cannot
    stay resident (``1 - capacity / charged_pages``)."""
    if charged_pages <= capacity:
        return 0.0
    return 1.0 - capacity / charged_pages


@dataclass
class IOCounters:
    """Cumulative I/O statistics for one page manager."""

    page_reads: int = 0       # buffer-pool misses (would hit the device)
    page_writes: int = 0      # dirty pages written back
    pool_hits: int = 0        # touches satisfied from the pool
    logical_touches: int = 0  # byte-range touches requested by operators

    def reset(self) -> None:
        """Zero every counter."""
        self.page_reads = 0
        self.page_writes = 0
        self.pool_hits = 0
        self.logical_touches = 0

    def snapshot(self) -> dict[str, int]:
        """A plain-dict copy (for benchmark rows)."""
        return {
            "page_reads": self.page_reads,
            "page_writes": self.page_writes,
            "pool_hits": self.pool_hits,
            "logical_touches": self.logical_touches,
        }


class BufferPool:
    """A fixed-capacity LRU cache of (segment, page) ids."""

    __slots__ = ("capacity", "_pages", "counters")

    def __init__(self, capacity: int = DEFAULT_POOL_PAGES,
                 counters: IOCounters | None = None):
        if capacity < 1:
            raise ValueError("buffer pool needs at least one page")
        self.capacity = capacity
        # key -> dirty flag; OrderedDict gives O(1) LRU.
        self._pages: OrderedDict[tuple[int, int], bool] = OrderedDict()
        self.counters = counters if counters is not None else IOCounters()

    def access(self, segment_id: int, page_id: int,
               write: bool = False) -> bool:
        """Access one page; returns True on a pool hit."""
        key = (segment_id, page_id)
        if key in self._pages:
            self._pages.move_to_end(key)
            if write:
                self._pages[key] = True
            self.counters.pool_hits += 1
            return True
        self.counters.page_reads += 1
        self._pages[key] = write
        if len(self._pages) > self.capacity:
            _, dirty = self._pages.popitem(last=False)
            if dirty:
                self.counters.page_writes += 1
        return False

    def flush(self) -> None:
        """Write back every dirty page (counted) and empty the pool."""
        for dirty in self._pages.values():
            if dirty:
                self.counters.page_writes += 1
        self._pages.clear()

    def __len__(self) -> int:
        return len(self._pages)


@dataclass
class Segment:
    """A named byte extent owned by a :class:`PageManager`."""

    manager: "PageManager"
    segment_id: int
    name: str
    length: int = 0

    def touch(self, offset: int, length: int = 1, write: bool = False) -> None:
        """Record an access to ``[offset, offset + length)`` bytes."""
        self.manager.touch(self, offset, length, write=write)

    def page_span(self, offset: int, length: int) -> range:
        """Page ids covered by the byte range."""
        page_size = self.manager.page_size
        first = offset // page_size
        last = max(offset, offset + length - 1) // page_size
        return range(first, last + 1)

    @property
    def pages(self) -> int:
        """Total pages this segment occupies."""
        return max(1, -(-self.length // self.manager.page_size))


class PageManager:
    """Owns segments and routes touches through one buffer pool.

    Thread safety & per-thread accounting
    -------------------------------------

    Every touch holds ``io_lock`` around the pool access *and* the
    counter updates, so the LRU structure and the counters stay
    consistent under concurrent queries.  Two sets of counters are
    maintained under that lock:

    * ``counters`` — the cumulative totals across all threads (what the
      benchmarks report);
    * a per-thread :class:`IOCounters`, credited with the same deltas
      (snapshot-and-diff around each touch).

    A query reports its own I/O by diffing :meth:`thread_snapshot`
    before and after execution; because each thread only ever advances
    its own counters, concurrent queries cannot race each other's
    accounting, and the per-thread counters always sum to the
    cumulative ones.
    """

    def __init__(self, page_size: int = DEFAULT_PAGE_SIZE,
                 pool_pages: int = DEFAULT_POOL_PAGES):
        if page_size < 64:
            raise ValueError("page size unrealistically small")
        self.page_size = page_size
        self.counters = IOCounters()
        self.pool = BufferPool(pool_pages, counters=self.counters)
        self.io_lock = threading.RLock()
        self._segments: dict[str, Segment] = {}
        self._next_id = 0
        # thread ident -> that thread's private counters.  A dict (not
        # threading.local) so reset() and invariant checks can see every
        # thread's numbers; idents of dead threads may be reused, which
        # only ever *continues* a cumulative counter — diff-based
        # per-query accounting stays exact.
        self._thread_counters: dict[int, IOCounters] = {}
        # Counters folded out of _thread_counters when their thread
        # died (see prune_dead_threads): keeps the dict bounded under
        # thread churn without losing history, so the invariant
        # ``threads_total() == counters`` keeps holding.
        self._retired = IOCounters()

    # -- per-thread accounting --------------------------------------------------

    def thread_counters(self) -> IOCounters:
        """The calling thread's private I/O counters (created lazily)."""
        ident = threading.get_ident()
        with self.io_lock:
            counters = self._thread_counters.get(ident)
            if counters is None:
                counters = IOCounters()
                self._thread_counters[ident] = counters
            return counters

    def thread_snapshot(self) -> dict[str, int]:
        """Snapshot of the calling thread's own counters — the basis of
        per-query I/O reports (diff two of these around an execution)."""
        return self.thread_counters().snapshot()

    def prune_dead_threads(self) -> int:
        """Fold the counters of dead threads into the retired bucket.

        Every query thread that ever touched a page leaves an entry in
        ``_thread_counters``; under thread churn (one pool per batch,
        say) that dict grew without bound.  Folding — rather than
        dropping — dead idents keeps the cumulative invariant
        ``threads_total() == counters`` intact.  Returns the number of
        entries retired.
        """
        alive = {thread.ident for thread in threading.enumerate()}
        pruned = 0
        with self.io_lock:
            for ident in [i for i in self._thread_counters
                          if i not in alive]:
                counters = self._thread_counters.pop(ident)
                for field_name in COUNTER_FIELDS:
                    setattr(self._retired, field_name,
                            getattr(self._retired, field_name)
                            + getattr(counters, field_name))
                pruned += 1
        return pruned

    def threads_total(self) -> dict[str, int]:
        """Sum of every thread's counters plus the retired bucket
        (equals ``counters`` as long as all charging goes through this
        manager — an invariant the concurrency stress suite checks).
        Dead threads are pruned on the way."""
        with self.io_lock:
            self.prune_dead_threads()
            totals = self._retired.snapshot()
            for counters in self._thread_counters.values():
                for field_name in COUNTER_FIELDS:
                    totals[field_name] += getattr(counters, field_name)
            return totals

    def _credit_thread(self, before: dict[str, int]) -> None:
        """Add the global-counter delta since ``before`` to the calling
        thread's counters.  Caller holds ``io_lock``."""
        local = self._thread_counters.get(threading.get_ident())
        if local is None:
            local = IOCounters()
            self._thread_counters[threading.get_ident()] = local
        for field_name in COUNTER_FIELDS:
            delta = getattr(self.counters, field_name) - before[field_name]
            if delta:
                setattr(local, field_name,
                        getattr(local, field_name) + delta)

    # -- segments ---------------------------------------------------------------

    def segment(self, name: str, length: int = 0) -> Segment:
        """Get or create the segment called ``name``; ``length`` updates
        the extent size when larger than the current one."""
        with self.io_lock:
            existing = self._segments.get(name)
            if existing is not None:
                if length > existing.length:
                    existing.length = length
                return existing
            segment = Segment(self, self._next_id, name, length)
            self._next_id += 1
            self._segments[name] = segment
            return segment

    # -- touching ---------------------------------------------------------------

    def touch(self, segment: Segment, offset: int, length: int,
              write: bool = False) -> None:
        """Access the byte range, counting page hits/misses."""
        if length <= 0:
            return
        with self.io_lock:
            before = self.counters.snapshot()
            self.counters.logical_touches += 1
            for page_id in segment.page_span(offset, length):
                self.pool.access(segment.segment_id, page_id, write=write)
            self._credit_thread(before)

    def sequential_scan(self, segment: Segment) -> None:
        """Touch every page of the segment once, in order — the cost of
        one full sequential read."""
        with self.io_lock:
            before = self.counters.snapshot()
            self.counters.logical_touches += 1
            for page_id in range(segment.pages):
                self.pool.access(segment.segment_id, page_id)
            self._credit_thread(before)

    def reset(self) -> None:
        """Cold start: zero every counter, then empty the pool through
        :meth:`BufferPool.flush` so dirty pages are *written back and
        counted* — after a reset, ``page_writes`` holds exactly the
        write-back cost of the state that was dropped.  (The seed
        reached into ``pool._pages.clear()`` directly, silently losing
        those writes.)"""
        with self.io_lock:
            self.prune_dead_threads()
            self.counters.reset()
            self._retired.reset()
            for counters in self._thread_counters.values():
                counters.reset()
            before = self.counters.snapshot()
            self.pool.flush()
            self._credit_thread(before)

    def segments(self) -> list[Segment]:
        """All registered segments."""
        with self.io_lock:
            return list(self._segments.values())

    def report(self) -> dict:
        """Cumulative I/O counters plus buffer-pool occupancy — one
        consistent snapshot for monitoring (the observability layer's
        ``repro_pages_*`` / ``repro_buffer_pool_*`` pull metrics read
        the same fields individually)."""
        with self.io_lock:
            return {
                **self.counters.snapshot(),
                "pool_pages": len(self.pool),
                "pool_capacity": self.pool.capacity,
                "segments": len(self._segments),
                "page_size": self.page_size,
            }
