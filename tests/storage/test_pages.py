"""Tests for the page manager, buffer pool, and I/O counters."""

import pytest

from repro.storage.pages import (
    BufferPool,
    IOCounters,
    PageManager,
    miss_rate,
)


class TestBufferPool:
    def test_miss_then_hit(self):
        pool = BufferPool(capacity=4)
        assert pool.access(0, 0) is False
        assert pool.access(0, 0) is True
        assert pool.counters.page_reads == 1
        assert pool.counters.pool_hits == 1

    def test_lru_eviction(self):
        pool = BufferPool(capacity=2)
        pool.access(0, 0)
        pool.access(0, 1)
        pool.access(0, 2)          # evicts page 0
        assert pool.access(0, 1) is True
        assert pool.access(0, 0) is False  # was evicted

    def test_access_refreshes_lru_position(self):
        pool = BufferPool(capacity=2)
        pool.access(0, 0)
        pool.access(0, 1)
        pool.access(0, 0)          # page 0 now most recent
        pool.access(0, 2)          # evicts page 1
        assert pool.access(0, 0) is True
        assert pool.access(0, 1) is False

    def test_dirty_eviction_counts_write(self):
        pool = BufferPool(capacity=1)
        pool.access(0, 0, write=True)
        pool.access(0, 1)
        assert pool.counters.page_writes == 1

    def test_flush_writes_dirty_pages(self):
        pool = BufferPool(capacity=8)
        pool.access(0, 0, write=True)
        pool.access(0, 1)
        pool.flush()
        assert pool.counters.page_writes == 1
        assert len(pool) == 0

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            BufferPool(capacity=0)

    def test_segments_do_not_collide(self):
        pool = BufferPool(capacity=8)
        pool.access(0, 5)
        assert pool.access(1, 5) is False  # different segment, same page id


class TestPageManager:
    def test_segment_reuse_by_name(self):
        pages = PageManager()
        first = pages.segment("tags", 100)
        second = pages.segment("tags", 50)
        assert first is second
        assert second.length == 100  # keeps the larger extent

    def test_touch_counts_page_span(self):
        pages = PageManager(page_size=100)
        segment = pages.segment("s", 1000)
        segment.touch(250, 300)  # bytes 250..549 -> pages 2..5
        assert pages.counters.page_reads == 4

    def test_touch_zero_length_is_free(self):
        pages = PageManager()
        segment = pages.segment("s", 100)
        pages.touch(segment, 0, 0)
        assert pages.counters.logical_touches == 0

    def test_sequential_scan_touches_every_page_once(self):
        pages = PageManager(page_size=100, pool_pages=64)
        segment = pages.segment("s", 950)
        pages.sequential_scan(segment)
        assert pages.counters.page_reads == 10
        pages.sequential_scan(segment)
        assert pages.counters.page_reads == 10  # second scan: pool hits

    def test_reset(self):
        pages = PageManager()
        segment = pages.segment("s", 100)
        segment.touch(0, 10)
        pages.reset()
        assert pages.counters.page_reads == 0
        segment.touch(0, 10)
        assert pages.counters.page_reads == 1  # pool was dropped too

    def test_page_size_validation(self):
        with pytest.raises(ValueError):
            PageManager(page_size=10)

    def test_counters_snapshot(self):
        counters = IOCounters(page_reads=3, pool_hits=2)
        snap = counters.snapshot()
        assert snap["page_reads"] == 3
        assert snap["pool_hits"] == 2
        counters.reset()
        assert counters.page_reads == 0

    def test_segment_pages_property(self):
        pages = PageManager(page_size=100)
        assert pages.segment("a", 250).pages == 3
        assert pages.segment("b", 0).pages == 1

    def test_prune_dead_threads_folds_into_retired(self):
        import threading

        pages = PageManager(page_size=100)
        segment = pages.segment("s", 1000)

        def worker():
            pages.touch(segment, 0, 500)

        for _ in range(8):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        pages.touch(segment, 0, 500)
        total_before = pages.counters.snapshot()

        assert len(pages._thread_counters) >= 2  # dead idents linger...
        pruned = pages.prune_dead_threads()
        assert pruned >= 1
        # ...and afterwards only live threads keep private entries,
        alive = {t.ident for t in threading.enumerate()}
        assert set(pages._thread_counters) <= alive
        # while the cumulative invariant still holds exactly.
        assert pages.threads_total() == total_before
        assert pages.threads_total() == pages.counters.snapshot()

    def test_threads_total_prunes_and_reset_clears_retired(self):
        import threading

        pages = PageManager(page_size=100)
        segment = pages.segment("s", 1000)
        thread = threading.Thread(
            target=lambda: pages.touch(segment, 0, 300))
        thread.start()
        thread.join()

        # threads_total() itself prunes the dead ident.
        totals = pages.threads_total()
        assert totals == pages.counters.snapshot()
        assert totals["page_reads"] > 0
        alive = {t.ident for t in threading.enumerate()}
        assert set(pages._thread_counters) <= alive

        pages.reset()
        zeroed = pages.threads_total()
        assert all(zeroed[f] == 0 for f in ("logical_touches",
                                            "pool_hits"))
        assert pages.threads_total() == pages.counters.snapshot()


class TestMissRate:
    def test_resident_pages_never_miss(self):
        assert miss_rate(0, 256) == 0.0
        assert miss_rate(63, 256) == 0.0
        assert miss_rate(256, 256) == 0.0

    def test_overflow_misses_the_share_that_cannot_stay(self):
        assert miss_rate(512, 256) == pytest.approx(0.5)
        assert miss_rate(12, 2) == pytest.approx(1 - 2 / 12)
        assert miss_rate(1000, 1) == pytest.approx(0.999)
