"""E11 — the concurrent serving layer: read throughput and mixed load.

Three experiments over an XMark document:

* **read-throughput scaling** — a fixed batch of queries fanned out
  through ``Database.query_many`` at increasing thread counts, in two
  regimes: *warm* (result cache on: a request is an LRU lookup under
  the cache lock — the "millions of users" serving path) and *execute*
  (result cache disabled: every request runs its physical plan against
  its pinned snapshot).  CPython's GIL bounds the parallel speedup of
  pure-Python execution; the measurement shows the cache overhead is
  small enough that batching stays at worst flat rather than degrading.
* **reader/writer mix** — reader threads serve a query stream while one
  writer thread inserts/deletes under the writer mutex; reports
  reader throughput next to writer latency, plus a correctness check
  (every reader answer equals one of the consistent snapshots).

Artifacts: ``benchmarks/results/e11_concurrency.txt`` plus
machine-readable numbers in
``benchmarks/results/BENCH_e11_concurrency.json``.

Run directly (``python benchmarks/bench_e11_concurrency.py [--quick]``)
or through pytest like the other experiments.
"""

from __future__ import annotations

import json
import threading
import time

if __package__ in (None, ""):  # direct `python benchmarks/bench_...py` run
    import pathlib
    import sys

    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from benchmarks.common import RESULTS_DIR, format_table, publish
from repro.engine.database import Database
from repro.workload import generate_xmark

QUERIES = [
    "//item/name",
    "/site/regions/europe/item",
    "//item[payment = 'Creditcard']",
    "//open_auction[initial > 100]",
    "count(//item)",
    "//person/name",
]

NEW_ITEM = ('<item id="conc-bench"><name>inserted</name>'
            '<payment>Cash</payment><quantity>1</quantity></item>')


def _database(scale: int, **kwargs) -> Database:
    database = Database(**kwargs)
    database.load_tree(generate_xmark(scale=scale, seed=42),
                       uri="xmark.xml")
    return database


def run_throughput_experiment(scale: int, batch_size: int,
                              worker_counts: list[int]) -> dict:
    """Queries/second of ``query_many`` vs thread count, warm & cold."""
    rows = []
    for warm in (True, False):
        database = _database(
            scale, result_cache_size=256 if warm else 0)
        batch = [QUERIES[i % len(QUERIES)] for i in range(batch_size)]
        expected = [database.query(q).values() for q in batch]
        baseline = None
        for workers in worker_counts:
            if not warm:
                database.clear_caches()
            started = time.perf_counter()
            results = database.query_many(batch, max_workers=workers)
            elapsed = time.perf_counter() - started
            assert [r.values() for r in results] == expected, workers
            qps = batch_size / max(elapsed, 1e-9)
            if baseline is None:
                baseline = qps
            rows.append({
                "regime": "warm (result cache)" if warm else
                          "execute (cache off)",
                "workers": workers,
                "queries": batch_size,
                "seconds": elapsed,
                "qps": qps,
                "vs_1_thread": qps / baseline,
            })
    return {"rows": rows, "scale": scale}


def run_mixed_experiment(scale: int, readers: int,
                         reader_queries: int,
                         writer_updates: int) -> dict:
    """Reader throughput while a writer churns under the write lock."""
    database = _database(scale)
    # Two consistent snapshots are possible mid-churn: with and without
    # the probe item.
    base = {q: database.query(q).values() for q in QUERIES}
    database.insert("/site/regions/europe", NEW_ITEM)
    alt = {q: database.query(q).values() for q in QUERIES}
    database.delete('//item[@id = "conc-bench"]')
    database.clear_caches()

    errors: list = []
    reader_seconds: list[float] = []
    writer_latencies: list[float] = []

    def reader(offset: int) -> None:
        started = time.perf_counter()
        for index in range(reader_queries):
            query = QUERIES[(offset + index) % len(QUERIES)]
            values = database.query(query).values()
            if values != base[query] and values != alt[query]:
                errors.append((query, len(values)))
        reader_seconds.append(time.perf_counter() - started)

    def writer() -> None:
        for _ in range(writer_updates):
            started = time.perf_counter()
            database.insert("/site/regions/europe", NEW_ITEM)
            database.delete('//item[@id = "conc-bench"]')
            writer_latencies.append(time.perf_counter() - started)

    threads = [threading.Thread(target=reader, args=(i,))
               for i in range(readers)]
    writer_thread = threading.Thread(target=writer)
    wall_started = time.perf_counter()
    for thread in threads + [writer_thread]:
        thread.start()
    for thread in threads + [writer_thread]:
        thread.join()
    wall = time.perf_counter() - wall_started

    assert not errors, errors[:3]
    total_queries = readers * reader_queries
    return {
        "scale": scale,
        "readers": readers,
        "reader_queries_each": reader_queries,
        "writer_updates": writer_updates,
        "wall_seconds": wall,
        "reader_qps": total_queries / max(wall, 1e-9),
        "writer_update_seconds_mean": (
            sum(writer_latencies) / max(len(writer_latencies), 1)),
        "consistency_violations": len(errors),
    }


def run(quick: bool = False) -> dict:
    scale = 40 if quick else 120
    batch = 120 if quick else 480
    worker_counts = [1, 2, 4] if quick else [1, 2, 4, 8]
    readers = 4 if quick else 8
    report = {
        "experiment": "e11_concurrency",
        "quick": quick,
        "throughput": run_throughput_experiment(scale, batch,
                                                worker_counts),
        "mixed": run_mixed_experiment(
            scale, readers=readers,
            reader_queries=15 if quick else 40,
            writer_updates=5 if quick else 12),
    }

    throughput_rows = [[row["regime"], row["workers"], row["queries"],
                        row["seconds"], row["qps"], row["vs_1_thread"]]
                       for row in report["throughput"]["rows"]]
    mixed = report["mixed"]
    table = "\n\n".join([
        format_table(
            f"E11 — read throughput vs thread count (xmark-{scale})",
            ["regime", "threads", "queries", "seconds", "qps",
             "vs 1 thread"],
            throughput_rows,
            note="warm = result-cache hits under the shared read lock; "
                 "execute = cache disabled, full physical execution "
                 "per call (GIL-bound)"),
        format_table(
            f"E11b — {mixed['readers']} readers + 1 writer "
            f"(xmark-{scale})",
            ["metric", "value"],
            [["reader qps",
              mixed["reader_qps"]],
             ["writer mean update ms",
              mixed["writer_update_seconds_mean"] * 1e3],
             ["consistency violations",
              mixed["consistency_violations"]]],
            note="every reader answer matched a consistent snapshot "
                 "(base or base+probe); readers pin MVCC snapshots, "
                 "the writer publishes copy-on-write versions"),
    ])
    publish("e11_concurrency", table)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_e11_concurrency.json").write_text(
        json.dumps(report, indent=2, default=str) + "\n",
        encoding="utf-8")
    return report


def test_e11_report():
    report = run(quick=True)
    assert report["mixed"]["consistency_violations"] == 0
    assert all(row["qps"] > 0 for row in report["throughput"]["rows"])


if __name__ == "__main__":
    import argparse

    argument_parser = argparse.ArgumentParser(description=__doc__)
    argument_parser.add_argument("--quick", action="store_true",
                                 help="small scale for CI smoke runs")
    arguments = argument_parser.parse_args()
    result = run(quick=arguments.quick)
    print(json.dumps({
        "reader_qps_mixed": result["mixed"]["reader_qps"],
        "throughput_rows": len(result["throughput"]["rows"]),
    }, indent=2))
