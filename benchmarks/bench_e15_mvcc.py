"""E15 — MVCC snapshot reads: lock-free serving under writer churn.

Queries take no lock at all: they pin an immutable
``DatabaseSnapshot`` (one attribute read) and writers publish new
copy-on-write versions with a single pointer swap.  This experiment
quantifies what that buys on the E11 workload:

* **read-only baseline** — 8 reader threads execute the query batch
  with the result cache off (every request runs its physical plan);
* **mixed load** — the same 8 readers while 1 writer thread
  continuously inserts/deletes.  Under a reader-writer lock every
  update would stall the whole reader pool; under MVCC readers never
  block, so
  mixed throughput should stay within 2x of read-only (the acceptance
  criterion) instead of collapsing.

Both phases assert the MVCC invariants: the ``repro_lock_wait_seconds``
histogram count does not move across the read-only phase (readers
acquired zero locks) and every mixed-phase answer equals one of the
consistent snapshots.

Artifacts: ``benchmarks/results/e15_mvcc.txt`` plus machine-readable
numbers in ``benchmarks/results/BENCH_e15_mvcc.json``.

Run directly (``python benchmarks/bench_e15_mvcc.py [--quick]``) or
through pytest like the other experiments.
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

# The E11 workload, so E15's ratio is comparable with E11b's numbers.
QUERIES = [
    "//item/name",
    "/site/regions/europe/item",
    "//item[payment = 'Creditcard']",
    "//open_auction[initial > 100]",
    "count(//item)",
    "//person/name",
]

NEW_ITEM = ('<item id="mvcc-bench"><name>inserted</name>'
            '<payment>Cash</payment><quantity>1</quantity></item>')


def _database(scale: int) -> Database:
    # Result cache off: measure execution, not LRU lookups.
    database = Database(result_cache_size=0)
    database.load_tree(generate_xmark(scale=scale, seed=42),
                       uri="xmark.xml")
    return database


def _lock_count(database: Database) -> int:
    histogram = database.observability.registry.get(
        "repro_lock_wait_seconds")
    return histogram.count()


def _run_phase(database: Database, readers: int, reader_queries: int,
               answers: list[dict], writer_updates: int = 0) -> dict:
    """One serving phase: ``readers`` threads each run
    ``reader_queries`` queries; with ``writer_updates`` > 0 a writer
    thread churns insert/delete pairs alongside them until every reader
    finishes.  Every answer must match one of the ``answers``
    snapshots."""
    errors: list = []
    writer_latencies: list[float] = []
    stop = threading.Event()

    def reader(offset: int) -> None:
        for index in range(reader_queries):
            query = QUERIES[(offset + index) % len(QUERIES)]
            values = database.query(query).values()
            if not any(values == snap[query] for snap in answers):
                errors.append((query, len(values)))

    def writer() -> None:
        done = 0
        while done < writer_updates and not stop.is_set():
            started = time.perf_counter()
            database.insert("/site/regions/europe", NEW_ITEM)
            database.delete('//item[@id = "mvcc-bench"]')
            writer_latencies.append(time.perf_counter() - started)
            done += 1

    threads = [threading.Thread(target=reader, args=(i,))
               for i in range(readers)]
    if writer_updates:
        threads.append(threading.Thread(target=writer))
    wall_started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads[:readers]:
        thread.join()
    stop.set()
    for thread in threads[readers:]:
        thread.join()
    wall = time.perf_counter() - wall_started

    assert not errors, errors[:3]
    total = readers * reader_queries
    return {
        "readers": readers,
        "reader_queries_each": reader_queries,
        "writer_updates_completed": len(writer_latencies),
        "wall_seconds": wall,
        "reader_qps": total / max(wall, 1e-9),
        "writer_update_seconds_mean": (
            sum(writer_latencies) / max(len(writer_latencies), 1)),
        "consistency_violations": len(errors),
    }


def run(quick: bool = False) -> dict:
    scale = 40 if quick else 120
    readers = 8
    reader_queries = 12 if quick else 40
    writer_updates = 6 if quick else 16

    database = _database(scale)
    # The consistent snapshots mid-churn: with and without the probe.
    base = {q: database.query(q).values() for q in QUERIES}
    database.insert("/site/regions/europe", NEW_ITEM)
    alt = {q: database.query(q).values() for q in QUERIES}
    database.delete('//item[@id = "mvcc-bench"]')
    publishes_before = database.version_publishes

    locks_before = _lock_count(database)
    read_only = _run_phase(database, readers, reader_queries, [base])
    read_lock_acquisitions = _lock_count(database) - locks_before
    mixed = _run_phase(database, readers, reader_queries, [base, alt],
                       writer_updates=writer_updates)
    ratio = mixed["reader_qps"] / max(read_only["reader_qps"], 1e-9)

    report = {
        "experiment": "e15_mvcc",
        "quick": quick,
        "scale": scale,
        "read_only": read_only,
        "mixed": mixed,
        "mixed_vs_read_only": ratio,
        "read_lock_acquisitions": read_lock_acquisitions,
        "version_publishes": database.version_publishes -
                             publishes_before,
        "active_pins_after": database.active_pins,
    }

    table = format_table(
        f"E15 — MVCC serving: read-only vs mixed (xmark-{scale}, "
        f"{readers} readers)",
        ["metric", "read-only", "mixed (+1 writer)"],
        [["reader qps", read_only["reader_qps"], mixed["reader_qps"]],
         ["wall seconds", read_only["wall_seconds"],
          mixed["wall_seconds"]],
         ["writer mean update ms", "-",
          mixed["writer_update_seconds_mean"] * 1e3],
         ["consistency violations",
          read_only["consistency_violations"],
          mixed["consistency_violations"]],
         ["mixed / read-only qps", "-", ratio]],
        note="readers pin MVCC snapshots and take zero locks "
             f"(lock histogram count delta over the read-only phase = "
             f"{report['read_lock_acquisitions']}); the acceptance "
             "bar is mixed >= 0.5x read-only")
    publish("e15_mvcc", table)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_e15_mvcc.json").write_text(
        json.dumps(report, indent=2, default=str) + "\n",
        encoding="utf-8")
    return report


def test_e15_report():
    report = run(quick=True)
    assert report["read_lock_acquisitions"] == 0
    assert report["mixed"]["consistency_violations"] == 0
    assert report["active_pins_after"] == 0
    assert report["mixed_vs_read_only"] >= 0.5
    assert report["version_publishes"] >= \
        2 * report["mixed"]["writer_updates_completed"]


if __name__ == "__main__":
    import argparse

    argument_parser = argparse.ArgumentParser(description=__doc__)
    argument_parser.add_argument("--quick", action="store_true",
                                 help="small scale for CI smoke runs")
    arguments = argument_parser.parse_args()
    result = run(quick=arguments.quick)
    print(json.dumps({
        "read_only_qps": result["read_only"]["reader_qps"],
        "mixed_qps": result["mixed"]["reader_qps"],
        "mixed_vs_read_only": result["mixed_vs_read_only"],
        "read_lock_acquisitions": result["read_lock_acquisitions"],
    }, indent=2))
