"""E10 — the serving layer: query caching and incremental maintenance.

Two experiments over an XMark document:

* **cold vs warm query latency** — each query is run once on a cold
  database (full compile + execute) and then repeatedly against the
  caches.  A warm hit skips lexing, parsing, backward translation,
  rewriting, strategy costing *and* execution (plan + result cache), so
  the speedup is the whole pipeline over one LRU lookup.
* **update throughput** — the same insert/delete script applied through
  (a) the incremental derived-maintenance path and (b) the seed
  behaviour (``rebuild_derived()`` after every splice).

Artifacts: the usual table under ``benchmarks/results/e10_query_cache.txt``
plus machine-readable numbers in
``benchmarks/results/BENCH_e10_query_cache.json``.

Run directly (``python benchmarks/bench_e10_query_cache.py [--quick]``)
or through pytest like the other experiments.
"""

from __future__ import annotations

import json
import statistics
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
    "//person[//watch]/name",
    "//open_auction[initial > 100]",
    "count(//item)",
]

NEW_ITEM = ('<item id="cache-bench"><name>inserted</name>'
            '<payment>Cash</payment><quantity>1</quantity></item>')


def _database(scale: int, **kwargs) -> Database:
    database = Database(**kwargs)
    database.load_tree(generate_xmark(scale=scale, seed=42),
                       uri="xmark.xml")
    return database


def _median_time(callable_, repeat: int) -> float:
    samples = []
    for _ in range(repeat):
        started = time.perf_counter()
        callable_()
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def run_query_cache_experiment(scale: int, warm_repeats: int) -> dict:
    """Cold-vs-warm latency per query; differential correctness check."""
    database = _database(scale)
    rows = []
    for query in QUERIES:
        database.clear_caches()
        started = time.perf_counter()
        cold = database.query(query)
        cold_seconds = time.perf_counter() - started
        warm_seconds = _median_time(lambda: database.query(query),
                                    warm_repeats)
        warm = database.query(query)
        assert warm.stats["cache"]["plan"] == "hit", query
        assert warm.stats["cache"]["result"] == "hit", query
        assert warm.values() == cold.values(), query
        rows.append({
            "query": query,
            "cold_seconds": cold_seconds,
            "warm_seconds": warm_seconds,
            "speedup": cold_seconds / max(warm_seconds, 1e-9),
            "results": len(cold),
        })

    # Post-update correctness: a structural change must invalidate the
    # result cache, and warm answers must match the reference evaluator.
    database.insert("/site/regions/europe", NEW_ITEM)
    stale_check = []
    for query in ("//item/name", "count(//item)"):
        engine = database.query(query)
        assert engine.stats["cache"]["result"] in ("miss", "bypass"), query
        reference = database.reference_query(query)
        expected = [node.string_value() if hasattr(node, "string_value")
                    else node for node in reference]
        assert engine.values() == expected, query
        rewarm = database.query(query)
        assert rewarm.stats["cache"]["result"] == "hit", query
        assert rewarm.values() == expected, query
        stale_check.append(query)
    return {
        "scale": scale,
        "warm_repeats": warm_repeats,
        "queries": rows,
        "median_speedup": statistics.median(r["speedup"] for r in rows),
        "post_update_differential_ok": stale_check,
        "cache_report": database.cache_report(),
    }


def run_update_experiment(scale: int, updates: int) -> dict:
    """Update latency: incremental deltas vs full derived rebuild."""

    def script(database: Database, rebuild: bool) -> float:
        samples = []
        for index in range(updates):
            started = time.perf_counter()
            database.insert("/site/regions/europe", NEW_ITEM)
            if rebuild:
                database.rebuild_derived()
            samples.append(time.perf_counter() - started)
            started = time.perf_counter()
            database.delete("/site/regions/europe/item[last()]")
            if rebuild:
                database.rebuild_derived()
            samples.append(time.perf_counter() - started)
        return statistics.median(samples)

    incremental_db = _database(scale)
    node_count = len(incremental_db.document().interval)
    incremental = script(incremental_db, rebuild=False)
    rebuild_db = _database(scale)
    rebuild = script(rebuild_db, rebuild=True)
    # The incremental path must leave the engine agreeing with the
    # rebuilt one on a probe query.
    probe = "//item/name"
    assert (incremental_db.query(probe).values()
            == rebuild_db.query(probe).values())
    return {
        "scale": scale,
        "document_nodes": node_count,
        "updates_timed": updates * 2,
        "incremental_median_seconds": incremental,
        "rebuild_median_seconds": rebuild,
        "update_speedup": rebuild / max(incremental, 1e-9),
    }


def run(quick: bool = False) -> dict:
    scale = 40 if quick else 120
    warm_repeats = 3 if quick else 9
    updates = 3 if quick else 10
    report = {
        "experiment": "e10_query_cache",
        "quick": quick,
        "query_cache": run_query_cache_experiment(scale, warm_repeats),
        "updates": run_update_experiment(scale, updates),
    }

    query_rows = [[row["query"], row["results"],
                   row["cold_seconds"] * 1e3, row["warm_seconds"] * 1e3,
                   row["speedup"]]
                  for row in report["query_cache"]["queries"]]
    update = report["updates"]
    table = "\n\n".join([
        format_table(
            f"E10 — cold vs warm query latency (xmark-{scale})",
            ["query", "results", "cold ms", "warm ms", "speedup"],
            query_rows,
            note="warm = plan + result cache hit; median of "
                 f"{warm_repeats} runs"),
        format_table(
            f"E10b — update latency on {update['document_nodes']} nodes",
            ["path", "median ms / update"],
            [["incremental deltas",
              update["incremental_median_seconds"] * 1e3],
             ["full derived rebuild (seed)",
              update["rebuild_median_seconds"] * 1e3],
             ["speedup", update["update_speedup"]]]),
    ])
    publish("e10_query_cache", table)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_e10_query_cache.json").write_text(
        json.dumps(report, indent=2, default=str) + "\n", encoding="utf-8")
    return report


def test_e10_report():
    report = run(quick=True)
    assert report["query_cache"]["median_speedup"] >= 5.0
    assert report["updates"]["update_speedup"] > 1.0


if __name__ == "__main__":
    import argparse

    argument_parser = argparse.ArgumentParser(description=__doc__)
    argument_parser.add_argument("--quick", action="store_true",
                                 help="small scale for CI smoke runs")
    arguments = argument_parser.parse_args()
    result = run(quick=arguments.quick)
    print(json.dumps({
        "median_query_speedup": result["query_cache"]["median_speedup"],
        "update_speedup": result["updates"]["update_speedup"],
    }, indent=2))
