"""E13 — observability overhead: what the tracing/metrics layer costs.

The engine is instrumented end to end (spans, a metrics registry, a
slow-query log), so the interesting number is what that costs on the
query hot path.  Four configurations run the same XMark query batch:

* **stripped** — the observability facade (including its writer-mutex
  wait hook) is swapped for a no-op stub: the uninstrumented floor.
* **default** — a stock ``Database()``: metrics on, trace sampling off
  (``trace_sample=0.0``), slow-query threshold at its 0.25 s default.
  The acceptance bar is < 5 % median overhead over *stripped*
  (< 10 % for ``--quick`` CI runs on shared machines).
* **traced** — ``trace_sample=1.0``: every query builds a full span
  tree.
* **traced+slowlog** — tracing plus a zero slow-query threshold, so
  every query is also recorded with its trace attached: the worst case.

Repetitions are interleaved round-robin across the configurations so
thermal / frequency drift hits all of them equally; each repetition
clears the caches first, so the timed path is compile + plan + execute.
Also reported (informational): ``EXPLAIN ANALYZE`` wall time and the
Prometheus exposition render time.

Artifacts: ``benchmarks/results/e13_observability.txt`` and
``benchmarks/results/BENCH_e13_observability.json``.

Run directly (``python benchmarks/bench_e13_observability.py [--quick]``)
or through pytest like the other experiments.
"""

from __future__ import annotations

import gc
import json
import statistics
import time

if __package__ in (None, ""):  # direct `python benchmarks/bench_...py` run
    import pathlib
    import sys

    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from benchmarks.common import RESULTS_DIR, format_table, publish
from repro.engine.database import Database
from repro.observability.tracing import Tracer
from repro.workload import generate_xmark

QUERIES = [
    "//item/name",
    "//open_auction[initial > 100]",
    "/site/regions/europe/item",
    "//person[address]/name",
    "count(//bidder)",
    "for $i in //item where $i/quantity > 1 return $i/name",
]


class _StrippedFacade:
    """The no-op stand-in that defines the uninstrumented floor.

    Matches the slice of the :class:`Observability` surface the query
    hot path touches: a never-sampling tracer plus inert hooks."""

    def __init__(self) -> None:
        self.tracer = Tracer(sample_rate=0.0)

    def observe_query(self, *args, **kwargs) -> None:
        pass

    def record_query_error(self, *args, **kwargs) -> None:
        pass

    def on_lock_wait(self, *args, **kwargs) -> None:
        pass


def _make_database(config: str, tree) -> Database:
    if config == "stripped":
        database = Database()
    elif config == "default":
        database = Database()
    elif config == "traced":
        database = Database(trace_sample=1.0, trace_capacity=64)
    elif config == "traced+slowlog":
        database = Database(trace_sample=1.0, trace_capacity=64,
                            slow_query_seconds=0.0)
    else:  # pragma: no cover - guarded by CONFIGS
        raise ValueError(config)
    database.load_tree(tree, uri="xmark.xml")
    if config == "stripped":
        database.observability = _StrippedFacade()
    return database


CONFIGS = ["stripped", "default", "traced", "traced+slowlog"]


def _batch_seconds(database: Database) -> float:
    database.clear_caches()
    started = time.perf_counter()
    for query in QUERIES:
        database.query(query)
    return time.perf_counter() - started


def run_overhead_experiment(scale: int, repeats: int) -> dict:
    """Median batch latency per configuration, interleaved round-robin."""
    tree = generate_xmark(scale=scale, seed=42)
    databases = {config: _make_database(config, tree)
                 for config in CONFIGS}
    samples: dict = {config: [] for config in CONFIGS}
    for database in databases.values():  # warm-up pass, untimed
        _batch_seconds(database)

    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            for config in CONFIGS:
                samples[config].append(_batch_seconds(databases[config]))
    finally:
        if was_enabled:
            gc.enable()

    floor = statistics.median(samples["stripped"])
    report = {"scale": scale, "repeats": repeats,
              "queries_per_batch": len(QUERIES), "configs": {}}
    for config in CONFIGS:
        median = statistics.median(samples[config])
        report["configs"][config] = {
            "median_batch_seconds": median,
            "median_query_ms": median / len(QUERIES) * 1e3,
            "overhead_pct": (median / floor - 1.0) * 100.0,
        }
    return report


def run_side_channel_experiment(scale: int, repeats: int) -> dict:
    """Informational: EXPLAIN ANALYZE and exposition-render cost."""
    tree = generate_xmark(scale=scale, seed=42)
    database = Database(trace_sample=1.0)
    database.load_tree(tree, uri="xmark.xml")
    query = "//open_auction[initial > 100]"

    analyze_samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        analysis = database.explain(query, analyze=True)
        analyze_samples.append(time.perf_counter() - started)
    plain = database.query(query)

    render_samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        text = database.metrics_text()
        render_samples.append(time.perf_counter() - started)
    return {
        "explain_analyze_seconds": statistics.median(analyze_samples),
        "analysis_operators": len(analysis.operators),
        "analysis_rows": analysis.result_rows,
        "plain_query_rows": len(plain.items),
        "metrics_render_seconds": statistics.median(render_samples),
        "metrics_render_bytes": len(text.encode("utf-8")),
    }


def run(quick: bool = False) -> dict:
    scale = 30 if quick else 60
    repeats = 9 if quick else 15
    report = {
        "experiment": "e13_observability",
        "quick": quick,
        "overhead": run_overhead_experiment(scale, repeats),
        "side_channels": run_side_channel_experiment(scale,
                                                     max(3, repeats // 3)),
    }

    overhead = report["overhead"]
    side = report["side_channels"]
    rows = [[config,
             data["median_batch_seconds"],
             data["median_query_ms"],
             f"{data['overhead_pct']:+.2f}%"]
            for config, data in overhead["configs"].items()]
    table = "\n\n".join([
        format_table(
            f"E13 — observability overhead (xmark-{scale}, "
            f"{len(QUERIES)}-query batch, median of "
            f"{overhead['repeats']})",
            ["configuration", "batch s", "per-query ms", "overhead"],
            rows,
            note="stripped = no-op facade (incl. lock-wait hook); "
                 "default keeps metrics on with trace sampling off"),
        format_table(
            "E13b — side channels (informational)",
            ["metric", "value"],
            [["EXPLAIN ANALYZE (s)", side["explain_analyze_seconds"]],
             ["  operators instrumented", side["analysis_operators"]],
             ["Prometheus render (s)", side["metrics_render_seconds"]],
             ["  exposition bytes", side["metrics_render_bytes"]]]),
    ])
    publish("e13_observability", table)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_e13_observability.json").write_text(
        json.dumps(report, indent=2, default=str) + "\n", encoding="utf-8")
    return report


def test_e13_report():
    report = run(quick=True)
    default = report["overhead"]["configs"]["default"]
    if default["overhead_pct"] >= 10.0:
        # One retry: a noisy CI neighbour can blur a sub-ms batch.
        report = run(quick=True)
        default = report["overhead"]["configs"]["default"]
    # Sampling disabled must stay under 10% on shared CI machines (the
    # full run's bar is 5%; see EXPERIMENTS.md E13).
    assert default["overhead_pct"] < 10.0
    side = report["side_channels"]
    assert side["analysis_operators"] >= 1
    assert side["analysis_rows"] == side["plain_query_rows"]
    assert side["metrics_render_bytes"] > 0


if __name__ == "__main__":
    import argparse

    argument_parser = argparse.ArgumentParser(description=__doc__)
    argument_parser.add_argument("--quick", action="store_true",
                                 help="small scale for CI smoke runs")
    arguments = argument_parser.parse_args()
    result = run(quick=arguments.quick)
    print(json.dumps(
        {config: data["overhead_pct"]
         for config, data in result["overhead"]["configs"].items()},
        indent=2))
