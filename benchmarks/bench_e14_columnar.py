"""E14 — vectorized columnar execution vs node-at-a-time matching.

ROADMAP item 3: the interpreter overhead of per-node Python dispatch is
the dominant cost of every τ in this RAM-resident setting, so the
columnar path (:mod:`repro.physical.columnar`) evaluates the E2 linear
paths and the E3 twig queries as batch ``bisect``/set kernels over the
pre/end/level/parent label columns instead.

The bench sweeps three XMark document scales; at each scale every query
runs through the node-at-a-time navigational matcher (the paper's
commercial stand-in — one Python loop iteration per visited node), the
holistic TwigStack join (informational), and the columnar kernels.
**Every columnar result list is compared item-for-item against the
navigational result** — the mismatch count must be zero — and the
headline number is the median navigational/columnar speedup across the
whole suite (acceptance bar: >= 5x).

Artifacts: ``benchmarks/results/e14_columnar.txt`` and
``benchmarks/results/BENCH_e14_columnar.json``.

Run directly (``python benchmarks/bench_e14_columnar.py [--quick]``) or
through pytest like the other experiments.
"""

from __future__ import annotations

import json
import statistics

if __package__ in (None, ""):  # direct `python benchmarks/bench_...py` run
    import pathlib
    import sys

    _root = pathlib.Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(_root / "src"))
    sys.path.insert(0, str(_root))

from benchmarks.common import RESULTS_DIR, format_table, publish, timed
from repro.engine.database import Database
from repro.algebra.pattern_graph import compile_path
from repro.baselines.navigational import NavigationalMatcher
from repro.baselines.twigstack import TwigStackJoin
from repro.physical.columnar import ColumnarMatcher, columnar_eligible
from repro.workload import LINEAR_PATHS, TWIG_QUERIES, generate_xmark
from repro.xpath.parser import parse_xpath

SCALES_FULL = (40, 120, 400)
SCALES_QUICK = (10, 30, 60)


def workload() -> list[tuple[str, str]]:
    """(label, query): the E2 linear-path suite + the E3 twig suite."""
    queries = [(f"path-{length}", LINEAR_PATHS[length])
               for length in sorted(LINEAR_PATHS)]
    queries.extend(sorted(TWIG_QUERIES.items()))
    return queries


def _database(scale: int) -> Database:
    # No result cache: repeated timed runs must hit the kernels, not a
    # memoized answer.
    database = Database(result_cache_size=0, pool_pages=64)
    database.load_tree(generate_xmark(scale=scale, seed=42),
                       uri="xmark.xml")
    return database


def run_scale(scale: int, repeat: int) -> dict:
    database = _database(scale)
    runtime = database.document().runtime
    runtime.columnar_view()  # build the columns once, outside the timers
    per_query = []
    mismatches = 0
    for label, query in workload():
        pattern = compile_path(parse_xpath(query))
        assert columnar_eligible(pattern), label
        nav_result = NavigationalMatcher(pattern).run(runtime)
        col_result = ColumnarMatcher(pattern).run(runtime)
        if col_result != nav_result:  # item-for-item, order-sensitive
            mismatches += 1
        nav_seconds = timed(
            lambda p=pattern: NavigationalMatcher(p).run(runtime),
            repeat=repeat)
        twig_seconds = timed(
            lambda p=pattern: TwigStackJoin(p).run(runtime),
            repeat=repeat)
        col_seconds = timed(
            lambda p=pattern: ColumnarMatcher(p).run(runtime),
            repeat=repeat)
        per_query.append({
            "label": label,
            "query": query,
            "rows": len(col_result),
            "navigational_ms": nav_seconds * 1e3,
            "twigstack_ms": twig_seconds * 1e3,
            "columnar_ms": col_seconds * 1e3,
            "speedup_vs_navigational": nav_seconds / col_seconds
            if col_seconds else float("inf"),
            "speedup_vs_twigstack": twig_seconds / col_seconds
            if col_seconds else float("inf"),
            "match": col_result == nav_result,
        })
    return {
        "scale": scale,
        "nodes": len(database.document().interval),
        "column_bytes": runtime.columnar_view().size_bytes(),
        "mismatches": mismatches,
        "median_speedup_vs_navigational": statistics.median(
            q["speedup_vs_navigational"] for q in per_query),
        "median_speedup_vs_twigstack": statistics.median(
            q["speedup_vs_twigstack"] for q in per_query),
        "queries": per_query,
    }


def run(quick: bool = False) -> dict:
    scales = SCALES_QUICK if quick else SCALES_FULL
    repeat = 2 if quick else 3
    report = {
        "experiment": "e14_columnar",
        "quick": quick,
        "scales": [run_scale(scale, repeat) for scale in scales],
    }
    all_speedups = [q["speedup_vs_navigational"]
                    for scale in report["scales"]
                    for q in scale["queries"]]
    report["median_speedup"] = statistics.median(all_speedups)
    report["total_mismatches"] = sum(scale["mismatches"]
                                     for scale in report["scales"])

    rows = []
    for scale_report in report["scales"]:
        for q in scale_report["queries"]:
            rows.append([
                scale_report["scale"], q["label"], q["rows"],
                q["navigational_ms"], q["twigstack_ms"],
                q["columnar_ms"],
                f"{q['speedup_vs_navigational']:.1f}x",
                "ok" if q["match"] else "MISMATCH",
            ])
    summary_rows = [[scale_report["scale"], scale_report["nodes"],
                     scale_report["column_bytes"],
                     f"{scale_report['median_speedup_vs_navigational']:.1f}x",
                     f"{scale_report['median_speedup_vs_twigstack']:.1f}x",
                     scale_report["mismatches"]]
                    for scale_report in report["scales"]]
    table = "\n\n".join([
        format_table(
            f"E14 — columnar vs node-at-a-time (E2 paths + E3 twigs, "
            f"best of {repeat})",
            ["scale", "query", "rows", "nav ms", "twig ms",
             "columnar ms", "speedup", "parity"],
            rows,
            note="speedup = navigational / columnar wall time; parity "
                 "compares the result lists item for item."),
        format_table(
            f"E14 summary — median speedup "
            f"{report['median_speedup']:.1f}x, "
            f"{report['total_mismatches']} mismatches",
            ["scale", "nodes", "column bytes", "vs navigational",
             "vs twigstack", "mismatches"],
            summary_rows),
    ])
    publish("e14_columnar", table)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_e14_columnar.json").write_text(
        json.dumps(report, indent=2, default=str) + "\n", encoding="utf-8")
    return report


def test_e14_report():
    report = run(quick=True)
    # Acceptance: item-for-item parity with the reference strategies and
    # >= 5x median speedup over node-at-a-time execution.
    assert report["total_mismatches"] == 0
    assert report["median_speedup"] >= 5.0


if __name__ == "__main__":
    import argparse

    argument_parser = argparse.ArgumentParser(description=__doc__)
    argument_parser.add_argument("--quick", action="store_true",
                                 help="small scales for CI smoke runs")
    arguments = argument_parser.parse_args()
    result = run(quick=arguments.quick)
    print(json.dumps({"median_speedup": result["median_speedup"],
                      "total_mismatches": result["total_mismatches"]},
                     indent=2))
