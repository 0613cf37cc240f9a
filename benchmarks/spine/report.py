"""Metric definitions, the result schema, printing and ``compare``.

``BENCHMARK.json`` at the repository root is the single list of metric
names, units, directions and bounds; this module reads it instead of
repeating it, so a metric cannot be reported without being declared.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys

from benchmarks.spine import REPO_ROOT, SPINE_DIR, stats
from benchmarks.spine.workloads import FULL_SECONDS

BASELINE_PATH = SPINE_DIR / "BASELINE.json"
SCHEMA = "spine-result/1"


def contract() -> dict:
    with open(REPO_ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def metric_table(kind: str) -> dict[str, dict]:
    """``name -> {unit, better[, bound]}`` of ``end_to_end`` or
    ``per_layer``."""
    return {entry["name"]: entry for entry in contract()[kind]}


def result_line(kind: str, values: dict, attempted: int,
                failed: int) -> dict:
    """The one-line result of a single run.  Every declared metric of
    ``kind`` is present; a per-layer metric the workload does not
    exercise reads 0 (that layer did no work)."""
    table = metric_table(kind)
    unknown = set(values) - set(table)
    if unknown:
        raise KeyError(f"undeclared metrics reported: {sorted(unknown)}")
    if kind == "end_to_end" and set(table) - set(values):
        raise KeyError(f"end-to-end metrics missing: "
                       f"{sorted(set(table) - set(values))}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values.get(name, 0),
                           "unit": entry["unit"]}
                    for name, entry in table.items()},
    }


def environment(seed: int, seconds: float, quick: bool) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, text=True,
            capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "commit": commit,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "seed": seed,
        "quick": quick,
        "seconds": seconds,
        "duration_factor": seconds / FULL_SECONDS,
    }


# -- printing ---------------------------------------------------------------------


def format_value(value) -> str:
    if isinstance(value, float):
        return f"{value:.4g}" if abs(value) < 1e4 else f"{value:.0f}"
    return str(value)


def print_workload(name: str, entry: dict, stream=sys.stdout) -> None:
    print(f"\n== {name}  ({json.dumps(entry['sizing'])})", file=stream)
    print(f"   attempted {entry['attempted']}  failed {entry['failed']}  "
          f"failed_fraction "
          f"{stats.ratio(entry['failed'], entry['attempted']):.6f}",
          file=stream)
    for kind in ("end_to_end", "per_layer"):
        print(f"   -- {kind}", file=stream)
        for metric, cell in entry[kind].items():
            extras = "".join(
                f"  {key} {format_value(cell[key])}"
                for key in ("p50", "p95") if key in cell)
            if "bound" in cell:
                extras += f"  bound {cell['bound']:.0%}"
            print(f"   {metric:38s} {format_value(cell['value']):>12s} "
                  f"{cell['unit']:6s} n={cell['n']}{extras}", file=stream)


def print_ladder(ladder: dict, stream=sys.stdout) -> None:
    """``kernel -> query -> verb -> wire`` on ``read.served``: where a
    served query's milliseconds go."""
    print("\n   read.served ladder (ms per request, same Q20 mix)",
          file=stream)
    print(f"   {'rung':8s} {'p50':>9s} {'mean':>9s} {'+mean':>9s}  what "
          f"the rung adds", file=stream)
    adds = {"kernel": "PhysicalPlanner.match",
            "query": "tau/gamma executor, construct (Database.query)",
            "verb": "request checks, values(), response dict",
            "wire": "codec, sockets, admission, worker pipe, queueing"}
    below = 0.0
    for rung in ("kernel", "query", "verb", "wire"):
        cell = ladder[rung]
        print(f"   {rung:8s} {cell['p50_ms']:9.3f} {cell['mean_ms']:9.3f} "
              f"{cell['mean_ms'] - below:9.3f}  {adds[rung]}", file=stream)
        below = cell["mean_ms"]


# -- compare ----------------------------------------------------------------------


def load_result(path) -> dict:
    with open(path, encoding="utf-8") as handle:
        result = json.load(handle)
    if result.get("schema") != SCHEMA:
        raise ValueError(f"{path} is not a {SCHEMA} file")
    return result


def verdict(base: dict, other: dict, better: str, bound: float) -> tuple:
    """(ratio oriented so that >1 is worse, verdict)."""
    a, b = base["value"], other["value"]
    worse = stats.ratio(b, a) if better == "lower" else stats.ratio(a, b)
    if max(base.get("spread", 0.0), other.get("spread", 0.0)) > bound:
        return worse, "unresolved"
    if worse > 1 + bound:
        return worse, "worse"
    if worse < 1 / (1 + bound):
        return worse, "better"
    return worse, "same"


def compare(path_a, path_b, stream=sys.stdout) -> int:
    """One row per workload and end-to-end metric.  Returns the number
    of rows that are ``worse``."""
    result_a, result_b = load_result(path_a), load_result(path_b)
    for label, path, result in (("A", path_a, result_a),
                                ("B", path_b, result_b)):
        env = result["environment"]
        print(f"{label}: {path}  commit {env['commit'][:12]}  seed "
              f"{env['seed']}  seconds {env['seconds']}  quick "
              f"{env['quick']}", file=stream)
    print(f"\n{'workload':15s} {'metric':12s} {'A':>11s} {'B':>11s} "
          f"{'unit':5s} {'B vs A':>22s} {'spread A/B':>13s} {'bound':>6s} "
          f"verdict", file=stream)
    table = metric_table("end_to_end")
    worse_rows = 0
    for workload, entry_a in result_a["workloads"].items():
        entry_b = result_b["workloads"].get(workload)
        if entry_b is None:
            continue
        for metric, spec in table.items():
            cell_a = entry_a["end_to_end"][metric]
            cell_b = entry_b["end_to_end"][metric]
            worse, word = verdict(cell_a, cell_b, spec["better"],
                                  spec["bound"])
            worse_rows += word == "worse"
            change = stats.ratio(cell_b["value"], cell_a["value"])
            print(f"{workload:15s} {metric:12s} "
                  f"{format_value(cell_a['value']):>11s} "
                  f"{format_value(cell_b['value']):>11s} "
                  f"{spec['unit']:5s} "
                  f"{change:7.3f}x of {format_value(cell_a['value']):>9s} "
                  f"{cell_a.get('spread', 0):5.1%}/{cell_b.get('spread', 0):5.1%} "
                  f"{spec['bound']:6.0%} {word}", file=stream)
        if result_a["environment"]["seed"] != \
                result_b["environment"]["seed"]:
            continue      # counts repeat exactly only for equal inputs
        exact = [name for name in ("durability.write_amp",
                                   "durability.space_amp",
                                   "durability.fsyncs",
                                   "durability.wal_bytes",
                                   "durability.checkpoints")
                 if entry_a["per_layer"][name]["value"]
                 != entry_b["per_layer"][name]["value"]]
        if exact:
            worse_rows += 1
            print(f"{workload:15s} counts differ: {', '.join(exact)}",
                  file=stream)
    return worse_rows
