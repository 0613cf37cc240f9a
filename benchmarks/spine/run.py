"""Command line of the spine benchmark.

One run of one workload (what the benchmark driver calls)::

    python3 benchmarks/spine/run.py --workload read.served --seed 7 \\
        --seconds 10 --trace 0

prints, as its last line of standard output, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics`` — every
end-to-end metric with ``--trace 0``, every per-layer metric with
``--trace 1``.

The whole set, for people (also ``python -m benchmarks.spine.run``)::

    python3 benchmarks/spine/run.py --seed 42            # full mode
    python3 benchmarks/spine/run.py --quick              # smoke run
    python3 benchmarks/spine/run.py --repeat 2           # two result files
    python3 benchmarks/spine/run.py compare A.json B.json

runs the five workloads, each twice (measured, then traced) and each in
a fresh child process, prints every metric by name with its unit and
the ``read.served`` ladder, writes one result file with an environment
stamp, and exits non-zero if any operation failed or answered wrongly.
"""

from __future__ import annotations

import sys
from pathlib import Path

SPINE_DIR = Path(__file__).resolve().parent
REPO_ROOT = SPINE_DIR.parent.parent
if not (REPO_ROOT / "src" / "repro").is_dir():
    sys.exit("spine benchmark: src/repro is not in this checkout — "
             "nothing to measure")
# As a script, this directory would come first and its ``stats.py`` /
# ``report.py`` would be importable as top-level names; the benchmark
# imports itself as ``benchmarks.spine`` only.
sys.path[:] = [entry for entry in sys.path
               if Path(entry or ".").resolve() != SPINE_DIR]
for entry in (str(REPO_ROOT), str(REPO_ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

from benchmarks.spine import OUT_DIR, report, stats  # noqa: E402
from benchmarks.spine.spans import SpanRecorder  # noqa: E402
from benchmarks.spine.workloads import (  # noqa: E402
    WORKLOADS,
    Context,
    Measured,
    writer_main,
)

SETUP_REPEATS = 3
QUICK_SECONDS = 2.5            # one eighth of the 20 s sizing
SEGMENTS = 10                  # within-run spread: metric per tenth of a run


# -- one workload, one run --------------------------------------------------------


def segment_spread(latencies: list[float], metric) -> float:
    """A run's own estimate of how far ``metric`` would move on a
    repeat, on the scale of ``stats.spread`` (interquartile range over
    the value).

    ``metric`` is taken on each tenth of the samples, in time order.
    The differences between neighbouring tenths carry twice the
    variance of one tenth and none of a slow drift (collector pauses
    grow all through a ``write.durable`` run), but all of a burst on
    the box; the whole run averages ten tenths.  Hence the
    interquartile range of the differences over ``sqrt(2 * 10)``."""
    size = len(latencies) // SEGMENTS
    if size < 4:
        return 0.0
    tenths = [metric(latencies[i * size:(i + 1) * size])
              for i in range(SEGMENTS)]
    steps = [after - before for before, after in zip(tenths, tenths[1:])]
    first, _, third = statistics.quantiles(steps, n=4)
    return (third - first) / math.sqrt(2 * SEGMENTS) / metric(latencies)


def end_to_end(measured: Measured, setups: list[float]) -> dict:
    """``metric -> {value, n, spread[, p50, p95]}`` of one measured
    run.  The plain percentiles ride along for readers; the bounded
    metrics are the two cliff-free ones (see ``stats``)."""
    samples = measured.latencies
    latency = {"n": len(samples)}
    for key, fraction in (("p50", 0.50), ("p95", 0.95)):
        if len(samples) * (1 - fraction) >= 10:    # ten samples beyond it
            latency[key] = stats.percentile(samples, fraction) * 1e3

    return {
        "op_mid_ms": {"value": stats.middle_mean(samples) * 1e3,
                      "spread": segment_spread(samples, stats.middle_mean),
                      **latency},
        "op_tail_ms": {"value": stats.tail_mean(samples) * 1e3,
                       "spread": segment_spread(samples, stats.tail_mean),
                       **latency},
        "ops_per_s": {"value": measured.ops / measured.elapsed,
                      "n": measured.ops,
                      "spread": segment_spread(samples, statistics.fmean)},
        "setup_s": {"value": stats.median(setups), "n": len(setups),
                    "spread": stats.spread(setups)},
        "peak_rss_mb": {"value": stats.peak_rss_mib(), "n": 1,
                        "spread": 0.0},
    }


def run_measured(workload) -> dict:
    setups = []
    for _ in range(SETUP_REPEATS):
        workload.teardown()
        gc.collect()
        begin = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - begin)
    workload.gate()
    measured = workload.measure()
    if not measured.latencies:
        raise RuntimeError(f"{workload.name}: no operation succeeded")
    return {"kind": "end_to_end",
            "cells": end_to_end(measured, setups),
            "attempted": workload.attempted, "failed": workload.failed,
            "sizing": workload.describe()}


def run_traced(workload) -> dict:
    recorder = SpanRecorder()
    workload.prepare_trace()
    workload.setup()
    workload.gate()
    values = workload.trace(recorder)
    recorder.write(OUT_DIR / f"trace_{workload.name}.json")
    detail = {"kind": "per_layer",
              "cells": {name: {"value": value, "n": getattr(value, "n", 1)}
                        for name, value in values.items()},
              "attempted": workload.attempted, "failed": workload.failed,
              "sizing": workload.describe(),
              "spans": len(recorder.spans)}
    if workload.ladder:
        detail["ladder"] = {
            rung: {"p50_ms": stats.median_ms(samples),
                   "mean_ms": 1e3 * sum(samples) / len(samples),
                   "n": len(samples)}
            for rung, samples in workload.ladder.items()}
        report.print_ladder(detail["ladder"])
    return detail


def run_one(name: str, seed: int, seconds: float, trace: bool,
            detail_file=None) -> int:
    tmp = OUT_DIR / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[name](Context(seed, seconds, tmp))
    try:
        detail = run_traced(workload) if trace else run_measured(workload)
    finally:
        workload.teardown()
        shutil.rmtree(tmp, ignore_errors=True)
    if detail_file:
        with open(detail_file, "w", encoding="utf-8") as handle:
            json.dump(detail, handle)
    line = report.result_line(
        detail["kind"],
        {name: cell["value"] for name, cell in detail["cells"].items()},
        detail["attempted"], detail["failed"])
    print(json.dumps(line))
    return 0


# -- the whole set ----------------------------------------------------------------


def run_child(name: str, seed: int, seconds: float, trace: int) -> dict:
    """One workload run in a fresh process; returns its detail."""
    detail_file = OUT_DIR / f"detail-{os.getpid()}.json"
    command = [sys.executable, str(SPINE_DIR / "run.py"),
               "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--detail-file", str(detail_file)]
    try:
        subprocess.run(command, check=True, stdout=subprocess.DEVNULL)
        with open(detail_file, encoding="utf-8") as handle:
            return json.load(handle)
    finally:
        detail_file.unlink(missing_ok=True)


def run_suite(seed: int, seconds: float, quick: bool, out_path: Path) -> int:
    tables = {kind: report.metric_table(kind)
              for kind in ("end_to_end", "per_layer")}
    result = {"schema": report.SCHEMA,
              "environment": report.environment(seed, seconds, quick),
              "workloads": {}}
    ladder = None
    for name in WORKLOADS:
        print(f"running {name} ...", flush=True)
        measured = run_child(name, seed, seconds, 0)
        traced = run_child(name, seed, seconds, 1)
        entry = {"sizing": measured["sizing"],
                 "traced_sizing": traced["sizing"],
                 "attempted": measured["attempted"] + traced["attempted"],
                 "failed": measured["failed"] + traced["failed"]}
        for kind, detail in (("end_to_end", measured),
                             ("per_layer", traced)):
            entry[kind] = {}
            for metric, spec in tables[kind].items():
                cell = dict(detail["cells"].get(metric,
                                                {"value": 0, "n": 0}))
                cell["unit"] = spec["unit"]
                if "bound" in spec:
                    cell["bound"] = spec["bound"]
                entry[kind][metric] = cell
        entry["span_file"] = f"benchmarks/spine/out/trace_{name}.json"
        ladder = traced.get("ladder", ladder)
        result["workloads"][name] = entry
    result["ladder"] = ladder
    for name, entry in result["workloads"].items():
        report.print_workload(name, entry)
    if ladder:
        report.print_ladder(ladder)
    print("\nDurability on write.durable is checked after SIGKILL of the "
          "writer; a process kill keeps the OS page cache, so this is "
          "the sandbox's durability, not a device's.")
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1)
        handle.write("\n")
    print(f"result written to {out_path}")
    failed = sum(entry["failed"] for entry in result["workloads"].values())
    if failed:
        print(f"FAILED: {failed} operations failed or answered wrongly")
    return 1 if failed else 0


# -- command line -----------------------------------------------------------------


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("a")
        parser.add_argument("b")
        args = parser.parse_args(argv[1:])
        return 1 if report.compare(args.a, args.b) else 0
    if argv[:1] == ["_writer"]:
        parser = argparse.ArgumentParser(prog="run.py _writer")
        parser.add_argument("--directory", required=True)
        parser.add_argument("--seed", type=int, required=True)
        parser.add_argument("--operations", type=int, required=True)
        parser.add_argument("--calibration", type=int, default=0)
        parser.add_argument("--trace-file")
        args = parser.parse_args(argv[1:])
        writer_main(args.directory, args.seed, args.operations,
                    args.calibration, args.trace_file)
        return 0

    full_seconds = report.contract()["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--detail-file", help=argparse.SUPPRESS)
    parser.add_argument("--quick", action="store_true",
                        help=f"{QUICK_SECONDS} s loops, one-eighth counts")
    parser.add_argument("--repeat", type=int, default=1,
                        help="run the whole set N times, one file each")
    parser.add_argument("--out", type=Path,
                        help="result file (default out/result_<n>.json)")
    parser.add_argument("--baseline", action="store_true",
                        help="write the canonical BASELINE.json")
    args = parser.parse_args(argv)
    if args.workload:
        seconds = args.seconds or (QUICK_SECONDS if args.quick
                                   else full_seconds)
        return run_one(args.workload, args.seed, seconds,
                       bool(args.trace), args.detail_file)

    seconds = QUICK_SECONDS if args.quick else (args.seconds
                                                or full_seconds)
    full = not args.quick and seconds == full_seconds
    status = 0
    for index in range(1, args.repeat + 1):
        if args.baseline:
            out_path = report.BASELINE_PATH
        else:
            out_path = args.out or OUT_DIR / f"result_{index}.json"
            if args.out and args.repeat > 1:
                out_path = args.out.with_name(
                    f"{args.out.stem}_{index}{args.out.suffix}")
        if not full and out_path.resolve() == report.BASELINE_PATH:
            parser.error("only a full-mode run may write BASELINE.json "
                         "(no --quick, no --seconds)")
        status |= run_suite(args.seed, seconds, args.quick, out_path)
    return status


if __name__ == "__main__":
    sys.exit(main())
