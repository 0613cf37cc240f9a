"""The spine benchmark's own test (outside tier-1's ``testpaths``).

    pytest benchmarks/spine

Runs the whole set once in ``--quick`` mode (about a minute) and checks
the contract between ``BENCHMARK.json``, the runner and the result
schema.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

SPINE_DIR = Path(__file__).resolve().parent
REPO_ROOT = SPINE_DIR.parent.parent
RUN = [sys.executable, str(SPINE_DIR / "run.py")]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
WORKLOADS = ["read.inproc", "read.served", "mixed.inproc",
             "write.durable", "recover.replay"]


def contract() -> dict:
    return json.loads((REPO_ROOT / "BENCHMARK.json").read_text())


def last_json_line(output: str) -> dict:
    return json.loads(output.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    """(result dict, its path, the run's stdout) of one quick set."""
    path = tmp_path_factory.mktemp("spine") / "quick.json"
    done = subprocess.run(RUN + ["--quick", "--out", str(path)],
                          capture_output=True, text=True, timeout=900)
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(path.read_text()), path, done.stdout


def test_contract_shape():
    declared = contract()
    assert set(declared) == {"command", "paths", "run_seconds",
                             "workloads", "end_to_end", "per_layer"}
    assert declared["paths"] == ["benchmarks/spine"]
    assert [w["name"] for w in declared["workloads"]] == WORKLOADS
    names = ([w["name"] for w in declared["workloads"]]
             + [m["name"] for m in declared["end_to_end"]]
             + [m["name"] for m in declared["per_layer"]])
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in declared["workloads"])
    assert all(set(m) == {"name", "unit", "better", "bound"}
               and 0 < m["bound"] <= 0.25 for m in declared["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"}
               for m in declared["per_layer"])
    assert "setup_s" in {m["name"] for m in declared["end_to_end"]}


def test_every_declared_metric_is_reported(quick):
    result, _, stdout = quick
    declared = contract()
    assert result["environment"]["quick"] is True
    for key in ("commit", "cpu_count", "python", "platform", "seed",
                "seconds", "duration_factor"):
        assert key in result["environment"]
    assert list(result["workloads"]) == WORKLOADS
    for name, entry in result["workloads"].items():
        assert entry["failed"] == 0, name
        assert entry["sizing"]["scale"] in (120, 400, 1200)
        for kind in ("end_to_end", "per_layer"):
            for metric in declared[kind]:
                cell = entry[kind][metric["name"]]
                assert cell["unit"] == metric["unit"]
                assert "n" in cell and "value" in cell
                assert metric["name"] in stdout
        for metric in declared["end_to_end"]:
            cell = entry["end_to_end"][metric["name"]]
            assert cell["value"] > 0 and cell["bound"] == metric["bound"]
        assert entry["per_layer"]["trace_overhead_ratio"]["value"] > 0
        assert (SPINE_DIR / "out" / f"trace_{name}.json").exists()
    assert set(result["ladder"]) == {"kernel", "query", "verb", "wire"}
    assert "read.served ladder" in stdout


def test_layers_idle_where_they_should_be(quick):
    workloads = quick[0]["workloads"]
    for name in ("read.inproc", "read.served", "mixed.inproc"):
        assert workloads[name]["per_layer"]["durability.fsyncs"][
            "value"] == 0
    served = workloads["read.served"]["per_layer"]
    assert served["server.verb_ms"]["value"] > 0
    assert served["server.wire_tax_ms"]["value"] > 0
    durable = workloads["write.durable"]["per_layer"]
    assert durable["durability.checkpoints"]["value"] >= 1
    assert durable["durability.write_amp"]["value"] > 1
    replay = workloads["recover.replay"]["per_layer"]
    assert replay["durability.replay_ms_per_record"]["value"] > 0
    assert replay["replication.apply_records_per_s"]["value"] > 0


def test_compare_a_file_with_itself(quick):
    _, path, _ = quick
    done = subprocess.run(RUN + ["compare", str(path), str(path)],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stdout + done.stderr
    rows = [line for line in done.stdout.splitlines()
            if line.split() and line.split()[0] in WORKLOADS]
    assert len(rows) == len(WORKLOADS) * len(contract()["end_to_end"])
    assert all(row.split()[-1] in ("same", "unresolved") for row in rows)


def test_quick_never_becomes_the_baseline():
    baseline = SPINE_DIR / "BASELINE.json"
    before = baseline.read_bytes()
    done = subprocess.run(RUN + ["--quick", "--baseline"],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert baseline.read_bytes() == before


def test_counts_repeat_exactly():
    runs = []
    for _ in range(2):
        done = subprocess.run(
            RUN + ["--workload", "write.durable", "--seed", "5",
                   "--quick", "--trace", "1"],
            capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        line = last_json_line(done.stdout)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["failed"] == 0
        runs.append(line["metrics"])
    for metric in ("durability.write_amp", "durability.space_amp",
                   "durability.fsyncs", "durability.wal_bytes",
                   "durability.checkpoints"):
        assert runs[0][metric]["value"] == runs[1][metric]["value"], metric


def test_baseline_is_full_mode_and_percentiles_have_samples_beyond():
    baseline = json.loads((SPINE_DIR / "BASELINE.json").read_text())
    env = baseline["environment"]
    assert env["quick"] is False
    assert env["seconds"] == contract()["run_seconds"]
    for name, entry in baseline["workloads"].items():
        assert entry["failed"] == 0, name
        for cell in entry["end_to_end"].values():
            if "p50" in cell:
                assert cell["n"] * 0.50 >= 10
            if "p95" in cell:
                assert cell["n"] * 0.05 >= 10
