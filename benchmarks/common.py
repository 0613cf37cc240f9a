"""Shared helpers for the benchmark harness.

Every experiment writes its paper-style table to
``benchmarks/results/<name>.txt`` (so the artefacts survive pytest's
output capturing) and also prints it (visible with ``pytest -s`` or via
``python benchmarks/run_all.py``).  Generated documents and databases are
cached per (generator, scale) so pytest-benchmark's repeated calls do not
re-shred documents.  The cached databases keep no result cache, so every
timed run executes its query.
"""

from __future__ import annotations

import functools
import time
from pathlib import Path

from repro.engine.database import Database
from repro.workload import generate_dblp, generate_treebank, generate_xmark

RESULTS_DIR = Path(__file__).parent / "results"


@functools.lru_cache(maxsize=None)
def xmark_database(scale: int, seed: int = 42,
                   pool_pages: int = 64) -> Database:
    """A database with one loaded XMark document (cached)."""
    database = Database(pool_pages=pool_pages, result_cache_size=0)
    database.load_tree(generate_xmark(scale=scale, seed=seed),
                       uri="xmark.xml")
    return database


@functools.lru_cache(maxsize=None)
def dblp_database(publications: int, seed: int = 7) -> Database:
    database = Database(result_cache_size=0)
    database.load_tree(generate_dblp(publications=publications, seed=seed),
                       uri="dblp.xml")
    return database


@functools.lru_cache(maxsize=None)
def treebank_database(sentences: int, max_depth: int = 14,
                      seed: int = 11) -> Database:
    database = Database(result_cache_size=0)
    database.load_tree(generate_treebank(sentences=sentences,
                                         max_depth=max_depth, seed=seed),
                       uri="treebank.xml")
    return database


def timed(callable_, repeat: int = 3) -> float:
    """Best-of-``repeat`` wall time in seconds."""
    best = float("inf")
    for _ in range(repeat):
        started = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - started)
    return best


def format_table(title: str, headers: list[str],
                 rows: list[list], note: str = "") -> str:
    """A fixed-width table like the ones in systems papers."""
    def cell(value) -> str:
        if isinstance(value, float):
            if value != value:
                return "nan"
            if abs(value) >= 1000 or (value != 0 and abs(value) < 0.01):
                return f"{value:.3g}"
            return f"{value:.3f}".rstrip("0").rstrip(".")
        return str(value)

    text_rows = [[cell(value) for value in row] for row in rows]
    widths = [max(len(headers[column]),
                  max((len(row[column]) for row in text_rows), default=0))
              for column in range(len(headers))]
    lines = [title, "=" * len(title)]
    lines.append("  ".join(header.ljust(width)
                           for header, width in zip(headers, widths)))
    lines.append("  ".join("-" * width for width in widths))
    for row in text_rows:
        lines.append("  ".join(value.ljust(width)
                               for value, width in zip(row, widths)))
    if note:
        lines.append("")
        lines.append(note)
    return "\n".join(lines)


def publish(name: str, table: str) -> None:
    """Print the table and persist it under benchmarks/results/."""
    print()
    print(table)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(table + "\n",
                                             encoding="utf-8")
