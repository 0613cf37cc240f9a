"""The measurement spine: the repository's one performance benchmark.

Five workloads, named end-to-end and per-layer metrics, one result
schema.  See ``README.md`` in this directory; ``BENCHMARK.json`` at the
repository root declares the contract.
"""

from pathlib import Path

SPINE_DIR = Path(__file__).resolve().parent
REPO_ROOT = SPINE_DIR.parent.parent
OUT_DIR = SPINE_DIR / "out"        # span files, results, scratch; git-ignored
