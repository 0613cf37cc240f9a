"""The benchmark's own span recorder and the shims of the traced run.

Spans are recorded from outside the program: a *shim* replaces a public
entry point of a layer (``Database.query``, ``PhysicalPlanner.match``,
``DurabilityManager.log`` ...) with a wrapper that times the call and
records ``{name, op_id, start, end, parent}``.  The measured run never
imports this module's shims — end-to-end metrics always come from
unshimmed code, and the traced run reports the price of the shims as
``trace_overhead_ratio``.

A span's name is ``<layer>.<what>``; the layer is the package under
``src/repro/`` the wrapped function belongs to (``loop`` is the load
generator itself).  A layer's *self time* inside one operation is the
sum, over that layer's spans, of the span's duration minus the part its
child spans cover.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from functools import wraps

_clock = time.perf_counter


class SpanRecorder:
    """In-memory spans; one stack per thread, one id per operation."""

    def __init__(self):
        self.spans: list[list] = []   # [name, op_id, start, end, parent]
        self.counts: dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._ops = 0
        self._lock = threading.Lock()
        self._patched: list[tuple] = []

    # -- recording ----------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def op(self, name: str):
        """Root span of one operation of the load generator."""
        with self._lock:
            self._ops += 1
            self._local.op_id = self._ops
        with self.span(name):
            yield

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        record = [name, getattr(self._local, "op_id", 0), 0.0, 0.0,
                  stack[-1] if stack else -1]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        record[2] = _clock()
        try:
            yield record
        finally:
            record[3] = _clock()
            stack.pop()

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    # -- shims --------------------------------------------------------------------

    def wrap(self, owner, attribute: str, name: str, after=None) -> None:
        """Replace ``owner.attribute`` by a span-recording wrapper.

        ``after(result, *args)`` runs inside the span once the call has
        returned, so counts are taken at the same boundary as the
        time."""
        original = owner.__dict__[attribute]
        function = (original.__func__
                    if isinstance(original, staticmethod) else original)
        recorder = self

        @wraps(function)
        def shim(*args, **kwargs):
            with recorder.span(name):
                result = function(*args, **kwargs)
                if after is not None:
                    after(result, *args)
                return result

        setattr(owner, attribute,
                staticmethod(shim) if isinstance(original, staticmethod)
                else shim)
        self._patched.append((owner, attribute, original))

    def unwrap_all(self) -> None:
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    # -- analysis -----------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: duration minus the time its child spans cover."""
        own = [span[3] - span[2] for span in self.spans]
        for span in self.spans:
            if span[4] >= 0:
                own[span[4]] -= span[3] - span[2]
        return own

    def layer_self_by_op(self, root_name: str) -> dict[str, list[float]]:
        """``layer -> [seconds of self time in each operation]`` over
        the operations whose root span is ``root_name``."""
        own = self.self_times()
        wanted = {span[1] for span in self.spans
                  if span[4] < 0 and span[0] == root_name}
        per_op: dict[int, dict[str, float]] = {op: {} for op in wanted}
        for span, seconds in zip(self.spans, own):
            layers = per_op.get(span[1])
            if layers is not None:
                layer = span[0].split(".", 1)[0]
                layers[layer] = layers.get(layer, 0.0) + seconds
        result: dict[str, list[float]] = defaultdict(list)
        for layers in per_op.values():
            for layer, seconds in layers.items():
                result[layer].append(seconds)
        return result

    def durations(self, name: str) -> list[float]:
        return [span[3] - span[2] for span in self.spans
                if span[0] == name]

    def write(self, path) -> None:
        """Write the span file (see README "How to read a span file")."""
        base = min((span[2] for span in self.spans), default=0.0)
        document = {
            "columns": ["name", "op_id", "start", "end", "parent"],
            "clock": "seconds since the first span (perf_counter)",
            "spans": [[name, op_id, round(start - base, 7),
                       round(end - base, 7), parent]
                      for name, op_id, start, end, parent in self.spans],
            "counts": dict(self.counts),
        }
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)


class CountingFile:
    """A write-counting file for ``wal_opener``/``snapshot_opener``:
    every byte the durability layer writes into the data directory is
    added to ``durability.bytes_written`` of the recorder."""

    def __init__(self, recorder: SpanRecorder, path, mode: str):
        self._recorder = recorder
        self._file = open(path, mode)

    def write(self, data) -> int:
        written = self._file.write(data)
        self._recorder.count("durability.bytes_written", len(data))
        return written

    def __getattr__(self, name):
        return getattr(self._file, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._file.close()


def counting_opener(recorder: SpanRecorder):
    return lambda path, mode: CountingFile(recorder, path, mode)


def install_engine_shims(recorder: SpanRecorder) -> None:
    """Shim the public entry points of ``engine``, ``physical`` and
    ``durability`` (class attributes, so every instance is covered)."""
    from repro.durability.manager import DurabilityManager
    from repro.engine.database import Database
    from repro.physical.planner import PhysicalPlanner

    def after_match(result, *args):
        _, stats, used = result
        recorder.count(f"physical.strategy.{used}")
        recorder.count("physical.nodes_visited", stats.nodes_visited)
        recorder.count("physical.results", stats.solutions)

    recorder.wrap(PhysicalPlanner, "match", "physical.match",
                  after=after_match)
    recorder.wrap(Database, "query", "engine.query")
    recorder.wrap(Database, "insert", "engine.update")
    recorder.wrap(Database, "delete", "engine.update")
    recorder.wrap(Database, "execute_request", "server.verb")
    recorder.wrap(DurabilityManager, "log", "durability.log")
    recorder.wrap(DurabilityManager, "checkpoint",
                  "durability.checkpoint")
    recorder.wrap(os, "fsync", "durability.fsync")
