"""Shared machinery for the replication chaos/differential tests.

Mirrors the crash-recovery harness idiom
(:mod:`tests.durability.test_crash_recovery`): seeded schedules of
load/insert/delete ops with a monotone tag counter so every element is
distinguishable, plus an ``observe`` probe that captures the serialized
tree and per-tag query answers item-for-item.

On top of that it adds the fault plane:

* :class:`ChaosSource` wraps a replica's source and — per seeded RNG —
  drops connections, re-delivers the previous ship batch verbatim
  (duplication), and truncates batches while leaving the batch's
  claimed cursor LSN intact (a *lying* batch: the replica must heal by
  advancing only per applied record, never trusting the claim).
* :class:`ReplicaHandle` models a replica process: ``kill`` discards
  the whole Replica object (in-memory state lost, identity + retention
  pin survive), ``restart`` builds a fresh one with the same id,
  ``drain`` polls it quiescent with faults disabled.
"""

from __future__ import annotations

import random

from repro import Database
from repro.xml import model
from repro.xml.serializer import serialize
from repro.replication import Replica, ReplicationPublisher
from repro.replication.replica import LocalSource

URI = "doc.xml"

_VALUES = ["alpha", "beta", "7", "3.5", "omega", "42"]


# -- schedule generation (the crash-recovery idiom) -------------------------------


def elements_under(node, out):
    for child in node.children():
        if isinstance(child, model.Element):
            out.append(child)
            elements_under(child, out)
    return out


def make_document(rng: random.Random, counter: list) -> str:
    parts = []
    for _ in range(rng.randint(2, 4)):
        tag = f"n{counter[0]}"
        counter[0] += 1
        parts.append(f"<{tag}>{rng.choice(_VALUES)}</{tag}>")
    return "<r>" + "".join(parts) + "</r>"


def make_fragment(rng: random.Random, counter: list) -> str:
    tag = f"n{counter[0]}"
    counter[0] += 1
    value = rng.choice(_VALUES)
    if rng.random() < 0.3:
        inner_tag = f"n{counter[0]}"
        counter[0] += 1
        inner = f"<{inner_tag}>{rng.choice(_VALUES)}</{inner_tag}>"
        return f"<{tag} a=\"{rng.choice(_VALUES)}\">{value}{inner}</{tag}>"
    return f"<{tag}>{value}</{tag}>"


def random_op(rng: random.Random, db: Database, counter: list):
    """Pick and APPLY one op on ``db``; returns the op tuple."""
    root = db.document(URI).node_for(0).root
    elements = elements_under(root, [root])
    deletable = [e for e in elements
                 if isinstance(e.parent, model.Element)]
    if deletable and rng.random() < 0.4:
        victim = rng.choice(deletable)
        op = ("delete", f"//{victim.tag}")
        db.delete(op[1])
    else:
        parent = rng.choice(elements)
        fragment = make_fragment(rng, counter)
        path = "/r" if parent == root else f"//{parent.tag}"
        op = ("insert", path, fragment)
        db.insert(path, fragment)
    return op


def apply_op(db: Database, op) -> None:
    if op[0] == "insert":
        db.insert(op[1], op[2])
    elif op[0] == "delete":
        db.delete(op[1])
    else:
        db.load(op[1], uri=URI)


def probe_tags_for(counter: list, seed: int):
    rng = random.Random(seed + 1)
    tags = {f"n{i}" for i in rng.sample(range(counter[0]),
                                        min(6, counter[0]))}
    return sorted(tags | {"r"})


def observe(db: Database, probe_tags) -> dict:
    """Serialized tree + item-for-item probe answers — the parity
    oracle compared between primary and replicas."""
    state = {"xml": serialize(db.document(URI).node_for(0))}
    for tag in sorted(probe_tags):
        result = db.query(f"//{tag}")
        state[tag] = (len(result), result.values())
    return state


def assert_parity(primary: Database, replica_db: Database,
                  probe_tags, context: str) -> None:
    assert replica_db.version_vector() == primary.version_vector(), \
        f"version-vector divergence {context}"
    expected = observe(primary, probe_tags)
    actual = observe(replica_db, probe_tags)
    assert actual == expected, f"query parity violation {context}"


# -- fault injection --------------------------------------------------------------


class ChaosSource:
    """A :class:`LocalSource` wrapper injecting ship-path faults.

    ``wal`` fetches may (a) raise ``ConnectionError``, (b) return the
    *previous* response verbatim — a duplicated/re-ordered delivery,
    stale cursor echo, stale ``primary_lsn`` and all, or (c) return a
    truncated batch: tail records and offsets dropped but the claimed
    batch LSN left pointing past them (the batch *lies* about how far
    it goes).  Probabilities are per-call; ``calm()`` zeroes them for
    the quiesce phase.
    """

    def __init__(self, publisher: ReplicationPublisher,
                 rng: random.Random, drop_p: float = 0.10,
                 dup_p: float = 0.15, trunc_p: float = 0.15):
        self.inner = LocalSource(publisher)
        self.rng = rng
        self.drop_p = drop_p
        self.dup_p = dup_p
        self.trunc_p = trunc_p
        self.dropped = 0
        self.duplicated = 0
        self.truncated = 0
        self._last_response = None

    def calm(self) -> None:
        self.drop_p = self.dup_p = self.trunc_p = 0.0

    def register(self, replica_id, address=None):
        return self.inner.register(replica_id, address=address)

    def snapshot(self, replica_id):
        return self.inner.snapshot(replica_id)

    def detach(self, replica_id):
        return self.inner.detach(replica_id)

    def close(self):
        self.inner.close()

    def wal(self, replica_id, lsn, max_records):
        if self.rng.random() < self.drop_p:
            self.dropped += 1
            raise ConnectionError("injected: ship connection dropped")
        if self._last_response is not None \
                and self.rng.random() < self.dup_p:
            self.duplicated += 1
            return self._last_response
        response = self.inner.wal(replica_id, lsn, max_records)
        if response.get("records") and self.rng.random() < self.trunc_p:
            keep = self.rng.randrange(len(response["records"]))
            response = dict(response)
            response["records"] = response["records"][:keep]
            response["offsets"] = response["offsets"][:keep]
            # "lsn" deliberately left claiming the full batch.
            self.truncated += 1
        self._last_response = response
        return response


# -- replica process model --------------------------------------------------------


class ReplicaHandle:
    """One replica 'process' driven deterministically (no threads)."""

    def __init__(self, replica_id: str,
                 publisher: ReplicationPublisher, rng: random.Random,
                 **fault_probs):
        self.replica_id = replica_id
        self.publisher = publisher
        self.rng = rng
        self.fault_probs = fault_probs
        self.replica = None
        self.source = None
        self.kills = 0
        self._calm = False
        self.restart()

    @property
    def alive(self) -> bool:
        return self.replica is not None

    def kill(self) -> None:
        """Crash: all in-memory state gone; the identity (and with it
        the primary-side retention pin) survives."""
        self.replica = None
        self.source = None
        self.kills += 1

    def restart(self) -> None:
        self.source = ChaosSource(self.publisher, self.rng,
                                  **self.fault_probs)
        if self._calm:
            self.source.calm()
        self.replica = Replica(self.source,
                               replica_id=self.replica_id,
                               poll_interval=0.0)
        try:
            self.replica.register()
            self.replica.bootstrap()
        except (ConnectionError, OSError):
            pass  # picked up by a later poll/restart

    def calm(self) -> None:
        self._calm = True
        if self.source is not None:
            self.source.calm()

    def poll(self, times: int = 1) -> None:
        for _ in range(times):
            if not self.alive:
                return
            try:
                if self.replica.state != "tailing":
                    self.replica.bootstrap()
                else:
                    self.replica.poll_once()
            except (ConnectionError, OSError):
                pass

    def drain(self, max_polls: int = 200) -> None:
        """Poll until applied_lsn reaches the primary's position.
        Call :meth:`calm` first — this asserts convergence."""
        if not self.alive:
            self.restart()
        for _ in range(max_polls):
            if self.replica.state == "tailing" \
                    and self.replica.applied_lsn \
                    >= self.publisher.primary_lsn() \
                    and self.replica.freshness_ts is not None:
                # Freshness needs a caught-up *poll*, not just a
                # caught-up cursor: right after bootstrap the replica
                # has not yet observed the primary at any local time.
                return
            self.poll()
        raise AssertionError(
            f"{self.replica_id} failed to converge after "
            f"{max_polls} polls: applied={self.replica.applied_lsn} "
            f"primary={self.publisher.primary_lsn()} "
            f"state={self.replica.state}")
