"""Deterministic, seeded fault injection for stores and workers.

The test-suite proves the fault-tolerance guarantees (retries heal,
breakers open, journals replay, hung workers are requeued) instead of
asserting them — and a proof needs faults that happen *exactly* when the
test says, every run.  A :class:`FaultPlan` describes when a wrapped
store operation fails:

* ``fail_on`` — one-shot faults: raise on exactly the Nth covered
  operation (1-based), recover afterwards (the "intermittent" shape a
  retry loop must heal);
* ``fail_from`` / ``fail_until`` — a persistent outage window: every
  covered operation in ``[fail_from, fail_until]`` fails
  (``fail_until=None`` means the store never recovers — the shape a
  circuit breaker must absorb);
* ``fail_rate`` + ``seed`` — random intermittent faults, drawn
  *per operation index* from a seeded stream, so the pattern is
  reproducible and independent of thread interleaving;
* ``latency_s`` — injected delay before every covered operation (slow
  NFS, cold disks), for deadline tests;
* ``torn_write_on`` — the Nth covered ``put`` *appears to succeed* but
  leaves truncated bytes behind, which is what a power loss under a
  non-fsynced writer looks like; later reads must quarantine, not crash.

:class:`FaultyStore` applies a plan to any :class:`~repro.api.stores.
Store`.  The worker-side chaos (hard kill, stall) that
:mod:`repro.api.distributed` injects through its ``_chaos`` hook lives
here too (:func:`kill_task`, :func:`stall_task`), so every fault the
suite can inject has one home.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from typing import Any, Iterator, List, Mapping, Optional, Tuple

from repro.api.results import Result
from repro.api.stores import Store

__all__ = [
    "FaultPlan",
    "FaultyStore",
    "InjectedFault",
    "kill_task",
    "stall_task",
]


class InjectedFault(OSError):
    """The exception a :class:`FaultyStore` raises on a planned fault.

    An ``OSError`` subclass because that is what real storage failures
    (disk full, NFS timeouts, ``sqlite3.OperationalError`` wrappers) look
    like to callers — code that special-cases the injected type instead of
    handling storage errors generically would be cheating the test.
    """


@dataclass(frozen=True)
class FaultPlan:
    """When the covered store operations fail (see the module docstring).

    Operation indices are 1-based and count only operations named in
    ``ops`` — ``FaultPlan(ops=("put",), fail_on=(2,))`` fails the second
    ``put`` regardless of how many ``get``\\ s happen in between.
    """

    ops: Tuple[str, ...] = ("get", "put")
    fail_on: Tuple[int, ...] = ()
    fail_from: Optional[int] = None
    fail_until: Optional[int] = None
    fail_rate: float = 0.0
    seed: int = 0
    latency_s: float = 0.0
    torn_write_on: Tuple[int, ...] = ()
    message: str = "injected storage fault"

    def __post_init__(self) -> None:
        if not 0.0 <= self.fail_rate <= 1.0:
            raise ValueError(f"fail_rate must be in [0, 1], got {self.fail_rate}")
        if self.fail_from is not None and self.fail_from < 1:
            raise ValueError("fail_from is a 1-based operation index")
        if self.latency_s < 0:
            raise ValueError("latency_s must be >= 0")

    def covers(self, op: str) -> bool:
        return op in self.ops

    def should_fail(self, index: int) -> bool:
        """Whether the ``index``-th covered operation fails (deterministic)."""
        if index in self.fail_on:
            return True
        if self.fail_from is not None and index >= self.fail_from:
            if self.fail_until is None or index <= self.fail_until:
                return True
        if self.fail_rate > 0.0:
            # One independent draw per operation index, seeded by (seed,
            # index): the fault pattern is a pure function of the plan, not
            # of thread scheduling or of how many draws happened before.
            draw = random.Random((self.seed << 32) ^ index).random()
            return draw < self.fail_rate
        return False


class FaultyStore(Store):
    """A :class:`~repro.api.stores.Store` wrapper that fails on plan.

    Wraps any backend and applies a :class:`FaultPlan` to it.  Every
    covered operation is numbered (thread-safely), the plan decides
    whether it faults, and the ``log`` records what happened —
    ``(op, index, outcome)`` with outcome ``"ok"``/``"fault"``/``"torn"``
    — so tests can assert not just the end state but the exact fault
    sequence that produced it.

    Torn writes are simulated against the wrapped backend's real
    persistence: a :class:`~repro.api.stores.JSONDirectoryStore` entry is
    truncated mid-file, a :class:`~repro.api.stores.SQLiteStore` row's
    payload is cut in half, and any other backend simply loses the write —
    in every case the ``put`` returns as if it succeeded.

    ``worker_view()`` returns the *inner* store's view: the plan's
    counters are process-local and do not follow the store across a
    pickle boundary.
    """

    def __init__(self, inner: Store, plan: FaultPlan):
        self.inner = inner
        self.plan = plan
        self.ttl_s = inner.ttl_s
        self.max_entries = inner.max_entries
        self.log: List[Tuple[str, int, str]] = []
        self._lock = threading.Lock()
        self._count = 0

    def __getstate__(self) -> dict:
        # The op counter and log are process-local observations (see the
        # class docstring); a pickled copy starts counting afresh.
        state = self.__dict__.copy()
        state.pop("_lock", None)
        state["log"] = []
        state["_count"] = 0
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # the fault gate
    # ------------------------------------------------------------------ #

    @property
    def operations(self) -> int:
        """Covered operations seen so far."""
        with self._lock:
            return self._count

    def _gate(self, op: str) -> Optional[int]:
        """Number the operation and raise if the plan says so.

        Returns the operation index for covered ops (``None`` otherwise);
        the caller logs the outcome.
        """
        if not self.plan.covers(op):
            return None
        with self._lock:
            self._count += 1
            index = self._count
        if self.plan.latency_s:
            time.sleep(self.plan.latency_s)
        if self.plan.should_fail(index):
            with self._lock:
                self.log.append((op, index, "fault"))
            raise InjectedFault(
                f"{self.plan.message} ({op} #{index})"
            )
        return index

    def _ok(self, op: str, index: Optional[int], outcome: str = "ok") -> None:
        if index is not None:
            with self._lock:
                self.log.append((op, index, outcome))

    # ------------------------------------------------------------------ #
    # the Store interface
    # ------------------------------------------------------------------ #

    def get(self, key: str) -> Optional[Result]:
        index = self._gate("get")
        result = self.inner.get(key)
        self._ok("get", index)
        return result

    def put(self, key: str, result: Result) -> None:
        index = self._gate("put")
        self.inner.put(key, result)
        if index is not None and index in self.plan.torn_write_on:
            self._tear(key)
            self._ok("put", index, "torn")
            return
        self._ok("put", index)

    def delete(self, key: str) -> bool:
        index = self._gate("delete")
        dropped = self.inner.delete(key)
        self._ok("delete", index)
        return dropped

    def keys(self) -> Iterator[str]:
        index = self._gate("keys")
        keys = self.inner.keys()
        self._ok("keys", index)
        return keys

    def __len__(self) -> int:
        index = self._gate("len")
        size = len(self.inner)
        self._ok("len", index)
        return size

    def count(self, kind: Optional[str] = None) -> int:
        index = self._gate("count")
        total = self.inner.count(kind)
        self._ok("count", index)
        return total

    def prune(self) -> int:
        return self.inner.prune()

    def worker_view(self) -> Optional[Store]:
        return self.inner.worker_view()

    # ------------------------------------------------------------------ #
    # torn writes
    # ------------------------------------------------------------------ #

    def _tear(self, key: str) -> None:
        """Leave the freshly written entry half-written, as power loss would."""
        inner = self.inner
        # Tiered: tear the persistent back (the torn-write hazard is a disk
        # phenomenon) and drop the clean front copy so reads hit the tear.
        front = getattr(inner, "front", None)
        back = getattr(inner, "back", None)
        if front is not None and back is not None:
            front.delete(key)
            inner = back
        path_of = getattr(inner, "_path", None)
        if callable(path_of):  # JSONDirectoryStore: truncate the file
            path = path_of(key)
            try:
                with open(path, "rb+") as handle:
                    handle.truncate(max(1, handle.seek(0, 2) // 2))
            except OSError:
                pass
            return
        connection_of = getattr(inner, "_connection", None)
        if callable(connection_of):  # SQLiteStore: halve the payload text
            connection = connection_of()
            with connection:
                connection.execute(
                    "UPDATE results SET payload = substr(payload, 1, "
                    "length(payload) / 2) WHERE key = ?",
                    (key,),
                )
            return
        # No durable bytes to tear (memory): the write is simply lost.
        inner.delete(key)


# ---------------------------------------------------------------------- #
# worker chaos (the distributed coordinator's _chaos hook)
# ---------------------------------------------------------------------- #


def kill_task(task_id: int = 0) -> Mapping[str, Any]:
    """A ``_chaos`` mapping hard-killing (``os._exit``) whichever worker
    receives task ``task_id`` first — indistinguishable from a SIGKILL
    mid-task.

    Distinct specs are numbered in order from 0.  The fault fires whichever
    worker wins the task from the queue, and the redelivered task runs
    normally.
    """
    return {"die_task": task_id}


def stall_task(task_id: int = 0, stall_s: float = 3600.0) -> Mapping[str, Any]:
    """A ``_chaos`` mapping stalling whichever worker receives task
    ``task_id`` first.

    The process stays alive (its heartbeat thread keeps beating) but the
    claimed task never finishes — the hung-worker shape only a lease
    timeout can detect.  As with :func:`kill_task`, the redelivered task
    runs normally.
    """
    return {"stall_task": task_id, "stall_s": stall_s}
