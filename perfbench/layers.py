"""Benchmark-side wrappers that time the program's layers from outside.

Child-process side only: importing this module imports ``repro``.  Every
wrapper goes through a public interface — a :class:`repro.api.Store`
subclass that delegates to the real store, and the public
``Session.build_circuit`` / ``get_engine`` / ``Session.run`` calls — so
the program under test is never patched.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Iterator, Optional

from repro.api import Session, Store, circuit_of
from repro.api.results import Result
from repro.spice.engine import get_engine

from perfbench.common import Tracer


class TimingStore(Store):
    """A :class:`Store` that delegates to ``inner`` and times/counts it.

    ``get``/``put`` run inside ``<name>.get``/``<name>.put`` spans; the
    counters (``gets``, ``hits``, ``misses``, ``puts``) are always kept.
    """

    def __init__(self, inner: Store, tracer: Tracer, name: str):
        self.inner = inner
        self.tracer = tracer
        self.name = name
        self.counts: Dict[str, int] = {"gets": 0, "hits": 0, "misses": 0, "puts": 0}
        self._lock = threading.Lock()

    def get(self, key: str) -> Optional[Result]:
        with self.tracer.span(f"{self.name}.get"):
            result = self.inner.get(key)
        with self._lock:
            self.counts["gets"] += 1
            self.counts["hits" if result is not None else "misses"] += 1
        return result

    def put(self, key: str, result: Result) -> None:
        with self.tracer.span(f"{self.name}.put"):
            self.inner.put(key, result)
        with self._lock:
            self.counts["puts"] += 1

    def delete(self, key: str) -> bool:
        return self.inner.delete(key)

    def keys(self) -> Iterator[str]:
        return self.inner.keys()

    def __len__(self) -> int:
        return len(self.inner)

    def count(self, kind: Optional[str] = None) -> int:
        # Delegated: the inherited count would load (and count) every entry.
        return self.inner.count(kind)


def run_layered(
    session: Session, spec: Any, tracer: Tracer, times: Dict[str, float]
) -> Result:
    """Build, compile and solve one spec as three timed layer calls.

    ``times`` accumulates ``build_s``, ``compile_s`` and ``solve_s``.
    """
    circuit_spec = spec.circuit_spec()
    built, elapsed = tracer.timed("build", lambda: session.build_circuit(circuit_spec))
    times["build_s"] = times.get("build_s", 0.0) + elapsed

    def compile_engine() -> None:
        get_engine(circuit_of(built)).compiled.refresh_values()

    _, elapsed = tracer.timed("compile", compile_engine)
    times["compile_s"] = times.get("compile_s", 0.0) + elapsed
    result, elapsed = tracer.timed("solve", lambda: session.run(spec))
    times["solve_s"] = times.get("solve_s", 0.0) + elapsed
    return result


def result_counters(result: Result) -> Dict[str, int]:
    """The deterministic work counters of one computed result."""
    accepted = rejected = 0
    info = result.convergence_info if result.kind == "transient" else None
    if info is not None:
        accepted, rejected = int(info.accepted_steps), int(info.rejected_steps)
    elif result.kind == "montecarlo" and "time_s" in result.arrays:
        # a lockstep fixed-step march accepts every grid step of every trial
        steps = len(result.arrays["time_s"]) - 1
        accepted = steps * int(result.scalars["trials"])
    return {
        "newton_iterations": int(result.newton_iterations),
        "factorizations": int(result.factorizations),
        "factorization_reuses": int(result.factorization_reuses),
        "transient_steps_accepted": accepted,
        "transient_steps_rejected": rejected,
    }


def add_counters(total: Dict[str, int], more: Dict[str, int]) -> None:
    for key, value in more.items():
        total[key] = total.get(key, 0) + value

