"""repro.testing — deterministic fault-injection for the test-suite.

The fault-tolerance layer (journal recovery, :class:`~repro.api.stores.
ResilientStore` degradation, hung-worker leases) makes guarantees about
what happens *when things break*.  Asserting those guarantees needs a way
to break things on demand, reproducibly: :mod:`repro.testing.chaos`
provides a seeded :class:`~repro.testing.chaos.FaultPlan` driving a
:class:`~repro.testing.chaos.FaultyStore` wrapper (raise on the Nth
operation, intermittent vs. persistent failure windows, injected latency,
torn-write simulation) plus the worker-chaos mappings the distributed
coordinator's ``_chaos`` hook consumes (hard kill, stall).

Everything here is deterministic given its seed — a chaos test that fails
replays identically, which is the whole point.
"""

from repro.testing.chaos import (
    FaultPlan,
    FaultyStore,
    InjectedFault,
    kill_task,
    stall_task,
)

__all__ = [
    "FaultPlan",
    "FaultyStore",
    "InjectedFault",
    "kill_task",
    "stall_task",
]
