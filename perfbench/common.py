"""Shared machinery of the benchmark: paths, environment, statistics,
tracing spans, output checks and the fresh-process protocol.

Every workload module imports this one.  Nothing here imports ``repro``:
the parent process of a batch workload never loads the program, it only
spawns and times fresh child processes that do.
"""

from __future__ import annotations

import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Scratch space of a run (child working directories, the service's
#: store, traces).  Inside the checkout, ignored by git, removed per run.
WORK = os.path.join(ROOT, ".perfbench_work")
OUT = os.path.join(ROOT, ".perfbench_out")

#: Variables that change which linear-solver backend ``solver="auto"``
#: picks (see ``repro.spice.solvers.recorded_crossovers``).  A run must not
#: inherit CI's recorded crossovers, so every process starts without them.
SCRUBBED_ENV = ("REPRO_SOLVER_CROSSOVER", "REPRO_BENCH_SOLVERS", "BENCH_JSON_DIR")

#: Child processes get this long past their budget before they are killed.
CHILD_GRACE_S = 60.0


# ---------------------------------------------------------------------- #
# environment
# ---------------------------------------------------------------------- #


def program_present() -> bool:
    """Whether the checkout holds the program the benchmark drives."""
    return os.path.isfile(os.path.join(SRC, "repro", "__init__.py"))


def child_env() -> Dict[str, str]:
    """The environment of every process the benchmark starts."""
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    env["PYTHONPATH"] = os.pathsep.join([SRC, ROOT])
    # Every process iterates its string-keyed sets in one order.
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def scrub_own_env() -> None:
    """Apply :func:`child_env`'s scrubbing to this process as well."""
    for key in SCRUBBED_ENV:
        os.environ.pop(key, None)
    for path in (ROOT, SRC):
        if path not in sys.path:
            sys.path.insert(0, path)


def fresh_dir(*parts: str) -> str:
    """An empty directory under :data:`WORK` (no ``BENCH_solvers.json``)."""
    path = os.path.join(WORK, *parts)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def machine_descriptor() -> Dict[str, Any]:
    """What the numbers were measured on."""
    versions: Dict[str, Any] = {"python": platform.python_version()}
    try:
        import numpy

        versions["numpy"] = numpy.__version__
        blas = numpy.show_config(mode="dicts").get("Build Dependencies", {})
        versions["blas"] = blas.get("blas", {}).get("name", "unknown")
    except (ImportError, TypeError, AttributeError):
        versions["numpy"] = "unavailable"
    try:
        import scipy

        versions["scipy"] = scipy.__version__
    except ImportError:
        versions["scipy"] = "unavailable"
    threads = {
        name: os.environ.get(name, "unset")
        for name in (
            "OMP_NUM_THREADS",
            "OPENBLAS_NUM_THREADS",
            "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS",
        )
    }
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "system": platform.system(),
        **versions,
        "blas_threads": threads,
    }


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------- #
# statistics
# ---------------------------------------------------------------------- #


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def tail(values: Sequence[float], beyond: int = 10) -> Tuple[float, str]:
    """The highest percentile with at least ``beyond`` samples above it.

    Returns ``(value, label)``.  With ``beyond`` or fewer samples no such
    percentile exists; the maximum is returned and labelled so.
    """
    ordered = sorted(values)
    count = len(ordered)
    if count == 0:
        raise ValueError("tail of no samples")
    if count <= beyond:
        return float(ordered[-1]), f"max of {count}"
    rank = count - beyond  # ordered[rank - 1] has exactly `beyond` above it
    return float(ordered[rank - 1]), f"p{100.0 * rank / count:.1f} of {count}"


def cores() -> List[int]:
    """The CPUs this process may run on, in order."""
    return sorted(os.sched_getaffinity(0))


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else math.inf


# ---------------------------------------------------------------------- #
# tracing
# ---------------------------------------------------------------------- #


class Tracer:
    """In-memory spans around calls into the program's layers.

    A span records its name, start, end, the span that was open in the
    same thread when it began (its parent) and a trace id shared by the
    spans of one request.  A disabled tracer records nothing and costs one
    attribute check per call.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: List[Dict[str, Any]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0

    @contextmanager
    def span(self, name: str, trace: Optional[str] = None) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else None
        with self._lock:
            self._next_id += 1
            span_id = self._next_id
        if trace is None and parent is not None:
            trace = parent["trace"]
        record = {
            "id": span_id,
            "parent": parent["id"] if parent else None,
            "trace": trace,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
        }
        stack.append(record)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(record)

    def timed(self, name: str, call: Callable[[], Any]) -> Tuple[Any, float]:
        """``call()`` inside a span; returns its value and duration."""
        start = time.perf_counter()
        with self.span(name):
            value = call()
        return value, time.perf_counter() - start

    def self_times(self) -> Dict[str, float]:
        """Per span name: summed duration minus the part children cover."""
        return self_times(self.spans)

    def dump(self, path: str, extra: Optional[Dict[str, Any]] = None) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            json.dump({"spans": self.spans, **(extra or {})}, handle)


def _covered(intervals: List[Tuple[float, float]]) -> float:
    total, reach = 0.0, -math.inf
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: Sequence[Dict[str, Any]]) -> Dict[str, float]:
    children: Dict[Any, List[Tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"])
            )
    totals: Dict[str, float] = {}
    for span in spans:
        start, end = span["start"], span["end"]
        inside = [
            (max(a, start), min(b, end))
            for a, b in children.get(span["id"], [])
            if b > start and a < end
        ]
        own = (end - start) - _covered(inside)
        totals[span["name"]] = totals.get(span["name"], 0.0) + own
    return totals


def span_cost_s(samples: int = 2000) -> float:
    """Measured cost of recording one span (for the overhead estimate)."""
    tracer = Tracer(True)
    start = time.perf_counter()
    for _ in range(samples):
        with tracer.span("probe"):
            pass
    return (time.perf_counter() - start) / samples


def span_durations(spans: Sequence[Dict[str, Any]]) -> Dict[str, Tuple[int, float]]:
    """Per span name: how many spans and their summed duration."""
    totals: Dict[str, Tuple[int, float]] = {}
    for span in spans:
        count, total = totals.get(span["name"], (0, 0.0))
        totals[span["name"]] = (count + 1, total + span["end"] - span["start"])
    return totals


def mean_span_us(spans: Sequence[Dict[str, Any]], name: str) -> float:
    count, total = span_durations(spans).get(name, (0, 0.0))
    return total / count * 1e6 if count else 0.0


# ---------------------------------------------------------------------- #
# per-layer summaries
# ---------------------------------------------------------------------- #


def solver_metrics(counters: Dict[str, int], solve_s: float) -> Dict[str, float]:
    """Per-layer numbers derived from a workload's summed solver counters."""
    newton = counters.get("newton_iterations", 0)
    factorizations = counters.get("factorizations", 0)
    reuses = counters.get("factorization_reuses", 0)
    solves = factorizations + reuses
    return {
        "newton_iterations": newton,
        "factorizations": factorizations,
        "factorization_reuses": reuses,
        "factorization_reuse_ratio": reuses / solves if solves else 0.0,
        "us_per_newton_iter": solve_s / newton * 1e6 if newton else 0.0,
        "transient_steps_accepted": counters.get("transient_steps_accepted", 0),
        "transient_steps_rejected": counters.get("transient_steps_rejected", 0),
    }


def store_metrics(
    counts: Dict[str, Dict[str, int]], spans: Sequence[Dict[str, Any]]
) -> Dict[str, float]:
    """Tiered-store numbers from the timing wrappers' counters and spans."""
    front, back = counts["front"], counts["back"]
    return {
        "store_get_us": mean_span_us(spans, "store.get"),
        "store_put_us": mean_span_us(spans, "store.put"),
        "store_front_hits": front["hits"],
        "store_back_hits": back["hits"],
        "store_misses": back["misses"],
        "store_front_hit_ratio": front["hits"] / front["gets"] if front["gets"] else 0.0,
    }


# ---------------------------------------------------------------------- #
# output checks
# ---------------------------------------------------------------------- #

_NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?")


def report_numbers(text: str) -> List[Tuple[float, float]]:
    """Every number printed in a report, with one unit of its last digit."""
    numbers = []
    for token in _NUMBER.findall(text):
        mantissa, _, exponent = token.lower().partition("e")
        decimals = len(mantissa.split(".")[1]) if "." in mantissa else 0
        unit = 10.0 ** (-decimals + (int(exponent) if exponent else 0))
        numbers.append((float(token), unit))
    return numbers


def compare_numbers(
    label: str,
    got: Sequence[Tuple[float, float]],
    want: Sequence[Tuple[float, float]],
    rel: float = 1e-6,
) -> List[str]:
    """Mismatches beyond one unit in the last printed digit plus ``rel``."""
    if len(got) != len(want):
        return [f"{label}: {len(got)} numbers, reference has {len(want)}"]
    failures = []
    for index, ((value, unit), (reference, ref_unit)) in enumerate(zip(got, want)):
        allowed = max(unit, ref_unit) + rel * abs(reference)
        if not abs(value - reference) <= allowed:
            failures.append(
                f"{label}[{index}]: {value!r} vs reference {reference!r}"
            )
            if len(failures) >= 3:
                break
    return failures


def load_reference() -> Dict[str, Any]:
    with open(os.path.join(os.path.dirname(__file__), "reference.json")) as handle:
        return json.load(handle)


# ---------------------------------------------------------------------- #
# the fresh-process protocol
# ---------------------------------------------------------------------- #

READY = "PERFBENCH-READY"
RESULT = "PERFBENCH-RESULT "


def announce_ready() -> None:
    """Child side: set-up is over (the parent stops its set-up clock).

    Sends the process's CPU time so far, its set-up work."""
    print(f"{READY} {time.process_time()!r}", flush=True)


def emit_result(payload: Dict[str, Any]) -> None:
    """Child side: the one result line the parent parses."""
    print(RESULT + json.dumps(payload), flush=True)


def run_child(
    module: str,
    args: Dict[str, Any],
    cwd: str,
    budget_s: float,
    core: Optional[int] = None,
) -> Tuple[float, Dict[str, Any]]:
    """Spawn ``python -m <module> '<args json>'`` and wait for its result.

    With ``core`` the child runs pinned to that CPU (its BLAS then starts
    one thread).  The fresh-process workloads pin their processes to the
    cores in turn: the cores of a shared machine do not run at one speed
    (measured on a two-core VM: the same process 1.5-2x slower on one core
    than on the other, for minutes), a process stays on the core it starts
    on, and left to the scheduler the share of a run's samples that landed
    on the slow core moved its median.

    Returns ``(setup_s, payload)`` where ``setup_s`` runs from the spawn
    until the child printed :data:`READY`; ``payload["ready"]`` holds that
    window and the child's CPU time at :data:`READY`, for
    :meth:`perfbench.calibrate.Calibrator.work_s`.  Raises ``RuntimeError`` when
    the child fails, prints no result or outlives its budget (it is then
    killed and reaped).
    """
    start = time.perf_counter()
    process = subprocess.Popen(
        [sys.executable, "-m", module, json.dumps(args)],
        cwd=cwd,
        env=child_env(),
        stdout=subprocess.PIPE,
        stdin=subprocess.DEVNULL,
        text=True,
        preexec_fn=None if core is None else lambda: os.sched_setaffinity(0, {core}),
    )
    timer = threading.Timer(budget_s + CHILD_GRACE_S, process.kill)
    timer.start()
    setup_s: Optional[float] = None
    payload: Optional[Dict[str, Any]] = None
    try:
        for line in process.stdout:  # type: ignore[union-attr]
            if line.startswith(READY) and setup_s is None:
                ready = time.perf_counter()
                setup_s = ready - start
                ready_cpu_s = float(line.split()[1])
            elif line.startswith(RESULT):
                payload = json.loads(line[len(RESULT):])
        code = process.wait()
    finally:
        timer.cancel()
        if process.poll() is None:
            process.kill()
            process.wait()
    if code != 0 or setup_s is None or payload is None:
        raise RuntimeError(f"child {module} exited {code} without a result")
    payload["ready"] = {"window": (start, ready), "cpu_s": ready_cpu_s}
    return setup_s, payload


def child_args() -> Dict[str, Any]:
    """Child side: the JSON argument the parent passed."""
    return json.loads(sys.argv[1])
