"""The fresh-process runner shared by the batch workloads.

A batch workload (``variability``, ``lattice_scale``) is a *unit* of
analysis specs that one researcher runs back to back.  A run spawns
fresh processes one after another until the budget is spent (at least
:data:`MIN_PROCESSES`), with one more that only sets up before them and
one after them.  Each working process

* sets up (import plus switch-model extraction: ``setup_s``);
* runs the unit once in a ``Session(store=None)``, so it builds,
  compiles and solves from scratch (``wall_s``, and ``work_s``: its CPU
  time rescaled by the core's calibrator, see :mod:`perfbench.calibrate`)
  — what running the study costs a researcher who starts a fresh
  interpreter;
* then re-runs the unit's specs :data:`WARM_REPS` times through a fresh
  session over a durable store that already holds the results — the
  warm path, what re-running the study with ``Session(store=<dir>)``
  costs.

Every process is pinned to one core, the cores in turn (see
:func:`common.run_child`), and each timing is the median over the
processes.  The results and counters of every process must be bitwise
those of the first.

A workload module provides ``unit_specs(seed)``, ``check_unit(results,
reference)`` returning failure strings, and ``NAME``.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import time
from typing import Any, Dict, List, Tuple

from perfbench import calibrate, common

MIN_PROCESSES = 3
#: warm repeats after the unit, in every process
WARM_REPS = 6


def digest(result: Any) -> str:
    """A bitwise fingerprint of a result's numbers in its wire form.

    The wire form writes every float64 with a round-tripping ``repr``, so
    equal digests mean bitwise-equal arrays, scalars and convergence
    records whether the result was computed or read back from a store.
    """
    payload = result.to_jsonable()
    content = {key: payload[key] for key in ("arrays", "scalars", "convergence")}
    return hashlib.sha256(json.dumps(content, sort_keys=True).encode()).hexdigest()


# ---------------------------------------------------------------------- #
# child
# ---------------------------------------------------------------------- #


def child_main(child_start: float, workload_name: str) -> None:
    args = common.child_args()
    tracer = common.Tracer(args["trace"])
    with tracer.span("process"):
        with tracer.span("setup"):
            with tracer.span("import"):
                import repro.api  # noqa: F401
                from repro.circuits.sizing import default_switch_model

                from perfbench import layers

                workload = importlib.import_module(f"perfbench.{workload_name}")
            import_s = time.perf_counter() - child_start
            _, model_s = tracer.timed("model_extract", default_switch_model)
        common.announce_ready()
        payload = {} if args["setup_only"] else _work(args, tracer, workload, layers)
    payload.update(
        import_s=import_s,
        model_extract_s=model_s,
        peak_rss_mb=common.peak_rss_mb(),
        self_times=tracer.self_times(),
        spans=tracer.spans,
    )
    common.emit_result(payload)


def _work(args, tracer, workload, layers) -> Dict[str, Any]:
    from repro.api import JSONDirectoryStore, MemoryStore, Session, TieredStore, spec_hash

    reference = common.load_reference()[workload.NAME]
    specs = workload.unit_specs(args["seed"])
    layer_times: Dict[str, float] = {}
    session = Session(store=None)
    start, cpu_start = time.perf_counter(), time.process_time()
    with tracer.span("unit.cold"):
        results = []
        for spec in specs:
            with tracer.span(f"spec.{spec.kind}"):
                results.append(layers.run_layered(session, spec, tracer, layer_times))
    window = (start, time.perf_counter())
    cpu_s = time.process_time() - cpu_start
    counters: Dict[str, int] = {}
    for result in results:
        layers.add_counters(counters, layers.result_counters(result))
    failures = list(workload.check_unit(results, reference))
    failed = len(specs) if failures else 0
    digests = [digest(result) for result in results]
    # the warm path: fresh sessions over a durable store holding the unit
    store_dir = common.fresh_dir(workload.NAME, f"store{os.getpid()}")
    seed_store = JSONDirectoryStore(store_dir)
    for spec, result in zip(specs, results):
        seed_store.put(spec_hash(spec), result)
    front = layers.TimingStore(MemoryStore(), tracer, "store.front")
    back = layers.TimingStore(JSONDirectoryStore(store_dir), tracer, "store.back")
    tiered = layers.TimingStore(TieredStore(front, back), tracer, "store")
    warm_s: List[float] = []
    for _ in range(WARM_REPS):
        front.inner.clear()
        session = Session(store=tiered)
        start = time.perf_counter()
        with tracer.span("unit.warm"):
            warm = [session.run(spec) for spec in specs]
        warm_s.append(time.perf_counter() - start)
        if [digest(result) for result in warm] != digests:
            failed += 1
            failures.append("warm: a stored result differs bitwise from the computed one")
        elif session.total_stats.computed:
            failed += 1
            failures.append("warm: a stored result was recomputed")
    return {
        "unit_s": window[1] - window[0],
        "work_window": window,
        "work_cpu_s": cpu_s,
        "warm_s": warm_s,
        "attempted": len(specs) + len(warm_s),
        "failed": failed,
        "failures": failures,
        "layer_times": layer_times,
        "counters": counters,
        "digests": digests,
        "store": {"front": front.counts, "back": back.counts},
    }


# ---------------------------------------------------------------------- #
# parent
# ---------------------------------------------------------------------- #


def run(name: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    cwd = common.fresh_dir(name)
    deadline = time.perf_counter() + seconds
    cores = common.cores()
    setups: List[Tuple[int, float, float]] = []
    processes: List[Tuple[int, float, Dict[str, Any]]] = []

    def child(setup_only: bool) -> float:
        core = cores[len(setups) % len(cores)]
        calibrator = calibrators[core]
        start = time.perf_counter()
        with calibrator.running():
            setup_wall_s, payload = common.run_child(
                f"perfbench.{name}",
                {"trace": trace, "seed": seed, "setup_only": setup_only},
                cwd=cwd,
                budget_s=max(seconds, 60.0),
                core=core,
            )
        setup_s = calibrator.work_s(**payload["ready"])
        setups.append((core, setup_s, setup_wall_s))
        if not setup_only:
            payload["work_s"] = calibrator.work_s(payload["work_cpu_s"], payload["work_window"])
            processes.append((core, setup_s, payload))
        return time.perf_counter() - start

    with calibrate.calibrators(cores, common.child_env()) as calibrators:
        # One set-up-only process first and one last: more set-up samples,
        # spanning the run, for little of its time.
        setup_cost = child(setup_only=True)
        cost = 0.0
        while len(processes) < MIN_PROCESSES or (
            time.perf_counter() + cost + setup_cost < deadline
        ):
            cost = child(setup_only=False)
        child(setup_only=True)
    return summarize(processes, setups)


def summarize(
    processes: List[Tuple[int, float, Dict[str, Any]]], setups: List[Tuple[int, float, float]]
) -> Dict[str, Any]:
    works = [payload for _, _, payload in processes]
    cores = [core for core, _, _ in processes]
    units = [work["unit_s"] for work in works]
    normalized = [work["work_s"] for work in works]
    warms = [w for work in works for w in work["warm_s"]]
    work_s = common.median(normalized)
    tail_s, tail_label = common.tail(normalized)
    first = works[0]
    specs_per_unit = len(first["digests"])
    failures = [f for work in works for f in work["failures"]]
    failed = sum(work["failed"] for work in works)
    for index, work in enumerate(works[1:], start=1):
        if work["digests"] != first["digests"]:
            failures.append(f"process {index}: results differ bitwise from process 0")
            failed += 1
        if work["counters"] != first["counters"]:
            failures.append(f"process {index}: counters {work['counters']} != {first['counters']}")
            failed += 1
    layer: Dict[str, float] = {
        "import_s": common.median([work["import_s"] for work in works]),
        "model_extract_s": common.median([work["model_extract_s"] for work in works]),
    }
    for key in ("build_s", "compile_s", "solve_s"):
        layer[key] = common.median([work["layer_times"].get(key, 0.0) for work in works])
    layer.update(common.solver_metrics(first["counters"], layer["solve_s"]))
    store: Dict[str, Dict[str, int]] = {"front": {}, "back": {}}
    for work in works:
        for tier, counts in work["store"].items():
            for key, value in counts.items():
                store[tier][key] = store[tier].get(key, 0) + value
    layer.update(common.store_metrics(store, [s for work in works for s in work["spans"]]))
    self_times: Dict[str, float] = {}
    for work in works:
        for key, value in work["self_times"].items():
            self_times[key] = self_times.get(key, 0.0) + value
    return {
        "attempted": sum(work["attempted"] for work in works),
        "failed": failed,
        "failures": failures,
        "end_to_end": {
            "setup_s": common.median([s for _, s, _ in setups]),
            "work_s": work_s,
            "wall_s": common.median(units),
            "peak_rss_mb": max(work["peak_rss_mb"] for work in works),
            "latency_p50_ms": work_s * 1e3,
            "latency_tail_ms": tail_s * 1e3,
            "warm_p50_ms": common.median(warms) * 1e3,
            "cold_p50_ms": work_s * 1e3,
            "max_rate_rps": specs_per_unit / work_s,
        },
        "notes": {
            "samples": len(units),
            "warm_samples": len(warms),
            "samples_s": [[core, round(u, 3)] for core, u in zip(cores, units)],
            "work_samples_s": [[core, round(w, 3)] for core, w in zip(cores, normalized)],
            "peak_rss_samples_mb": [round(work["peak_rss_mb"], 2) for work in works],
            "setup_samples_s": [[core, round(s, 3)] for core, s, _ in setups],
            "setup_wall_samples_s": [[core, round(w, 3)] for core, _, w in setups],
            "latency_tail": f"{tail_label} units",
            "operation": f"one unit of {specs_per_unit} specs, set up fresh, in a new process",
        },
        "layer": layer,
        "counters": first["counters"],
        "digests": first["digests"],
        "self_times": self_times,
        "spans": {f"process{i}": work["spans"] for i, work in enumerate(works)},
    }
