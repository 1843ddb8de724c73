"""Workload ``paper``: regenerate every table and figure of the paper.

Each pass runs in a fresh process, because the harnesses share
``default_session()``'s in-memory cache: a second pass in one process
would time cache hits.  That second pass is timed too, as the workload's
warm path (what re-running the harnesses in the same process costs).

Parent side (:func:`run`): spawn passes one after another until the time
budget is spent, at least :data:`MIN_PASSES`, each pinned to a core, the
cores in turn (see :func:`common.run_child`).  Child side (``python -m
perfbench.paper '<args>'``): set up, announce readiness, run the cold
pass, check every output, run the warm pass, report.
"""

from __future__ import annotations

import time

_CHILD_START = time.perf_counter()

import random  # noqa: E402
from collections import deque  # noqa: E402
from typing import Any, Dict, List, Tuple  # noqa: E402

from perfbench import calibrate, common  # noqa: E402

#: harness function -> per-layer metric name
HARNESSES = {
    "run_table1": "exp.table1_s",
    "run_table2": "exp.table2_s",
    "run_fig3": "exp.fig3_s",
    "run_all_device_iv": "exp.fig5to7_s",
    "run_fig8": "exp.fig8_s",
    "run_fig9": "exp.fig9_s",
    "run_fig10": "exp.fig10_s",
    "run_fig11": "exp.fig11_s",
    "run_fig12": "exp.fig12_s",
    "run_fig12_drive_curves": "exp.fig12_drive_s",
    "run_terminal_configuration_sweep": "exp.terminal_configs_s",
}
MIN_PASSES = 3

#: Fig. 11 settled output must sit on the right side of half the supply.
FIG11_SUPPLY_V = 1.2


def pass_orders(seed: int, passes: int) -> List[List[str]]:
    """The seeded harness order of each pass (the workload's only input)."""
    rng = random.Random(seed)
    orders = []
    for _ in range(passes):
        order = list(HARNESSES)
        rng.shuffle(order)
        orders.append(order)
    return orders


# ---------------------------------------------------------------------- #
# output checks
# ---------------------------------------------------------------------- #


def _xor3(assignment: Dict[str, bool]) -> bool:
    return bool(assignment["a"]) ^ bool(assignment["b"]) ^ bool(assignment["c"])


def lattice_conducts(on_grid: List[List[bool]]) -> bool:
    """Top-to-bottom path of ON cells through 4-neighbour adjacency."""
    rows, cols = len(on_grid), len(on_grid[0])
    frontier = deque((0, c) for c in range(cols) if on_grid[0][c])
    seen = set(frontier)
    while frontier:
        r, c = frontier.popleft()
        if r == rows - 1:
            return True
        for dr, dc in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            nr, nc = r + dr, c + dc
            if 0 <= nr < rows and 0 <= nc < cols and on_grid[nr][nc]:
                if (nr, nc) not in seen:
                    seen.add((nr, nc))
                    frontier.append((nr, nc))
    return False


def numbers_of(value: Any) -> List[Tuple[float, float]]:
    """The numeric content of a harness result, for the reference check."""
    if isinstance(value, dict):
        numbers: List[Tuple[float, float]] = []
        for key in sorted(value, key=repr):
            numbers.extend(numbers_of(value[key]))
        return numbers
    if hasattr(value, "report"):
        return common.report_numbers(value.report())
    # a repro.api.Result: array sums and extremes at full precision
    numbers = []
    for name in sorted(value.arrays):
        array = value.arrays[name]
        numbers.extend(
            (float(x), 0.0) for x in (array.sum(), array.min(), array.max())
        )
    return numbers


def check_harness(name: str, value: Any, reference: Dict[str, Any]) -> List[str]:
    """Every failed check of one harness output (empty when correct)."""
    failures: List[str] = []
    if name == "run_table1":
        from repro.core.paths import PAPER_TABLE_I

        shared = [key for key in value.computed if key in PAPER_TABLE_I]
        if len(shared) < len(reference["table1_shared_entries"]):
            failures.append(f"table1: only {len(shared)} entries overlap the paper")
        wrong = {k: value.computed[k] for k in shared if value.computed[k] != PAPER_TABLE_I[k]}
        if wrong:
            failures.append(f"table1: entries differ from the paper's Table I: {wrong}")
    elif name == "run_fig3":
        from itertools import product

        for label, lattice in value.lattices.items():
            for bits in product((False, True), repeat=3):
                assignment = dict(zip("abc", bits))
                if lattice_conducts(lattice.on_grid(assignment)) != _xor3(assignment):
                    failures.append(f"fig3: lattice {label} is not XOR3 at {bits}")
                    break
    elif name == "run_fig11":
        vectors = set()
        for assignment, voltage, _, _ in value.samples:
            vectors.add(tuple(bool(assignment[v]) for v in "abc"))
            # the pull-down lattice realizes XOR3: the output is its inverse
            expect_high = not _xor3(assignment)
            if (voltage > FIG11_SUPPLY_V / 2) != expect_high:
                failures.append(
                    f"fig11: output {voltage:.3f} V at {assignment} is at the wrong level"
                )
        if len(vectors) != 8:
            failures.append(f"fig11: {len(vectors)} input vectors settled, expected 8")
    failures.extend(
        common.compare_numbers(
            name,
            numbers_of(value),
            [tuple(pair) for pair in reference["numbers"][name]],
        )
    )
    return failures


def transient_steps(value: Any) -> Tuple[int, int]:
    info = getattr(getattr(value, "transient", None), "convergence_info", None)
    if info is None or not hasattr(info, "accepted_steps"):
        return 0, 0
    return int(info.accepted_steps), int(info.rejected_steps)


# ---------------------------------------------------------------------- #
# child: one fresh-process pass
# ---------------------------------------------------------------------- #


def child_main() -> None:
    args = common.child_args()
    tracer = common.Tracer(args["trace"])
    with tracer.span("pass_process"):
        with tracer.span("setup"):
            with tracer.span("import"):
                import repro.experiments as experiments
                from repro.api import default_session
                from repro.circuits.sizing import default_switch_model
            import_s = time.perf_counter() - _CHILD_START
            _, model_s = tracer.timed("model_extract", default_switch_model)
        common.announce_ready()
        reference = common.load_reference()["paper"]
        session = default_session()
        phases: Dict[str, Dict[str, float]] = {"cold": {}, "warm": {}}
        counters: Dict[str, Dict[str, int]] = {}
        failures: Dict[str, List[str]] = {}
        steps = [0, 0]
        # CPU time of the cold pass's harness calls (not of the checks
        # between them), and the window they ran in
        cpu_s, start = 0.0, time.perf_counter()
        for phase in ("cold", "warm"):
            with tracer.span(f"pass.{phase}"):
                for name in args["order"]:
                    cpu_start = time.process_time()
                    value, elapsed = tracer.timed(
                        HARNESSES[name], getattr(experiments, name)
                    )
                    phases[phase][name] = elapsed
                    if phase == "cold":
                        cpu_s += time.process_time() - cpu_start
                        wrong = check_harness(name, value, reference)
                        if wrong:
                            failures[name] = wrong
                        accepted, rejected = transient_steps(value)
                        steps[0] += accepted
                        steps[1] += rejected
            if phase == "cold":
                window = (start, time.perf_counter())
            counters[phase] = session.total_stats_snapshot().to_dict()
    common.emit_result(
        {
            "import_s": import_s,
            "model_extract_s": model_s,
            "cold": phases["cold"],
            "work_window": window,
            "work_cpu_s": cpu_s,
            "warm": phases["warm"],
            "counters": counters,
            "steps": steps,
            "failures": failures,
            "peak_rss_mb": common.peak_rss_mb(),
            "self_times": tracer.self_times(),
            "spans": tracer.spans,
        }
    )


# ---------------------------------------------------------------------- #
# parent
# ---------------------------------------------------------------------- #


def run(seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    cwd = common.fresh_dir("paper")
    deadline = time.perf_counter() + seconds
    orders = pass_orders(seed, 64)
    cores = common.cores()
    passes: List[Dict[str, Any]] = []
    setups: List[float] = []
    with calibrate.calibrators(cores, common.child_env()) as calibrators:
        while len(passes) < MIN_PASSES or (
            time.perf_counter() + _pass_estimate(setups, passes) < deadline
            and len(passes) < len(orders)
        ):
            core = cores[len(passes) % len(cores)]
            calibrator = calibrators[core]
            with calibrator.running():
                setup_wall_s, payload = common.run_child(
                    "perfbench.paper",
                    {"order": orders[len(passes)], "trace": trace},
                    cwd=cwd,
                    budget_s=max(seconds, 60.0),
                    core=core,
                )
            payload["core"] = core
            payload["setup_wall_s"] = setup_wall_s
            payload["work_s"] = calibrator.work_s(payload["work_cpu_s"], payload["work_window"])
            setups.append(calibrator.work_s(**payload["ready"]))
            passes.append(payload)
    return summarize(setups, passes)


def _pass_estimate(setups: List[float], passes: List[Dict[str, Any]]) -> float:
    if not passes:
        return 0.0
    last = passes[-1]
    return last["setup_wall_s"] + sum(last["cold"].values()) + sum(last["warm"].values())


def summarize(setups: List[float], passes: List[Dict[str, Any]]) -> Dict[str, Any]:
    cold = [sum(p["cold"].values()) for p in passes]
    work = [p["work_s"] for p in passes]
    warm = [sum(p["warm"].values()) for p in passes]
    tail_s, tail_label = common.tail(work)
    failures = [f for p in passes for wrong in p["failures"].values() for f in wrong]
    failed_ops = sum(len(p["failures"]) for p in passes)
    first = passes[0]["counters"]
    for index, p in enumerate(passes):
        if p["counters"] != first:
            failures.append(f"paper: pass {index} counters differ from pass 0")
            failed_ops += 1
    cold_counters = first["cold"]
    warm_delta = {k: first["warm"][k] - first["cold"][k] for k in first["cold"]}
    cores = [p["core"] for p in passes]
    work_s = common.median(work)
    layer: Dict[str, float] = {
        "import_s": common.median([p["import_s"] for p in passes]),
        "model_extract_s": common.median([p["model_extract_s"] for p in passes]),
    }
    for name, metric in HARNESSES.items():
        layer[metric] = common.median([p["cold"][name] for p in passes])
    layer.update(
        {
            "newton_iterations": cold_counters["newton_iterations"],
            "factorizations": cold_counters["factorizations"],
            "factorization_reuses": cold_counters["factorization_reuses"],
            "jobs_computed": cold_counters["computed"],
            "jobs_cache_hits": cold_counters["cached"] + warm_delta["cached"],
            "transient_steps_accepted": passes[0]["steps"][0],
            "transient_steps_rejected": passes[0]["steps"][1],
        }
    )
    return {
        "attempted": len(passes) * len(HARNESSES),
        "failed": failed_ops,
        "failures": failures,
        "end_to_end": {
            "setup_s": common.median(setups),
            "work_s": work_s,
            "wall_s": common.median(cold),
            "peak_rss_mb": common.median([p["peak_rss_mb"] for p in passes]),
            "latency_p50_ms": work_s * 1e3,
            "latency_tail_ms": tail_s * 1e3,
            "warm_p50_ms": common.median(warm) * 1e3,
            "cold_p50_ms": work_s * 1e3,
            "max_rate_rps": len(HARNESSES) / work_s,
        },
        "notes": {
            "samples": len(passes),
            "samples_s": [[core, round(x, 3)] for core, x in zip(cores, cold)],
            "work_samples_s": [[core, round(x, 3)] for core, x in zip(cores, work)],
            "setup_samples_s": [[core, round(x, 3)] for core, x in zip(cores, setups)],
            "setup_wall_samples_s": [[p["core"], round(p["setup_wall_s"], 3)] for p in passes],
            "latency_tail": tail_label + " fresh-process passes",
            "operation": "one fresh-process pass of all 11 harnesses",
        },
        "layer": layer,
        "counters": {"cold": cold_counters, "warm_delta": warm_delta,
                     "transient_steps": passes[0]["steps"]},
        "self_times": _sum_self_times(p["self_times"] for p in passes),
        "spans": {f"pass{i}": p["spans"] for i, p in enumerate(passes)},
    }


def _sum_self_times(per_process) -> Dict[str, float]:
    totals: Dict[str, float] = {}
    for times in per_process:
        for name, value in times.items():
            totals[name] = totals.get(name, 0.0) + value
    return totals


if __name__ == "__main__":
    child_main()
