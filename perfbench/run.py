"""The repository's benchmark: one workload per invocation.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper --seed 1 --seconds 20 --trace 0

Workloads: ``paper`` (every table and figure harness, fresh process per
pass), ``variability`` (the Fig. 11 Monte-Carlo study), ``lattice_scale``
(identity lattices across the dense/sparse crossover) and ``service``
(open-loop HTTP traffic against ``serve``).  See ``perfbench/README.md``.

Prints every metric by name and unit, the output-check failures and a
machine descriptor, then, as the last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` records spans around every
layer call, writes them to ``.perfbench_out/`` and reports the per-layer
metrics.  Exits non-zero without a result line when the checkout holds
no program to measure or a workload cannot finish.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import common  # noqa: E402

WORKLOADS = ("paper", "variability", "lattice_scale", "service")

END_TO_END = {
    "setup_s": "s",
    "work_s": "s",
    "peak_rss_mb": "MB",
    "max_rate_rps": "req/s",
}

#: Measured on every untraced run and printed, but reported as per-layer
#: numbers (no bound), because over five or ten runs they spread past any
#: usable bound: ``wall_s`` is what ``work_s`` calibrates (0.2-0.36); on
#: ``service`` the light-load median latency follows how fast the host
#: wakes idle vCPUs, which the calibration does not see (0.27-0.30, raw
#: or calibrated), and the tail and the cold median follow the fsync
#: latency of a shared machine's disk (0.2-0.3); on ``variability`` and
#: ``lattice_scale`` the warm path is a ~10 ms read that lands in
#: whichever of the machine's two speed states (~7 or ~12 ms) holds at
#: the few moments a run samples it (0.35).
TREND = {
    "wall_s": "s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "cold_p50_ms": "ms",
    "warm_p50_ms": "ms",
}

PER_LAYER = {
    **TREND,
    "import_s": "s",
    "model_extract_s": "s",
    "exp.table1_s": "s",
    "exp.table2_s": "s",
    "exp.fig3_s": "s",
    "exp.fig5to7_s": "s",
    "exp.fig8_s": "s",
    "exp.fig9_s": "s",
    "exp.fig10_s": "s",
    "exp.fig11_s": "s",
    "exp.fig12_s": "s",
    "exp.fig12_drive_s": "s",
    "exp.terminal_configs_s": "s",
    "build_s": "s",
    "compile_s": "s",
    "solve_s": "s",
    "newton_iterations": "count",
    "factorizations": "count",
    "factorization_reuses": "count",
    "factorization_reuse_ratio": "1",
    "us_per_newton_iter": "us",
    "transient_steps_accepted": "count",
    "transient_steps_rejected": "count",
    "spec_hash_us": "us",
    "spec_encode_us": "us",
    "spec_decode_us": "us",
    "result_decode_us": "us",
    "result_bytes": "bytes",
    "store_get_us": "us",
    "store_put_us": "us",
    "store_front_hits": "count",
    "store_back_hits": "count",
    "store_misses": "count",
    "store_front_hit_ratio": "1",
    "queue_wait_ms": "ms",
    "job_wall_ms": "ms",
    "jobs_computed": "count",
    "jobs_cache_hits": "count",
    "dedupe_ratio": "1",
    "http_rtt_ms": "ms",
    "polls_per_request": "count",
    "requests.post_studies": "count",
    "requests.get_study": "count",
    "requests.get_result": "count",
    "requests.get_results": "count",
    "requests.get_healthz": "count",
    "gen_late_ms": "ms",
    "offered_rps": "req/s",
    "achieved_rps": "req/s",
    "backlog_end": "count",
    "trace.work_s": "s",
    "trace.latency_p50_ms": "ms",
    "trace.spans": "count",
    "trace.overhead_est_ms": "ms",
}


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    if name == "paper":
        from perfbench import paper

        return paper.run(seed, seconds, trace)
    if name == "service":
        from perfbench import service

        return service.run(seed, seconds, trace)
    from perfbench import batch

    return batch.run(name, seed, seconds, trace)


def count_spans(spans) -> int:
    if isinstance(spans, dict):
        return sum(count_spans(value) for value in spans.values())
    return len(spans)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not common.program_present():
        print(
            f"error: no program to measure ({common.SRC}/repro is missing); "
            "run from the root of a full checkout",
            file=sys.stderr,
        )
        return 2
    common.scrub_own_env()
    # Every process this run starts imports the program from bytecode, as
    # any run after a program's first does.  A fresh checkout has none,
    # and the first processes compiling it inside their set-up made
    # setup_s depend on which runs had come before.
    for path in (common.SRC, os.path.dirname(os.path.abspath(__file__))):
        compileall.compile_dir(path, quiet=1)
    shutil.rmtree(common.WORK, ignore_errors=True)
    home = os.getcwd()
    os.chdir(common.fresh_dir("cwd"))
    try:
        outcome = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        os.chdir(home)
        shutil.rmtree(common.WORK, ignore_errors=True)

    machine = common.machine_descriptor()
    e2e = outcome["end_to_end"]
    if args.trace:
        spans = count_spans(outcome["spans"])
        layer = {**{name: e2e[name] for name in TREND}, **outcome["layer"]}
        metrics = {name: float(layer.get(name, 0.0)) for name in PER_LAYER}
        metrics.update(
            {
                "trace.work_s": e2e["work_s"],
                "trace.latency_p50_ms": e2e["latency_p50_ms"],
                "trace.spans": spans,
                "trace.overhead_est_ms": spans * common.span_cost_s() * 1e3,
            }
        )
        units = PER_LAYER
        path = os.path.join(common.OUT, f"trace-{args.workload}-seed{args.seed}.json")
        os.makedirs(common.OUT, exist_ok=True)
        with open(path, "w") as handle:
            json.dump(
                {
                    "workload": args.workload,
                    "seed": args.seed,
                    "machine": machine,
                    "self_times_s": outcome["self_times"],
                    "counters": outcome["counters"],
                    "notes": outcome["notes"],
                    "spans": outcome["spans"],
                },
                handle,
            )
        print(f"trace written to {os.path.relpath(path, home)}")
    else:
        metrics = {name: float(e2e[name]) for name in END_TO_END}
        units = END_TO_END

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"machine {json.dumps(machine, sort_keys=True)}")
    for key, value in outcome["notes"].items():
        print(f"note {key}: {value}")
    print(f"counters {json.dumps(outcome['counters'], sort_keys=True)}")
    for name, value in metrics.items():
        print(f"{name:28s} {value:16.6f} {units[name]}")
    if not args.trace:
        for name, unit in TREND.items():
            print(f"{name:28s} {e2e[name]:16.6f} {unit}  (per-layer, no bound)")
    for failure in outcome["failures"]:
        print(f"FAILED {failure}")
    failed = int(outcome["failed"])
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": int(outcome["attempted"]),
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
