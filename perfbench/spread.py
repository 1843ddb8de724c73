"""Run-to-run spread of the end-to-end metrics, checked against their bounds.

Run from the root of a checkout::

    python3 perfbench/spread.py --seeds 1-10 [--workloads paper,service]

Runs ``perfbench/run.py`` once per seed and workload (seed-major, so a
slow stretch of the machine hits every workload alike), then prints, per
workload and metric, the median, the inter-quartile distance as a share
of the median (``statistics.quantiles(values, n=4)``) and the bound from
``BENCHMARK.json``.  Exits non-zero when a run fails, is incorrect, or a
spread exceeds its bound (``setup_s``'s too).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from typing import Dict, List

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import common  # noqa: E402


def parse_seeds(text: str) -> List[int]:
    seeds: List[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main() -> int:
    with open(os.path.join(common.ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--out", default=os.path.join(common.OUT, "spread.json"))
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    values: Dict[str, Dict[str, List[float]]] = {w: {} for w in workloads}
    ok = True
    for seed in parse_seeds(args.seeds):
        for workload in workloads:
            command = list(bench["command"]) + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0",
            ]
            start = time.perf_counter()
            done = subprocess.run(command, cwd=common.ROOT, capture_output=True, text=True)
            elapsed = time.perf_counter() - start
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr[-2000:]}")
                ok = False
                continue
            result = json.loads(lines[-1])
            ok &= bool(result["correct"])
            row = {k: v["value"] for k, v in result["metrics"].items()}
            for key, value in row.items():
                values[workload].setdefault(key, []).append(value)
            print(workload, seed, result["correct"], result["attempted"], result["failed"],
                  f"elapsed={elapsed:.1f}s", " ".join(f"{k}={v:.5g}" for k, v in row.items()),
                  flush=True)
    summary = {}
    for workload in workloads:
        for metric in bench["end_to_end"]:
            samples = values[workload].get(metric["name"], [])
            if len(samples) < 2:
                continue
            share = common.spread(samples)
            within = share <= metric["bound"]
            ok &= within
            summary[f"{workload}/{metric['name']}"] = {
                "median": common.median(samples), "spread": share,
                "bound": metric["bound"], "samples": samples,
            }
            print(f"{workload:14s} {metric['name']:16s} median {common.median(samples):12.5g} "
                  f"spread {share:6.3f} bound {metric['bound']:.2f}{'' if within else '  OVER'}")
    os.makedirs(os.path.dirname(args.out), exist_ok=True)
    with open(args.out, "w") as handle:
        json.dump(summary, handle, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
