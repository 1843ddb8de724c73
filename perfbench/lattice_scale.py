"""Workload ``lattice_scale``: identity lattices across the solver crossover.

``build_scalability_bench`` lattices of 12x12 (295 unknowns), 14x14 (399)
and 16x16 (519) sit on both sides of the 300-unknown ``solver="auto"``
dense/sparse crossover.  Each gets a ``DCOp`` and a fixed-step
``Transient``; the 16x16 lattice also gets one small stacked
``MonteCarlo`` DC.  This is the one workload where large-circuit
build/compile, SuperLU, the factorization cache and auto backend
selection do the work.

The inputs are fixed; the seed is accepted and not used.  A seeded
Monte-Carlo draw would make the workload's cost depend on the seed: a
cold 16x16 trial takes either ~260 or ~785 Newton iterations depending on
whether the first Newton attempt converges, so the draw is pinned
(:data:`MC_SEED`; it has one trial of each kind).

Checks: every analysis converges and its solution matches
``reference.json`` within :data:`SOLUTION_ATOL_V` (ten times the
analyses' Newton tolerance).
"""

from __future__ import annotations

import time

_CHILD_START = time.perf_counter()

from typing import Any, Dict, List  # noqa: E402

NAME = "lattice_scale"
SIZES = (12, 14, 16)
FACTORY = "repro.circuits.lattice_netlist:build_scalability_bench"
TRANSIENT_STOP_S = 10e-9
TRANSIENT_STEP_S = 1e-9
MC_ROWS = 16
MC_TRIALS = 2
MC_SEED = 1
MC_VTH_SIGMA_V = 0.002
#: DCOp's tolerance_v is 1e-7 V and Transient's 1e-6 V: ten times the
#: looser one.
SOLUTION_ATOL_V = 1e-5


def unit_specs(seed: int) -> List[Any]:
    """The unit's seven specs (fixed: ``seed`` is not used, see above)."""
    from repro.api import CircuitSpec, DCOp, MonteCarlo, Transient
    from repro.spice import Gaussian

    specs: List[Any] = []
    for rows in SIZES:
        circuit = CircuitSpec(FACTORY, params={"rows": rows})
        specs.append(DCOp(circuit=circuit))
        specs.append(
            Transient(
                circuit=circuit,
                stop_time_s=TRANSIENT_STOP_S,
                timestep_s=TRANSIENT_STEP_S,
            )
        )
    specs.append(
        MonteCarlo(
            circuit=CircuitSpec(FACTORY, params={"rows": MC_ROWS}),
            perturbations={"mos_vth": Gaussian(sigma=MC_VTH_SIGMA_V)},
            trials=MC_TRIALS,
            seed=MC_SEED,
        )
    )
    return specs


def label(result: Any) -> str:
    return f"{result.kind}:{result.meta['circuit']}"


def solution_of(result: Any) -> Any:
    """The solution the reference pins: DC point, last step or trial stack."""
    import numpy as np

    if result.kind == "dcop":
        return np.asarray(result.arrays["solution"])
    solutions = np.asarray(result.arrays["solutions"])
    return solutions[-1] if result.kind == "transient" else solutions


def check_unit(results: List[Any], reference: Dict[str, Any]) -> List[str]:
    import numpy as np

    failures = []
    for result in results:
        name = label(result)
        if not result.converged:
            failures.append(f"{name}: did not converge")
            continue
        want = np.asarray(reference["solutions"][name])
        got = solution_of(result)
        if got.shape != want.shape:
            failures.append(f"{name}: solution shape {got.shape} != {want.shape}")
            continue
        error = float(np.max(np.abs(got - want)))
        if not error <= SOLUTION_ATOL_V:
            failures.append(f"{name}: solution off the reference by {error:.3g} V")
    return failures


def reference_entry(results: List[Any]) -> Dict[str, Any]:
    return {
        "solutions": {
            label(result): solution_of(result).round(12).tolist()
            for result in results
        }
    }


if __name__ == "__main__":
    from perfbench import batch

    batch.child_main(_CHILD_START, NAME)
