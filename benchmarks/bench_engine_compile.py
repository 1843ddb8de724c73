"""Benchmark: compiled vectorized assembly vs. the per-element stamp path.

Times one Jacobian/RHS assembly of the Fig. 11 XOR3 transient testbench (the
3x3 lattice bench: 54 MOSFETs, 19 capacitors, pull-up resistor, 7 sources)
through the legacy ``Circuit.assemble`` stamp loop and through the compiled
engine — its one pattern assembly scattered into a fresh dense matrix
(``AnalysisEngine.assemble_system``) — and asserts the compiled path is at
least 3x faster.  Every Newton iteration of every analysis pays this cost,
so the ratio here is the core speedup of the engine refactor.  The pattern
data alone (``CompiledCircuit.assemble_sparse``, what sparse backends
take) is reported alongside.

Run with ``pytest benchmarks/bench_engine_compile.py -s``.  The acceptance
floor can be relaxed through ``ENGINE_BENCH_MIN_SPEEDUP`` (CI uses a lower
value: wall-clock ratios on shared runners are noisy, and a weaker floor
there still catches a genuine regression to the per-element path).
"""

import os
import time

import numpy as np

from _bench_utils import report, write_bench_json

from repro.circuits.lattice_netlist import build_lattice_circuit
from repro.circuits.testbench import InputSequence
from repro.core.library import xor3_lattice_3x3
from repro.spice.engine import get_engine
from repro.spice.netlist import AnalysisState


def _best_time(callable_, rounds=7, iterations=50):
    """Minimum per-call time over several rounds (robust against jitter)."""
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        for _ in range(iterations):
            callable_()
        best = min(best, (time.perf_counter() - start) / iterations)
    return best


def test_compiled_assembly_speedup(benchmark, switch_model):
    sequence = InputSequence.exhaustive(("a", "b", "c"), step_duration_s=100e-9)
    bench = build_lattice_circuit(
        xor3_lattice_3x3(), model=switch_model, input_sequence=sequence
    )
    circuit = bench.circuit
    engine = get_engine(circuit)

    rng = np.random.default_rng(7)
    state = AnalysisState(
        solution=rng.uniform(-0.2, 1.4, circuit.system_size),
        time_s=37e-9,
        timestep_s=1e-9,
        previous_solution=rng.uniform(-0.2, 1.4, circuit.system_size),
        integration="be",
        gmin=1e-9,
    )

    # Equality first: the compiled path must reproduce the stamp path.
    legacy_system = circuit.assemble(state)
    matrix, rhs = engine.assemble_system(state)
    assert np.allclose(matrix, legacy_system.matrix, rtol=1e-12, atol=1e-18)
    assert np.allclose(rhs, legacy_system.rhs, rtol=1e-12, atol=1e-18)

    legacy_s = _best_time(lambda: circuit.assemble(state))
    engine_s = _best_time(lambda: engine.assemble_system(state))
    pattern_s = _best_time(lambda: engine.compiled.assemble_sparse(state))
    speedup = legacy_s / engine_s

    benchmark.pedantic(engine.assemble_system, args=(state,), rounds=7, iterations=50)
    benchmark.extra_info["legacy_assembly_us"] = legacy_s * 1e6
    benchmark.extra_info["compiled_assembly_us"] = engine_s * 1e6
    benchmark.extra_info["pattern_assembly_us"] = pattern_s * 1e6
    benchmark.extra_info["speedup"] = speedup

    floor = float(os.environ.get("ENGINE_BENCH_MIN_SPEEDUP", "3.0"))
    write_bench_json(
        "BENCH_engine.json",
        {
            "benchmark": "engine_compiled_assembly",
            "circuit": circuit.summary(),
            "legacy_assembly_us": legacy_s * 1e6,
            "compiled_assembly_us": engine_s * 1e6,
            "pattern_assembly_us": pattern_s * 1e6,
            "speedup": speedup,
            "acceptance_floor": floor,
        },
    )
    report(
        "Engine assembly on the Fig. 11 XOR3 transient testbench "
        f"({circuit.summary()}):\n"
        f"  per-element stamp path : {legacy_s * 1e6:8.1f} us/assembly\n"
        f"  compiled, dense matrix : {engine_s * 1e6:8.1f} us/assembly\n"
        f"  compiled, pattern data : {pattern_s * 1e6:8.1f} us/assembly\n"
        f"  speedup                : {speedup:8.1f}x (acceptance floor: {floor:g}x)"
    )
    assert speedup >= floor
