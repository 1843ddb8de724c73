"""The one assembly path: analytic oracles, buffer aliasing, provenance.

Every backend consumes the engine's pattern assembly, dense backends
through a reused per-compiled buffer.  These tests pin what that design
must keep true:

* textbook closed forms (divider ratio, the backward-Euler RC step,
  level-1 square-law saturation current) come out of every backend, serial
  and batched alike;
* nothing handed to a caller — a public assembly result or a retained
  reuse handle — changes when the next round is assembled into the reused
  buffers;
* a run records how its ``t = 0`` DC warm start converged and which
  concrete linear-solver backend it resolved to.
"""

import numpy as np
import pytest

from repro.fitting.level1 import Level1Parameters
from repro.spice import (
    Capacitor,
    Circuit,
    CurrentSource,
    Gaussian,
    MOSFET,
    MonteCarloEngine,
    Resistor,
    VoltageSource,
    get_engine,
)
from repro.spice.netlist import AnalysisState
from repro.spice.solvers import BatchedDenseSolver, DenseSolver, scipy_available

NMOS = Level1Parameters(
    kp_a_per_v2=4e-5, vth_v=0.18, lambda_per_v=0.05, width_m=0.7e-6, length_m=0.35e-6
)

SERIAL_BACKENDS = ["dense", "auto"] + (["sparse"] if scipy_available() else [])
BATCHED_BACKENDS = ["batched", "dense"] + (
    ["sparse-batched", "sparse"] if scipy_available() else []
)
TRIALS = 3


def divider(r1=1e3, r2=3e3, vin=1.0):
    circuit = Circuit("divider")
    VoltageSource(circuit, "vin", "in", "0", vin)
    Resistor(circuit, "r1", "in", "mid", r1)
    Resistor(circuit, "r2", "mid", "0", r2)
    return circuit


def rc_step(r=1e3, c=1e-9):
    circuit = Circuit("rc-step")
    VoltageSource(circuit, "vin", "in", "0", 1.0)
    Resistor(circuit, "r1", "in", "out", r)
    Capacitor(circuit, "c1", "out", "0", c)
    return circuit


def saturated_nmos(vgs=3.0, vds=3.5):
    circuit = Circuit("square-law")
    VoltageSource(circuit, "vg", "g", "0", vgs)
    VoltageSource(circuit, "vd", "d", "0", vds)
    MOSFET(circuit, "m1", "d", "g", "0", NMOS)
    return circuit


def build_unanchored_node():
    """A current source into a capacitor: no DC path to ground but gmin.

    The DC warm start would have to reach ``I / gmin = 1e6 V`` and fails
    every ladder; once the capacitor companion conducts, each transient
    step converges.
    """
    circuit = Circuit("unanchored")
    CurrentSource(circuit, "i1", "0", "x", 1e-3)
    Capacitor(circuit, "c1", "x", "0", 1e-12)
    return circuit


def serial_dc(circuit, solver):
    return get_engine(circuit).solve_dc(gmin=0.0, solver=solver).solution


def batched_dc(circuit, solver):
    return get_engine(circuit).solve_dc_batched(
        trials=TRIALS, gmin=0.0, solver=solver
    ).solutions


class TestAnalyticOracles:
    @pytest.mark.parametrize("solver", SERIAL_BACKENDS)
    def test_divider_ratio_serial(self, solver):
        circuit = divider()
        solution = serial_dc(circuit, solver)
        mid = circuit.node_index("mid")
        assert solution[mid] == pytest.approx(0.75, rel=1e-13)

    @pytest.mark.parametrize("solver", BATCHED_BACKENDS)
    def test_divider_ratio_batched(self, solver):
        circuit = divider()
        solutions = batched_dc(circuit, solver)
        mid = circuit.node_index("mid")
        assert solutions[:, mid] == pytest.approx(np.full(TRIALS, 0.75), rel=1e-13)

    @staticmethod
    def _rc_expectations(waveform, steps_per_tau):
        # Backward Euler on v' = (1 - v) / tau from v = 0: exactly
        # v_n = 1 - (1 + h / tau)^-n, tending to the 1 V final value.
        exact_at_tau = 1.0 - (1.0 + 1.0 / steps_per_tau) ** -steps_per_tau
        assert waveform[steps_per_tau] == pytest.approx(exact_at_tau, rel=1e-12)
        assert waveform[steps_per_tau] == pytest.approx(1.0 - np.exp(-1.0), abs=1e-2)
        assert waveform[-1] == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("solver", SERIAL_BACKENDS)
    def test_rc_step_serial(self, solver):
        circuit = rc_step()
        tau, steps_per_tau = 1e-6, 50
        result = get_engine(circuit).solve_transient(
            20 * tau, tau / steps_per_tau, gmin=0.0,
            use_initial_conditions=True, solver=solver,
        )
        self._rc_expectations(result.voltage("out"), steps_per_tau)

    @pytest.mark.parametrize("solver", BATCHED_BACKENDS)
    def test_rc_step_batched(self, solver):
        circuit = rc_step()
        tau, steps_per_tau = 1e-6, 50
        result = get_engine(circuit).solve_transient_batched(
            20 * tau, tau / steps_per_tau, trials=TRIALS, gmin=0.0,
            use_initial_conditions=True, solver=solver,
        )
        assert result.all_converged
        for waveform in result.voltage("out"):
            self._rc_expectations(waveform, steps_per_tau)

    @staticmethod
    def _square_law(vgs=3.0, vds=3.5):
        # Overdrive / smoothing width > 40: the model's exact linear branch,
        # so the smoothed level-1 current is the textbook square law.
        overdrive = vgs - NMOS.vth_v
        return 0.5 * NMOS.beta * overdrive * overdrive * (1.0 + NMOS.lambda_per_v * vds)

    @pytest.mark.parametrize("solver", SERIAL_BACKENDS)
    def test_square_law_saturation_serial(self, solver):
        circuit = saturated_nmos()
        solution = serial_dc(circuit, solver)
        branch = circuit.element("vd").branch_position(circuit)
        assert -solution[branch] == pytest.approx(self._square_law(), rel=1e-10)

    @pytest.mark.parametrize("solver", BATCHED_BACKENDS)
    def test_square_law_saturation_batched(self, solver):
        circuit = saturated_nmos()
        solutions = batched_dc(circuit, solver)
        branch = circuit.element("vd").branch_position(circuit)
        assert -solutions[:, branch] == pytest.approx(
            np.full(TRIALS, self._square_law()), rel=1e-10
        )


def pulsed_amplifier():
    circuit = Circuit("amplifier")
    VoltageSource(circuit, "vdd", "vdd", "0", 1.2)
    VoltageSource(circuit, "vg", "g", "0", 0.9)
    Resistor(circuit, "rl", "vdd", "d", 500e3)
    Capacitor(circuit, "cl", "d", "0", 2e-15)
    MOSFET(circuit, "m1", "d", "g", "0", NMOS)
    return circuit


class TestBufferAliasing:
    @staticmethod
    def _states(circuit):
        first = AnalysisState(solution=np.full(circuit.system_size, 0.3), gmin=1e-9)
        second = AnalysisState(solution=np.full(circuit.system_size, 0.8), gmin=1e-9)
        return first, second

    def test_assemble_system_results_are_the_callers(self):
        circuit = pulsed_amplifier()
        engine = get_engine(circuit)
        first, second = self._states(circuit)
        matrix, rhs = engine.assemble_system(first)
        kept = matrix.copy(), rhs.copy()
        later, _ = engine.assemble_system(second)
        engine.solve_dc()
        assert not np.array_equal(later, kept[0])
        assert np.array_equal(matrix, kept[0])
        assert np.array_equal(rhs, kept[1])

    def test_assemble_sparse_results_are_the_callers(self):
        circuit = pulsed_amplifier()
        compiled = get_engine(circuit).compiled
        first, second = self._states(circuit)
        data, rhs = compiled.assemble_sparse(first)
        kept = data.copy(), rhs.copy()
        compiled.assemble_sparse(second)
        get_engine(circuit).solve_dc()
        assert np.array_equal(data, kept[0])
        assert np.array_equal(rhs, kept[1])

    def test_assemble_sparse_batched_results_are_the_callers(self):
        circuit = pulsed_amplifier()
        engine = get_engine(circuit)
        compiled = engine.compiled
        mc = MonteCarloEngine(circuit, {"mos_vth": Gaussian(0.03)}, seed=4)
        stacks = mc.sample_stacked_overlays(TRIALS)
        solutions = np.full((TRIALS, circuit.system_size), 0.3)
        data, rhs = compiled.assemble_sparse_batched(solutions, stacks)
        kept = data.copy(), rhs.copy()
        compiled.assemble_sparse_batched(solutions + 0.5, stacks)
        engine.solve_dc_batched(stacks)  # runs the workspace hot path
        assert np.array_equal(data, kept[0])
        assert np.array_equal(rhs, kept[1])

    def test_dense_reuse_handle_survives_the_next_round(self):
        # A newton="reuse" handle of a dense backend keeps solving against
        # the matrix it froze, however the shared buffer is rewritten.
        circuit = pulsed_amplifier()
        compiled = get_engine(circuit).compiled
        first, second = self._states(circuit)
        data, rhs = compiled.assemble_sparse(first)
        frozen = compiled.densify(data).copy()
        solver = DenseSolver()
        solver.bind(compiled)
        handle = solver.factorize_pattern(data)
        later, _ = compiled.assemble_sparse(second)
        solver.solve_pattern(later, rhs)  # densifies the next round
        assert np.array_equal(handle.solve(rhs), np.linalg.solve(frozen, rhs))

    def test_per_row_fallback_matches_the_stacked_solve(self):
        # A stack whose batched solve raises is re-solved row by row, each
        # row densified into the shared serial buffer in turn; the rows
        # must come out exactly as the stacked LAPACK call gives them.
        class RowByRow(BatchedDenseSolver):
            def solve_batched(self, matrices, rhs, active=None):
                raise np.linalg.LinAlgError("force the per-row fallback")

        circuit = pulsed_amplifier()
        engine = get_engine(circuit)
        stacks = MonteCarloEngine(
            circuit, {"mos_vth": Gaussian(0.03), "resistor_ohm": Gaussian(0.05, relative=True)},
            seed=9,
        ).sample_stacked_overlays(4)
        stacked = engine.solve_dc_batched(stacks, solver="batched")
        rowwise = engine.solve_dc_batched(stacks, solver=RowByRow())
        assert rowwise.strategies == stacked.strategies
        assert np.array_equal(rowwise.solutions, stacked.solutions)
        assert np.array_equal(rowwise.iterations, stacked.iterations)


class TestWarmStartRecord:
    def test_serial_transient_records_a_failed_warm_start(self):
        circuit = build_unanchored_node()
        result = get_engine(circuit).solve_transient(5e-9, 1e-9)
        assert result.convergence_info.dc_strategy == "failed"
        # The march itself converges from the failed iterate — which is
        # exactly why the warm start needs its own record.
        assert result.converged

    def test_warm_start_strategies_per_path(self):
        circuit = build_unanchored_node()
        engine = get_engine(circuit)
        batched = engine.solve_transient_batched(5e-9, 1e-9, trials=TRIALS)
        assert batched.dc_strategies == ("failed",) * TRIALS
        assert batched.trial(0).convergence_info.dc_strategy == "failed"
        uic = engine.solve_transient(5e-9, 1e-9, use_initial_conditions=True)
        assert uic.convergence_info.dc_strategy == "initial-conditions"
        anchored = get_engine(rc_step()).solve_transient(5e-9, 1e-9)
        assert anchored.convergence_info.dc_strategy == "newton"

    @pytest.mark.parametrize("mode", ["batched", "per-trial"])
    def test_montecarlo_meta_counts_warm_start_strategies(self, mode):
        from repro.api import CircuitSpec, MonteCarlo, Session, Transient

        spec = MonteCarlo(
            base=Transient(
                circuit=CircuitSpec("test_pattern_assembly:build_unanchored_node"),
                stop_time_s=5e-9,
                timestep_s=1e-9,
            ),
            perturbations={"cap_c": Gaussian(0.05, relative=True)},
            trials=TRIALS,
            seed=1,
            mode=mode,
        )
        result = Session(store=None).run(spec)
        assert result.meta["dc_strategies"] == {"failed": TRIALS}
        assert result.converged


class TestSolverProvenance:
    @pytest.mark.skipif(not scipy_available(), reason="the chain's model fit needs scipy")
    def test_chain21_dcop_records_dense_backend_and_keeps_its_hash(self):
        from repro.api import CircuitSpec, DCOp, Session

        spec = DCOp(
            circuit=CircuitSpec(
                "repro.circuits.series_chain:build_series_chain",
                params={"num_switches": 21},
            )
        )
        # Provenance is not spec content: the hash is the one earlier
        # releases computed for this spec.
        assert spec.content_hash == (
            "7723227d65c1ca02519d0090ffbe6ae989002712a4c061587f01eaaa0921482a"
        )
        result = Session(store=None).run(spec)
        assert result.provenance["linear_solver"] == {"backend": "dense", "threads": 0}

    def test_batched_and_sparse_runs_name_their_backend(self):
        engine = get_engine(divider())
        assert engine.solver_provenance("auto", trials=4) == {
            "backend": "batched",
            "threads": 0,
        }
        if scipy_available():
            assert engine.solver_provenance("sparse-batched", trials=4, threads=2) == {
                "backend": "sparse-batched",
                "threads": 2,
            }
