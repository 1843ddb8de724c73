"""Fig. 12b's supply continuation stops at the first crossing, bit for bit.

:meth:`SeriesChainCircuit.voltage_for_current` (gate tied to the drive)
solves supply points only until :func:`repro.spice.dcsweep.crossing_end`
has its answer.  These tests pin that the early stop changes nothing: the
voltage equals a full-range continuation followed by
:func:`interpolate_crossing`, and the solve count is the crossing index + 1.
"""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.circuits.series_chain import build_series_chain
from repro.experiments.fig12_series_switches import DEFAULT_LENGTHS
from repro.spice.dcsweep import crossing_end, interpolate_crossing
from repro.spice.engine import AnalysisEngine, get_engine
from repro.spice.solvers import scipy_available

requires_scipy = pytest.mark.skipif(
    not scipy_available(), reason="needs the scipy optional extra"
)

POINTS = 61
MAX_VOLTAGE_V = 6.0


def full_continuation(chain, target_a):
    """The reference: every supply point solved, then the crossing read off.

    Returns the interpolated voltage and the full current curve.
    """
    engine = get_engine(chain.circuit)
    engine.compiled.refresh_values()
    voltages = np.linspace(0.0, MAX_VOLTAGE_V, POINTS)
    currents = np.empty_like(voltages)
    guess = None
    for i, voltage in enumerate(voltages):
        chain.drive_source.set_level(float(voltage))
        chain.gate_source.set_level(float(voltage))
        point = engine.solve_dc(initial_guess=guess, refresh=False)
        guess = point.solution.copy()
        currents[i] = abs(point.source_current(chain.drive_source))
    return interpolate_crossing(voltages, currents, target_a), currents


@pytest.fixture
def count_solves(monkeypatch):
    """Count :meth:`AnalysisEngine.solve_dc` calls (a one-item list)."""
    calls = [0]
    original = AnalysisEngine.solve_dc

    def counted(self, *args, **kwargs):
        calls[0] += 1
        return original(self, *args, **kwargs)

    monkeypatch.setattr(AnalysisEngine, "solve_dc", counted)
    return calls


def _target(model):
    """Fig. 12b's target: the two-switch chain's current at 1.2 V."""
    return build_series_chain(2, model=model).chain_current(1.2, 1.2)


def _early_stop_matches_reference(model, count_solves):
    """Per length: (solves, crossing index + 1) after the bitwise check."""
    target = _target(model)
    counts = {}
    for length in DEFAULT_LENGTHS:
        expected, currents = full_continuation(
            build_series_chain(length, model=model), target
        )
        chain = build_series_chain(length, model=model)
        count_solves[0] = 0
        value = chain.voltage_for_current(
            target, max_voltage_v=MAX_VOLTAGE_V, points=POINTS
        )
        assert value.hex() == expected.hex(), length
        end = crossing_end(currents, target)
        assert end is not None, length
        counts[length] = (count_solves[0], end + 1)
    return counts


class TestFig12bEarlyStop:
    def test_parametric_model_bitwise_and_solve_count(
        self, switch_model, count_solves
    ):
        counts = _early_stop_matches_reference(switch_model, count_solves)
        for length, (solves, needed) in counts.items():
            assert solves == needed, length
            assert solves < POINTS, length

    @requires_scipy
    def test_paper_model_bitwise_and_solve_count(
        self, extracted_switch_model, count_solves
    ):
        counts = _early_stop_matches_reference(extracted_switch_model, count_solves)
        for length, (solves, needed) in counts.items():
            assert solves == needed, length
        assert counts[1][0] == 10
        assert counts[21][0] == 37
        assert sum(solves for solves, _ in counts.values()) == 284

    def test_unreachable_target_solves_every_point(self, switch_model, count_solves):
        chain = build_series_chain(3, model=switch_model)
        value = chain.voltage_for_current(1.0, max_voltage_v=MAX_VOLTAGE_V, points=POINTS)
        assert np.isnan(value)
        assert count_solves[0] == POINTS


# ---------------------------------------------------------------------- #
# the shared crossing rule
# ---------------------------------------------------------------------- #


@st.composite
def curves(draw):
    """Curves with flat runs, exact target hits anywhere, or no crossing."""
    target = draw(st.sampled_from([0.0, 1.0, -2.5, 3.25]))
    size = draw(st.integers(min_value=0, max_value=24))
    levels = st.sampled_from([target - 2.0, target - 0.5, target, target + 0.5, target + 3.0])
    values = st.one_of(levels, st.floats(-10.0, 10.0, allow_nan=False))
    ys = []
    while len(ys) < size:
        value = draw(values)
        # Repeat a value to build flat runs, on and off the target.
        ys.extend([value] * draw(st.integers(min_value=1, max_value=4)))
    ys = ys[:size]
    if ys and draw(st.booleans()):
        # Keep the whole curve on one side: no crossing at all.
        side = draw(st.sampled_from([-1.0, 1.0]))
        ys = [target + side * (abs(y - target) + 0.25) for y in ys]
    xs = np.cumsum(draw(st.lists(st.floats(0.01, 2.0), min_size=size, max_size=size)))
    return np.asarray(xs, dtype=float), np.asarray(ys, dtype=float), target


def _same(a, b):
    return (np.isnan(a) and np.isnan(b)) or a.hex() == b.hex()


class TestCrossingRule:
    @given(curves())
    @settings(max_examples=300, deadline=None)
    def test_early_stop_prefix_equals_full_curve(self, curve):
        xs, ys, target = curve
        stop = len(ys)
        for k in range(1, len(ys) + 1):
            if crossing_end(ys[:k], target) is not None:
                stop = k
                break
        assert _same(
            interpolate_crossing(xs[:stop], ys[:stop], target),
            interpolate_crossing(xs, ys, target),
        )
        end = crossing_end(ys, target)
        assert stop == (len(ys) if end is None else end + 1)

    def test_exact_hit_at_first_point_stops_at_once(self):
        ys = np.array([2.0, 2.0, 5.0])
        assert crossing_end(ys, 2.0) == 0
        assert crossing_end(ys[:1], 2.0) == 0

    def test_exact_hit_inside_a_flat_run(self):
        # Flat on the target after the start: the first distinct pair wins.
        ys = np.array([0.0, 1.0, 1.0, 1.0, 3.0])
        assert crossing_end(ys, 1.0) == 1
        ys = np.array([2.0, 1.0, 1.0, 1.0, 1.0])
        assert crossing_end(ys, 1.0) == 1

    def test_no_crossing(self):
        assert crossing_end(np.array([]), 1.0) is None
        assert crossing_end(np.array([0.0, 0.5, 0.9]), 1.0) is None
        assert crossing_end(np.array([3.0, 3.0]), 1.0) is None
