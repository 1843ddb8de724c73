"""DC sweep analysis (thin frontend over the analysis engine).

The per-point Newton solves and the warm-start continuation live in
:class:`repro.spice.engine.AnalysisEngine`; this module keeps the stable
:func:`dc_sweep` entry point, the :class:`DCSweepResult` type (with
vectorized waveform extraction) and the crossing rule with its
interpolation helper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.spice.dcop import OperatingPoint
from repro.spice.elements.sources import CurrentSource, VoltageSource
from repro.spice.engine import get_engine
from repro.spice.netlist import Circuit


@dataclass
class DCSweepResult:
    """Result of a DC sweep.

    Attributes
    ----------
    circuit:
        The swept circuit.
    values:
        The swept source values.
    points:
        The converged :class:`OperatingPoint` of every sweep value.
    """

    circuit: Circuit
    values: np.ndarray
    points: List[OperatingPoint]
    _solutions: Optional[np.ndarray] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def solutions(self) -> np.ndarray:
        """All sweep solutions stacked, one row per point (built lazily)."""
        if self._solutions is None:
            self._solutions = np.vstack([point.solution for point in self.points])
        return self._solutions

    def voltage(self, node_name: str) -> np.ndarray:
        """Voltage of a node across the sweep [V]."""
        index = self.circuit.node_index(node_name)
        if index < 0:
            return np.zeros(len(self.points))
        return self.solutions[:, index].copy()

    def source_current(self, source: Union[VoltageSource, str]) -> np.ndarray:
        """Current through a voltage source across the sweep [A].

        The source's branch position is resolved once (and cached on the
        source during compilation), so extraction is a single column slice
        instead of a per-point name lookup.
        """
        if isinstance(source, str):
            source = self.circuit.element(source)
        if not isinstance(source, VoltageSource):
            raise TypeError("source_current expects a VoltageSource or its name")
        return self.solutions[:, source.branch_position(self.circuit)].copy()

    @property
    def all_converged(self) -> bool:
        return all(point.converged for point in self.points)

    def find_value_for_voltage(self, node_name: str, target_v: float) -> float:
        """Swept value at which a node voltage crosses ``target_v`` (interpolated)."""
        voltages = self.voltage(node_name)
        return interpolate_crossing(self.values, voltages, target_v)

    def find_value_for_current(self, source_name: str, target_a: float) -> float:
        """Swept value at which a source current magnitude crosses ``target_a``."""
        currents = np.abs(self.source_current(source_name))
        return interpolate_crossing(self.values, currents, target_a)


def crossing_end(ys: np.ndarray, target: float) -> Optional[int]:
    """Index of the last sample that decides the first crossing of ``target``.

    This is the one crossing rule of the sweep layer.  A first point sitting
    exactly on the target is a crossing at index 0; otherwise the first pair
    ``(ys[i], ys[i + 1])`` whose signs against the target multiply to
    ``<= 0`` and whose values differ crosses, and ``i + 1`` is returned.
    ``None`` when the curve never crosses.

    The answer only depends on ``ys[:end + 1]``, so a caller that computes
    the curve point by point may stop as soon as the prefix it has yields a
    result: :func:`interpolate_crossing` on that prefix equals it on the
    full curve.
    """
    ys = np.asarray(ys, dtype=float)
    if ys.size == 0:
        return None
    signs = np.sign(ys - target)
    if signs[0] == 0.0:
        return 0
    crossing = (signs[:-1] * signs[1:] <= 0.0) & (ys[:-1] != ys[1:])
    indices = np.flatnonzero(crossing)
    if indices.size == 0:
        return None
    return int(indices[0]) + 1


def interpolate_crossing(xs: np.ndarray, ys: np.ndarray, target: float) -> float:
    """First x at which y crosses target, by linear interpolation (nan if never).

    The crossing is the one :func:`crossing_end` picks; a first point
    already sitting exactly on the target is reported as a crossing at
    ``xs[0]``.  Public so other layers (e.g. the series-chain drive study)
    can reuse it on curves they compute themselves.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    end = crossing_end(ys, target)
    if end is None:
        return float("nan")
    if end == 0:
        return float(xs[0])
    i = end - 1
    fraction = (target - ys[i]) / (ys[i + 1] - ys[i])
    return float(xs[i] + fraction * (xs[i + 1] - xs[i]))


def dc_sweep(
    circuit: Circuit,
    source: Union[VoltageSource, CurrentSource, str],
    values: Sequence[float],
    gmin: float = 1e-12,
    max_iterations: int = 200,
    solver=None,
) -> DCSweepResult:
    """Sweep an independent source and solve the operating point at each value.

    Delegates to the circuit's cached :class:`~repro.spice.engine.AnalysisEngine`:
    the compiled assembly structure is shared across all points and each
    point starts the Newton iteration from the previous point's solution
    (continuation), which is both faster and more robust than starting from
    zero for every value.  See :func:`repro.spice.engine.sweep_many` for
    running a whole family of sweeps through one compiled circuit.

    ``solver`` selects the linear-solver backend for every point (a name
    such as ``"sparse"`` or a :class:`~repro.spice.solvers.LinearSolver`
    instance; the engine default when omitted).

    .. deprecated::
        Build a :class:`repro.api.DCSweep` spec and run it through
        :meth:`repro.api.Session.run` instead (see the README migration
        table); this wrapper remains for compatibility and will keep
        delegating to the engine.
    """
    import warnings

    warnings.warn(
        "dc_sweep() is deprecated: build a repro.api.DCSweep spec and run it "
        "through repro.api.Session.run() (see the README migration table)",
        DeprecationWarning,
        stacklevel=2,
    )
    return get_engine(circuit).dc_sweep(
        source, values, gmin=gmin, max_iterations=max_iterations, solver=solver
    )
