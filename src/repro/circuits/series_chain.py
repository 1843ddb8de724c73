"""Series chains of four-terminal switches (the Fig. 12 drive study).

The paper asks how many switches in series a lattice circuit can drive and
answers with two experiments on chains of 1..21 switches whose gates are all
ON:

* Fig. 12a — the current through the chain at a constant 1.2 V across it;
* Fig. 12b — the voltage needed across the chain for a constant 5.5 uA.

A chain connects consecutive switches through their opposite terminals (T1 of
switch *i+1* to T2 of switch *i*); the side terminals T3/T4 are left dangling,
as they are inside a single lattice column.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.circuits.sizing import default_switch_model
from repro.spice.dcop import OperatingPoint
from repro.spice.dcsweep import DCSweepResult, crossing_end, interpolate_crossing
from repro.spice.elements.capacitor import Capacitor
from repro.spice.elements.sources import VoltageSource
from repro.spice.elements.switch4t import FourTerminalSwitchModel, add_four_terminal_switch
from repro.spice.engine import get_engine
from repro.spice.netlist import Circuit, GROUND
from repro.spice.waveforms import DC

#: Element name of the source driving the chain (its current is the readout).
DRIVE_SOURCE_NAME = "v_drive"
#: Element name of the gate supply.
GATE_SOURCE_NAME = "v_gate"


@dataclass
class SeriesChainCircuit:
    """A chain of N four-terminal switches between the drive node and ground.

    Attributes
    ----------
    circuit:
        The SPICE circuit.
    num_switches:
        Chain length.
    drive_source / gate_source:
        The voltage sources for the chain bias and the common gate.
    """

    circuit: Circuit
    num_switches: int
    drive_source: VoltageSource
    gate_source: VoltageSource

    def chain_current(self, drive_v: float, gate_v: float = 1.2) -> float:
        """DC current through the chain for the given bias [A].

        Repeated calls reuse the compiled analysis structure cached on the
        circuit, so bias studies pay the compile cost only once.
        """
        self.drive_source.set_level(drive_v)
        self.gate_source.set_level(gate_v)
        point = get_engine(self.circuit).solve_dc()
        return abs(point.source_current(self.drive_source))

    def voltage_for_current(
        self,
        target_current_a: float,
        gate_v: Optional[float] = None,
        max_voltage_v: float = 6.0,
        points: int = 61,
        tie_gate_to_drive: bool = True,
    ) -> float:
        """Supply voltage at which the chain carries ``target_current_a`` [V].

        The Fig. 12b experiment raises the supply of the whole circuit, so by
        default the common gate follows the drive voltage (``tie_gate_to_drive``);
        pass ``gate_v`` with ``tie_gate_to_drive=False`` to keep the gate fixed
        instead.  Returns ``nan`` when the target current is not reached below
        ``max_voltage_v``.

        With the gate tied to the drive, the supply steps through ``points``
        values from 0 V and stops right after the first point pair that
        brackets the target (the rule of
        :func:`repro.spice.dcsweep.crossing_end`); points past the first
        crossing are not solved.  Each point warm-starts from the one before
        it, so the result is the same as solving the whole range.  A target
        that is never reached solves every point.
        """
        engine = get_engine(self.circuit)
        if not tie_gate_to_drive:
            if gate_v is None:
                raise ValueError("gate_v is required when the gate does not follow the drive")
            self.gate_source.set_level(gate_v)
            sweep = engine.dc_sweep(
                self.drive_source, np.linspace(0.0, max_voltage_v, points)
            )
            return sweep.find_value_for_current(DRIVE_SOURCE_NAME, target_current_a)

        # The gate follows the drive, so this is not a plain single-source
        # sweep; run the warm-started continuation manually on the engine,
        # stopping once the sweep layer's crossing rule has its answer.
        engine.compiled.refresh_values()
        voltages = np.linspace(0.0, max_voltage_v, points)
        currents = np.empty_like(voltages)
        guess = None
        solved = 0
        for voltage in voltages:
            self.drive_source.set_level(float(voltage))
            self.gate_source.set_level(float(voltage))
            point = engine.solve_dc(initial_guess=guess, refresh=False)
            guess = point.solution.copy()
            currents[solved] = abs(point.source_current(self.drive_source))
            solved += 1
            if crossing_end(currents[:solved], target_current_a) is not None:
                break
        return interpolate_crossing(
            voltages[:solved], currents[:solved], target_current_a
        )

    def sweep_drive(self, values: Sequence[float], gate_v: float = 1.2) -> DCSweepResult:
        """DC sweep of the drive voltage at a fixed gate voltage."""
        self.gate_source.set_level(gate_v)
        return get_engine(self.circuit).dc_sweep(self.drive_source, values)

    def sweep_drive_family(
        self, values: Sequence[float], gate_levels: Sequence[float]
    ) -> Dict[float, DCSweepResult]:
        """Drive sweeps at several gate voltages through one compiled circuit.

        Runs :meth:`repro.spice.engine.AnalysisEngine.sweep_many` with one
        family per gate level: the compiled structure is shared across the
        whole batch and each family is seeded with the previous family's
        solution, so the full drive study costs one compile and mostly
        one-or-two-iteration warm-started solves.
        """
        families = {float(gate_v): values for gate_v in gate_levels}
        return get_engine(self.circuit).sweep_many(
            self.drive_source,
            families,
            configure=lambda gate_v: self.gate_source.set_level(gate_v),
        )


def build_series_chain(
    num_switches: int,
    model: Optional[FourTerminalSwitchModel] = None,
    drive_v: float = 1.2,
    gate_v: float = 1.2,
    node_capacitance_f: float = 0.0,
) -> SeriesChainCircuit:
    """Build a chain of ``num_switches`` switches between the drive and ground.

    Parameters
    ----------
    num_switches:
        Number of switches in series (at least 1).
    model:
        Switch transistor model (defaults to the cached square/HfO2 model).
    drive_v / gate_v:
        Initial source levels (both can be changed later through the result).
    node_capacitance_f:
        Optional grounded capacitance per internal node; DC studies leave it
        at 0 to keep the matrices small.
    """
    if num_switches < 1:
        raise ValueError("a chain needs at least one switch")
    if model is None:
        model = default_switch_model()

    circuit = Circuit(f"series_chain_{num_switches}")
    drive_source = VoltageSource(circuit, DRIVE_SOURCE_NAME, "n_0", GROUND, DC(drive_v))
    gate_source = VoltageSource(circuit, GATE_SOURCE_NAME, "gate", GROUND, DC(gate_v))

    for index in range(num_switches):
        top_node = f"n_{index}"
        bottom_node = GROUND if index == num_switches - 1 else f"n_{index + 1}"
        nodes = {
            "T1": top_node,
            "T2": bottom_node,
            "T3": f"side_a_{index}",
            "T4": f"side_b_{index}",
        }
        add_four_terminal_switch(
            circuit,
            f"sw_{index}",
            nodes,
            "gate",
            model,
            add_terminal_capacitors=False,
        )
        if node_capacitance_f > 0.0:
            for suffix, node in nodes.items():
                if node != GROUND:
                    Capacitor(
                        circuit,
                        f"c_{index}_{suffix.lower()}",
                        node,
                        GROUND,
                        node_capacitance_f,
                    )

    return SeriesChainCircuit(
        circuit=circuit,
        num_switches=num_switches,
        drive_source=drive_source,
        gate_source=gate_source,
    )


def current_versus_chain_length(
    lengths: Sequence[int],
    drive_v: float = 1.2,
    gate_v: float = 1.2,
    model: Optional[FourTerminalSwitchModel] = None,
) -> Dict[int, float]:
    """Fig. 12a: chain current at constant drive voltage for several lengths."""
    if model is None:
        model = default_switch_model()
    results: Dict[int, float] = {}
    for length in lengths:
        chain = build_series_chain(length, model=model, drive_v=drive_v, gate_v=gate_v)
        results[length] = chain.chain_current(drive_v, gate_v)
    return results


def voltage_versus_chain_length(
    lengths: Sequence[int],
    target_current_a: float,
    model: Optional[FourTerminalSwitchModel] = None,
    max_voltage_v: float = 6.0,
) -> Dict[int, float]:
    """Fig. 12b: supply voltage needed for a constant current, per chain length.

    The common gate follows the supply, matching the paper's test where the
    whole circuit's supply voltage is raised until the chain carries the
    target current.
    """
    if model is None:
        model = default_switch_model()
    results: Dict[int, float] = {}
    for length in lengths:
        chain = build_series_chain(length, model=model)
        results[length] = chain.voltage_for_current(
            target_current_a, max_voltage_v=max_voltage_v
        )
    return results
