"""Terminal network of the four-terminal device.

A device has six channels, one per terminal pair.  Under a given operating
condition some terminals are driven (drains at the drain voltage, sources at
the source voltage) and some float.  The network solver computes the floating
terminal potentials by Newton iteration on Kirchhoff's current law and then
reports the current entering every terminal — exactly what the TCAD runs of
Section III-B record for the sixteen drain/source/float cases.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro import constants
from repro.devices.geometry import canonical_pair
from repro.devices.specs import DeviceSpec
from repro.devices.terminals import Terminal, TerminalConfiguration, TerminalRole
from repro.tcad.calibration import DeviceCalibration, default_calibration
from repro.tcad.channel import ChannelModel


@dataclass
class NetworkSolution:
    """Result of one operating-point solve.

    Attributes
    ----------
    terminal_voltages:
        Potential of every terminal, including solved floating terminals [V].
    terminal_currents:
        Conventional current flowing *into* the device at each terminal [A];
        positive at drains, negative at sources, ~0 at floating terminals.
    gate_voltage:
        The applied gate potential [V].
    iterations:
        Newton iterations used (0 when no terminal floats).
    converged:
        False when the Newton loop hit its iteration cap; the returned values
        are then the best available estimate.
    """

    terminal_voltages: Dict[Terminal, float]
    terminal_currents: Dict[Terminal, float]
    gate_voltage: float
    iterations: int = 0
    converged: bool = True

    def drain_current(self, configuration: TerminalConfiguration) -> float:
        """Total current entering the drain terminals of ``configuration`` [A]."""
        return sum(self.terminal_currents[t] for t in configuration.drains)


class TerminalNetwork:
    """Six-channel network model of one four-terminal device.

    Parameters
    ----------
    spec:
        Device description (Table II entry).
    calibration:
        Optional calibration override.
    temperature_k:
        Lattice temperature.
    """

    #: Convergence tolerance on the floating-terminal KCL residual [A].
    KCL_TOLERANCE = 1e-13
    #: Maximum Newton iterations for floating terminals.
    MAX_ITERATIONS = 200

    def __init__(
        self,
        spec: DeviceSpec,
        calibration: Optional[DeviceCalibration] = None,
        temperature_k: float = constants.ROOM_TEMPERATURE,
    ):
        if calibration is None:
            calibration = default_calibration(spec)
        self._spec = spec
        self._calibration = calibration
        self._temperature_k = temperature_k
        self._channels: Dict[Tuple[Terminal, Terminal], ChannelModel] = {}
        for a, b in itertools.combinations(list(Terminal), 2):
            self._channels[canonical_pair(a, b)] = ChannelModel(
                spec, a, b, calibration=calibration, temperature_k=temperature_k
            )
        # Every node's channels to the other terminals, in Terminal order,
        # resolved once so the KCL sums need no pair lookups.
        self._neighbours: Dict[Terminal, Tuple[Tuple[Terminal, ChannelModel], ...]] = {
            node: tuple(
                (other, self.channel(node, other)) for other in Terminal if other != node
            )
            for node in Terminal
        }

    @property
    def spec(self) -> DeviceSpec:
        return self._spec

    @property
    def channels(self) -> Mapping[Tuple[Terminal, Terminal], ChannelModel]:
        return self._channels

    def channel(self, a: Terminal, b: Terminal) -> ChannelModel:
        """The channel model between two terminals."""
        return self._channels[canonical_pair(a, b)]

    # ------------------------------------------------------------------ #
    # operating point
    # ------------------------------------------------------------------ #

    def solve(
        self,
        configuration: TerminalConfiguration,
        gate_voltage: float,
        drain_voltage: float,
        source_voltage: float = 0.0,
    ) -> NetworkSolution:
        """Solve the operating point of a drain/source/float configuration.

        Drain terminals are driven to ``drain_voltage``, source terminals to
        ``source_voltage`` and floating terminals are solved so that no net
        current enters them.
        """
        voltages: Dict[Terminal, float] = {}
        floating: List[Terminal] = []
        for terminal in Terminal:
            role = configuration.role_of(terminal)
            if role is TerminalRole.DRAIN:
                voltages[terminal] = drain_voltage
            elif role is TerminalRole.SOURCE:
                voltages[terminal] = source_voltage
            else:
                floating.append(terminal)
                voltages[terminal] = 0.5 * (drain_voltage + source_voltage)

        iterations = 0
        converged = True
        if floating:
            iterations, converged = self._solve_floating(voltages, floating, gate_voltage)

        currents = self._terminal_currents(voltages, gate_voltage)
        return NetworkSolution(
            terminal_voltages=dict(voltages),
            terminal_currents=currents,
            gate_voltage=gate_voltage,
            iterations=iterations,
            converged=converged,
        )

    def _solve_floating(
        self,
        voltages: Dict[Terminal, float],
        floating: List[Terminal],
        gate_voltage: float,
    ) -> Tuple[int, bool]:
        """Newton iteration on the floating terminal potentials."""
        for iteration in range(1, self.MAX_ITERATIONS + 1):
            residual = np.array(
                [self._node_current(t, voltages, gate_voltage) for t in floating]
            )
            if np.max(np.abs(residual)) < self.KCL_TOLERANCE:
                return iteration, True

            jacobian = np.zeros((len(floating), len(floating)))
            for row, node in enumerate(floating):
                for col, other in enumerate(floating):
                    jacobian[row, col] = self._node_current_derivative(
                        node, other, voltages, gate_voltage
                    )
            try:
                delta = np.linalg.solve(jacobian, -residual)
            except np.linalg.LinAlgError:
                delta = -residual / np.maximum(np.abs(np.diag(jacobian)), 1e-12)
            # Damp large steps to keep the exponential sub-threshold terms stable.
            delta = np.clip(delta, -1.0, 1.0)
            for node, step in zip(floating, delta):
                voltages[node] += float(step)
        return self.MAX_ITERATIONS, False

    def _node_current(
        self, node: Terminal, voltages: Mapping[Terminal, float], gate_voltage: float
    ) -> float:
        """Net conventional current entering the device at ``node`` [A]."""
        node_voltage = voltages[node]
        total = 0.0
        for other, channel in self._neighbours[node]:
            total += channel.current(gate_voltage, node_voltage, voltages[other])
        return total

    def _node_current_derivative(
        self,
        node: Terminal,
        with_respect_to: Terminal,
        voltages: Mapping[Terminal, float],
        gate_voltage: float,
        delta: float = 1e-6,
    ) -> float:
        """Numerical derivative of the node current w.r.t. another node voltage."""
        perturbed = dict(voltages)
        perturbed[with_respect_to] = voltages[with_respect_to] + delta
        plus = self._node_current(node, perturbed, gate_voltage)
        perturbed[with_respect_to] = voltages[with_respect_to] - delta
        minus = self._node_current(node, perturbed, gate_voltage)
        return (plus - minus) / (2.0 * delta)

    def _terminal_currents(
        self, voltages: Mapping[Terminal, float], gate_voltage: float
    ) -> Dict[Terminal, float]:
        return {
            terminal: self._node_current(terminal, voltages, gate_voltage)
            for terminal in Terminal
        }
