"""Unit tests for the TCAD-substitute: electrostatics, channels, network, simulator."""

import numpy as np
import pytest

from repro.devices.specs import device_spec
from repro.devices.terminals import (
    ALL_TERMINAL_CONFIGURATIONS,
    DSSS,
    Terminal,
    configuration_by_name,
)
from repro.tcad.calibration import DeviceCalibration, default_calibration
from repro.tcad.channel import ChannelModel
from repro.tcad.electrostatics import (
    MOSElectrostatics,
    body_effect_coefficient,
    flat_band_voltage,
    ideality_factor,
    narrow_width_correction,
    subthreshold_swing,
    surface_potential,
    threshold_voltage,
)
from repro.tcad.network import NetworkSolution, TerminalNetwork
from repro.tcad.simulator import DeviceSimulator
from repro.tcad.sweeps import PAPER_SWEEP_SETUPS, SweepSetup, idvd, idvg_linear, idvg_saturation

from repro.spice.solvers import scipy_available

#: These cases drive scipy-backed device physics (field solves, root
#: finding, extraction) and skip on a scipy-free install.
requires_scipy = pytest.mark.skipif(
    not scipy_available(), reason="needs the scipy optional extra"
)


class TestElectrostatics:
    def test_hfo2_threshold_near_paper(self):
        vth = threshold_voltage(device_spec("square", "HfO2"))
        assert 0.1 < vth < 0.3  # paper: 0.16 V

    def test_sio2_threshold_near_paper(self):
        vth = threshold_voltage(device_spec("square", "SiO2"))
        assert 1.1 < vth < 1.8  # paper: 1.36 V

    def test_hfo2_lowers_threshold(self):
        assert threshold_voltage(device_spec("square", "HfO2")) < threshold_voltage(
            device_spec("square", "SiO2")
        )

    def test_cross_threshold_above_square(self):
        assert threshold_voltage(device_spec("cross", "HfO2")) > threshold_voltage(
            device_spec("square", "HfO2")
        )

    def test_junctionless_threshold_negative(self):
        assert threshold_voltage(device_spec("junctionless", "HfO2")) < 0.0
        assert threshold_voltage(device_spec("junctionless", "SiO2")) < threshold_voltage(
            device_spec("junctionless", "HfO2")
        )

    def test_narrow_width_correction_positive_and_width_dependent(self):
        spec = device_spec("cross", "HfO2")
        narrow = narrow_width_correction(spec, 200e-9)
        wide = narrow_width_correction(spec, 700e-9)
        assert narrow > wide > 0.0

    def test_narrow_width_zero_for_depletion(self):
        assert narrow_width_correction(device_spec("junctionless", "HfO2"), 2e-9) == 0.0

    def test_flat_band_differs_by_operation(self):
        assert flat_band_voltage(device_spec("square", "HfO2")) != flat_band_voltage(
            device_spec("junctionless", "HfO2")
        )

    def test_body_effect_smaller_for_high_k(self):
        assert body_effect_coefficient(device_spec("square", "HfO2")) < body_effect_coefficient(
            device_spec("square", "SiO2")
        )

    def test_subthreshold_swing_above_thermal_limit(self):
        swing = subthreshold_swing(device_spec("square", "HfO2"))
        assert swing > 0.0595  # 60 mV/dec at room temperature
        assert swing < 0.2

    def test_ideality_factor_above_one(self):
        assert ideality_factor(device_spec("square", "SiO2")) > ideality_factor(
            device_spec("square", "HfO2")
        ) > 1.0

    @requires_scipy
    def test_surface_potential_monotone(self):
        spec = device_spec("square", "HfO2")
        values = [surface_potential(spec, v) for v in (0.0, 0.5, 1.0, 2.0, 5.0)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    @requires_scipy
    def test_surface_potential_pins_near_2phif(self):
        spec = device_spec("square", "HfO2")
        phi_f = spec.substrate_material.bulk_potential(1e17)
        psi_strong = surface_potential(spec, 5.0)
        assert psi_strong == pytest.approx(2 * phi_f, abs=0.35)

    def test_surface_potential_rejects_depletion_device(self):
        with pytest.raises(ValueError):
            surface_potential(device_spec("junctionless", "HfO2"), 1.0)

    def test_electrostatics_bundle(self):
        bundle = MOSElectrostatics.from_spec(device_spec("cross", "HfO2"))
        assert bundle.threshold_v == pytest.approx(threshold_voltage(device_spec("cross", "HfO2")))
        assert "cross/HfO2" in bundle.summary()


class TestCalibration:
    def test_defaults_exist_for_all_kinds(self):
        for kind in ("square", "cross", "junctionless"):
            calibration = default_calibration(kind)
            assert calibration.effective_mobility_cm2 > 0

    def test_lookup_by_spec(self):
        assert default_calibration(device_spec("square", "SiO2")) is default_calibration("square")

    def test_validation(self):
        with pytest.raises(ValueError):
            DeviceCalibration(effective_mobility_cm2=-1, leakage_floor_a=0, channel_length_modulation=0)
        with pytest.raises(ValueError):
            DeviceCalibration(effective_mobility_cm2=1, leakage_floor_a=-1, channel_length_modulation=0)

    def test_with_mobility(self):
        doubled = default_calibration("square").with_mobility(40.0)
        assert doubled.effective_mobility_cm2 == 40.0
        assert doubled.leakage_floor_a == default_calibration("square").leakage_floor_a


class TestChannelModel:
    @pytest.fixture(scope="class")
    def channel(self):
        return ChannelModel(device_spec("square", "HfO2"), Terminal.T1, Terminal.T3)

    def test_antisymmetry(self, channel):
        forward = channel.current(5.0, 3.0, 0.0)
        backward = channel.current(5.0, 0.0, 3.0)
        assert forward == pytest.approx(-backward)

    def test_zero_bias_zero_current(self, channel):
        assert channel.current(5.0, 1.0, 1.0) == 0.0

    def test_current_increases_with_gate(self, channel):
        low = channel.current(1.0, 1.0, 0.0)
        high = channel.current(5.0, 1.0, 0.0)
        assert high > low > 0.0

    def test_current_increases_with_drain_bias(self, channel):
        assert channel.current(5.0, 2.0, 0.0) > channel.current(5.0, 1.0, 0.0)

    def test_off_state_at_leakage_floor(self, channel):
        off = channel.current(0.0, 5.0, 0.0)
        floor = default_calibration("square").leakage_floor_a
        assert off == pytest.approx(floor, rel=0.5)

    def test_conductance_positive(self, channel):
        assert channel.conductance(5.0, 1.0, 0.0) > 0.0
        assert channel.conductance(0.0, 0.0, 0.0) >= 1e-15

    def test_on_resistance_finite_when_on(self, channel):
        assert np.isfinite(channel.on_resistance(5.0))
        # In the off state only the leakage floor conducts: tens of Mohm or more.
        assert channel.on_resistance(0.0) > 1e7
        assert channel.on_resistance(0.0) > 1e3 * channel.on_resistance(5.0)

    def test_opposite_pair_weaker_than_adjacent(self):
        spec = device_spec("square", "HfO2")
        adjacent = ChannelModel(spec, Terminal.T1, Terminal.T3)
        opposite = ChannelModel(spec, Terminal.T1, Terminal.T2)
        assert adjacent.current(5.0, 1.0, 0.0) > opposite.current(5.0, 1.0, 0.0)

    def test_forward_current_rejects_negative_vds(self, channel):
        with pytest.raises(ValueError):
            channel._forward_current(5.0, -1.0)


class TestTerminalNetwork:
    @pytest.fixture(scope="class")
    def network(self):
        return TerminalNetwork(device_spec("square", "HfO2"))

    def test_dsss_current_balance(self, network):
        solution = network.solve(DSSS, gate_voltage=5.0, drain_voltage=5.0)
        total = sum(solution.terminal_currents.values())
        assert abs(total) < 1e-6 * abs(solution.terminal_currents[Terminal.T1])

    def test_dsss_drain_positive_sources_negative(self, network):
        solution = network.solve(DSSS, gate_voltage=5.0, drain_voltage=5.0)
        assert solution.terminal_currents[Terminal.T1] > 0
        for t in (Terminal.T2, Terminal.T3, Terminal.T4):
            assert solution.terminal_currents[t] < 0

    def test_floating_terminal_carries_no_current(self, network):
        configuration = configuration_by_name("DSFF")
        solution = network.solve(configuration, gate_voltage=5.0, drain_voltage=5.0)
        assert solution.converged
        for t in configuration.floating:
            assert abs(solution.terminal_currents[t]) < 1e-9

    def test_floating_voltage_between_rails(self, network):
        configuration = configuration_by_name("DSFF")
        solution = network.solve(configuration, gate_voltage=5.0, drain_voltage=5.0)
        for t in configuration.floating:
            assert -0.1 <= solution.terminal_voltages[t] <= 5.1

    def test_symmetric_configuration_balanced(self, network):
        configuration = configuration_by_name("DDSS")
        solution = network.solve(configuration, gate_voltage=5.0, drain_voltage=5.0)
        drains = [solution.terminal_currents[t] for t in configuration.drains]
        assert drains[0] == pytest.approx(drains[1], rel=0.05)

    def test_off_state_currents_small(self, network):
        solution = network.solve(DSSS, gate_voltage=0.0, drain_voltage=5.0)
        assert abs(solution.drain_current(DSSS)) < 1e-7

    def test_channel_lookup_symmetric(self, network):
        assert network.channel(Terminal.T1, Terminal.T3) is network.channel(Terminal.T3, Terminal.T1)


def _lookup_node_current(network, node, voltages, gate_voltage):
    """Node current summed through ``channel()`` lookups over ``Terminal``."""
    total = 0.0
    for other in Terminal:
        if other == node:
            continue
        channel = network.channel(node, other)
        total += channel.current(gate_voltage, voltages[node], voltages[other])
    return total


class _LookupNetwork(TerminalNetwork):
    """The network with every KCL sum resolving its channels by lookup."""

    def _node_current(self, node, voltages, gate_voltage):
        return _lookup_node_current(self, node, voltages, gate_voltage)


class TestNeighbourTableParity:
    """The per-node neighbour table sums the same channels in the same order."""

    BIASES = ((5.0, 5.0), (0.0, 5.0), (1.5, 0.01), (3.0, -2.0))

    @pytest.fixture(scope="class")
    def networks(self):
        spec = device_spec("square", "HfO2")
        return TerminalNetwork(spec), _LookupNetwork(spec)

    @staticmethod
    def _bits(solution: NetworkSolution):
        return (
            {t: v.hex() for t, v in solution.terminal_voltages.items()},
            {t: i.hex() for t, i in solution.terminal_currents.items()},
            solution.gate_voltage.hex(),
            solution.iterations,
            solution.converged,
        )

    @pytest.mark.parametrize("code", sorted(ALL_TERMINAL_CONFIGURATIONS))
    def test_every_configuration_bitwise(self, networks, code):
        table, lookup = networks
        configuration = ALL_TERMINAL_CONFIGURATIONS[code]
        for gate_voltage, drain_voltage in self.BIASES:
            fast = table.solve(configuration, gate_voltage, drain_voltage)
            reference = lookup.solve(configuration, gate_voltage, drain_voltage)
            assert self._bits(fast) == self._bits(reference)

    def test_node_current_matches_lookup_sum(self, networks):
        table, _ = networks
        voltages = {Terminal.T1: 5.0, Terminal.T2: 0.3, Terminal.T3: 2.2, Terminal.T4: 0.0}
        for node in Terminal:
            assert table._node_current(node, voltages, 4.0).hex() == (
                _lookup_node_current(table, node, voltages, 4.0).hex()
            )

    def test_channels_mapping_unchanged(self, networks):
        table, _ = networks
        assert len(table.channels) == 6
        for (a, b), channel in table.channels.items():
            assert table.channel(a, b) is channel
            assert table.channel(b, a) is channel


class TestSweepSetups:
    def test_paper_setups(self):
        assert len(PAPER_SWEEP_SETUPS) == 3
        names = [s.name for s in PAPER_SWEEP_SETUPS]
        assert names == ["idvg_lin", "idvg_sat", "idvd"]

    def test_linear_setup_bias(self):
        setup = idvg_linear()
        vgs, vds = setup.bias_at(3.0)
        assert vgs == 3.0 and vds == pytest.approx(0.010)

    def test_idvd_setup_bias(self):
        setup = idvd()
        vgs, vds = setup.bias_at(2.5)
        assert vgs == 5.0 and vds == 2.5

    def test_voltages_span(self):
        setup = idvg_saturation(points=11)
        voltages = setup.voltages()
        assert len(voltages) == 11
        assert voltages[0] == 0.0 and voltages[-1] == 5.0

    def test_validation(self):
        with pytest.raises(ValueError):
            SweepSetup("bad", "vcc", 0, 0, 0, 5)
        with pytest.raises(ValueError):
            SweepSetup("bad", "vgs", 0, 0, 5, 0)
        with pytest.raises(ValueError):
            SweepSetup("bad", "vgs", 0, 0, 0, 5, points=1)

    def test_describe(self):
        assert "VDS" in idvg_linear().describe()
        assert "VGS" in idvd().describe()


class TestDeviceSimulator:
    def test_paper_sweeps_shapes(self, square_simulator):
        linear, saturation, output = square_simulator.paper_sweeps()
        assert len(linear.voltages) == 51
        assert set(linear.curves) == set(Terminal)
        assert saturation.drain_current.shape == (51,)
        assert output.setup.name == "idvd"

    def test_on_current_magnitude(self, square_simulator):
        # Paper Fig. 5b: on-current of the square/HfO2 device is ~1.2 mA.
        ion = square_simulator.on_current()
        assert 5e-4 < ion < 3e-3

    def test_on_off_ratio_order_of_magnitude(self, square_simulator):
        ratio = square_simulator.on_off_ratio()
        assert 1e5 < ratio < 1e7  # paper: ~1e6

    def test_transfer_curve_monotone(self, square_simulator):
        result = square_simulator.transfer_curve_saturation()
        currents = np.abs(result.drain_current)
        assert np.all(np.diff(currents) >= -1e-12)

    def test_output_curve_saturates(self, square_simulator):
        result = square_simulator.output_curve()
        currents = np.abs(result.drain_current)
        early_slope = currents[5] - currents[4]
        late_slope = currents[-1] - currents[-2]
        assert late_slope < early_slope

    def test_terminal_symmetry_reasonable(self, square_simulator):
        result = square_simulator.transfer_curve_saturation()
        assert 0.0 <= result.terminal_symmetry() < 1.0

    def test_idvd_samples_increasing(self, square_simulator):
        vds, ids = square_simulator.idvd_samples(vds_values=np.linspace(0, 5, 11))
        assert len(vds) == len(ids) == 11
        assert np.all(np.diff(ids) >= -1e-12)

    def test_cross_lower_current_than_square(self):
        square = DeviceSimulator(device_spec("square", "HfO2"))
        cross = DeviceSimulator(device_spec("cross", "HfO2"))
        assert cross.on_current() < square.on_current()

    def test_junctionless_off_gate_negative(self):
        simulator = DeviceSimulator(device_spec("junctionless", "HfO2"))
        assert simulator.off_gate_voltage() < -1.0

    def test_junctionless_high_on_off(self):
        simulator = DeviceSimulator(device_spec("junctionless", "HfO2"))
        assert simulator.on_off_ratio() > 1e7  # paper: ~1e8

    def test_curve_interpolation(self, square_simulator):
        result = square_simulator.output_curve()
        curve = result.curves[Terminal.T1]
        mid = curve.current_at(2.5)
        assert 0.0 < mid <= curve.maximum_current()
