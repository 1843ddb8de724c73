"""Unit tests for the 2-D current-density field solver and the 1-D Poisson solver."""

import numpy as np
import pytest

from repro.devices.specs import DeviceKind, device_spec
from repro.devices.terminals import DSSS, Terminal, TerminalRole, configuration_by_name
from repro.tcad.electrostatics import surface_potential, threshold_voltage
from repro.tcad.field import assemble_continuity_system, solve_current_density
from repro.tcad.mesh import RectilinearMesh
from repro.tcad.poisson1d import Poisson1DSolver, _solve_tridiagonal

from repro.spice.solvers import scipy_available

#: These cases drive scipy-backed device physics (field solves, root
#: finding, extraction) and skip on a scipy-free install.
requires_scipy = pytest.mark.skipif(
    not scipy_available(), reason="needs the scipy optional extra"
)


class TestMesh:
    def test_spacing(self):
        mesh = RectilinearMesh(11, 21)
        assert mesh.hx == pytest.approx(0.1)
        assert mesh.hy == pytest.approx(0.05)
        assert mesh.node_count == 231

    def test_too_coarse(self):
        with pytest.raises(ValueError):
            RectilinearMesh(2, 10)

    def test_index_and_coordinates(self):
        mesh = RectilinearMesh(11, 11)
        assert mesh.index(0, 0) == 0
        assert mesh.index(10, 10) == 120
        assert mesh.coordinates(5, 5) == (0.5, 0.5)
        with pytest.raises(IndexError):
            mesh.index(11, 0)

    def test_electrode_masks_disjoint(self):
        mesh = RectilinearMesh(41, 41)
        masks = mesh.electrode_masks()
        assert set(masks) == set(Terminal)
        total = np.zeros((41, 41), dtype=int)
        for mask in masks.values():
            assert mask.any()
            total += mask.astype(int)
        assert total.max() == 1  # pads never overlap

    def test_gate_masks_by_shape(self):
        mesh = RectilinearMesh(41, 41)
        square = mesh.gate_mask(DeviceKind.SQUARE)
        cross = mesh.gate_mask(DeviceKind.CROSS)
        junctionless = mesh.gate_mask(DeviceKind.JUNCTIONLESS)
        assert square.sum() > cross.sum()
        assert junctionless.all()

    def test_conductivity_map_contrast(self):
        mesh = RectilinearMesh(41, 41)
        sigma = mesh.conductivity_map(DeviceKind.CROSS)
        assert sigma.max() > 1e3 * sigma.min()


@requires_scipy
class TestCurrentDensityField:
    @pytest.fixture(scope="class")
    def square_field(self):
        return solve_current_density(DeviceKind.SQUARE, mesh=RectilinearMesh(41, 41))

    @pytest.fixture(scope="class")
    def cross_field(self):
        return solve_current_density(DeviceKind.CROSS, mesh=RectilinearMesh(41, 41))

    def test_potential_within_rails(self, square_field):
        assert square_field.potential.max() <= 5.0 + 1e-6
        assert square_field.potential.min() >= -1e-6

    def test_drain_pad_at_drain_voltage(self, square_field):
        mesh = square_field.mesh
        drain_mask = mesh.electrode_masks()[Terminal.T1]
        assert np.allclose(square_field.potential[drain_mask], 5.0, atol=1e-9)

    def test_source_pads_at_ground(self, square_field):
        mesh = square_field.mesh
        for terminal in (Terminal.T2, Terminal.T3, Terminal.T4):
            mask = mesh.electrode_masks()[terminal]
            assert np.allclose(square_field.potential[mask], 0.0, atol=1e-9)

    def test_current_flows(self, square_field):
        assert square_field.magnitude.max() > 0.0
        assert square_field.terminal_current(Terminal.T1) > 0.0

    def test_cross_more_uniform_than_square(self, square_field, cross_field):
        # The paper's Fig. 8 observation: the cross-shaped gate yields a more
        # uniform current profile across the terminals than the square gate.
        assert cross_field.source_uniformity(DSSS) < square_field.source_uniformity(DSSS)

    def test_accepts_spec_argument(self):
        field = solve_current_density(device_spec("square", "HfO2"), mesh=RectilinearMesh(31, 31))
        assert field.magnitude.shape == (31, 31)

    def test_floating_configuration(self):
        field = solve_current_density(
            DeviceKind.SQUARE,
            configuration=configuration_by_name("DSFF"),
            mesh=RectilinearMesh(31, 31),
        )
        # Floating pads are not pinned, so their potential sits between rails.
        masks = field.mesh.electrode_masks()
        floating_potential = field.potential[masks[Terminal.T3]]
        assert floating_potential.min() > -1e-6
        assert floating_potential.max() < 5.0

    def test_crowding_factor_at_least_one(self, square_field):
        assert square_field.crowding_factor() >= 1.0


def _reference_continuity_system(mesh, sigma, configuration, drain_voltage, source_voltage):
    """Node-by-node assembly of the continuity equation (the original loop).

    Kept as the oracle for the vectorized assembler: one LIL entry per
    stencil coefficient, diagonal accumulated over the +x, -x, +y, -y faces.
    """
    from scipy.sparse import lil_matrix

    dirichlet = {}
    for terminal, mask in mesh.electrode_masks().items():
        role = configuration.role_of(terminal)
        if role is TerminalRole.FLOAT:
            continue
        value = drain_voltage if role is TerminalRole.DRAIN else source_voltage
        for j in range(mesh.ny):
            for i in range(mesh.nx):
                if mask[j, i]:
                    dirichlet[mesh.index(i, j)] = value

    n = mesh.node_count
    matrix = lil_matrix((n, n))
    rhs = np.zeros(n)
    for j in range(mesh.ny):
        for i in range(mesh.nx):
            row = mesh.index(i, j)
            if row in dirichlet:
                matrix[row, row] = 1.0
                rhs[row] = dirichlet[row]
                continue
            diag = 0.0
            for di, dj, h in ((1, 0, mesh.hx), (-1, 0, mesh.hx), (0, 1, mesh.hy), (0, -1, mesh.hy)):
                ii, jj = i + di, j + dj
                if not (0 <= ii < mesh.nx and 0 <= jj < mesh.ny):
                    continue
                s_here = sigma[j, i]
                s_there = sigma[jj, ii]
                s_face = 2.0 * s_here * s_there / (s_here + s_there)
                weight = s_face / (h * h)
                matrix[row, mesh.index(ii, jj)] = weight
                diag -= weight
            matrix[row, row] = diag
    return matrix.tocsr(), rhs


@requires_scipy
class TestContinuityAssemblyOracle:
    @pytest.mark.parametrize("nx,ny", [(9, 9), (61, 61), (9, 13)])
    @pytest.mark.parametrize("code", ["DSSS", "DSFS"])
    @pytest.mark.parametrize("kind", list(DeviceKind))
    def test_matches_node_by_node_assembly_bitwise(self, kind, code, nx, ny):
        from scipy.sparse.linalg import spsolve

        mesh = RectilinearMesh(nx, ny)
        sigma = mesh.conductivity_map(kind)
        configuration = configuration_by_name(code)
        matrix, rhs = assemble_continuity_system(mesh, sigma, configuration, 5.0, 0.0)
        reference, reference_rhs = _reference_continuity_system(
            mesh, sigma, configuration, 5.0, 0.0
        )
        assert np.array_equal(matrix.indptr, reference.indptr)
        assert np.array_equal(matrix.indices, reference.indices)
        assert np.array_equal(matrix.data, reference.data)
        assert np.array_equal(rhs, reference_rhs)
        field = solve_current_density(kind, configuration=configuration, mesh=mesh)
        expected = spsolve(reference, reference_rhs).reshape((ny, nx))
        assert np.array_equal(field.potential, expected)


class TestPoisson1D:
    @pytest.fixture(scope="class")
    def solver(self):
        return Poisson1DSolver(device_spec("square", "HfO2"), semiconductor_nodes=121)

    def test_rejects_depletion_device(self):
        with pytest.raises(ValueError):
            Poisson1DSolver(device_spec("junctionless", "HfO2"))

    def test_rejects_coarse_grid(self):
        with pytest.raises(ValueError):
            Poisson1DSolver(device_spec("square", "HfO2"), oxide_nodes=2)

    def test_equilibrium_flat(self, solver):
        from repro.tcad.electrostatics import flat_band_voltage

        result = solver.solve(flat_band_voltage(device_spec("square", "HfO2")))
        assert result.converged
        assert np.max(np.abs(result.potential_v)) < 1e-3

    def test_surface_potential_monotone_in_gate_voltage(self, solver):
        psi = [solver.solve(v).surface_potential_v for v in (0.5, 1.0, 2.0, 4.0)]
        assert all(b >= a for a, b in zip(psi, psi[1:]))

    @requires_scipy
    def test_matches_charge_sheet_model(self, solver):
        spec = device_spec("square", "HfO2")
        gate_v = 3.0
        numeric = solver.solve(gate_v).surface_potential_v
        analytic = surface_potential(spec, gate_v)
        assert numeric == pytest.approx(analytic, abs=0.15)

    def test_inversion_charge_grows_above_threshold(self, solver):
        spec = device_spec("square", "HfO2")
        vth = threshold_voltage(spec)
        below = solver.solve(vth - 0.3).inversion_charge_c_per_m2
        above = solver.solve(vth + 1.5).inversion_charge_c_per_m2
        assert above > 10.0 * max(below, 1e-12)

    def test_hole_density_depleted_at_surface(self, solver):
        result = solver.solve(3.0)
        interface = solver._interface_index
        assert result.hole_density_cm3[interface] < 1e17 * 1e-2

    def test_tridiagonal_solver_matches_numpy(self):
        rng = np.random.default_rng(42)
        n = 12
        lower = rng.uniform(0.1, 1.0, n - 1)
        upper = rng.uniform(0.1, 1.0, n - 1)
        main = rng.uniform(3.0, 4.0, n)
        rhs = rng.uniform(-1.0, 1.0, n)
        matrix = np.diag(main) + np.diag(lower, -1) + np.diag(upper, 1)
        expected = np.linalg.solve(matrix, rhs)
        assert np.allclose(_solve_tridiagonal(lower, main, upper, rhs), expected)

    def test_tridiagonal_dimension_check(self):
        with pytest.raises(ValueError):
            _solve_tridiagonal(np.zeros(1), np.ones(3), np.zeros(1), np.zeros(3))
