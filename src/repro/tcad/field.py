"""2-D current-density field of the device footprint (Fig. 8).

The paper shows current-density vector profiles of the three devices in the
DSSS on-state.  The substitute solves the 2-D continuity equation
``div(sigma grad(phi)) = 0`` over the device footprint with the electrode
pads held at their terminal potentials (T1 at the drain voltage, T2-T4 at
the source voltage) and a sheet conductivity that is high under the gate
region of the particular device shape and negligible elsewhere.  The current
density is then ``J = -sigma grad(phi)``.

This reproduces the qualitative observations of Fig. 8: the square gate
funnels current from the three source pads towards the drain corner-wise
with visible crowding, the cross gate confines it to the arms and yields a
more uniform per-terminal distribution, and the junctionless body conducts
across its whole (tiny) footprint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.devices.specs import DeviceKind, DeviceSpec
from repro.devices.terminals import Terminal, TerminalConfiguration, TerminalRole, DSSS
from repro.tcad.mesh import RectilinearMesh


@dataclass
class CurrentDensityField:
    """Solution of the footprint continuity equation.

    Attributes
    ----------
    mesh:
        The mesh the problem was solved on.
    potential:
        Node potentials, shape (ny, nx) [V].
    jx, jy:
        Current-density components, shape (ny, nx) [A/m, sheet units].
    conductivity:
        The sheet conductivity map used.
    """

    mesh: RectilinearMesh
    potential: np.ndarray
    jx: np.ndarray
    jy: np.ndarray
    conductivity: np.ndarray

    @property
    def magnitude(self) -> np.ndarray:
        """Current-density magnitude, shape (ny, nx)."""
        return np.hypot(self.jx, self.jy)

    def terminal_current(self, terminal: Terminal) -> float:
        """Net current magnitude collected around one electrode pad.

        Integrates the current-density magnitude over the pad boundary ring;
        used to compare how evenly the source terminals share the current.
        """
        masks = self.mesh.electrode_masks()
        pad = masks[terminal]
        ring = _dilate(pad) & ~pad
        return float(np.sum(self.magnitude[ring]))

    def source_uniformity(self, configuration: TerminalConfiguration = DSSS) -> float:
        """Relative spread of the per-source-pad collected currents.

        0 means all source terminals collect the same current; larger values
        mean stronger crowding.  The paper observes the cross-shaped gate is
        more uniform than the square-shaped one.
        """
        currents = [self.terminal_current(t) for t in configuration.sources]
        mean = np.mean(currents)
        if mean == 0.0:
            return 0.0
        return float((np.max(currents) - np.min(currents)) / mean)

    def crowding_factor(self) -> float:
        """Peak-to-mean current density over the conducting region."""
        conducting = self.conductivity > 0.5 * np.max(self.conductivity) * 1e-3
        values = self.magnitude[conducting]
        mean = np.mean(values)
        if mean == 0.0:
            return 0.0
        return float(np.max(values) / mean)


def _dilate(mask: np.ndarray) -> np.ndarray:
    """4-neighbourhood binary dilation without requiring scipy.ndimage."""
    out = mask.copy()
    out[1:, :] |= mask[:-1, :]
    out[:-1, :] |= mask[1:, :]
    out[:, 1:] |= mask[:, :-1]
    out[:, :-1] |= mask[:, 1:]
    return out


def assemble_continuity_system(
    mesh: RectilinearMesh,
    sigma: np.ndarray,
    configuration: TerminalConfiguration = DSSS,
    drain_voltage: float = 5.0,
    source_voltage: float = 0.0,
) -> Tuple["csr_matrix", np.ndarray]:
    """CSR matrix and right-hand side of the discrete continuity equation.

    Node ``(i, j)`` is row ``j * nx + i``.  Electrode-pad nodes of driven
    terminals are Dirichlet rows (``1`` on the diagonal, the terminal
    potential on the right); every other row is the 5-point stencil with
    harmonic-mean face conductivities and an insulating outer boundary.
    The stencil is built one shifted-slice pass per direction (+x, -x, +y,
    -y); the diagonal subtracts the face weights in that order, so the
    matrix is bitwise the one a node-by-node accumulation builds.
    """
    from scipy.sparse import csr_matrix

    ny, nx = mesh.ny, mesh.nx
    n = mesh.node_count
    fixed = np.zeros((ny, nx), dtype=bool)
    rhs = np.zeros((ny, nx))
    for terminal, mask in mesh.electrode_masks().items():
        role = configuration.role_of(terminal)
        if role is TerminalRole.FLOAT:
            continue
        fixed |= mask
        rhs[mask] = drain_voltage if role is TerminalRole.DRAIN else source_voltage

    index = np.arange(n).reshape((ny, nx))
    diag = np.zeros((ny, nx))
    rows, cols, vals = [], [], []
    hx2, hy2 = mesh.hx * mesh.hx, mesh.hy * mesh.hy
    # (node slice, neighbour slice, h^2) for the +x, -x, +y, -y faces; the
    # outer boundary has no face (insulating, zero normal current).
    for at, to, h2 in (
        (np.s_[:, :-1], np.s_[:, 1:], hx2),
        (np.s_[:, 1:], np.s_[:, :-1], hx2),
        (np.s_[:-1, :], np.s_[1:, :], hy2),
        (np.s_[1:, :], np.s_[:-1, :], hy2),
    ):
        s_here, s_there = sigma[at], sigma[to]
        # Harmonic mean of the two cell conductivities across the face.
        weight = 2.0 * s_here * s_there / (s_here + s_there) / h2
        active = ~fixed[at]
        rows.append(index[at][active])
        cols.append(index[to][active])
        vals.append(weight[active])
        diag[at] -= weight
    diag[fixed] = 1.0
    rows.append(index.ravel())
    cols.append(index.ravel())
    vals.append(diag.ravel())
    matrix = csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    )
    return matrix, rhs.ravel()


def solve_current_density(
    spec_or_kind: "DeviceSpec | DeviceKind",
    configuration: TerminalConfiguration = DSSS,
    drain_voltage: float = 5.0,
    source_voltage: float = 0.0,
    mesh: Optional[RectilinearMesh] = None,
) -> CurrentDensityField:
    """Solve the footprint current-density field for one device shape.

    Floating terminals are left without a Dirichlet condition, so the solver
    naturally finds their equilibrium potential.
    """
    kind = spec_or_kind.kind if isinstance(spec_or_kind, DeviceSpec) else spec_or_kind
    if mesh is None:
        mesh = RectilinearMesh(61, 61)

    sigma = mesh.conductivity_map(kind)
    try:
        from scipy.sparse.linalg import spsolve
    except ImportError as error:  # pragma: no cover - depends on environment
        raise ImportError(
            "the current-density field solver needs scipy; install the "
            "optional extra (pip install scipy, or this package's [sparse] extra)"
        ) from error

    matrix, rhs = assemble_continuity_system(
        mesh, sigma, configuration, drain_voltage, source_voltage
    )
    potential = spsolve(matrix, rhs).reshape((mesh.ny, mesh.nx))

    # J = -sigma * grad(phi), central differences in the interior.
    grad_y, grad_x = np.gradient(potential, mesh.hy, mesh.hx)
    jx = -sigma * grad_x
    jy = -sigma * grad_y
    return CurrentDensityField(mesh=mesh, potential=potential, jx=jx, jy=jy, conductivity=sigma)
