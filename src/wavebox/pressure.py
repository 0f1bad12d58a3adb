"""Pressure reconstruction via a second harmonic solve.

With the Bernoulli gauge, p = -phi_t - |grad phi|^2 / 2.  phi_t is itself
harmonic: its surface trace is -|u|^2/2 (zero surface pressure) and its
wall flux vanishes because the walls are fixed.  The pressure field is
therefore available anywhere in the interior from two sets of panel
Cauchy data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .bem import CauchyData, admissible_interior, eval_interior, solve_mixed_bvp
from .diagnostics import wall_tangential_speed
from .evolution import FlowState
from .geometry import BoundaryMesh

FloatArray = NDArray[np.float64]


def solve_phi_t(state: FlowState) -> CauchyData:
    """Cauchy data of the potential's time derivative on the current mesh."""
    mesh = state.mesh
    return solve_mixed_bvp(mesh, -mesh.surface_panel_values(state.derivative.dphi))


@dataclass(frozen=True)
class PressureField:
    """Everything needed to evaluate p at interior points."""

    mesh: BoundaryMesh
    phi_cauchy: CauchyData
    phi_t_cauchy: CauchyData
    near_field_factor: float

    @classmethod
    def from_state(cls, state: FlowState, near_field_factor: float) -> "PressureField":
        return cls(mesh=state.mesh, phi_cauchy=state.cauchy,
                   phi_t_cauchy=solve_phi_t(state),
                   near_field_factor=near_field_factor)


def pressure_at(field: PressureField, points: FloatArray) -> FloatArray:
    """p = -phi_t - |grad phi|^2 / 2 at interior points."""
    phit, _ = eval_interior(field.mesh, field.phi_t_cauchy, points,
                            field.near_field_factor)
    _, grad = eval_interior(field.mesh, field.phi_cauchy, points,
                            field.near_field_factor)
    return -phit - 0.5 * np.einsum("ij,ij->i", grad, grad)


def interior_lattice(field: PressureField, n_per_side: int) -> FloatArray:
    """Admissible uniform lattice points covering the domain's bounding box."""
    top = float(field.mesh.b[:, 1].max())
    xs = (np.arange(n_per_side) + 0.5) / n_per_side
    ys = (np.arange(n_per_side) + 0.5) / n_per_side * top
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    pts = np.column_stack([X.ravel(), Y.ravel()])
    ok = admissible_interior(field.mesh, pts, field.near_field_factor)
    return pts[ok]


def pressure_min(field: PressureField, n_per_side: int):
    """(min p, max |p|) over the admissible interior lattice."""
    pts = interior_lattice(field, n_per_side)
    if pts.shape[0] == 0:
        raise ValueError("no admissible lattice points (lattice too coarse)")
    p = pressure_at(field, pts)
    return float(p[np.argmin(p)]), float(np.abs(p).max())


def wall_pressure_values(field: PressureField) -> FloatArray:
    """p on the right wall from boundary data only: p = -phi_t - u2^2/2."""
    u2 = wall_tangential_speed(field.mesh, field.phi_cauchy)
    return -field.phi_t_cauchy.values[field.mesh.right_slice] - 0.5 * u2 ** 2


def wall_pressure_integral(field: PressureField) -> float:
    """int_0^1 p(t, 1, x2) dx2 from the right-wall panel data."""
    mesh = field.mesh
    sl = mesh.right_slice
    return float(np.dot(wall_pressure_values(field), mesh.lengths[sl]))

