"""Time evolution of the free surface.

Markers are material points advected by the fluid velocity; the surface
potential follows them with d(phi)/dt = |u|^2 / 2 (Bernoulli with zero
surface pressure and no gravity, constant absorbed into phi).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.typing import NDArray

from .bem import CauchyData, solve_mixed_bvp
from .errors import BreakdownError, GeometryError, SingularMatrixError
from .geometry import (CORNER_LEFT, CORNER_RIGHT, BoundaryMesh, InterfaceCurve,
                       build_boundary_mesh, gradient_1d, row_norms)

FloatArray = NDArray[np.float64]


@dataclass(frozen=True)
class StateDerivative:
    velocity: FloatArray       # (n,2) marker velocities
    dphi: FloatArray           # (n,) material derivative of surface potential
    corner_residual: float     # pre-projection corner speed / max speed


@dataclass(frozen=True)
class FlowState:
    """Immutable snapshot of the surface state at one time."""

    t: float
    curve: InterfaceCurve
    phi: FloatArray
    wall_panels_per_side: int

    def __post_init__(self):
        object.__setattr__(self, "phi", np.ascontiguousarray(self.phi, dtype=np.float64))

    @cached_property
    def mesh(self) -> BoundaryMesh:
        return build_boundary_mesh(self.curve, self.wall_panels_per_side)

    @cached_property
    def cauchy(self) -> CauchyData:
        """Cauchy data of the surface potential (zero wall flux)."""
        mesh = self.mesh
        return solve_mixed_bvp(mesh, mesh.surface_panel_values(self.phi))

    @cached_property
    def derivative(self) -> StateDerivative:
        """Marker velocities and d(phi)/dt from the Cauchy data; corners projected to zero.

        Normal component from the solved surface flux (panel midpoints
        averaged to markers), tangential component from differencing phi in
        the curve's arclength, along its marker frame; the curve forms both
        from its segment table.  The arrays are read-only, since every caller
        shares them.
        """
        mesh = self.mesh
        q_panels = mesh.marker_panel_from_surface(self.cauchy.fluxes[mesh.surface_slice])
        q = np.concatenate([q_panels[:1], 0.5 * (q_panels[:-1] + q_panels[1:]),
                            q_panels[-1:]])

        phi_s = gradient_1d(self.phi, self.curve.arclength())
        tangents, normals = self.curve.marker_frame()
        u = q[:, None] * normals + phi_s[:, None] * tangents

        speeds = row_norms(u)
        max_speed = float(speeds.max())
        corner_speed = float(max(speeds[0], speeds[-1]))
        residual = corner_speed / max_speed if max_speed > 0.0 else 0.0
        u[0] = 0.0
        u[-1] = 0.0
        dphi = 0.5 * np.einsum("ij,ij->i", u, u)
        u.flags.writeable = False
        dphi.flags.writeable = False
        return StateDerivative(velocity=u, dphi=dphi, corner_residual=residual)

    def replace(self, *, t, x, phi) -> "FlowState":
        return FlowState(t=float(t), curve=InterfaceCurve(x), phi=phi,
                         wall_panels_per_side=self.wall_panels_per_side)


def state_derivative(state: FlowState) -> StateDerivative:
    """The stepper's right-hand side: the state's cached ``derivative``."""
    return state.derivative


def kinetic_energy(state: FlowState) -> float:
    """E = (1/2) sum phi * flux * length over all panels (discrete boundary energy).

    Kept as 0.5 * np.sum rather than the np.dot of diagnostics'
    Dirichlet energy: the two differ in the last bit, and the golden
    artifact digests pin this form's energy column.
    """
    cauchy = state.cauchy
    return float(0.5 * np.sum(cauchy.values * cauchy.fluxes * state.mesh.lengths))


def rk4_step(state: FlowState, dt: float) -> FlowState:
    """Classical 4-stage step on (marker positions, surface potential).

    Any stage failing with a geometric or solver error aborts the step with
    a BreakdownError recording the stage and reason; its kind is the
    error's ``kind`` (a self-intersection or bottom contact), else
    "solver_failure".
    """
    x0, phi0, t0 = state.curve.x, state.phi, state.t

    def stage(i, xs, phis, ts):
        try:
            st = state.replace(t=ts, x=xs, phi=phis)
            return state_derivative(st)
        except (GeometryError, SingularMatrixError) as exc:
            raise BreakdownError(t0, getattr(exc, "kind", "solver_failure"),
                                 f"stage {i}: {exc}") from exc

    k1 = stage(1, x0, phi0, t0)
    k2 = stage(2, x0 + 0.5 * dt * k1.velocity, phi0 + 0.5 * dt * k1.dphi, t0 + 0.5 * dt)
    k3 = stage(3, x0 + 0.5 * dt * k2.velocity, phi0 + 0.5 * dt * k2.dphi, t0 + 0.5 * dt)
    k4 = stage(4, x0 + dt * k3.velocity, phi0 + dt * k3.dphi, t0 + dt)

    x1 = x0 + (dt / 6.0) * (k1.velocity + 2.0 * k2.velocity + 2.0 * k3.velocity + k4.velocity)
    phi1 = phi0 + (dt / 6.0) * (k1.dphi + 2.0 * k2.dphi + 2.0 * k3.dphi + k4.dphi)
    x1[0] = CORNER_LEFT
    x1[-1] = CORNER_RIGHT
    return state.replace(t=t0 + dt, x=x1, phi=phi1)


def adaptive_dt(state: FlowState, speeds: FloatArray, cfl: float,
                dt_min: float, dt_max: float) -> float:
    """CFL timestep: cfl * min(local spacing / local marker speed), clamped.

    A pre-clamp value below dt_min signals numerical blow-up and raises
    BreakdownError("timestep_collapse").
    """
    ell = state.curve.segment_lengths()
    spacing = np.concatenate([ell[:1], np.minimum(ell[:-1], ell[1:]), ell[-1:]])
    dt = cfl * float(np.min(spacing / (speeds + 1e-30)))
    if dt < dt_min:
        raise BreakdownError(state.t, "timestep_collapse",
                             f"dt {dt:.3e} below dt_min {dt_min:.3e}")
    return min(dt, dt_max)


def _pchip_end_slope(h0, h1, m0, m1):
    """One-sided three-point end slope, zeroed or capped to keep the shape."""
    d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    flip = np.sign(d) != np.sign(m0)
    cap = ~flip & (np.sign(m0) != np.sign(m1)) & (np.abs(d) > 3.0 * np.abs(m0))
    return np.where(flip, 0.0, np.where(cap, 3.0 * m0, d))


def _pchip(s: FloatArray, y: FloatArray, x: FloatArray) -> FloatArray:
    """Monotone cubic interpolant, on knots ``s``, of each column of ``y``, at ``x``.

    Fritsch-Carlson slopes with Moler's end rule, bit for bit as SciPy's
    ``PchipInterpolator``: its slopes, its ``CubicHermiteSpline``
    coefficients, and ``PPoly``'s power sum ``c3 + c2*z + c1*z + c0*z``
    with ``z *= sigma`` before each term (Horner's rule differs in the last
    bit).  Needs at least three knots and ``s[0] <= x <= s[-1]``.
    """
    if not (np.isfinite(s).all() and np.isfinite(y).all()):
        raise ValueError("interpolation data must be finite")
    h = np.diff(s)[:, None]
    if np.any(h <= 0.0):
        raise ValueError("interpolation knots must increase strictly")
    m = np.diff(y, axis=0) / h
    sign = np.sign(m)
    flat = (sign[1:] != sign[:-1]) | (m[1:] == 0.0) | (m[:-1] == 0.0)
    w1 = 2.0 * h[1:] + h[:-1]
    w2 = h[1:] + 2.0 * h[:-1]
    d = np.empty_like(y)
    with np.errstate(divide="ignore", invalid="ignore"):
        d[1:-1] = np.where(flat, 0.0, 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)))
    d[0] = _pchip_end_slope(h[0], h[1], m[0], m[1])
    d[-1] = _pchip_end_slope(h[-1], h[-2], m[-1], m[-2])
    if not np.isfinite(d).all():
        raise ValueError("interpolation slopes must be finite")
    t = (d[:-1] + d[1:] - 2.0 * m) / h
    c3, c2, c1, c0 = y[:-1], d[:-1], (m - d[:-1]) / h - t, t / h

    i = np.clip(np.searchsorted(s, x, side="right") - 1, 0, len(s) - 2)
    sigma = (x - s[i])[:, None]
    z2 = sigma * sigma
    # PPoly's sum starts from 0.0, which turns a leading -0.0 into +0.0
    return 0.0 + c3[i] + c2[i] * sigma + c1[i] * z2 + c0[i] * (z2 * sigma)


def redistribute_markers(state: FlowState) -> FlowState:
    """Reposition markers to uniform arclength via monotone cubic interpolation.

    Corners stay put; phi is carried along the interpolated curve.
    """
    s = state.curve.arclength()
    s_new = np.linspace(0.0, s[-1], state.curve.n_markers)
    new = _pchip(s, np.column_stack([state.curve.x, state.phi]), s_new)
    x_new = new[:, :2]
    x_new[0] = CORNER_LEFT
    x_new[-1] = CORNER_RIGHT
    return state.replace(t=state.t, x=x_new, phi=new[:, 2])
