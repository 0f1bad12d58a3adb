"""Run diagnostics: the virial functional, its growth identities, and detectors.

Every volume integral needed here is reduced to panel quadratures:

* For harmonic f with Cauchy data (f, q):  int_O f dx = oint (f dw/dn - w q) ds
  with w = |x|^2/4 (Green's second identity, Lap w = 1).
* int_O u1 x1 dx = oint x1 phi n1 ds - int_O phi dx  (divergence theorem).
* int_O |grad phi|^2 dx = oint phi q ds.
* int_O (u1)^2 dx uses that (u1)^2 - (u2)^2 and -2 u1 u2 are the real and
  imaginary parts of the squared complex velocity, hence a conjugate
  harmonic pair: the normal derivative of the first equals the tangential
  derivative of the second, and one integration by parts along the closed
  boundary leaves only undifferentiated boundary velocities.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np
from numpy.typing import NDArray

from .bem import CauchyData
from .errors import BreakdownError
from .evolution import FlowState
from .geometry import (BoundaryMesh, cumulative_arclength, gradient_1d, row_norms,
                       self_intersects, side_wall_crossing)

if TYPE_CHECKING:
    from .runner import RunConfig

FloatArray = NDArray[np.float64]


def constant_c1(initial_area: float) -> float:
    """max(2 |O(0)|, 4/3) — the Riccati comparison constant."""
    return max(2.0 * initial_area, 4.0 / 3.0)


def riccati_envelope(A: float, c1: float, t):
    """Exact solution of L' = L^2/c1, L(0) = A, at a time or an array of times.

    Diverges at t = c1/A; every t must lie in [0, c1/A).  Just below c1/A,
    A t / c1 can round to 1, as at t = nextafter(4/3 / 0.7, 0) with
    A = 0.7, c1 = 4/3; the envelope is then inf, without a warning.
    """
    if A <= 0.0 or c1 <= 0.0:
        raise ValueError("envelope requires A > 0 and c1 > 0")
    t = np.asarray(t, dtype=np.float64)
    if np.any(t < 0.0) or np.any(t >= c1 / A):
        raise ValueError(f"t={t} outside [0, c1/A={c1 / A})")
    with np.errstate(divide="ignore"):
        return A / (1.0 - A * t / c1)


def blowup_bound(A: float, c1: float) -> float:
    """Guaranteed blow-up horizon c1/A of the comparison equation."""
    if A <= 0.0:
        raise ValueError("blow-up bound requires A > 0")
    return c1 / A


def boundary_domain_integral(mesh: BoundaryMesh, cauchy: CauchyData) -> float:
    """int_O f dx for harmonic f given panel Cauchy data."""
    mid = mesh.midpoints
    w = 0.25 * np.einsum("ij,ij->i", mid, mid)
    dw_dn = 0.5 * np.einsum("ij,ij->i", mid, mesh.normals)
    integrand = cauchy.values * dw_dn - w * cauchy.fluxes
    return float(np.dot(integrand, mesh.lengths))


def boundary_tangential_derivative(mesh: BoundaryMesh, values: FloatArray) -> FloatArray:
    """d(values)/ds per panel, differencing each boundary side separately."""
    out = np.empty(mesh.n_panels)
    for sl in (mesh.bottom_slice, mesh.right_slice, mesh.surface_slice, mesh.left_slice):
        s = cumulative_arclength(row_norms(np.diff(mesh.midpoints[sl], axis=0)))
        out[sl] = gradient_1d(np.asarray(values[sl], dtype=np.float64), s)
    return out


def boundary_velocity(mesh: BoundaryMesh, cauchy: CauchyData) -> FloatArray:
    """(u1, u2) per panel midpoint: flux * normal + tangential derivative * tangent."""
    phi_s = boundary_tangential_derivative(mesh, cauchy.values)
    return (cauchy.fluxes[:, None] * mesh.normals
            + phi_s[:, None] * mesh.tangents)


def _dirichlet_energy(mesh: BoundaryMesh, cauchy: CauchyData) -> float:
    """int_O |grad f|^2 dx = oint f q ds for harmonic f."""
    return float(np.dot(cauchy.values * cauchy.fluxes, mesh.lengths))


def int_u1_squared(mesh: BoundaryMesh, cauchy: CauchyData) -> float:
    """int_O (u1)^2 dx from boundary data only (see module docstring)."""
    dirichlet_energy = _dirichlet_energy(mesh, cauchy)
    u = boundary_velocity(mesh, cauchy)
    p_h = u[:, 0] ** 2 - u[:, 1] ** 2
    q_h = -2.0 * u[:, 0] * u[:, 1]
    mid = mesh.midpoints
    dw_dn = 0.5 * np.einsum("ij,ij->i", mid, mesh.normals)
    dw_ds = 0.5 * np.einsum("ij,ij->i", mid, mesh.tangents)
    anisotropy = float(np.dot(p_h * dw_dn + q_h * dw_ds, mesh.lengths))
    return 0.5 * dirichlet_energy + 0.5 * anisotropy


def int_pressure(mesh: BoundaryMesh, phi_cauchy: CauchyData,
                 phi_t_cauchy: CauchyData) -> float:
    """int_O p dx = -int_O phi_t dx - (1/2) int_O |grad phi|^2 dx."""
    return (-boundary_domain_integral(mesh, phi_t_cauchy)
            - 0.5 * _dirichlet_energy(mesh, phi_cauchy))


def wall_tangential_speed(mesh: BoundaryMesh, cauchy: CauchyData) -> FloatArray:
    """u2 on the right wall (x1=1), one value per wall panel midpoint.

    On that wall u1 = 0, so the velocity is the tangential derivative of
    the solved wall potential along x2.
    """
    sl = mesh.right_slice
    return gradient_1d(cauchy.values[sl], mesh.midpoints[sl, 1])


def wall_u2_squared(mesh: BoundaryMesh, cauchy: CauchyData) -> float:
    """int_0^1 (u2(t,1,x2))^2 dx2 on the right wall."""
    u2 = wall_tangential_speed(mesh, cauchy)
    return float(np.dot(u2 ** 2, mesh.lengths[mesh.right_slice]))


def virial_parts(state: FlowState):
    """(L, volume_part, wall_part) of the virial functional.

    volume_part = int_O u1 x1 dx, wall_part = int_0^1 x2 u2(t,1,x2) dx2;
    the wall part integrates by parts to phi(1,1) - int phi(1,x2) dx2.
    """
    mesh = state.mesh
    cauchy = state.cauchy
    flux_term = float(np.dot(mesh.midpoints[:, 0] * cauchy.values * mesh.normals[:, 0],
                             mesh.lengths))
    volume_part = flux_term - boundary_domain_integral(mesh, cauchy)
    sl = mesh.right_slice
    phi_corner = float(state.phi[-1])       # right pinned corner (1,1)
    wall_part = phi_corner - float(np.dot(cauchy.values[sl], mesh.lengths[sl]))
    return volume_part + wall_part, volume_part, wall_part


CSV_FIELDS = ("t", "L", "volume_part", "wall_part", "envelope",
              "residual_26", "residual_27", "slack_28", "schwarz_vol",
              "schwarz_wall", "riccati_slack", "p_min", "wall_p_integral",
              "energy", "area", "dt")
DERIVED_FIELDS = CSV_FIELDS[4:11]     # envelope .. riccati_slack, from fill_derived
# Derived columns whose integrals the CSV lacks, by the record count from
# which ``fill_derived`` writes them finite; below it, NaN.
FINITE_FROM = {"slack_28": 2, "schwarz_vol": 2, "schwarz_wall": 2,
               "residual_26": 3, "residual_27": 3}


def _square(v: float) -> float:
    # Python-float ** 2 goes through libm pow, which rounds some squares
    # differently from numpy's x*x; the frozen artifacts carry pow's bits.
    # A square past float64's range, which pow reports as OverflowError, is
    # inf, as numpy's would be.
    try:
        return v ** 2
    except OverflowError:
        return math.inf


def _squares(column: FloatArray) -> FloatArray:
    return np.array([_square(v) for v in column.tolist()])


def record_steps(t: FloatArray) -> FloatArray:
    """Steps ``np.diff(t)`` between record times, checked.

    Raises ValueError unless the times are finite, strictly increasing and
    uniformly spaced: each step within 1e-9 (relative) of the one before.
    """
    if not np.isfinite(t).all():
        raise ValueError("record times are not all finite")
    dt = np.diff(t)
    if np.any(dt <= 0.0):
        raise ValueError("record times do not increase strictly")
    if np.any(np.abs(dt[1:] - dt[:-1])
              > 1e-9 * np.maximum(np.abs(dt[:-1]), 1e-30)):
        raise ValueError("records are not uniformly spaced in time")
    return dt


def riccati_columns(t: FloatArray, L: FloatArray, c1: float,
                    A: float) -> tuple[FloatArray, FloatArray]:
    """The envelope and riccati_slack columns of ``fill_derived``.

    envelope is A/(1 - A t/c1) before the horizon c1/A, and only for A > 0;
    riccati_slack is L' - L^2/c1 from two records on, with L' from
    ``gradient_1d``.  Every other cell is NaN.  ``verify-identities``
    recomputes the stored columns with it, from A = L(0).
    """
    envelope = np.full(t.size, np.nan)
    if A > 0.0:
        inside = t < blowup_bound(A, c1)
        envelope[inside] = riccati_envelope(A, c1, t[inside])
    slack = np.full(t.size, np.nan)
    if t.size >= 2:
        slack = gradient_1d(L, t) - _squares(L) / c1
    return envelope, slack


def fill_derived(table: dict[str, FloatArray], c1: float, A: float):
    """Add the derived CSV columns to a table of primary record columns.

    * envelope: A/(1 - A t/c1) before the horizon c1/A, and only for A > 0.
    * slack_28, schwarz_vol, schwarz_wall, riccati_slack: (greater side) -
      (lesser side) of the growth inequality, the two Schwarz bounds and
      L' >= L^2/c1, with L' from ``gradient_1d`` (one-sided at the endpoints).
    * residual_26, residual_27: |centered d/dt of volume_part (wall_part)
      - right side of its growth identity|; the endpoints copy their
      neighbour.

    From two records on every slack is finite, and from three every
    residual (``FINITE_FROM``); acceptance checks only score the interior
    records.
    """
    t = table["t"]
    L = table["L"]
    n = t.size
    dt = record_steps(t) if n >= 2 else None
    for name in DERIVED_FIELDS:
        table[name] = np.full(n, np.nan)
    table["envelope"], table["riccati_slack"] = riccati_columns(t, L, c1, A)
    if n < 2:
        return
    int_u1sq = table["int_u1sq"]
    wall_u2sq = table["wall_u2sq"]
    volume_part = table["volume_part"]
    wall_part = table["wall_part"]
    table["slack_28"] = gradient_1d(L, t) - (int_u1sq + 0.5 * wall_u2sq)
    table["schwarz_vol"] = int_u1sq * table["area"][0] - _squares(volume_part)
    table["schwarz_wall"] = wall_u2sq / 3.0 - _squares(wall_part)
    if n < 3:
        return
    two_dt = 2.0 * dt[:-1]
    mid = slice(1, n - 1)
    wall_p = table["wall_p_integral"][mid]
    lhs_26 = (volume_part[2:] - volume_part[:-2]) / two_dt
    rhs_26 = int_u1sq[mid] + table["int_p"][mid] - wall_p
    lhs_27 = (wall_part[2:] - wall_part[:-2]) / two_dt
    rhs_27 = 0.5 * wall_u2sq[mid] + wall_p
    for name, residual in (("residual_26", np.abs(lhs_26 - rhs_26)),
                           ("residual_27", np.abs(lhs_27 - rhs_27))):
        table[name][mid] = residual
        table[name][0] = residual[0]
        table[name][-1] = residual[-1]


def detect_breakdown(state: FlowState, cfg: RunConfig,
                     L: float | None = None) -> None:
    """Raise BreakdownError for the first matching detector, if any.

    Priority: bottom contact, self-intersection (a side-wall crossing
    included, as in ``build_boundary_mesh``), marker collision,
    curvature blow-up, virial overflow.  With n markers, a collision is a
    spacing below ``cfg.collide_tol`` times the initial spacing 1/(n-1),
    and a blow-up a curvature above ``cfg.curv_factor`` times (n-1).
    Timestep collapse and solver failure are raised where they occur
    (adaptive_dt / rk4_step), so every breakdown reaches the record loop
    the same way.
    """
    t = state.t
    x = state.curve.x
    if np.any(x[:, 1] <= 0.0):
        i = int(np.argmin(x[:, 1]))
        raise BreakdownError(t, "bottom_contact", f"marker {i} at x2={x[i, 1]:.3e}")
    i = side_wall_crossing(state.curve)
    if i is not None:
        raise BreakdownError(t, "self_intersection",
                             f"marker {i} crosses a side wall at x1={x[i, 0]:.3e}")
    if self_intersects(state.curve):
        raise BreakdownError(t, "self_intersection", "interface polyline crosses itself")
    n = state.curve.n_markers
    spacing = state.curve.segment_lengths()
    floor = cfg.collide_tol * (1.0 / (n - 1))
    if float(spacing.min()) < floor:
        raise BreakdownError(t, "marker_collision",
                             f"spacing {spacing.min():.3e} below {floor:.3e}")
    curv = state.curve.turning_curvature()
    curv_max = cfg.curv_factor * (n - 1)
    if curv.size and float(curv.max()) > curv_max:
        raise BreakdownError(t, "curvature_blowup",
                             f"discrete curvature {curv.max():.3e} above {curv_max:.3e}")
    if L is not None and abs(L) > cfg.L_max:
        raise BreakdownError(t, "L_overflow", f"|L|={abs(L):.3e} above {cfg.L_max:.3e}")
