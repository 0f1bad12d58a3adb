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

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .bem import CauchyData
from .errors import BreakdownSignal
from .evolution import FlowState
from .geometry import (BoundaryMesh, polygon_area, self_intersects,
                       side_wall_crossing)

FloatArray = NDArray[np.float64]


def constant_c1(initial_mesh: BoundaryMesh) -> float:
    """max(2 |O(0)|, 4/3) — the Riccati comparison constant."""
    return max(2.0 * polygon_area(initial_mesh), 4.0 / 3.0)


def riccati_envelope(A: float, c1: float, t: float) -> float:
    """Exact solution of L' = L^2/c1, L(0) = A; diverges at t = c1/A."""
    if A <= 0.0 or c1 <= 0.0:
        raise ValueError("envelope requires A > 0 and c1 > 0")
    if t < 0.0 or t >= c1 / A:
        raise ValueError(f"t={t} outside [0, c1/A={c1 / A})")
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
        mids = mesh.midpoints[sl]
        seg = np.linalg.norm(np.diff(mids, axis=0), axis=1)
        s = np.concatenate([[0.0], np.cumsum(seg)])
        out[sl] = np.gradient(np.asarray(values[sl], dtype=np.float64), s)
    return out


def boundary_velocity(mesh: BoundaryMesh, cauchy: CauchyData) -> FloatArray:
    """(u1, u2) per panel midpoint: flux * normal + tangential derivative * tangent."""
    phi_s = boundary_tangential_derivative(mesh, cauchy.values)
    return (cauchy.fluxes[:, None] * mesh.normals
            + phi_s[:, None] * mesh.tangents)


def int_u1_squared(mesh: BoundaryMesh, cauchy: CauchyData) -> float:
    """int_O (u1)^2 dx from boundary data only (see module docstring)."""
    dirichlet_energy = float(np.dot(cauchy.values * cauchy.fluxes, mesh.lengths))
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
    dirichlet_energy = float(np.dot(phi_cauchy.values * phi_cauchy.fluxes, mesh.lengths))
    return -boundary_domain_integral(mesh, phi_t_cauchy) - 0.5 * dirichlet_energy


def wall_tangential_speed(mesh: BoundaryMesh, cauchy: CauchyData) -> FloatArray:
    """u2 on the right wall (x1=1), one value per wall panel midpoint.

    On that wall u1 = 0, so the velocity is the tangential derivative of
    the solved wall potential along x2.
    """
    sl = mesh.right_slice
    return np.gradient(cauchy.values[sl], mesh.midpoints[sl, 1])


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


@dataclass
class DiagnosticsRecord:
    """Per-record diagnostics; derivative-based entries are filled in a post-pass."""

    t: float
    L: float
    volume_part: float
    wall_part: float
    envelope: float = np.nan
    residual_26: float = np.nan
    residual_27: float = np.nan
    slack_28: float = np.nan
    schwarz_vol: float = np.nan
    schwarz_wall: float = np.nan
    riccati_slack: float = np.nan
    p_min: float = np.nan
    wall_p_integral: float = np.nan
    energy: float = np.nan
    area: float = np.nan
    dt: float = np.nan
    # retained for the identity residuals, not part of the CSV contract
    int_u1sq: float = np.nan
    int_p: float = np.nan
    wall_u2sq: float = np.nan
    p_absmax: float = np.nan
    corner_residual: float = np.nan

    CSV_FIELDS = ("t", "L", "volume_part", "wall_part", "envelope",
                  "residual_26", "residual_27", "slack_28", "schwarz_vol",
                  "schwarz_wall", "riccati_slack", "p_min", "wall_p_integral",
                  "energy", "area", "dt")


def _check_uniform_times(t: FloatArray):
    dt = np.diff(t)
    if dt.size == 0:
        raise ValueError("need at least two records")
    if np.any(np.abs(dt - dt[0]) > 1e-9 * max(abs(dt[0]), 1e-30)):
        raise ValueError("records are not uniformly spaced in time")
    return float(dt[0])


def identity_residual_26(records: list[DiagnosticsRecord]) -> float:
    """|d/dt volume_part - (int (u1)^2 + int p - wall p integral)| at the middle record."""
    if len(records) != 3:
        raise ValueError("need exactly three consecutive records")
    t = np.array([r.t for r in records])
    dt = _check_uniform_times(t)
    lhs = (records[2].volume_part - records[0].volume_part) / (2.0 * dt)
    mid = records[1]
    rhs = mid.int_u1sq + mid.int_p - mid.wall_p_integral
    return abs(lhs - rhs)


def identity_residual_27(records: list[DiagnosticsRecord]) -> float:
    """|d/dt wall_part - ((1/2) int (u2)^2 dx2 + wall p integral)| at the middle record."""
    if len(records) != 3:
        raise ValueError("need exactly three consecutive records")
    t = np.array([r.t for r in records])
    dt = _check_uniform_times(t)
    lhs = (records[2].wall_part - records[0].wall_part) / (2.0 * dt)
    mid = records[1]
    rhs = 0.5 * mid.wall_u2sq + mid.wall_p_integral
    return abs(lhs - rhs)


def inequality_checks(record: DiagnosticsRecord, area: float, c1: float,
                      dL_dt: float | None = None):
    """Slacks of the growth inequality, both Schwarz bounds, and the Riccati bound.

    Each slack is (greater side) - (lesser side); dL_dt is the discrete
    derivative at this record (None leaves the derivative slacks NaN).
    """
    schwarz_vol = record.int_u1sq * area - record.volume_part ** 2
    schwarz_wall = record.wall_u2sq / 3.0 - record.wall_part ** 2
    slack_28 = np.nan
    riccati_slack = np.nan
    if dL_dt is not None:
        slack_28 = dL_dt - (record.int_u1sq + 0.5 * record.wall_u2sq)
        riccati_slack = dL_dt - record.L ** 2 / c1
    return slack_28, schwarz_vol, schwarz_wall, riccati_slack


def fill_derived(records: list[DiagnosticsRecord], area0: float, c1: float,
                 A: float | None):
    """Post-pass: envelope, identity residuals, and derivative-based slacks.

    Endpoint records use one-sided differences so every entry stays finite;
    acceptance checks only score the centered (interior) records.
    """
    n = len(records)
    if n == 0:
        return
    t = np.array([r.t for r in records])
    L = np.array([r.L for r in records])
    if A is not None and A > 0.0:
        horizon = blowup_bound(A, c1)
        for r in records:
            if r.t < horizon:
                r.envelope = riccati_envelope(A, c1, r.t)
    if n < 2:
        return
    dL = np.gradient(L, t)
    for i, r in enumerate(records):
        s28, sv, sw, rs = inequality_checks(r, area0, c1, dL_dt=float(dL[i]))
        r.slack_28, r.schwarz_vol, r.schwarz_wall, r.riccati_slack = s28, sv, sw, rs
    if n < 3:
        return
    for i in range(1, n - 1):
        triple = records[i - 1:i + 2]
        records[i].residual_26 = identity_residual_26(triple)
        records[i].residual_27 = identity_residual_27(triple)
    records[0].residual_26 = records[1].residual_26
    records[0].residual_27 = records[1].residual_27
    records[-1].residual_26 = records[-2].residual_26
    records[-1].residual_27 = records[-2].residual_27


@dataclass(frozen=True)
class DetectorConfig:
    initial_spacing: float
    curv_max: float
    collide_tol: float = 0.1
    L_max: float = 1e6


def detect_breakdown(state: FlowState, detectors: DetectorConfig,
                     L: float | None = None) -> BreakdownSignal | None:
    """First matching detector in fixed priority order, or None.

    Priority: bottom contact, self-intersection (a side-wall crossing
    included, as in ``build_boundary_mesh``), marker collision,
    curvature blow-up, virial overflow.  Timestep collapse and solver
    failure are raised where they occur (adaptive_dt / rk4_step).
    """
    t = state.t
    x = state.curve.x
    if np.any(x[:, 1] <= 0.0):
        i = int(np.argmin(x[:, 1]))
        return BreakdownSignal(t_break=t, kind="bottom_contact",
                               detail=f"marker {i} at x2={x[i, 1]:.3e}")
    i = side_wall_crossing(state.curve)
    if i is not None:
        return BreakdownSignal(t_break=t, kind="self_intersection",
                               detail=f"marker {i} crosses a side wall at x1={x[i, 0]:.3e}")
    if self_intersects(state.curve):
        return BreakdownSignal(t_break=t, kind="self_intersection",
                               detail="interface polyline crosses itself")
    spacing = state.curve.segment_lengths()
    floor = detectors.collide_tol * detectors.initial_spacing
    if float(spacing.min()) < floor:
        return BreakdownSignal(
            t_break=t, kind="marker_collision",
            detail=f"spacing {spacing.min():.3e} below {floor:.3e}")
    curv = state.curve.turning_curvature()
    if curv.size and float(curv.max()) > detectors.curv_max:
        return BreakdownSignal(
            t_break=t, kind="curvature_blowup",
            detail=f"discrete curvature {curv.max():.3e} above {detectors.curv_max:.3e}")
    if L is not None and abs(L) > detectors.L_max:
        return BreakdownSignal(t_break=t, kind="L_overflow",
                               detail=f"|L|={abs(L):.3e} above {detectors.L_max:.3e}")
    return None
