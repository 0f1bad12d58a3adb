"""Mixed Dirichlet/Neumann Laplace solver on the panelized fluid boundary.

Direct (Green's identity) collocation at panel midpoints with piecewise-
constant Cauchy data: on each surface panel the potential value is
prescribed and the flux solved; on each wall panel the flux is prescribed
(zero during evolution) and the value solved.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from . import kernels
from .errors import NearBoundaryError
from .geometry import (BC_DIRICHLET_SURFACE, BC_NEUMANN_WALL, BoundaryMesh,
                       point_segment_distance, points_inside)
from .kernels import DenseSystem, solve_dense

FloatArray = NDArray[np.float64]

DEFAULT_NEAR_FIELD_FACTOR = 2.0


@dataclass(frozen=True)
class CauchyData:
    """Per-panel (value, flux) pair; ``value_prescribed`` marks which side was given."""

    values: FloatArray
    fluxes: FloatArray
    value_prescribed: NDArray[np.bool_]


def solve_mixed_bvp(mesh: BoundaryMesh,
                    dirichlet_on_surface: FloatArray,
                    neumann_on_walls: FloatArray) -> CauchyData:
    """Solve the collocation boundary-integral system for the missing data.

    Collocation equation at panel midpoint i (flat-panel coefficient 1/2):

        sum_j S_ij q_j - sum_j D_ij phi_j - phi_i / 2 = 0
    """
    surf = mesh.bc_kind == BC_DIRICHLET_SURFACE
    wall = mesh.bc_kind == BC_NEUMANN_WALL
    phi_s = np.asarray(dirichlet_on_surface, dtype=np.float64)
    q_w = np.asarray(neumann_on_walls, dtype=np.float64)
    if phi_s.shape != (int(surf.sum()),):
        raise ValueError(f"expected {int(surf.sum())} surface values, got {phi_s.shape}")
    if q_w.shape != (int(wall.sum()),):
        raise ValueError(f"expected {int(wall.sum())} wall fluxes, got {q_w.shape}")

    n = mesh.n_panels
    sl = mesh.surface_slice
    S, D = kernels.influence_matrices(mesh, mesh.midpoints)
    D[np.diag_indices(n)] += 0.5             # D + I/2

    rhs = np.empty(n + 1)
    # Mask-selected columns come out Fortran-ordered, which picks BLAS's
    # column-sweeping gemv; a C-ordered slice view would sum in another order.
    rhs[:n] = D[:, surf] @ phi_s - S[:, wall] @ q_w
    rhs[n] = -float(np.dot(mesh.lengths[wall], q_w))
    A = np.empty((n + 1, n + 1))
    A[:n, sl] = S[:, sl]                     # unknown surface fluxes
    np.negative(D[:, :sl.start], out=A[:n, :sl.start])   # unknown wall values
    np.negative(D[:, sl.stop:], out=A[:n, sl.stop:n])
    # Exact discrete compatibility: the net boundary flux of a harmonic
    # function vanishes, but midpoint collocation only gets it to truncation
    # error.  A Lagrange multiplier spread over all collocation equations
    # enforces sum(length * flux) = 0 without degrading the solve.
    A[:n, n] = 1.0
    A[n, :n] = np.where(surf, mesh.lengths, 0.0)
    A[n, n] = 0.0

    z = solve_dense(DenseSystem(matrix=A, rhs=rhs))[:n]

    values = np.empty(n)
    fluxes = np.empty(n)
    values[surf] = phi_s
    fluxes[surf] = z[surf]
    values[wall] = z[wall]
    fluxes[wall] = q_w
    return CauchyData(values=values, fluxes=fluxes, value_prescribed=surf.copy())


def solve_surface_dirichlet(mesh: BoundaryMesh, surface_potential: FloatArray) -> CauchyData:
    """Full Cauchy data for Dirichlet surface values and zero wall flux."""
    q_w = np.zeros(int((mesh.bc_kind == BC_NEUMANN_WALL).sum()))
    return solve_mixed_bvp(mesh, surface_potential, q_w)


def admissible_interior(mesh: BoundaryMesh, points: FloatArray,
                        near_field_factor: float = DEFAULT_NEAR_FIELD_FACTOR):
    """Mask of points strictly inside and outside the near-field band.

    The band width is near_field_factor times the length of the closest panel.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    dist = point_segment_distance(pts, mesh.a, mesh.b)
    nearest = np.argmin(dist, axis=1)
    d_min = near_field_factor * mesh.lengths[nearest]
    inside = points_inside(mesh, pts)
    return inside & (dist[np.arange(pts.shape[0]), nearest] >= d_min)


def eval_interior(mesh: BoundaryMesh, cauchy: CauchyData, points: FloatArray,
                  near_field_factor: float = DEFAULT_NEAR_FIELD_FACTOR):
    """Representation-formula potential and gradient at interior points.

        phi(x) = sum_j S_j(x) q_j - sum_j D_j(x) phi_j

    Raises NearBoundaryError if any point is outside the domain or inside
    the near-field exclusion band.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    ok = admissible_interior(mesh, pts, near_field_factor)
    if not ok.all():
        bad = np.nonzero(~ok)[0]
        raise NearBoundaryError(
            f"{bad.size} point(s) outside the domain or in the near-field band",
            bad_indices=bad)
    S, D = kernels.influence_matrices(mesh, pts)
    gS, gD = kernels.influence_gradients(mesh, pts)
    values = S @ cauchy.fluxes - D @ cauchy.values
    gradients = (np.einsum("mnj,n->mj", gS, cauchy.fluxes)
                 - np.einsum("mnj,n->mj", gD, cauchy.values))
    return values, gradients
