"""Laplace solver on the panelized fluid boundary of the fixed box.

Direct (Green's identity) collocation at panel midpoints with piecewise-
constant Cauchy data.  The box poses one problem: the potential value is
given on each free-surface panel and its flux solved, while the fixed
walls carry zero flux and their values are solved.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from . import kernels
from .errors import NearBoundaryError
from .geometry import BoundaryMesh, point_segment_distance, points_inside
from .kernels import DenseSystem, solve_dense

FloatArray = NDArray[np.float64]


@dataclass(frozen=True)
class CauchyData:
    """Per-panel (value, flux) pair on the whole boundary.

    Each array is (n,), or (k, n) for a stack of k solves, one per row.
    """

    values: FloatArray
    fluxes: FloatArray


def solve_mixed_bvp(mesh: BoundaryMesh, surface_potential: FloatArray) -> CauchyData:
    """Cauchy data for given surface values and zero wall flux.

    Collocation equation at panel midpoint i (flat-panel coefficient 1/2):

        sum_j S_ij q_j - sum_j D_ij phi_j - phi_i / 2 = 0

    The walls carry zero flux, so S is formed against the surface panels
    only; the walls' fixed block of D comes from a cache per wall count
    (``kernels.influence_matrices`` with ``collocation=True``).

    ``surface_potential`` is one datum (n_surface,) or a stack
    (k, n_surface), one datum per row.  A stack is assembled and factored
    once, and each datum's solution has the bits of its own solve.
    """
    n = mesh.n_panels
    sl = mesh.surface_slice
    phi_s = np.asarray(surface_potential, dtype=np.float64)
    S, D = kernels.influence_matrices(mesh, mesh.midpoints, collocation=True)
    D.reshape(-1)[::n + 1] += 0.5            # D + I/2; D is C-contiguous, so a view

    rhs = np.empty(phi_s.shape[:-1] + (n + 1,))
    # A Fortran-ordered copy of the columns picks BLAS's column-sweeping
    # gemv; a C-ordered slice view would sum in another order.  Each datum
    # gets its own gemv on its row as given, so it sums as a solve of that
    # row alone; one matrix product over the stack would not.
    D_surface = np.asfortranarray(D[:, sl])
    for datum, b in zip(np.atleast_2d(phi_s), np.atleast_2d(rhs)):
        b[:n] = D_surface @ datum
    rhs[..., n] = 0.0
    A = np.empty((n + 1, n + 1))
    A[:n, sl] = S                            # unknown surface fluxes
    np.negative(D[:, :sl.start], out=A[:n, :sl.start])   # unknown wall values
    np.negative(D[:, sl.stop:], out=A[:n, sl.stop:n])
    # Exact discrete compatibility: the net boundary flux of a harmonic
    # function vanishes, but midpoint collocation only gets it to truncation
    # error.  A Lagrange multiplier spread over all collocation equations
    # enforces sum(length * flux) = 0 without degrading the solve.
    A[:n, n] = 1.0
    A[n, :n] = 0.0
    A[n, sl] = mesh.lengths[sl]
    A[n, n] = 0.0

    z = solve_dense(DenseSystem(matrix=A, rhs=rhs))[..., :n]

    values = z.copy()
    values[..., sl] = phi_s
    fluxes = np.zeros(z.shape)
    fluxes[..., sl] = z[..., sl]
    return CauchyData(values=values, fluxes=fluxes)


def admissible_interior(mesh: BoundaryMesh, points: FloatArray,
                        near_field_factor: float):
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
                  near_field_factor: float):
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
