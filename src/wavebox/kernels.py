"""Shared numerics: Gauss rules, dense solves, Laplace panel integrals.

The 2D Laplace free-space kernel is G(x,y) = -(1/2pi) ln|x-y|.  All panel
integrals below are closed-form for straight panels with constant density,
so assembly needs no near-singular quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from numpy.typing import NDArray

from .errors import GeometryError, SingularMatrixError

FloatArray = NDArray[np.float64]

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class QuadratureRule:
    nodes: FloatArray
    weights: FloatArray

    def integrate(self, f, lo: float = -1.0, hi: float = 1.0) -> float:
        """Integrate f over [lo, hi] via affine map of the reference rule."""
        half = 0.5 * (hi - lo)
        x = lo + half * (self.nodes + 1.0)
        return float(half * np.dot(self.weights, f(x)))


def gauss_legendre(n: int) -> QuadratureRule:
    """Gauss-Legendre rule with n points on (-1, 1)."""
    if not 1 <= n <= 64:
        raise ValueError(f"gauss_legendre: n must be in [1, 64], got {n}")
    nodes, weights = np.polynomial.legendre.leggauss(n)
    return QuadratureRule(nodes=nodes, weights=weights)


@dataclass(frozen=True)
class DenseSystem:
    matrix: FloatArray
    rhs: FloatArray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.float64)
        r = np.asarray(self.rhs, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or r.shape != (m.shape[0],):
            raise ValueError("DenseSystem: matrix must be n x n with length-n rhs")
        if not (np.isfinite(m).all() and np.isfinite(r).all()):
            raise ValueError("DenseSystem: non-finite entries")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "rhs", r)


def solve_dense(system: DenseSystem) -> FloatArray:
    """LU with partial pivoting; raises SingularMatrixError on tiny pivots."""
    A, b = system.matrix, system.rhs
    lu, piv = scipy.linalg.lu_factor(A, check_finite=False)
    pivot_floor = 1e-13 * np.max(np.sum(np.abs(A), axis=1))
    diag = np.abs(np.diag(lu))
    if np.any(diag < pivot_floor):
        raise SingularMatrixError(
            f"pivot {diag.min():.3e} below threshold {pivot_floor:.3e}")
    return scipy.linalg.lu_solve((lu, piv), b, check_finite=False)


def _local_coords(a, lengths, tangents, normals, targets):
    """Panel-local coordinates of targets: (xi along tangent from a, eta along normal).

    Shapes: targets (m,2), panels (n,...); returns (m,n) arrays u1, u2, eta
    with u1 = -xi, u2 = length - xi (endpoint offsets from the foot point).
    Built from x/y component arrays, so no (m,n,2) temporary is formed.
    """
    rx = np.subtract.outer(targets[:, 0], a[:, 0])
    ry = np.subtract.outer(targets[:, 1], a[:, 1])
    xi = rx * tangents[:, 0]
    xi += ry * tangents[:, 1]
    eta = np.multiply(rx, normals[:, 0], out=rx)
    ry *= normals[:, 1]
    eta += ry
    del ry                  # u2 can then take its storage
    u2 = np.subtract(lengths, xi)
    return np.negative(xi, out=xi), u2, eta


def _arctan_ratio(u: FloatArray, eta: FloatArray, out=None) -> FloatArray:
    """atan(u/eta), +-pi/2 or nan where eta == 0 (callers mask those)."""
    # Plain arctan of the ratio: arctan2 would wrap to +-pi for eta < 0
    # (targets on the interior side) and corrupt the subtended angle.
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.divide(u, eta, out=out)
    return np.arctan(out, out=out)


def _u_log_r_minus_u(u: FloatArray, eta2: FloatArray, out: FloatArray) -> FloatArray:
    """u ln sqrt(u^2 + eta^2) - u into out, with ln r taken as 0 at r = 0."""
    np.multiply(u, u, out=out)
    out += eta2
    at_endpoint = out == 0.0
    with np.errstate(divide="ignore"):
        np.log(out, out=out)
    out[at_endpoint] = 0.0
    out *= 0.5
    out *= u
    out -= u
    return out


def influence_matrices(mesh, targets: FloatArray):
    """Single- and double-layer panel integrals for all (target, panel) pairs.

    Returns (S, D) of shape (m, n):
      S[i,j] = int_panel_j G(x_i, y) ds(y)
      D[i,j] = int_panel_j dG/dn_y(x_i, y) ds(y)   (principal value on-panel)

    In panel-local coordinates S = -(F(u2) - F(u1)) / 2pi with the
    antiderivative F(u) = u ln sqrt(u^2+eta^2) - u + eta atan(u/eta),
    continuous at eta = 0, and D = (atan(u2/eta) - atan(u1/eta)) / 2pi.
    Each arctan is evaluated once and shared by S and D, and each spent
    array's storage takes the next value, so at most six (m,n) arrays are
    live at once.
    """
    targets = np.atleast_2d(np.asarray(targets, dtype=np.float64))
    u1, u2, eta = _local_coords(mesh.a, mesh.lengths, mesh.tangents,
                                mesh.normals, targets)
    on_axis = eta == 0.0
    eta2 = eta * eta

    # F(u2) into S; u2's storage then takes eta*atan(u2/eta), 0 at eta = 0,
    # and next atan(u1/eta).
    D = _arctan_ratio(u2, eta)
    S = _u_log_r_minus_u(u2, eta2, out=np.empty_like(eta))
    eta_atan = np.multiply(eta, D, out=u2)
    eta_atan[on_axis] = 0.0
    S += eta_atan
    atan1 = _arctan_ratio(u1, eta, out=u2)
    D -= atan1
    eta_atan = np.multiply(eta, atan1, out=atan1)
    eta_atan[on_axis] = 0.0
    # Targets on the panel line (self-panel midpoints in particular) get the
    # principal value 0; without the mask, roundoff-scale eta would make the
    # subtended angle flip to +-pi and D to +-1/2.  eta's storage then takes
    # F(u1).
    on_line = np.abs(eta, out=eta) <= 1e-12 * mesh.lengths
    F1 = _u_log_r_minus_u(u1, eta2, out=eta)
    F1 += eta_atan
    S -= F1
    np.negative(S, out=S)
    S /= TWO_PI
    D /= TWO_PI
    D[on_line] = 0.0
    return S, D


def influence_gradients(mesh, targets: FloatArray):
    """Gradients (w.r.t. target) of the single/double layer panel integrals.

    Returns (gradS, gradD), each of shape (m, n, 2).  Targets must be off
    every panel (interior evaluation only).
    """
    targets = np.atleast_2d(np.asarray(targets, dtype=np.float64))
    u1, u2, eta = _local_coords(mesh.a, mesh.lengths, mesh.tangents,
                                mesh.normals, targets)
    eta2 = eta * eta
    r1sq = u1 * u1
    r1sq += eta2
    r2sq = u2 * u2
    r2sq += eta2
    if np.any(r1sq < 1e-28) or np.any(r2sq < 1e-28):
        raise GeometryError("influence_gradients: target coincides with a panel endpoint")
    # grad of int G ds = -(1/2pi) [ t*(-(1/2)ln r^2) + n*atan(u/eta) ] between limits
    neg_dlog = np.log(r2sq)
    neg_dlog -= np.log(r1sq)
    neg_dlog *= 0.5
    np.negative(neg_dlog, out=neg_dlog)
    dang = _arctan_ratio(u2, eta)
    dang -= _arctan_ratio(u1, eta)
    # eta == 0 only for collinear off-panel targets; they subtend zero angle.
    dang[eta == 0.0] = 0.0
    # grad of int dG/dn ds, from d/dx atan(u/eta) = (eta*grad u - u*grad eta)/r^2
    # with grad u = -t, grad eta = n.
    neg_eta = np.negative(eta, out=eta)
    gradS = np.empty(eta.shape + (2,))
    gradD = np.empty(eta.shape + (2,))
    for c in range(2):
        t, n = mesh.tangents[:, c], mesh.normals[:, c]
        gs = np.multiply(neg_dlog, t, out=gradS[..., c])
        gs += dang * n
        np.negative(gs, out=gs)
        gs /= TWO_PI
        base = neg_eta * t
        term2 = base - u2 * n
        term2 /= r2sq
        term1 = np.subtract(base, u1 * n, out=base)
        term1 /= r1sq
        np.subtract(term2, term1, out=gradD[..., c])
        gradD[..., c] /= TWO_PI
    return gradS, gradD
