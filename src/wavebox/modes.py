"""Admissible initial data: harmonic cosine/cosh mode potentials on the unit square.

Each basis term a_k cos(k pi x1) cosh(k pi x2) has zero normal derivative on
all three walls by construction; the corner conditions (zero vertical
velocity at the two pinned corners) constrain the amplitudes.  This module
is the one place that evaluates a mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .evolution import FlowState
from .geometry import flat_interface

FloatArray = NDArray[np.float64]

# The 16-point Gauss-Legendre rule on [-1, 1], bit for bit the nodes and
# weights of np.polynomial.legendre.leggauss(16): the positive nodes and
# their weights, mirrored, since that rule is exactly symmetric.  Written
# out, so that a run loads neither numpy.polynomial nor numpy's own LAPACK
# (leggauss solves an eigenproblem), whose pages would set the run's peak.
_HALF_NODES = np.array([
    0.09501250983763744, 0.2816035507792589, 0.45801677765722737,
    0.6178762444026438, 0.755404408355003, 0.8656312023878318,
    0.9445750230732326, 0.9894009349916499])
_HALF_WEIGHTS = np.array([
    0.18945061045506864, 0.18260341504492364, 0.16915651939500265,
    0.1495959888165767, 0.12462897125553407, 0.0951585116824926,
    0.062253523938647456, 0.027152459411754176])
GAUSS_NODES = np.concatenate([-_HALF_NODES[::-1], _HALF_NODES])
GAUSS_WEIGHTS = np.concatenate([_HALF_WEIGHTS[::-1], _HALF_WEIGHTS])
GAUSS_NODES.flags.writeable = GAUSS_WEIGHTS.flags.writeable = False


@dataclass(frozen=True)
class ModePotential:
    """Sum of cosine/cosh harmonic modes: phi0 = sum a_k cos(k pi x1) cosh(k pi x2)."""

    terms: tuple[tuple[int, float], ...]

    def phi(self, x1, x2):
        x1 = np.asarray(x1, dtype=np.float64)
        x2 = np.asarray(x2, dtype=np.float64)
        out = np.zeros(np.broadcast(x1, x2).shape)
        for k, a in self.terms:
            out += a * np.cos(k * np.pi * x1) * np.cosh(k * np.pi * x2)
        return out

    def velocity(self, x1, x2):
        """(u1, u2) = grad phi0."""
        x1 = np.asarray(x1, dtype=np.float64)
        x2 = np.asarray(x2, dtype=np.float64)
        u1 = np.zeros(np.broadcast(x1, x2).shape)
        u2 = np.zeros_like(u1)
        for k, a in self.terms:
            kp = k * np.pi
            u1 += -a * kp * np.sin(kp * x1) * np.cosh(kp * x2)
            u2 += a * kp * np.cos(kp * x1) * np.sinh(kp * x2)
        return u1, u2

    def corner_residuals(self) -> tuple[float, float]:
        """Relative size of u2 at (0,1) and (1,1); both must vanish."""
        scale = sum(abs(a) * k * np.pi * np.sinh(k * np.pi) for k, a in self.terms)
        if scale == 0.0:
            return 0.0, 0.0
        left = sum(a * k * np.pi * np.sinh(k * np.pi) for k, a in self.terms)
        right = sum(a * k * np.pi * (-1.0) ** k * np.sinh(k * np.pi) for k, a in self.terms)
        return abs(left) / scale, abs(right) / scale

    def gradient_bound(self) -> float:
        """sum |a_k| k pi cosh(k pi): a bound on the speed |grad phi0| in the
        unit box; inf beyond float64's range."""
        try:
            return sum(abs(a) * k * math.pi * math.cosh(k * math.pi)
                       for k, a in self.terms)
        except OverflowError:               # math.cosh itself overflowed
            return math.inf


def initial_A(potential: ModePotential) -> float:
    """Starting value of the virial functional, by direct quadrature.

    Interior term: 16-point tensor-product Gauss on the unit square of
    u1 * x1.  Wall term: 1D Gauss of x2 * u2 on the wall x1 = 1.  The
    rule is the written-out ``GAUSS_NODES``/``GAUSS_WEIGHTS``, with the
    bits of ``leggauss(16)``, so no eigensolver runs.
    Independent of the boundary-reduced evaluation used during runs.
    """
    x = 0.5 * (GAUSS_NODES + 1.0)
    w = 0.5 * GAUSS_WEIGHTS
    X1, X2 = np.meshgrid(x, x, indexing="ij")
    u1, _ = potential.velocity(X1, X2)
    interior = float(np.einsum("i,j,ij->", w, w, u1 * X1))
    _, u2_wall = potential.velocity(np.ones_like(x), x)
    wall = float(np.dot(w, x * u2_wall))
    return interior + wall


def sample_initial_state(potential: ModePotential, n_markers: int,
                         wall_panels_per_side: int):
    """Flat-surface state at t=0 with the potential sampled on the interface."""
    curve = flat_interface(n_markers)
    phi = potential.phi(curve.x[:, 0], curve.x[:, 1])
    return FlowState(t=0.0, curve=curve, phi=phi,
                     wall_panels_per_side=wall_panels_per_side)
