"""Mode-built initial data and its starting virial value."""

import math

import numpy as np
import pytest

from wavebox.modes import (GAUSS_NODES, GAUSS_WEIGHTS, ModePotential,
                           initial_A, sample_initial_state)
from wavebox.runner import CORNER_TOL

from conftest import assert_same_bits, make_reference_data

# frozen: A for the amplitude-1 reference data, from the closed form
# sum_k a_k (-1)^k cosh(k pi) with a_1 = -1, a_3 = sinh(pi)/(3 sinh(3 pi))
REFERENCE_A = 7.742373439628838


class TestModePotential:
    def test_phi_and_velocity_consistency(self):
        pot = make_reference_data(1.0)
        x1 = np.linspace(0.05, 0.95, 7)
        x2 = np.linspace(0.05, 0.95, 7)
        h = 1e-6
        u1, u2 = pot.velocity(x1, x2)
        fd1 = (pot.phi(x1 + h, x2) - pot.phi(x1 - h, x2)) / (2.0 * h)
        fd2 = (pot.phi(x1, x2 + h) - pot.phi(x1, x2 - h)) / (2.0 * h)
        np.testing.assert_allclose(u1, fd1, atol=1e-6)
        np.testing.assert_allclose(u2, fd2, atol=1e-6)

    def test_harmonic(self):
        pot = make_reference_data(0.7)
        h = 1e-4
        x1, x2 = 0.37, 0.61
        lap = (pot.phi(x1 + h, x2) + pot.phi(x1 - h, x2)
               + pot.phi(x1, x2 + h) + pot.phi(x1, x2 - h)
               - 4.0 * pot.phi(x1, x2)) / h**2
        assert abs(lap) < 1e-5

    def test_corner_conditions(self):
        assert max(make_reference_data(1.0).corner_residuals()) <= CORNER_TOL
        lone = ModePotential(terms=((1, 1.0),))
        assert min(lone.corner_residuals()) > CORNER_TOL

    def test_empty_potential_is_still(self):
        pot = ModePotential(terms=())
        assert pot.phi(0.5, 0.5) == 0.0
        assert pot.corner_residuals() == (0.0, 0.0)

    def test_zero_amplitude_rejected(self):
        with pytest.raises(ValueError):
            make_reference_data(0.0)


class TestGaussRule:
    """The written-out 16-point rule that ``initial_A`` integrates with."""

    def test_bits_of_leggauss(self):
        # report.json's a_quadrature keeps its bits only with these.
        nodes, weights = np.polynomial.legendre.leggauss(16)
        assert_same_bits(GAUSS_NODES, nodes)
        assert_same_bits(GAUSS_WEIGHTS, weights)

    def test_symmetric(self):
        assert_same_bits(GAUSS_NODES, -GAUSS_NODES[::-1])
        assert_same_bits(GAUSS_WEIGHTS, GAUSS_WEIGHTS[::-1])

    def test_integrates_monomials_to_degree_30(self):
        # exact to degree 31: x^k on [-1, 1] is 2/(k+1) for even k, 0 for odd
        errors = [abs(np.dot(GAUSS_WEIGHTS, GAUSS_NODES ** k)
                      - (2.0 / (k + 1) if k % 2 == 0 else 0.0))
                  for k in range(31)]
        assert max(errors) <= 1e-15


class TestInitialA:
    def test_reference_value_frozen(self):
        assert initial_A(make_reference_data(1.0)) == pytest.approx(
            REFERENCE_A, rel=1e-12)

    def test_closed_form(self):
        pot = make_reference_data(1.0)
        closed = sum(a * (-1.0) ** k * math.cosh(k * math.pi)
                     for k, a in pot.terms)
        assert initial_A(pot) == pytest.approx(closed, rel=1e-12)

    def test_linear_in_amplitude(self):
        assert initial_A(make_reference_data(0.25)) == pytest.approx(
            0.25 * REFERENCE_A, rel=1e-12)

    def test_sign_flip(self):
        assert initial_A(make_reference_data(-1.0)) == pytest.approx(
            -REFERENCE_A, rel=1e-12)

    def test_quadrature_order_insensitive(self):
        # the same quadrature as initial_A's, at twice its order
        pot = make_reference_data(1.0)
        nodes, weights = np.polynomial.legendre.leggauss(32)
        x, w = 0.5 * (nodes + 1.0), 0.5 * weights
        X1, X2 = np.meshgrid(x, x, indexing="ij")
        u1, _ = pot.velocity(X1, X2)
        _, u2_wall = pot.velocity(np.ones_like(x), x)
        reference = (np.einsum("i,j,ij->", w, w, u1 * X1)
                     + np.dot(w, x * u2_wall))
        assert initial_A(pot) == pytest.approx(reference, rel=1e-12)


class TestSampleInitialState:
    def test_flat_start(self):
        state = sample_initial_state(make_reference_data(1.0), 33, 8)
        assert state.t == 0.0
        assert state.curve.n_markers == 33
        np.testing.assert_allclose(state.curve.x[:, 1], 1.0)
        pot = make_reference_data(1.0)
        np.testing.assert_allclose(
            state.phi, pot.phi(state.curve.x[:, 0], np.ones(33)))
