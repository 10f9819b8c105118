"""Unit tests for SOR and preconditioned CG."""

import numpy as np
import pytest
from scipy import sparse

from repro.exceptions import ConfigurationError, ConvergenceError, DataValidationError
from repro.linalg.advanced import (
    jacobi_preconditioner,
    preconditioned_conjugate_gradient,
    sor,
)
from repro.linalg.iterative import conjugate_gradient, gauss_seidel


def _spd(rng, n, condition=10.0):
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    eigenvalues = np.linspace(1.0, condition, n)
    return q @ np.diag(eigenvalues) @ q.T


class TestSor:
    def test_solves_spd(self, rng):
        a = _spd(rng, 10)
        x_true = rng.normal(size=10)
        result = sor(a, a @ x_true, omega=1.2, tol=1e-12, max_iter=50_000)
        np.testing.assert_allclose(result.x, x_true, atol=1e-7)

    def test_omega_one_is_gauss_seidel(self, rng):
        a = _spd(rng, 8)
        b = rng.normal(size=8)
        via_sor = sor(a, b, omega=1.0, tol=1e-11, max_iter=50_000)
        via_gs = gauss_seidel(a, b, tol=1e-11, max_iter=50_000)
        assert via_sor.iterations == via_gs.iterations
        assert via_sor.residual_norms == via_gs.residual_norms
        np.testing.assert_array_equal(via_sor.x, via_gs.x)

    def test_over_relaxation_can_accelerate(self, rng):
        """On an ill-conditioned SPD system a good omega beats omega=1."""
        a = _spd(rng, 30, condition=200.0)
        b = rng.normal(size=30)
        plain = sor(a, b, omega=1.0, tol=1e-10, max_iter=200_000)
        accelerated = sor(a, b, omega=1.8, tol=1e-10, max_iter=200_000)
        assert accelerated.iterations < plain.iterations

    def test_invalid_omega_raises(self, rng):
        a = _spd(rng, 4)
        for omega in (0.0, 2.0, -1.0, 2.5):
            with pytest.raises(ConfigurationError):
                sor(a, np.ones(4), omega=omega)

    def test_zero_diagonal_raises(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(DataValidationError, match="diagonal"):
            sor(a, np.ones(2))

    def test_budget_exhaustion_raises(self, rng):
        a = _spd(rng, 20, condition=1000.0)
        with pytest.raises(ConvergenceError):
            sor(a, rng.normal(size=20), omega=0.1, tol=1e-14, max_iter=3)


class TestPreconditionedCg:
    def test_matches_plain_cg_solution(self, rng):
        a = _spd(rng, 15)
        b = rng.normal(size=15)
        plain = conjugate_gradient(a, b, tol=1e-12).x
        pre = preconditioned_conjugate_gradient(a, b, tol=1e-12).x
        np.testing.assert_allclose(pre, plain, atol=1e-8)

    def test_jacobi_preconditioner_helps_on_scaled_system(self, rng):
        """A badly row-scaled SPD system: diagonal preconditioning cuts
        the iteration count."""
        a = _spd(rng, 40)
        scales = np.logspace(0, 3, 40)
        a = scales[:, None] * a * scales[None, :]  # still SPD
        b = rng.normal(size=40)
        plain = conjugate_gradient(a, b, tol=1e-10, max_iter=100_000)
        pre = preconditioned_conjugate_gradient(a, b, tol=1e-10, max_iter=100_000)
        assert pre.iterations < plain.iterations

    def test_custom_preconditioner(self, rng):
        a = _spd(rng, 10)
        b = rng.normal(size=10)
        identity_pre = preconditioned_conjugate_gradient(
            a, b, preconditioner=lambda v: v, tol=1e-12
        )
        plain = conjugate_gradient(a, b, tol=1e-12)
        # Identity preconditioner IS plain CG.
        assert identity_pre.iterations == plain.iterations

    def test_sparse_input(self, rng):
        a = _spd(rng, 12)
        b = rng.normal(size=12)
        dense = preconditioned_conjugate_gradient(a, b, tol=1e-12).x
        sp = preconditioned_conjugate_gradient(sparse.csr_matrix(a), b, tol=1e-12).x
        np.testing.assert_allclose(sp, dense, atol=1e-8)

    def test_indefinite_raises(self):
        # Positive diagonal (so the Jacobi preconditioner builds) but
        # indefinite overall: eigenvalues 4 and -2.
        a = np.array([[1.0, 3.0], [3.0, 1.0]])
        with pytest.raises(ConvergenceError, match="positive definite"):
            preconditioned_conjugate_gradient(a, np.array([1.0, -1.0]))

    def test_non_finite_preconditioner_stops_at_first_iteration(self, rng):
        """A NaN from the preconditioner (e.g. a float32 V-cycle) raises at
        once instead of running the whole budget on NaNs."""
        a = _spd(rng, 12)
        with pytest.raises(ConvergenceError, match="curvature") as info:
            preconditioned_conjugate_gradient(
                a,
                rng.normal(size=12),
                preconditioner=lambda r: np.full_like(r, np.nan),
                max_iter=300,
            )
        assert info.value.iterations == 1
        assert np.isfinite(info.value.residual)

    def test_overflowing_step_stops_at_first_non_finite_residual(self):
        # curvature 4e-320 is positive and finite, but the step overflows
        with pytest.raises(ConvergenceError, match="non-finite") as info:
            conjugate_gradient(1e-320 * np.eye(4), np.ones(4), max_iter=300)
        assert info.value.iterations == 1

    def test_jacobi_preconditioner_validation(self):
        with pytest.raises(DataValidationError, match="positive diagonal"):
            jacobi_preconditioner(np.diag([1.0, 0.0]))

    def test_hard_criterion_system(self, small_problem):
        """PCG solves the grounded Laplacian to direct-solver accuracy."""
        data, weights, _ = small_problem
        n = data.n_labeled
        degrees = weights.sum(axis=1)
        grounded = np.diag(degrees[n:]) - weights[n:, n:]
        rhs = weights[n:, :n] @ data.y_labeled
        direct = np.linalg.solve(grounded, rhs)
        pre = preconditioned_conjugate_gradient(grounded, rhs, tol=1e-12).x
        np.testing.assert_allclose(pre, direct, atol=1e-8)
