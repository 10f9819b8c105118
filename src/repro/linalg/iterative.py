"""Iterative linear-system solvers written from scratch.

Three classical methods for ``A x = b``:

* :func:`jacobi` — simultaneous-displacement splitting; its iteration on
  the hard criterion's system *is* Zhu et al.'s label-propagation update
  ``f_u <- D22^{-1}(W22 f_u + W21 y)``.
* :func:`gauss_seidel` — successive displacement; converges faster on the
  same diagonally-dominant systems.
* :func:`conjugate_gradient` — Krylov method for SPD systems; the
  default iterative backend for large graphs.

:func:`pcg` is the one conjugate-gradient recurrence in the library:
:func:`conjugate_gradient` runs it unpreconditioned, and
:func:`~repro.linalg.advanced.preconditioned_conjugate_gradient`, the
solve workspace's anchored and multigrid sweeps and the serving layer's
exact insertions run it with their own preconditioners.

Each returns an :class:`IterativeResult` carrying the solution, iteration
count, and residual history, and raises
:class:`~repro.exceptions.ConvergenceError` when tolerance is not met.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from repro.exceptions import ConvergenceError, DataValidationError
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.utils.validation import check_vector

__all__ = ["IterativeResult", "jacobi", "gauss_seidel", "conjugate_gradient", "pcg"]


@dataclass(frozen=True)
class IterativeResult:
    """Solution of an iterative solve plus convergence evidence.

    Attributes
    ----------
    x:
        Approximate solution vector.
    iterations:
        Iterations actually performed.
    residual_norms:
        2-norm of the residual ``b - A x`` after each iteration.
    converged:
        True when the final relative residual is below tolerance.
    """

    x: np.ndarray
    iterations: int
    residual_norms: tuple[float, ...]
    converged: bool

    @property
    def final_residual(self) -> float:
        return self.residual_norms[-1] if self.residual_norms else float("nan")


def _as_operator(matrix):
    """Return (matvec, diagonal, n) for a dense or sparse square matrix."""
    if sparse.issparse(matrix):
        mat = matrix.tocsr()
        if mat.shape[0] != mat.shape[1]:
            raise DataValidationError(f"matrix must be square, got {mat.shape}")
        return (lambda v: mat @ v), mat.diagonal(), mat.shape[0]
    mat = np.asarray(matrix, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DataValidationError(f"matrix must be square 2-d, got shape {mat.shape}")
    return (lambda v: mat @ v), np.diagonal(mat).copy(), mat.shape[0]


def _prepare(matrix, rhs, x0):
    matvec, diag, n = _as_operator(matrix)
    rhs = check_vector(rhs, "rhs", min_length=0)
    if rhs.shape[0] != n:
        raise DataValidationError(f"rhs length {rhs.shape[0]} does not match matrix size {n}")
    if x0 is None:
        x = np.zeros(n)
    else:
        x = check_vector(x0, "x0", min_length=0).copy()
        if x.shape[0] != n:
            raise DataValidationError(f"x0 length {x.shape[0]} does not match matrix size {n}")
    return matvec, diag, n, rhs, x


def _tolerance_scale(rhs: np.ndarray) -> float:
    norm = float(np.linalg.norm(rhs))
    return norm if norm > 0 else 1.0


def _observe_iterative(solver: str, span, result: IterativeResult) -> IterativeResult:
    """Record one iterative solve into the active span and metrics."""
    if span.recording:
        span.set_attribute("size", int(result.x.shape[0]))
        span.set_attribute("iterations", int(result.iterations))
        span.set_attribute("final_residual", result.final_residual)
        span.set_attribute("converged", result.converged)
    registry = obs_metrics.get_registry()
    registry.counter(f"linalg.{solver}.solves").inc()
    registry.histogram(f"linalg.{solver}.iterations").observe(result.iterations)
    return result


def jacobi(matrix, rhs, *, x0=None, tol: float = 1e-10, max_iter: int = 10_000) -> IterativeResult:
    """Jacobi iteration ``x <- D^{-1} (b - (A - D) x)``.

    Converges when the spectral radius of ``D^{-1}(A - D)`` is below one —
    guaranteed for strictly diagonally dominant systems such as the hard
    criterion's ``D22 - W22`` on graphs where every unlabeled vertex has
    positive weight to the labeled set.
    """
    with obs_trace.span("repro.linalg.jacobi") as span:
        return _observe_iterative(
            "jacobi", span, _jacobi_impl(matrix, rhs, x0=x0, tol=tol, max_iter=max_iter)
        )


def _jacobi_impl(matrix, rhs, *, x0, tol: float, max_iter: int) -> IterativeResult:
    matvec, diag, n, rhs, x = _prepare(matrix, rhs, x0)
    if n and np.any(diag == 0):
        raise DataValidationError("jacobi requires a zero-free diagonal")
    scale = _tolerance_scale(rhs)
    residuals: list[float] = []
    for iteration in range(1, max_iter + 1):
        residual = rhs - matvec(x)
        res_norm = float(np.linalg.norm(residual))
        residuals.append(res_norm)
        if res_norm <= tol * scale:
            return IterativeResult(x, iteration - 1, tuple(residuals), True)
        x = x + residual / diag
    residual = rhs - matvec(x)
    res_norm = float(np.linalg.norm(residual))
    residuals.append(res_norm)
    if res_norm <= tol * scale:
        return IterativeResult(x, max_iter, tuple(residuals), True)
    raise ConvergenceError(
        f"jacobi did not converge in {max_iter} iterations "
        f"(relative residual {res_norm / scale:.3e} > tol {tol:.1e})",
        iterations=max_iter,
        residual=res_norm,
    )


def gauss_seidel(matrix, rhs, *, x0=None, tol: float = 1e-10, max_iter: int = 10_000) -> IterativeResult:
    """Gauss-Seidel iteration (forward sweeps).

    Uses the latest components within each sweep; converges for symmetric
    positive-definite and for strictly diagonally dominant systems.  It
    is successive over-relaxation at ``omega = 1`` and runs that loop.
    """
    with obs_trace.span("repro.linalg.gauss_seidel") as span:
        return _observe_iterative(
            "gauss_seidel",
            span,
            _sor_impl(matrix, rhs, omega=1.0, x0=x0, tol=tol, max_iter=max_iter, name="gauss_seidel"),
        )


def _sor_impl(matrix, rhs, *, omega: float, x0, tol: float, max_iter: int, name: str) -> IterativeResult:
    """Forward SOR sweeps ``x <- (D + ωL)⁻¹ (ωb - (ωU + (ω-1)D) x)``."""
    if sparse.issparse(matrix):
        dense = np.asarray(matrix.todense())
    else:
        dense = np.asarray(matrix, dtype=np.float64)
    if dense.ndim != 2 or dense.shape[0] != dense.shape[1]:
        raise DataValidationError(f"matrix must be square 2-d, got shape {dense.shape}")
    n = dense.shape[0]
    diag = np.diagonal(dense).copy()
    if n and np.any(diag == 0):
        raise DataValidationError(f"{name} requires a zero-free diagonal")
    rhs = check_vector(rhs, "rhs", min_length=0)
    if rhs.shape[0] != n:
        raise DataValidationError(f"rhs length {rhs.shape[0]} does not match matrix size {n}")
    x = np.zeros(n) if x0 is None else check_vector(x0, "x0", min_length=0).copy()
    if x.shape[0] != n:
        raise DataValidationError(f"x0 length {x.shape[0]} does not match matrix size {n}")

    from scipy.linalg import solve_triangular

    sweep_matrix = np.diag(diag) + omega * np.tril(dense, k=-1)
    carry_matrix = omega * np.triu(dense, k=1) + (omega - 1.0) * np.diag(diag)
    scale = _tolerance_scale(rhs)
    residuals: list[float] = []
    for iteration in range(1, max_iter + 1):
        residual = rhs - dense @ x
        res_norm = float(np.linalg.norm(residual))
        residuals.append(res_norm)
        if res_norm <= tol * scale:
            return IterativeResult(x, iteration - 1, tuple(residuals), True)
        x = solve_triangular(sweep_matrix, omega * rhs - carry_matrix @ x, lower=True)
    residual = rhs - dense @ x
    res_norm = float(np.linalg.norm(residual))
    residuals.append(res_norm)
    if res_norm <= tol * scale:
        return IterativeResult(x, max_iter, tuple(residuals), True)
    raise ConvergenceError(
        f"{name}(omega={omega}) did not converge in {max_iter} iterations "
        f"(relative residual {res_norm / scale:.3e} > tol {tol:.1e})",
        iterations=max_iter,
        residual=res_norm,
    )


def conjugate_gradient(matrix, rhs, *, x0=None, tol: float = 1e-10, max_iter: int | None = None) -> IterativeResult:
    """Conjugate gradients for symmetric positive-definite systems.

    Classic Hestenes-Stiefel recurrence (:func:`pcg` without a
    preconditioner) with residual-norm tracking.  ``max_iter`` defaults
    to ``10 n`` (CG terminates in at most ``n`` exact-arithmetic steps;
    the slack absorbs floating-point drift).
    """
    with obs_trace.span("repro.linalg.cg") as span:
        matvec, _, n, rhs, x = _prepare(matrix, rhs, x0)
        if max_iter is None:
            max_iter = max(10 * n, 50)
        return _observe_iterative("cg", span, pcg(matvec, rhs, x0=x, tol=tol, max_iter=max_iter))


def pcg(
    matvec: Callable[[np.ndarray], np.ndarray],
    rhs: np.ndarray,
    *,
    preconditioner: Callable[[np.ndarray], np.ndarray] | None = None,
    x0: np.ndarray | None = None,
    tol: float = 1e-10,
    max_iter: int,
) -> IterativeResult:
    """Preconditioned conjugate gradients on a callable SPD operator.

    ``matvec`` applies ``A``; ``preconditioner`` maps a residual ``r`` to
    ``M⁻¹ r`` (``None`` is plain CG).  Converged when the residual
    2-norm is at most ``tol · ‖rhs‖``.  ``x0`` is copied, never written;
    the iterate, residual and search direction are updated in place.

    Raises :class:`~repro.exceptions.ConvergenceError` carrying the
    iteration and residual at the first non-positive or non-finite
    curvature ``dᵀAd``, at the first non-finite residual (a NaN/Inf from
    the operator or the preconditioner), or after ``max_iter``
    iterations.
    """
    rhs = np.asarray(rhs, dtype=np.float64)
    x = np.zeros(rhs.shape[0]) if x0 is None else np.array(x0, dtype=np.float64)
    scale = _tolerance_scale(rhs)
    residual = rhs - matvec(x)
    res_sq = float(residual @ residual)
    residuals = [math.sqrt(res_sq)]
    if residuals[-1] <= tol * scale:
        return IterativeResult(x, 0, tuple(residuals), True)
    if preconditioner is None:
        direction, rz = residual.copy(), res_sq
    else:
        direction = np.array(preconditioner(residual), dtype=np.float64)
        rz = float(residual @ direction)
    scratch = np.empty_like(x)
    for iteration in range(1, max_iter + 1):
        a_direction = matvec(direction)
        curvature = float(direction @ a_direction)
        if not math.isfinite(curvature) or curvature <= 0:
            raise ConvergenceError(
                f"CG encountered curvature {curvature:.3e} at iteration "
                f"{iteration}; a non-finite value comes from the operator or "
                "preconditioner, a non-positive one means the operator is "
                "not positive definite",
                iterations=iteration,
                residual=residuals[-1],
            )
        step = rz / curvature
        x += np.multiply(direction, step, out=scratch)
        residual -= np.multiply(a_direction, step, out=scratch)
        res_sq = float(residual @ residual)
        residuals.append(math.sqrt(res_sq))
        if not math.isfinite(residuals[-1]):
            raise ConvergenceError(
                f"CG residual became non-finite at iteration {iteration}",
                iterations=iteration,
                residual=residuals[-1],
            )
        if residuals[-1] <= tol * scale:
            return IterativeResult(x, iteration, tuple(residuals), True)
        if preconditioner is None:
            z, new_rz = residual, res_sq
        else:
            z = preconditioner(residual)
            new_rz = float(residual @ z)
        direction *= new_rz / rz
        direction += z
        rz = new_rz
    raise ConvergenceError(
        f"CG did not converge in {max_iter} iterations "
        f"(relative residual {residuals[-1] / scale:.3e} > tol {tol:.1e})",
        iterations=max_iter,
        residual=residuals[-1],
    )
