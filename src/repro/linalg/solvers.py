"""Unified linear-solver dispatch.

The core criteria reduce to solving symmetric (positive-definite after
reachability holds) systems.  :func:`solve_spd` picks a backend by name:

* ``"direct"`` — dense Cholesky (``scipy.linalg.cho_factor``) with an LU
  fallback for marginally indefinite inputs; sparse inputs stay sparse
  and are routed to the sparse factorization instead of being densified;
* ``"cg"`` — this library's conjugate gradients;
* ``"jacobi"`` / ``"gauss_seidel"`` — classical splittings (Jacobi on the
  hard system is exactly label propagation);
* ``"sparse"`` — symmetric-mode sparse LU (``splu`` with the
  ``MMD_AT_PLUS_A`` fill-reducing ordering, the standard sparse-Cholesky
  stand-in when no supernodal Cholesky is available);
* ``"multigrid"`` — CG preconditioned by a graph-coarsening V-cycle
  (:mod:`repro.linalg.coarsen`): no large factorization, so it scales
  past the splu fill-in wall to N = 10⁵⁺ graph systems.

:func:`factorize_spd` exposes the factorization itself, so callers with
many right-hand sides on one system (multiclass one-vs-rest columns, the
Gaussian-field posterior covariance) factor once and solve repeatedly.

With ``return_info=True`` every backend also reports a :class:`SolveInfo`
(iterations, final residual, convergence flag, and — for sparse
factorizations — input nnz and factor fill-in) so callers and the
telemetry layer in :mod:`repro.obs` can observe solver health instead
of discarding it.  Direct backends only compute the (matvec-costing)
residual when tracing is enabled, keeping the default path at seed speed.
"""

from __future__ import annotations

import math
import warnings
from typing import NamedTuple

import numpy as np
from scipy import linalg as dense_linalg
from scipy import sparse
from scipy.sparse.linalg import splu

from repro import obs
from repro.exceptions import ConfigurationError, SingularSystemError
from repro.linalg.iterative import conjugate_gradient, gauss_seidel, jacobi
from repro.utils.validation import check_vector

__all__ = ["SolveInfo", "SPDFactorization", "factorize_spd", "solve_spd", "solve_square"]

_ITERATIVE = {
    "cg": conjugate_gradient,
    "jacobi": jacobi,
    "gauss_seidel": gauss_seidel,
}


class SolveInfo(NamedTuple):
    """Health report for one linear solve.

    A NamedTuple rather than a dataclass: it is constructed on every
    solve, including the telemetry-disabled path, and tuple construction
    keeps that near-free.

    Attributes
    ----------
    method:
        Backend that actually ran (``"cholesky"``, ``"lu"``,
        ``"sparse_lu"``, ``"cg"``, ``"jacobi"``, ``"gauss_seidel"``) —
        may differ from the requested method when a fallback fires.
    size:
        System dimension.
    iterations:
        Iterations performed (0 for direct factorizations).
    final_residual:
        2-norm of ``b - A x`` after the solve.  ``nan`` for direct
        backends unless tracing is enabled (computing it costs a matvec).
    converged:
        False only when an iterative backend stopped above tolerance
        (currently unreachable through :func:`solve_spd`, which raises;
        kept for callers constructing SolveInfo from raw iterative runs).
    nnz:
        Stored nonzeros of the system matrix, for sparse factorizations
        (``None`` on dense and iterative backends).
    fill_nnz:
        Nonzeros of the computed factors ``L + U``; ``fill_nnz / nnz`` is
        the fill-in ratio the obs probes report (``None`` when not a
        sparse factorization).
    warm_started:
        True when an iterative backend started from a caller-supplied
        ``x0`` rather than the zero vector.
    """

    method: str
    size: int
    iterations: int = 0
    final_residual: float = math.nan
    converged: bool = True
    nnz: int | None = None
    fill_nnz: int | None = None
    warm_started: bool = False


class SPDFactorization:
    """A reusable factorization of one SPD system.

    Dense inputs get a Cholesky factorization (LU fallback for marginally
    semidefinite systems); sparse inputs get a symmetric-mode ``splu``
    with a fill-reducing ordering and are never densified.  ``solve``
    accepts 1-d right-hand sides or 2-d blocks of them, so callers with
    many right-hand sides (multiclass columns, posterior covariances)
    factor once and back-substitute per column.
    """

    def __init__(self, matrix):
        if sparse.issparse(matrix):
            csc = matrix.tocsc()
            self.size = int(csc.shape[0])
            self.nnz: int | None = int(csc.nnz)
            try:
                try:
                    factor = splu(
                        csc,
                        permc_spec="MMD_AT_PLUS_A",
                        options={"SymmetricMode": True},
                    )
                except RuntimeError:
                    # Symmetric mode restricts pivoting; retry with the
                    # default (partial-pivoting) factorization before
                    # declaring the system singular.
                    factor = splu(csc)
            except RuntimeError as exc:
                raise SingularSystemError(
                    f"sparse system is singular: {exc}"
                ) from exc
            self.method = "sparse_lu"
            self.fill_nnz: int | None = int(factor.L.nnz + factor.U.nnz)
            self._solve = factor.solve
            return

        dense = np.asarray(matrix, dtype=np.float64)
        self.size = int(dense.shape[0])
        self.nnz = None
        self.fill_nnz = None
        try:
            cho = dense_linalg.cho_factor(dense, check_finite=False)
            self.method = "cholesky"
            self._solve = lambda rhs: dense_linalg.cho_solve(
                cho, rhs, check_finite=False
            )
        except dense_linalg.LinAlgError:
            # Marginally semidefinite systems (e.g. lambda = 0 soft
            # systems) fall back to LU, raising a library error if truly
            # singular.
            try:
                with warnings.catch_warnings():
                    # lu_factor warns (rather than raises) on an exactly
                    # zero pivot; the check below turns that case into
                    # the library's SingularSystemError.
                    warnings.simplefilter("ignore", dense_linalg.LinAlgWarning)
                    lu, piv = dense_linalg.lu_factor(dense, check_finite=False)
            except (dense_linalg.LinAlgError, ValueError) as exc:
                raise SingularSystemError(
                    f"linear system is singular: {exc}"
                ) from exc
            if np.any(np.abs(np.diagonal(lu)) < np.finfo(np.float64).tiny):
                raise SingularSystemError(
                    "linear system is singular: zero pivot in LU factorization"
                )
            self.method = "lu"
            self._solve = lambda rhs: dense_linalg.lu_solve(
                (lu, piv), rhs, check_finite=False
            )

    def solve(self, rhs) -> np.ndarray:
        """Back-substitute one right-hand side (1-d) or a block (2-d)."""
        rhs = np.asarray(rhs, dtype=np.float64)
        return self._solve(rhs)

    def info(self, *, final_residual: float = math.nan) -> SolveInfo:
        """A :class:`SolveInfo` describing this factorization."""
        return SolveInfo(
            method=self.method,
            size=self.size,
            final_residual=final_residual,
            nnz=self.nnz,
            fill_nnz=self.fill_nnz,
        )


def factorize_spd(matrix) -> SPDFactorization:
    """Factor an SPD matrix once for repeated solves.

    Dense matrices are Cholesky-factored; sparse matrices are factored
    with symmetric-mode sparse LU *without densification*.  Raises
    :class:`~repro.exceptions.SingularSystemError` on singular input.
    """
    return SPDFactorization(matrix)


def _residual_norm(matrix, x, rhs) -> float:
    product = matrix @ x
    if sparse.issparse(matrix):
        product = np.asarray(product).ravel()
    return float(np.linalg.norm(rhs - product))


def solve_square(matrix, rhs) -> np.ndarray:
    """Direct solve of a general square system, dense or sparse.

    Raises :class:`~repro.exceptions.SingularSystemError` on singular
    input instead of numpy's ``LinAlgError``.
    """
    rhs = check_vector(rhs, "rhs", min_length=0)
    try:
        if sparse.issparse(matrix):
            factor = splu(matrix.tocsc())
            return factor.solve(rhs)
        return np.linalg.solve(np.asarray(matrix, dtype=np.float64), rhs)
    except (np.linalg.LinAlgError, RuntimeError) as exc:
        raise SingularSystemError(f"linear system is singular: {exc}") from exc


def solve_spd(
    matrix,
    rhs,
    *,
    method: str = "direct",
    tol: float = 1e-10,
    max_iter: int | None = None,
    x0=None,
    return_info: bool = False,
):
    """Solve a symmetric positive-definite system with a chosen backend.

    Parameters
    ----------
    matrix:
        SPD matrix, dense or scipy sparse.  Sparse matrices are *never*
        densified: ``method="direct"`` routes them to the sparse
        factorization.
    rhs:
        Right-hand-side vector.
    method:
        ``"direct"``, ``"sparse"``, ``"multigrid"`` (coarsening V-cycle
        preconditioned CG, :mod:`repro.linalg.coarsen` — the large-N
        choice when factorization fill-in is prohibitive), ``"cg"``,
        ``"jacobi"`` or ``"gauss_seidel"``.
    tol, max_iter:
        Forwarded to the iterative backends.
    x0:
        Warm-start vector for the iterative backends (they already
        accepted one; this threads it through).  Ignored by the direct
        backends, whose answer does not depend on a starting point.
    return_info:
        When true, return ``(x, SolveInfo)`` instead of just ``x``;
        warm-started iterative solves set ``info.warm_started``.
    """
    rhs = check_vector(rhs, "rhs", min_length=0)
    size = rhs.shape[0]
    if method in ("direct", "sparse"):
        if method == "sparse" and not sparse.issparse(matrix):
            matrix = sparse.csc_matrix(matrix)
        factor = factorize_spd(matrix)
        x = factor.solve(rhs)
        if not return_info:
            return x
        residual = _residual_norm(matrix, x, rhs) if obs.tracing_enabled() else math.nan
        return x, factor.info(final_residual=residual)
    if method == "multigrid":
        # Imported lazily: coarsen builds on this module's factorizations.
        from repro.linalg.coarsen import solve_multigrid

        result = solve_multigrid(matrix, rhs, x0=x0, tol=tol, max_iter=max_iter)
        if not return_info:
            return result.x
        info = SolveInfo(
            method=method,
            size=size,
            iterations=result.iterations,
            final_residual=result.final_residual,
            converged=result.converged,
            warm_started=x0 is not None,
        )
        return result.x, info
    if method in _ITERATIVE:
        kwargs = {"tol": tol}
        if max_iter is not None:
            kwargs["max_iter"] = max_iter
        if x0 is not None:
            kwargs["x0"] = x0
        result = _ITERATIVE[method](matrix, rhs, **kwargs)
        if not return_info:
            return result.x
        info = SolveInfo(
            method=method,
            size=size,
            iterations=result.iterations,
            final_residual=result.final_residual,
            converged=result.converged,
            warm_started=x0 is not None,
        )
        return result.x, info
    known = "direct, sparse, multigrid, " + ", ".join(sorted(_ITERATIVE))
    raise ConfigurationError(f"unknown solver method {method!r}; known: {known}")
