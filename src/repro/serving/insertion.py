"""Exact incremental vertex insertion: the ground-truth slow serving path.

Inserting a query vertex ``q`` with edge row ``c`` into a fitted graph
and re-minimizing the hard criterion yields the bordered grounded system

    [[ A + diag(c_u),  -c_u ],   [ f_u ]     [ W21 y    ]
     [ -c_u^T,          s   ]] @ [ f_q ]  =  [ c_l^T y  ]

where ``A = D22 - W22`` is the reference grounded Laplacian (already
factorized in the model's :class:`~repro.linalg.workspace.SolveWorkspace`),
``c_l``/``c_u`` split the query's edges by labeled/unlabeled endpoint and
``s = sum(c)`` (the query's self-weight cancels between its degree and
diagonal).  The border alone would be a rank-1 update of the cached
system — the same Gaussian-conditioning algebra as
:mod:`repro.core.incremental` — but the insertion also adds ``diag(c_u)``
to every touched vertex's degree, so no finite low-rank shortcut is
exact.  This module therefore solves the bordered system with
preconditioned CG, using the *cached* factorization of ``A`` as the
preconditioner and the rank-1 border (Schur-complement) solution as the
initial guess: the preconditioned operator is ``I`` plus the
``diag(c_u)`` perturbation, so a handful of back-substitutions converge
to the re-solve answer at tolerance — typically 2-10 iterations.

The soft criterion (``lam > 0``) inserts through the analogous bordered
system on ``V + lam (L + diag(c))``.

Credible intervals come from the Gaussian-field view (the same model as
:mod:`repro.core.uncertainty`): the query's posterior variance is
``sigma^2`` over the extended system's Schur complement,

    Var(f_q) = sigma^2 / (s - c_u^T (A + diag(c_u))^{-1} c_u),

computed exactly with one more preconditioned solve, or approximated to
first order by ``sigma^2 / (s - c_u^T A^{-1} c_u)`` with a single cached
back-substitution (an over-estimate, since ``A + diag(c_u) >= A``; the
exact route kicks in automatically if the approximation degenerates).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from repro.exceptions import ConvergenceError, DataValidationError
from repro.linalg.iterative import pcg
from repro.serving.queries import QueryRow

__all__ = ["InsertionResult", "ExactInserter"]

#: Relative residual tolerance of the bordered solves.  Tight enough
#: that predictions match a from-scratch rebuild-and-resolve to well
#: under the parity suite's 1e-8 bar.
INSERTION_TOL = 1e-12

#: Iteration cap for the bordered solves; the preconditioned operator is
#: a small perturbation of the identity, so hitting this means the
#: system (not the budget) is the problem.
INSERTION_MAX_ITER = 500


@dataclass(frozen=True)
class InsertionResult:
    """One exact insertion: the prediction and the solve effort."""

    prediction: float
    iterations: int


def _require_support(row: QueryRow) -> float:
    total = row.total
    if not total > 0.0:
        raise DataValidationError(
            "exact insertion: query has no reference point within kernel "
            "support; the extended graph would leave it disconnected"
        )
    return total


class ExactInserter:
    """Per-model machinery for exact insertions against cached factors.

    Parameters
    ----------
    weights:
        The fitted reference graph's ``(N, N)`` weight matrix.
    y_labeled:
        Observed labels (length ``n``; labeled vertices first).
    scores:
        The fitted scores over all ``N`` reference vertices.
    workspace:
        The model's :class:`~repro.linalg.workspace.SolveWorkspace`; its
        LRU factorization cache supplies the preconditioner.
    lam:
        ``0.0`` for the hard criterion, else the soft criterion's
        tuning parameter.
    """

    def __init__(self, weights, y_labeled, scores, workspace, *, lam: float = 0.0):
        self.lam = float(lam)
        self.y = np.asarray(y_labeled, dtype=np.float64)
        self.scores = np.asarray(scores, dtype=np.float64)
        self.n = int(self.y.shape[0])
        self.n_total = int(weights.shape[0])
        self.m = self.n_total - self.n
        self.workspace = workspace
        self._sparse = sparse.issparse(weights)
        if self.lam == 0.0:
            if self.m > 0:
                self.system = workspace.hard_system(self.n)
                self.factor = workspace.factorization("hard", 0.0, self.n)
            else:
                self.system = None
                self.factor = None
        else:
            self.system = workspace.soft_system(self.lam, self.n)
            self.factor = workspace.factorization("soft", self.lam, self.n)

    # ------------------------------------------------------------------
    # Row splitting
    # ------------------------------------------------------------------

    def _split(self, row: QueryRow):
        """Split a query row into labeled mass and a dense unlabeled vector."""
        labeled = row.indices < self.n
        rq = float(np.dot(row.weights[labeled], self.y[row.indices[labeled]]))
        cu = np.zeros(self.m)
        unlabeled = ~labeled
        cu[row.indices[unlabeled] - self.n] = row.weights[unlabeled]
        return rq, cu

    # ------------------------------------------------------------------
    # Hard criterion (lam = 0)
    # ------------------------------------------------------------------

    def _insert_hard(self, row: QueryRow) -> InsertionResult:
        s = _require_support(row)
        if self.m == 0:
            # No unlabeled block: the extended grounded system is the
            # 1x1 scalar ``s * f_q = c_l^T y``.
            labeled_mass = float(np.dot(row.weights, self.y[row.indices]))
            return InsertionResult(labeled_mass / s, 0)
        rq, cu = self._split(row)
        f_u0 = self.scores[self.n :]
        g = self.factor.solve(cu)
        denom = s - float(cu @ g)
        if denom > 0:
            f_q0 = (rq + float(cu @ f_u0)) / denom
        else:
            # Degenerate rank-1 border (possible for very strongly
            # coupled queries); fall back to the NW estimate as a guess.
            f_q0 = float(np.dot(row.weights, self.scores[row.indices]) / s)
        x0 = np.concatenate([f_u0 + g * f_q0, [f_q0]])
        rhs = np.concatenate([self._hard_rhs(), [rq]])
        system, factor, m = self.system, self.factor, self.m

        def matvec(v):
            vu, t = v[:m], v[m]
            top = system @ vu + cu * vu - cu * t
            bottom = s * t - float(cu @ vu)
            return np.concatenate([top, [bottom]])

        def precondition(r):
            return np.concatenate([factor.solve(r[:m]), [r[m] / s]])

        result = pcg(
            matvec, rhs, preconditioner=precondition, x0=x0,
            tol=INSERTION_TOL, max_iter=INSERTION_MAX_ITER,
        )
        return InsertionResult(float(result.x[m]), result.iterations)

    def _hard_rhs(self) -> np.ndarray:
        if not hasattr(self, "_cached_hard_rhs"):
            w21 = self.workspace.weights[self.n :, : self.n]
            if self._sparse:
                rhs = np.asarray(w21 @ self.y).ravel()
            else:
                rhs = w21 @ self.y
            self._cached_hard_rhs = rhs
        return self._cached_hard_rhs

    # ------------------------------------------------------------------
    # Soft criterion (lam > 0)
    # ------------------------------------------------------------------

    def _insert_soft(self, row: QueryRow) -> InsertionResult:
        s = _require_support(row)
        lam, total = self.lam, self.n_total
        c = np.zeros(total)
        c[row.indices] = row.weights
        g = self.factor.solve(lam * c)
        denom = lam * s - float(lam * c @ g)
        if denom > 0:
            f_q0 = float(lam * c @ self.scores) / denom
        else:
            f_q0 = float(np.dot(row.weights, self.scores[row.indices]) / s)
        x0 = np.concatenate([self.scores + g * f_q0, [f_q0]])
        rhs = np.concatenate([self._soft_rhs(), [0.0]])
        system, factor = self.system, self.factor

        def matvec(v):
            vu, t = v[:total], v[total]
            top = system @ vu + lam * (c * vu) - lam * c * t
            bottom = lam * (s * t - float(c @ vu))
            return np.concatenate([top, [bottom]])

        def precondition(r):
            return np.concatenate([factor.solve(r[:total]), [r[total] / (lam * s)]])

        result = pcg(
            matvec, rhs, preconditioner=precondition, x0=x0,
            tol=INSERTION_TOL, max_iter=INSERTION_MAX_ITER,
        )
        return InsertionResult(float(result.x[total]), result.iterations)

    def _soft_rhs(self) -> np.ndarray:
        if not hasattr(self, "_cached_soft_rhs"):
            rhs = np.zeros(self.n_total)
            rhs[: self.n] = self.y
            self._cached_soft_rhs = rhs
        return self._cached_soft_rhs

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def insert(self, row: QueryRow) -> InsertionResult:
        """Exactly insert one query; returns its re-solved prediction."""
        if self.lam == 0.0:
            return self._insert_hard(row)
        return self._insert_soft(row)

    def variance(self, row: QueryRow, *, field_scale: float = 1.0, exact: bool = True) -> float:
        """Posterior variance of the query under the Gaussian-field view.

        Only defined for hard-criterion models (``lam = 0``), matching
        :mod:`repro.core.uncertainty`.  ``exact=False`` uses the
        first-order approximation described in the module docstring and
        silently upgrades to the exact solve when that approximation
        degenerates (non-positive Schur estimate).
        """
        if self.lam != 0.0:
            raise DataValidationError(
                "credible intervals are defined for hard-criterion models "
                "only (lam = 0); the soft criterion's Gaussian-field view "
                "has a different covariance"
            )
        s = _require_support(row)
        sigma_sq = float(field_scale) ** 2
        if self.m == 0:
            return sigma_sq / s
        _, cu = self._split(row)
        g = self.factor.solve(cu)
        if not exact:
            denom = s - float(cu @ g)
            if denom > 0:
                return sigma_sq / denom
        factor, system = self.factor, self.system

        def matvec(v):
            return system @ v + cu * v

        v = pcg(
            matvec, cu, preconditioner=factor.solve, x0=g,
            tol=INSERTION_TOL, max_iter=INSERTION_MAX_ITER,
        ).x
        denom = s - float(cu @ v)
        if denom <= 0:
            raise ConvergenceError(
                "insertion variance denominator is non-positive; the "
                "extended grounded system is numerically singular",
                iterations=0,
                residual=float("nan"),
            )
        return sigma_sq / denom
