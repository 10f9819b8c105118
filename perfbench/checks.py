"""Output checks, run outside every timed region.

Each check compares the program's outputs with something computed
independently of the code path being timed, and counts every output it
judged and every one that failed.  A failure never stops the run: it is
reported as a failed operation against the number attempted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from repro.graph import laplacian

#: Largest accepted relative residual ``|(V + λL) f - (y; 0)| / |y|``.
#: The workspace's PCG stops at 1e-10 on its recurrence residual; the
#: margin absorbs drift between the recurrence and the true residual.
RESIDUAL_TOL = 1e-8

#: Exact insertion must match a rebuild-and-resolve to this (the
#: serving parity tier for ``method="exact"``).
ORACLE_ATOL = 1e-8


@dataclass
class Check:
    """One verdict line: how many outputs were judged and how many failed."""

    name: str
    attempted: int
    failed: int
    detail: str

    @property
    def ok(self) -> bool:
        return self.failed == 0


def sweep_residuals(weights, y, lambdas, score_vectors) -> Check:
    """Relative residual of each λ's scores in ``V + λL``.

    ``L`` is assembled here from the weights through
    :func:`repro.graph.laplacian`, not taken from the workspace that
    solved the systems.
    """
    lap = sparse.csr_matrix(laplacian(weights))
    n = y.shape[0]
    rhs = np.zeros(lap.shape[0])
    rhs[:n] = y
    mask = np.zeros(lap.shape[0])
    mask[:n] = 1.0
    scale = float(np.linalg.norm(rhs)) or 1.0
    worst, failed = 0.0, 0
    for lam, scores in zip(lambdas, score_vectors):
        residual = mask * scores + lam * (lap @ scores) - rhs
        rel = float(np.linalg.norm(residual)) / scale
        if not rel <= RESIDUAL_TOL:  # NaN fails too
            failed += 1
        worst = max(worst, rel) if np.isfinite(rel) else float("inf")
    return Check(
        "sweep.residual",
        len(score_vectors),
        failed,
        f"worst relative residual {worst:.2e} (tol {RESIDUAL_TOL:.0e})",
    )


def bitwise_equal(name: str, batched, looped) -> Check:
    """Batched answers must equal one-at-a-time answers bit for bit."""
    batched = np.asarray(batched)
    looped = np.asarray(looped)
    mismatched = int(np.count_nonzero(batched.view(np.uint64) != looped.view(np.uint64)))
    return Check(name, looped.size, mismatched, f"{mismatched} of {looped.size} differ")


def within_range(name: str, values, lo: float, hi: float) -> Check:
    """Every value must lie in ``[lo, hi]`` (the maximum principle)."""
    values = np.asarray(values)
    bad = int(np.count_nonzero(~((values >= lo) & (values <= hi))))
    return Check(name, values.size, bad, f"{bad} of {values.size} outside [{lo:.4f}, {hi:.4f}]")


def hard_oracle(weights, y, row) -> float:
    """Hard-criterion score of a query vertex, rebuilt and solved from scratch.

    Appends the query's attachment ``row`` (a
    :class:`repro.serving.QueryRow`) to the reference graph as vertex
    ``N`` and solves the grounded system ``(D - W)_uu f_u = W_ul y`` with
    a fresh symmetric-mode SuperLU factorization.  The query's self weight
    cancels between its degree and its diagonal entry, as in any graph
    Laplacian.
    """
    w = sparse.csr_matrix(weights)
    n_total = w.shape[0]
    edge = sparse.csr_matrix(
        (row.weights, (np.zeros(row.indices.size, dtype=np.intp), row.indices)),
        shape=(1, n_total),
    )
    ext = sparse.bmat([[w, edge.T], [edge, None]], format="csr")
    n = y.shape[0]
    degrees = np.asarray(ext.sum(axis=1)).ravel()
    lap = (sparse.diags(degrees) - ext).tocsc()
    grounded = lap[n:, n:]
    rhs = np.asarray(ext[n:, :n] @ y).ravel()
    factor = splu(grounded, permc_spec="MMD_AT_PLUS_A", options={"SymmetricMode": True})
    return float(factor.solve(rhs)[-1])


def oracle_match(predictions, expected) -> Check:
    """Exact insertions against :func:`hard_oracle` at :data:`ORACLE_ATOL`."""
    err = np.abs(np.asarray(predictions) - np.asarray(expected))
    bad = int(np.count_nonzero(~(err <= ORACLE_ATOL)))
    return Check(
        "serve.exact_oracle",
        err.size,
        bad,
        f"max |exact - rebuild| {float(np.max(err)):.2e} (atol {ORACLE_ATOL:.0e})",
    )


def knn_recall(x, weights, k: int, sample: np.ndarray) -> float:
    """Share of each sampled row's true k nearest neighbours kept as edges.

    The truth is brute force over all rows; ties at the k-th distance
    accept any member of the tie set.  Works for any graph engine,
    because it only asks whether the true neighbours are edges.
    """
    w = sparse.csr_matrix(weights)
    hits = 0
    for vertex in sample:
        sq = np.square(x - x[vertex]).sum(axis=1)
        sq[vertex] = np.inf
        kth = np.partition(sq, k - 1)[k - 1]
        truth = np.flatnonzero(sq <= kth)
        edges = w.indices[w.indptr[vertex] : w.indptr[vertex + 1]]
        hits += min(k, int(np.isin(truth, edges).sum()))
    return hits / (k * len(sample))
