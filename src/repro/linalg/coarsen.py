"""Graph-coarsening multigrid preconditioner for large-N solves.

The soft/hard criteria solve ``(V + λL) f = (y; 0)`` where ``L`` is the
Laplacian of a similarity graph.  Exact sparse factorization tops out
around N ≈ 10⁴ in dimension ≥ 3 (splu fill-in grows super-linearly), and
plain Jacobi-preconditioned CG degrades as λ grows.  This module builds
the standard algebraic-multigrid remedy from the *graph itself*:

1. **Heavy-edge matching** (:func:`heavy_edge_matching`) greedily pairs
   each vertex with its heaviest still-unmatched neighbour, producing
   aggregates of size ≤ 2 — the classic coarsening of Karypis & Kumar's
   METIS and of aggregation AMG.
2. The matching defines a piecewise-constant **aggregation operator**
   ``P`` (one nonzero per row); the coarse graph is the Galerkin product
   ``W_c = PᵀWP`` (:func:`coarsen_weights`), which is again a similarity
   graph, and — the identity everything below relies on —
   ``PᵀL(W)P = L(W_c)``: *the Galerkin coarse operator of a graph
   Laplacian is the Laplacian of the coarsened graph*.
3. Repeating until the graph is small yields a
   :class:`CoarseningHierarchy` (:func:`build_hierarchy`).  The hierarchy
   depends only on the graph — **not** on λ or the labeled mask — so one
   hierarchy serves a whole λ-sweep: at each level,
   ``Pᵀ(V + λL)P = diag(PᵀvV) + λ L(W_c)`` re-assembles in O(nnz) from
   cached parts.
4. One **V-cycle** (:class:`MultigridPreconditioner`) with damped-Jacobi
   pre/post smoothing and an exact factorization at the coarsest level
   is a symmetric positive operator, hence a valid CG preconditioner;
   :func:`solve_multigrid` wraps it around
   :func:`~repro.linalg.advanced.preconditioned_conjugate_gradient`.
   Level transfers are aggregate labels (a ``bincount`` down, a
   fancy-index up).  Its level operators come in two storages:

   * **assembled** — per-level Galerkin CSR matrices from a
     :class:`CoarseningHierarchy`, ``λ L_l + diag(mask_l)`` re-assembled
     per λ;
   * **matrix-free** — from a :class:`MatrixFreeHierarchy` that keeps
     only ``O(N)`` aggregate maps: a coarse level applies
     ``mask_l·v + λ·Pᵀ(L₀(Pv))`` through the fine Laplacian ``L₀`` on
     the fly, and only the coarsest level is assembled.

   Both hierarchies come from the same heavy-edge-matching passes, so
   the two storages run the same algebra.

The continuum-limit literature (Dunlop et al., *Large Data and Zero
Noise Limits of Graph-Based Semi-Supervised Learning*; Calder,
*Consistency of Lipschitz Learning*) is precisely the theory that coarse
graphs approximate fine ones — the coarse-grid correction is solving the
same SSL problem on a subsampled point cloud.

:class:`~repro.linalg.workspace.SolveWorkspace` exposes this as the
``"multigrid"`` sweep backend; :func:`~repro.linalg.solvers.solve_spd`
as ``method="multigrid"`` (extracting the graph from the system's
off-diagonal).  Measured at N=10⁵, d=3, k=10 (20-point λ-sweep): the
hierarchy builds once in ~1 s and each grid point solves in a handful of
V-cycles, where a single exact splu factorization costs ~80 s.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from repro import obs
from repro.exceptions import ConfigurationError, DataValidationError
from repro.linalg.advanced import preconditioned_conjugate_gradient
from repro.linalg.solvers import SPDFactorization, factorize_spd

__all__ = [
    "heavy_edge_matching",
    "aggregation_operator",
    "coarsen_weights",
    "graph_from_system",
    "CoarseLevel",
    "CoarseningHierarchy",
    "build_hierarchy",
    "MatrixFreeHierarchy",
    "build_matrix_free_hierarchy",
    "MultigridPreconditioner",
    "solve_multigrid",
    "DEFAULT_MIN_COARSE_SIZE",
    "DEFAULT_OMEGA",
    "DTYPE_POLICIES",
]

#: Smoothing precision policies.  ``"float64"`` is the historical exact
#: path; ``"float32"`` runs the damped-Jacobi sweeps (and residual
#: transfers between levels) in single precision while the coarsest
#: solve and the outer CG stay float64 — halving smoothing bandwidth at
#: the cost of a slightly weaker preconditioner.  Final solutions are
#: still converged by the float64 outer CG to its tolerance; the parity
#: suite pins the documented RMS tier (see docs/SCALING.md).
DTYPE_POLICIES = ("float64", "float32")

#: Coarsening stops once a level has at most this many vertices; the
#: coarsest level is then solved exactly (one small factorization).
DEFAULT_MIN_COARSE_SIZE = 1024

#: Damped-Jacobi smoothing weight.  ω = 0.7 damps the oscillatory half
#: of the spectrum on graph Laplacians without over-relaxing hubs.
DEFAULT_OMEGA = 0.7

#: Coarsening stalls (stop adding levels) when a matching pass removes
#: fewer than ``1 - STALL_RATIO`` of the vertices — star-like graphs can
#: defeat matching, and a level that barely shrinks only adds cost.
STALL_RATIO = 0.9

#: Default cap on hierarchy depth (a pair-matching hierarchy halves per
#: level, so 32 levels covers any representable graph; the cap guards
#: against stalls that slip past :data:`STALL_RATIO`).
DEFAULT_MAX_LEVELS = 32


def _as_csr(weights) -> sparse.csr_matrix:
    if sparse.issparse(weights):
        return weights.tocsr()
    return sparse.csr_matrix(np.asarray(weights, dtype=np.float64))


def heavy_edge_matching(weights) -> np.ndarray:
    """Aggregate labels from greedy heavy-edge matching.

    Visits vertices in index order; each unmatched vertex is paired with
    its heaviest unmatched neighbour (ties broken toward the smallest
    index, since CSR columns are sorted) or becomes a singleton
    aggregate.  Deterministic by construction.

    Returns an ``(n,)`` integer array mapping each vertex to its
    aggregate id in ``[0, n_coarse)``.
    """
    csr = _as_csr(weights)
    n = csr.shape[0]
    if csr.shape[0] != csr.shape[1]:
        raise DataValidationError(f"weights must be square, got {csr.shape}")
    indptr, indices, data = csr.indptr, csr.indices, csr.data
    labels = np.full(n, -1, dtype=np.intp)
    n_coarse = 0
    for i in range(n):
        if labels[i] >= 0:
            continue
        start, stop = indptr[i], indptr[i + 1]
        row = indices[start:stop]
        candidates = (labels[row] < 0) & (row != i) & (data[start:stop] > 0)
        labels[i] = n_coarse
        if candidates.any():
            weights_i = np.where(candidates, data[start:stop], -np.inf)
            labels[row[int(np.argmax(weights_i))]] = n_coarse
        n_coarse += 1
    return labels


def aggregation_operator(labels: np.ndarray) -> sparse.csr_matrix:
    """The piecewise-constant prolongation ``P`` of an aggregate map.

    ``P`` has shape ``(n, n_coarse)`` with exactly one unit entry per
    row: ``P[i, labels[i]] = 1``.  Its transpose is the restriction
    (summation over aggregates).
    """
    labels = np.asarray(labels, dtype=np.intp)
    n = labels.shape[0]
    if n == 0:
        raise DataValidationError("labels must be non-empty")
    n_coarse = int(labels.max()) + 1
    if labels.min() < 0:
        raise DataValidationError("labels must be non-negative aggregate ids")
    return sparse.csr_matrix(
        (np.ones(n), (np.arange(n), labels)), shape=(n, n_coarse)
    )


def coarsen_weights(weights, prolongation: sparse.csr_matrix) -> sparse.csr_matrix:
    """Galerkin coarse graph ``W_c = PᵀWP`` (symmetric, non-negative).

    Intra-aggregate weights land on the diagonal of ``W_c`` as
    self-loops; like the fine graph's self-weights they cancel in the
    Laplacian quadratic form while keeping the degree bookkeeping
    consistent, so ``L(W_c) = PᵀL(W)P`` holds exactly.
    """
    csr = _as_csr(weights)
    return (prolongation.T @ csr @ prolongation).tocsr()


def _graph_laplacian(weights: sparse.csr_matrix) -> sparse.csr_matrix:
    degrees = np.asarray(weights.sum(axis=1)).ravel()
    return (sparse.diags(degrees, format="csr") - weights).tocsr()


def graph_from_system(matrix) -> sparse.csr_matrix:
    """Recover a similarity graph from an SPD system's off-diagonal.

    For ``A = V + λL(W)`` the off-diagonal is exactly ``-λ w_ij``, so
    ``W ∝ -offdiag(A)`` clipped at zero (positive off-diagonal entries —
    a non-Laplacian system — contribute nothing to the coarsening but do
    not break it).  The result is symmetrized so matching is well
    defined even for slightly asymmetric inputs.
    """
    csr = _as_csr(matrix)
    graph = csr - sparse.diags(csr.diagonal(), format="csr")
    graph = -graph
    graph.data = np.maximum(graph.data, 0.0)
    graph = graph.maximum(graph.T).tocsr()
    graph.eliminate_zeros()
    return graph


@dataclass(frozen=True)
class CoarseLevel:
    """One level of a coarsening hierarchy.

    Attributes
    ----------
    prolongation:
        ``(n_fine, n_coarse)`` aggregation operator ``P`` mapping coarse
        vectors up to the fine level.
    weights:
        Coarse similarity graph ``W_c = PᵀWP``.
    laplacian:
        Its Laplacian ``L(W_c)`` — equal to ``PᵀL(W)P`` by the Galerkin
        identity, precomputed once because it is λ-independent.
    """

    prolongation: sparse.csr_matrix
    weights: sparse.csr_matrix
    laplacian: sparse.csr_matrix

    @property
    def n_fine(self) -> int:
        return int(self.prolongation.shape[0])

    @property
    def n_coarse(self) -> int:
        return int(self.prolongation.shape[1])


@dataclass(frozen=True)
class CoarseningHierarchy:
    """A λ-independent stack of coarse graphs for one similarity graph.

    ``levels[0].prolongation`` maps level-1 (first coarse) vectors to
    the fine graph; deeper levels continue the chain.  For a diagonal
    fine-level term ``diag(v)`` (the labeled-mask ``V`` of the soft
    criterion), :meth:`coarsen_diagonal` returns the per-level Galerkin
    diagonals ``Pᵀ…Pᵀ v`` — diagonal again because ``P`` has orthogonal
    columns of 0/1 entries.
    """

    n_vertices: int
    levels: tuple[CoarseLevel, ...] = field(default_factory=tuple)

    @property
    def sizes(self) -> tuple[int, ...]:
        """Vertex counts per level, finest first."""
        return (self.n_vertices,) + tuple(lvl.n_coarse for lvl in self.levels)

    @property
    def labels(self) -> tuple[np.ndarray, ...]:
        """Per-level aggregate maps: ``P`` has one unit entry per row, so
        its column indices are the matching labels."""
        return tuple(level.prolongation.indices for level in self.levels)

    def coarsen_diagonal(self, values: np.ndarray) -> list[np.ndarray]:
        """Aggregate a fine-level diagonal through every level.

        ``Pᵀ diag(v) P`` is diagonal with entries ``Σ_{i∈agg} v_i``;
        returns one vector per coarse level (finest coarse first).
        """
        values = np.asarray(values, dtype=np.float64).ravel()
        if values.shape[0] != self.n_vertices:
            raise DataValidationError(
                f"diagonal has length {values.shape[0]} but the hierarchy "
                f"was built over {self.n_vertices} vertices"
            )
        out = []
        current = values
        for level in self.levels:
            current = np.asarray(level.prolongation.T @ current).ravel()
            out.append(current)
        return out


def build_hierarchy(
    weights,
    *,
    min_coarse_size: int = DEFAULT_MIN_COARSE_SIZE,
    max_levels: int = DEFAULT_MAX_LEVELS,
) -> CoarseningHierarchy:
    """Coarsen a similarity graph by repeated heavy-edge matching.

    Stops when the coarsest level has at most ``min_coarse_size``
    vertices, after ``max_levels`` levels, or when a matching pass
    stalls (shrinks the graph by less than ``1 -`` :data:`STALL_RATIO`).
    A graph already at or below ``min_coarse_size`` yields an empty
    hierarchy — the V-cycle then degenerates to one exact solve.
    """
    fine, passes = _matching_passes(weights, min_coarse_size, max_levels)
    levels = tuple(
        CoarseLevel(
            prolongation=prolongation,
            weights=coarse,
            laplacian=_graph_laplacian(coarse),
        )
        for _, prolongation, coarse in passes
    )
    return CoarseningHierarchy(n_vertices=int(fine.shape[0]), levels=levels)


def _matching_passes(weights, min_coarse_size: int, max_levels: int, **span_attributes):
    """The heavy-edge-matching loop both hierarchy builders run.

    Validates the stopping parameters, then returns the fine CSR graph
    and a generator yielding ``(labels, prolongation, coarse_weights)``
    per level inside one ``repro.coarsen.hierarchy`` span.  Each level is
    produced from the previous one only when the caller asks for it, so a
    caller that keeps no level matrices holds at most two adjacent levels.
    """
    if min_coarse_size < 1:
        raise ConfigurationError(
            f"min_coarse_size must be >= 1, got {min_coarse_size}"
        )
    if max_levels < 0:
        raise ConfigurationError(f"max_levels must be >= 0, got {max_levels}")
    fine = _as_csr(weights)

    def passes():
        with obs.span(
            "repro.coarsen.hierarchy",
            n_vertices=int(fine.shape[0]),
            min_coarse_size=int(min_coarse_size),
            **span_attributes,
        ) as span:
            current, n_levels = fine, 0
            while current.shape[0] > min_coarse_size and n_levels < max_levels:
                labels = heavy_edge_matching(current)
                if int(labels.max()) + 1 >= STALL_RATIO * current.shape[0]:
                    break
                prolongation = aggregation_operator(labels)
                current = coarsen_weights(current, prolongation)
                n_levels += 1
                yield labels, prolongation, current
            if span.recording:
                span.set_attribute("n_levels", n_levels)
                span.set_attribute("n_coarsest", int(current.shape[0]))
            obs.get_registry().counter("coarsen.hierarchies").inc()

    return fine, passes()


def _csr_bytes(matrix) -> int:
    """Retained bytes of a CSR matrix (data + indices + indptr)."""
    return int(
        matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes
    )


def _check_dtype_policy(dtype_policy: str) -> np.dtype:
    if dtype_policy not in DTYPE_POLICIES:
        raise ConfigurationError(
            f"dtype_policy must be one of {DTYPE_POLICIES}, "
            f"got {dtype_policy!r}"
        )
    return np.dtype(np.float32 if dtype_policy == "float32" else np.float64)


def _smoothing_cast(matrix, dtype: np.dtype):
    """A smoothing copy of a level system at the work dtype.

    For float64 this is the matrix itself (no copy); for float32 a CSR
    sharing the index structure with single-precision data, so the extra
    footprint is ``4 * nnz`` bytes, not a full second matrix.  A
    :class:`_GalerkinLevel` is built at the work dtype and passes as is.
    """
    if dtype == np.float64 or isinstance(matrix, _GalerkinLevel):
        return matrix
    csr = matrix.tocsr() if sparse.issparse(matrix) else sparse.csr_matrix(matrix)
    return sparse.csr_matrix(
        (csr.data.astype(np.float32), csr.indices, csr.indptr),
        shape=csr.shape,
    )


@dataclass(frozen=True)
class MatrixFreeHierarchy:
    """Aggregate maps of a coarsening hierarchy, without level matrices.

    :class:`CoarseningHierarchy` retains every level's prolongation,
    coarse graph and coarse Laplacian — ``O(Σ nnz_level)`` memory, which
    at N = 10⁶ rivals the fine graph itself several times over.  This
    variant keeps only what the V-cycle *applies*:

    * ``labels[l]`` — the matching at level ``l`` (length ``n_l``),
      driving restriction/prolongation between consecutive levels as a
      ``bincount`` / fancy-index instead of a CSR product;
    * ``composed[l]`` — the fine-to-level-``l+1`` aggregate map (length
      ``N``), so a smoothing-level operator applies as
      ``A_{l+1} v = diag(mask) v + λ · Pᵀ(L₀ (P v))`` against the *fine*
      Laplacian on the fly (the Galerkin identity
      ``PᵀL(W)P = L(PᵀWP)`` makes this exact);
    * ``lap_diagonals[l]`` — ``diag(L_{l+1})``, all the damped-Jacobi
      smoother needs of a level matrix;
    * the **coarsest** level's assembled graph/Laplacian, which stays
      exact (one small factorization per λ).

    Retained memory is ``O(N)`` per level map versus ``O(nnz_level)``
    per assembled level; the trade is that each smoothing sweep on a
    coarse level costs one fine-level SpMV (``O(nnz₀)``) instead of a
    coarse one.  ``level_nnz`` records what each assembled coarse graph
    *would* have stored, so memory-budget gates can compute the naive
    baseline without ever building it.

    The aggregates come from the same :func:`heavy_edge_matching` passes
    as :func:`build_hierarchy` on the same transiently-assembled coarse
    graphs, so the two hierarchies are *identical* as coarsenings — only
    the stored representation differs (pinned by the parity suite).
    """

    n_vertices: int
    fine_laplacian: sparse.csr_matrix
    labels: tuple[np.ndarray, ...] = field(default_factory=tuple)
    composed: tuple[np.ndarray, ...] = field(default_factory=tuple)
    lap_diagonals: tuple[np.ndarray, ...] = field(default_factory=tuple)
    level_nnz: tuple[int, ...] = field(default_factory=tuple)
    coarsest_weights: sparse.csr_matrix | None = None
    coarsest_laplacian: sparse.csr_matrix | None = None

    @property
    def sizes(self) -> tuple[int, ...]:
        """Vertex counts per level, finest first."""
        return (self.n_vertices,) + tuple(
            int(d.shape[0]) for d in self.lap_diagonals
        )

    @property
    def n_levels(self) -> int:
        """Total level count including the fine level."""
        return 1 + len(self.labels)

    def coarsen_diagonal(self, values: np.ndarray) -> list[np.ndarray]:
        """Aggregate a fine-level diagonal through every level.

        Same contract as
        :meth:`CoarseningHierarchy.coarsen_diagonal`: one vector per
        coarse level, finest coarse first — here a ``bincount`` over the
        composed maps instead of CSR products.
        """
        values = np.asarray(values, dtype=np.float64).ravel()
        if values.shape[0] != self.n_vertices:
            raise DataValidationError(
                f"diagonal has length {values.shape[0]} but the hierarchy "
                f"was built over {self.n_vertices} vertices"
            )
        sizes = self.sizes
        return [
            np.bincount(comp, weights=values, minlength=sizes[l + 1])
            for l, comp in enumerate(self.composed)
        ]

    def retained_bytes(self) -> int:
        """Bytes actually held by this hierarchy (maps + coarsest CSRs)."""
        total = sum(arr.nbytes for arr in self.labels)
        total += sum(arr.nbytes for arr in self.composed)
        total += sum(arr.nbytes for arr in self.lap_diagonals)
        if self.coarsest_weights is not None:
            total += _csr_bytes(self.coarsest_weights)
        if self.coarsest_laplacian is not None:
            total += _csr_bytes(self.coarsest_laplacian)
        return int(total)

    def assembled_bytes_estimate(self) -> int:
        """What the assembled float64 hierarchy would retain, in bytes.

        The naive baseline the memory-budget gate compares against: per
        coarse level, the weights CSR plus the Laplacian CSR (same
        sparsity, 12 bytes per stored element at float64 data + int32
        indices) plus the one-entry-per-row prolongation — exactly the
        :class:`CoarseLevel` contents :func:`build_hierarchy` keeps.
        This deliberately *excludes* the per-λ assembled level systems,
        so the estimate understates the true assembled peak and the 40%
        budget derived from it is conservative.
        """
        sizes = self.sizes
        total = 0
        for level, nnz in enumerate(self.level_nnz):
            n_fine, n_coarse = sizes[level], sizes[level + 1]
            total += 2 * (12 * nnz + 4 * (n_coarse + 1))
            total += 12 * n_fine + 4 * (n_fine + 1)
        return int(total)


def build_matrix_free_hierarchy(
    weights,
    *,
    min_coarse_size: int = DEFAULT_MIN_COARSE_SIZE,
    max_levels: int = DEFAULT_MAX_LEVELS,
    fine_laplacian=None,
) -> MatrixFreeHierarchy:
    """Coarsen like :func:`build_hierarchy`, retaining only aggregate maps.

    Runs the identical heavy-edge-matching loop over the identical
    transiently-assembled Galerkin coarse graphs — so the aggregates (and
    therefore the preconditioner's algebra) match
    :func:`build_hierarchy` exactly — but each level's assembled matrix
    is dropped as soon as the next matching pass has consumed it.  Only
    the coarsest graph and its Laplacian are kept for the exact bottom
    solve.  Peak *transient* memory is two adjacent levels; *retained*
    memory is ``O(N)`` maps (see :class:`MatrixFreeHierarchy`).

    Callers that already hold ``L(weights)`` (e.g. a
    :class:`~repro.linalg.workspace.SolveWorkspace`, which assembles it
    for the fine systems anyway) should pass it as ``fine_laplacian`` so
    the hierarchy shares it instead of retaining a second 12-bytes-per-nnz
    copy of the largest matrix in the pipeline.
    """
    fine, passes = _matching_passes(
        weights, min_coarse_size, max_levels, hierarchy_mode="matrix_free"
    )
    if fine_laplacian is None:
        fine_laplacian = _graph_laplacian(fine)
    else:
        fine_laplacian = _as_csr(fine_laplacian)
        if fine_laplacian.shape != fine.shape:
            raise DataValidationError(
                f"fine_laplacian has shape {fine_laplacian.shape} but the "
                f"graph is {fine.shape}"
            )
    labels_per_level: list[np.ndarray] = []
    composed_maps: list[np.ndarray] = []
    lap_diagonals: list[np.ndarray] = []
    level_nnz: list[int] = []
    current = fine
    for labels, _, current in passes:
        labels_per_level.append(labels)
        composed_maps.append(
            labels[composed_maps[-1]] if composed_maps else labels
        )
        degrees = np.asarray(current.sum(axis=1)).ravel()
        lap_diagonals.append(degrees - current.diagonal())
        level_nnz.append(int(current.nnz))
    return MatrixFreeHierarchy(
        n_vertices=int(fine.shape[0]),
        fine_laplacian=fine_laplacian,
        labels=tuple(labels_per_level),
        composed=tuple(composed_maps),
        lap_diagonals=tuple(lap_diagonals),
        level_nnz=tuple(level_nnz),
        coarsest_weights=current,
        coarsest_laplacian=(
            _graph_laplacian(current) if labels_per_level else fine_laplacian
        ),
    )


def _matvec(matrix, vector: np.ndarray) -> np.ndarray:
    product = matrix @ vector
    if sparse.issparse(product):  # pragma: no cover - defensive
        product = product.toarray().ravel()
    return np.asarray(product).ravel()


class _GalerkinLevel:
    """A coarse level system applied through the fine Laplacian.

    ``A v = diag(mask) v + λ · Pᵀ(L₀(P v))`` where ``P`` is the composed
    fine-to-level aggregation: a fancy-index up, a ``bincount`` down.
    The Galerkin identity ``PᵀL(W)P = L(PᵀWP)`` makes this the assembled
    level system exactly, without ever storing it.  ``laplacian`` is
    already at the work dtype ``dtype`` (one smoothing copy shared by
    every level); ``diagonal()`` stays float64 for the smoother.
    """

    def __init__(self, laplacian, composed, mask, lam: float, lap_diagonal, dtype):
        self.shape = (mask.shape[0], mask.shape[0])
        self._laplacian = laplacian
        self._composed = composed
        self._lam = lam
        self._mask = mask.astype(dtype, copy=False)
        self._diagonal = mask + lam * lap_diagonal

    def diagonal(self) -> np.ndarray:
        return self._diagonal

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        lap_product = self._laplacian @ v[self._composed]
        restricted = np.bincount(
            self._composed, weights=lap_product, minlength=v.shape[0]
        )
        return self._mask * v + self._lam * np.asarray(
            restricted, dtype=self._mask.dtype
        )


class MultigridPreconditioner:
    """Symmetric V-cycle over a stack of SPD level systems.

    Parameters
    ----------
    systems:
        Per-level system operators, finest first.  Every smoothing level
        (all but the last) is an assembled matrix or a level operator
        applied on the fly (see :meth:`from_hierarchy`); it needs only
        ``@`` and ``diagonal()``.  ``systems[-1]`` is assembled and
        factorized exactly.  For the soft criterion these are
        ``diag(v_l) + λ L_l`` with ``v_l, L_l`` from a hierarchy.
    labels:
        ``len(systems) - 1`` aggregate label arrays linking consecutive
        levels: vertex ``i`` of level ``l`` belongs to aggregate
        ``labels[l][i]`` of level ``l + 1`` (the prolongation is
        ``P[i, labels[i]] = 1``, so for an assembled ``P`` the labels are
        ``P.indices``).  Restriction is a ``bincount``, prolongation a
        fancy-index.
    omega:
        Damped-Jacobi smoothing weight in ``(0, 1]``.
    n_smooth:
        Pre- and post-smoothing sweeps per level (symmetric, so the
        V-cycle stays a valid CG preconditioner).
    dtype_policy:
        ``"float64"`` (default, the historical exact path) or
        ``"float32"``: smoothing sweeps and level transfers run in
        single precision against float32-data copies of the level
        systems, while the coarsest solve stays float64.  See
        :data:`DTYPE_POLICIES`.

    Calling the instance applies one V-cycle to a residual: damped-Jacobi
    pre-smoothing, restriction of the remaining residual, recursion,
    prolongated coarse-grid correction, damped-Jacobi post-smoothing.
    The operator is symmetric positive definite whenever every level
    system is, so it can be passed directly as the ``preconditioner`` of
    :func:`~repro.linalg.iterative.pcg`.
    """

    def __init__(
        self,
        systems,
        labels,
        *,
        omega: float = DEFAULT_OMEGA,
        n_smooth: int = 1,
        dtype_policy: str = "float64",
    ):
        systems = list(systems)
        labels = [np.asarray(level, dtype=np.intp) for level in labels]
        if not systems:
            raise ConfigurationError("need at least one level system")
        if len(labels) != len(systems) - 1:
            raise ConfigurationError(
                f"{len(systems)} level systems need {len(systems) - 1} "
                f"aggregate label arrays, got {len(labels)}"
            )
        for level, level_labels in enumerate(labels):
            if level_labels.shape != (systems[level].shape[0],):
                raise ConfigurationError(
                    f"level-{level} labels have shape {level_labels.shape} "
                    f"but the level system is {systems[level].shape}"
                )
        if not 0.0 < omega <= 1.0:
            raise ConfigurationError(f"omega must be in (0, 1], got {omega}")
        if n_smooth < 1:
            raise ConfigurationError(f"n_smooth must be >= 1, got {n_smooth}")
        self.omega = float(omega)
        self.n_smooth = int(n_smooth)
        self.dtype_policy = str(dtype_policy)
        self._work_dtype = _check_dtype_policy(self.dtype_policy)
        self._labels = labels
        self._sizes = [int(system.shape[0]) for system in systems]
        self._inv_diagonals: list[np.ndarray] = []
        for level, system in enumerate(systems[:-1]):
            diagonal = np.asarray(system.diagonal(), dtype=np.float64).ravel()
            if diagonal.size and diagonal.min() <= 0:
                raise DataValidationError(
                    f"level-{level} system has a non-positive diagonal; "
                    "the damped-Jacobi smoother requires SPD level systems"
                )
            self._inv_diagonals.append(
                (1.0 / diagonal).astype(self._work_dtype, copy=False)
            )
        self._operators = [
            _smoothing_cast(system, self._work_dtype) for system in systems[:-1]
        ]
        self._coarse_factor: SPDFactorization = factorize_spd(systems[-1])

    @classmethod
    def from_matrix(
        cls,
        matrix,
        *,
        hierarchy: CoarseningHierarchy | None = None,
        omega: float = DEFAULT_OMEGA,
        n_smooth: int = 1,
        min_coarse_size: int = DEFAULT_MIN_COARSE_SIZE,
        max_levels: int = DEFAULT_MAX_LEVELS,
        dtype_policy: str = "float64",
    ) -> "MultigridPreconditioner":
        """Build the level systems for one SPD matrix by pure Galerkin.

        ``hierarchy`` defaults to coarsening the graph recovered from the
        matrix's off-diagonal (:func:`graph_from_system`); level systems
        are the triple products ``PᵀAP``.  Callers sweeping λ over one
        graph should prefer :meth:`from_hierarchy` with a shared
        hierarchy (as :class:`~repro.linalg.workspace.SolveWorkspace`
        does) — this constructor recoarsens per call.
        """
        if hierarchy is None:
            hierarchy = build_hierarchy(
                graph_from_system(matrix),
                min_coarse_size=min_coarse_size,
                max_levels=max_levels,
            )
        systems = [matrix]
        for level in hierarchy.levels:
            p = level.prolongation
            current = p.T @ systems[-1] @ p
            systems.append(current.tocsr() if sparse.issparse(current) else current)
        return cls(
            systems, hierarchy.labels, omega=omega, n_smooth=n_smooth,
            dtype_policy=dtype_policy,
        )

    @classmethod
    def from_hierarchy(
        cls,
        fine_system,
        hierarchy: CoarseningHierarchy | MatrixFreeHierarchy,
        lam: float,
        mask_diagonals,
        *,
        omega: float = DEFAULT_OMEGA,
        n_smooth: int = 1,
        dtype_policy: str = "float64",
    ) -> "MultigridPreconditioner":
        """The V-cycle of ``diag(mask_l) + λ L_l`` over a shared hierarchy.

        ``fine_system`` is the assembled ``V + λL`` (the outer CG needs it
        anyway, so it is shared); ``mask_diagonals`` are the per-coarse-
        level aggregated labeled-mask diagonals, finest coarse first
        (``hierarchy.coarsen_diagonal(indicator)``).  The coarsest level
        is always assembled from its Laplacian and factorized (float64,
        per λ).  The other coarse levels depend on the representation:

        * :class:`CoarseningHierarchy` — re-assembled CSR
          ``λ L_l + diag(mask_l)`` from the cached coarse Laplacians;
        * :class:`MatrixFreeHierarchy` — ``mask_l·v + λ·Pᵀ(L₀(Pv))``
          through the fine Laplacian, so no coarse matrix is stored and
          each coarse smoothing sweep costs a fine SpMV; under
          ``"float32"`` one single-precision copy of ``L₀`` serves them
          all.
        """
        lam = float(lam)
        masks = [np.asarray(mask, dtype=np.float64).ravel() for mask in mask_diagonals]
        if len(masks) != len(hierarchy.labels):
            raise ConfigurationError(
                f"hierarchy has {len(hierarchy.labels)} coarse levels but "
                f"{len(masks)} mask diagonals were given"
            )
        if isinstance(hierarchy, MatrixFreeHierarchy):
            work_dtype = _check_dtype_policy(dtype_policy)
            laplacian = _smoothing_cast(hierarchy.fine_laplacian, work_dtype)
            coarse = [
                _GalerkinLevel(laplacian, composed, mask, lam, lap_diagonal, work_dtype)
                for composed, mask, lap_diagonal in zip(
                    hierarchy.composed[:-1], masks[:-1], hierarchy.lap_diagonals[:-1]
                )
            ]
            assembled = [(hierarchy.coarsest_laplacian, masks[-1])] if masks else []
        else:
            coarse = []
            assembled = [
                (level.laplacian, mask) for level, mask in zip(hierarchy.levels, masks)
            ]
        coarse += [
            (lam * laplacian + sparse.diags(mask, format="csr")).tocsr()
            for laplacian, mask in assembled
        ]
        return cls(
            [fine_system, *coarse], hierarchy.labels, omega=omega,
            n_smooth=n_smooth, dtype_policy=dtype_policy,
        )

    @property
    def n_levels(self) -> int:
        return len(self._sizes)

    def __call__(self, residual: np.ndarray) -> np.ndarray:
        rhs = np.asarray(residual, dtype=np.float64)
        x = self._cycle(0, np.asarray(rhs, dtype=self._work_dtype))
        return np.asarray(x, dtype=np.float64)

    def _smooth(self, level: int, rhs: np.ndarray, x: np.ndarray | None):
        """Damped-Jacobi sweeps ``x += ω D⁻¹ (rhs - A x)``."""
        operator = self._operators[level]
        inv_diag = self._inv_diagonals[level]
        sweeps = self.n_smooth
        if x is None:
            x = self.omega * (inv_diag * rhs)
            sweeps -= 1
        for _ in range(sweeps):
            x = x + self.omega * (inv_diag * (rhs - _matvec(operator, x)))
        return x

    def _cycle(self, level: int, rhs: np.ndarray) -> np.ndarray:
        if level == len(self._labels):
            coarse = self._coarse_factor.solve(np.asarray(rhs, dtype=np.float64))
            return np.asarray(coarse, dtype=self._work_dtype).ravel()
        x = self._smooth(level, rhs, None)
        labels = self._labels[level]
        residual = rhs - _matvec(self._operators[level], x)
        coarse_residual = np.asarray(
            np.bincount(labels, weights=residual, minlength=self._sizes[level + 1]),
            dtype=self._work_dtype,
        )
        x = x + self._cycle(level + 1, coarse_residual)[labels]
        return self._smooth(level, rhs, x)


def solve_multigrid(
    matrix,
    rhs,
    *,
    x0=None,
    tol: float = 1e-10,
    max_iter: int | None = None,
    preconditioner: MultigridPreconditioner | None = None,
    omega: float = DEFAULT_OMEGA,
    n_smooth: int = 1,
    min_coarse_size: int = DEFAULT_MIN_COARSE_SIZE,
):
    """PCG with a coarsening V-cycle preconditioner.

    Builds a :class:`MultigridPreconditioner` from the matrix (unless one
    is supplied) and runs
    :func:`~repro.linalg.advanced.preconditioned_conjugate_gradient`.
    Returns the same :class:`~repro.linalg.iterative.IterativeResult`;
    raises :class:`~repro.exceptions.ConvergenceError` past ``max_iter``.
    """
    if preconditioner is None:
        preconditioner = MultigridPreconditioner.from_matrix(
            matrix,
            omega=omega,
            n_smooth=n_smooth,
            min_coarse_size=min_coarse_size,
        )
    return preconditioned_conjugate_gradient(
        matrix,
        rhs,
        preconditioner=preconditioner,
        x0=x0,
        tol=tol,
        max_iter=max_iter,
    )
