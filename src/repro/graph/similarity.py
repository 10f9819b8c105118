"""Similarity-graph construction.

The paper's graph is the *full* kernel matrix
``w_ij = K((X_i - X_j)/h)`` (:func:`full_kernel_graph`).  For larger
problems we also provide the two standard sparsifiers — k-nearest-neighbour
graphs (:func:`knn_graph`) and epsilon-ball graphs (:func:`epsilon_graph`)
— which keep the same kernel weights but zero out long-range edges.  All
constructions return a :class:`SimilarityGraph`, which carries the weight
matrix along with its provenance (kernel, bandwidth, sparsifier).

Both sparsifiers support two construction routes:

* ``construction="dense"`` — the historical route: materialize the full
  ``(N, N)`` pairwise-distance and kernel matrices, then zero the pruned
  entries.  Exact, but ``O(N^2)`` memory.
* ``construction="neighbors"`` — compute exact neighbour lists and
  assemble the CSR weight matrix directly from the surviving edges.  The
  ``(N, N)`` dense matrix is *never allocated*; memory is ``O(N k)`` for
  knn graphs and ``O(nnz)`` for epsilon graphs.  Epsilon balls come from
  a ``scipy.spatial.cKDTree`` range query.  kNN lists come from one of
  two exact engines, chosen by the input dimension ``d``: a
  ``cKDTree`` query below :data:`KNN_GEMM_MIN_DIM` columns, and blocked
  GEMM top-k at and above it, where the tree degrades toward a slower
  brute force (crossover table in ``docs/SCALING.md``).
* ``construction="auto"`` (default) — ``"dense"`` for small inputs where
  the dense BLAS route is fastest, ``"neighbors"`` beyond
  :data:`DENSE_CONSTRUCTION_MAX` vertices.
* ``construction="approx"`` (knn only) — random-projection-tree
  approximate neighbour lists (:mod:`repro.graph.approx`) with default
  knobs; call :func:`repro.graph.approx.approx_knn_graph` directly to
  tune the recall/speed trade-off.

The exact routes produce the same graph (verified to floating-point
agreement by the parity and property suites in
``tests/test_sparse_dense_parity.py`` and
``tests/test_property_based_sparse_graph.py``), including under tied
distances: every exact route ranks neighbours by direct differences
``||x_i - x_j||^2`` and breaks ties deterministically toward the
*smallest vertex index*.  The dense route uses a stable argsort; the
kd-tree engine detects rows whose k-th-neighbour distance is tied across
the query boundary (``cKDTree`` returns an arbitrary member of a tie
set) and re-resolves exactly those rows with an exact ball query; the
blocked-GEMM engine uses the norm expansion only as a filter and
re-ranks every row exactly, with a rounding bound deciding which rows
need a wider exact pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

import numpy as np
from scipy import sparse
from scipy.spatial import cKDTree

from repro import obs
from repro.exceptions import ConfigurationError, DataValidationError
from repro.kernels.base import RadialKernel, pairwise_sq_distances
from repro.kernels.library import GaussianKernel
from repro.obs import probes
from repro.utils.validation import check_matrix_2d, check_positive_scalar, check_weight_matrix

__all__ = [
    "SimilarityGraph",
    "full_kernel_graph",
    "knn_graph",
    "epsilon_graph",
    "local_scaling_graph",
    "build_similarity_graph",
    "DENSE_CONSTRUCTION_MAX",
]

#: ``construction="auto"`` uses the dense route up to this many vertices
#: (where one BLAS gemm beats a tree query) and the neighbour route above
#: it (where the ``(N, N)`` allocation starts to dominate).
DENSE_CONSTRUCTION_MAX = 512

#: The exact neighbour route finds kNN lists with the kd-tree below this
#: many input columns and with blocked GEMM top-k at and above it, where
#: the tree degrades toward brute force (crossover table in
#: ``docs/SCALING.md``).
KNN_GEMM_MIN_DIM = 16

#: Bytes of the blocked-GEMM engine's reused distance buffer (and of each
#: chunk of direct differences).  Kept small: peak memory grows with it.
_GEMM_BLOCK_BYTES = 2 << 20

#: Candidates the blocked-GEMM engine re-ranks exactly beyond the k-th.
_GEMM_MARGIN = 8


def _resolve_construction(
    construction: str, n: int, *, allowed: tuple = ("dense", "neighbors")
) -> str:
    if construction == "auto":
        return "dense" if n <= DENSE_CONSTRUCTION_MAX else "neighbors"
    if construction in allowed:
        return construction
    known = ", ".join(repr(name) for name in ("auto",) + allowed)
    raise ConfigurationError(
        f"construction must be one of {known}, got {construction!r}"
    )


def _format_vertices(indices, limit: int = 10) -> str:
    """Render offending vertex indices for error messages (first few)."""
    indices = np.asarray(indices).ravel()
    shown = ", ".join(str(int(i)) for i in indices[:limit])
    if indices.size > limit:
        shown += f", ... ({indices.size} total)"
    return f"[{shown}]"


def _resolve_knn_mode(mode: str) -> str:
    """Canonicalize the symmetrization mode (``"mutual"`` is a legacy alias)."""
    if mode == "union":
        return "union"
    if mode in ("intersection", "mutual"):
        return "intersection"
    raise ConfigurationError(
        f"mode must be 'union' or 'intersection' (legacy alias 'mutual'), "
        f"got {mode!r}"
    )


@dataclass
class SimilarityGraph:
    """A weighted similarity graph over ``n + m`` inputs.

    Attributes
    ----------
    weights:
        Symmetric non-negative ``(N, N)`` weight matrix, dense ndarray or
        scipy sparse CSR.
    kernel_name:
        Name of the kernel used to build it (``"precomputed"`` if supplied
        directly).
    bandwidth:
        Kernel bandwidth ``h`` (``nan`` for precomputed graphs).
    construction:
        One of ``"full"``, ``"knn"``, ``"epsilon"``, ``"precomputed"``.
    params:
        Extra construction parameters (``k`` for knn, ``radius`` for
        epsilon graphs).
    """

    weights: np.ndarray | sparse.csr_matrix
    kernel_name: str = "precomputed"
    bandwidth: float = float("nan")
    construction: str = "precomputed"
    params: dict = field(default_factory=dict)

    @property
    def n_vertices(self) -> int:
        return self.weights.shape[0]

    @property
    def is_sparse(self) -> bool:
        return sparse.issparse(self.weights)

    def dense_weights(self) -> np.ndarray:
        """Return the weight matrix as a dense ndarray."""
        if self.is_sparse:
            return np.asarray(self.weights.todense())
        return self.weights

    def degree(self) -> np.ndarray:
        """Vertex degrees ``d_i = sum_j w_ij`` as a 1-d array."""
        if self.is_sparse:
            return np.asarray(self.weights.sum(axis=1)).ravel()
        return self.weights.sum(axis=1)

    def edge_count(self) -> int:
        """Number of undirected edges with strictly positive weight."""
        if self.is_sparse:
            coo = self.weights.tocoo()
            off = (coo.row < coo.col) & (coo.data > 0)
            return int(np.sum(off))
        w = self.weights
        iu = np.triu_indices(w.shape[0], k=1)
        return int(np.sum(w[iu] > 0))

    @classmethod
    def from_weights(cls, weights) -> "SimilarityGraph":
        """Wrap a precomputed weight matrix after validation."""
        return cls(weights=check_weight_matrix(weights))

    def save_npz(self, path) -> "Path":
        """Persist the graph (weights + provenance) to an NPZ archive.

        Large graphs are expensive to rebuild; this stores the dense or
        sparse weights plus the construction metadata so
        :meth:`load_npz` restores an equivalent object.
        """
        from pathlib import Path

        import json

        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        meta = json.dumps(
            {
                "kernel_name": self.kernel_name,
                "bandwidth": self.bandwidth,
                "construction": self.construction,
                "params": self.params,
            }
        )
        if self.is_sparse:
            coo = self.weights.tocoo()
            np.savez_compressed(
                path,
                format=np.array("sparse"),
                data=coo.data,
                row=coo.row,
                col=coo.col,
                shape=np.array(coo.shape),
                meta=np.array(meta),
            )
        else:
            np.savez_compressed(
                path,
                format=np.array("dense"),
                weights=self.weights,
                meta=np.array(meta),
            )
        return path

    @classmethod
    def load_npz(cls, path) -> "SimilarityGraph":
        """Restore a graph saved by :meth:`save_npz`."""
        from pathlib import Path

        import json

        from repro.exceptions import DataValidationError

        path = Path(path)
        if not path.exists():
            raise DataValidationError(f"no such file: {path}")
        with np.load(path, allow_pickle=False) as archive:
            if "format" not in archive or "meta" not in archive:
                raise DataValidationError(
                    f"{path} is not a SimilarityGraph archive"
                )
            meta = json.loads(str(archive["meta"]))
            stored = str(archive["format"])
            if stored == "sparse":
                weights = sparse.coo_matrix(
                    (archive["data"], (archive["row"], archive["col"])),
                    shape=tuple(archive["shape"]),
                ).tocsr()
            elif stored == "dense":
                weights = archive["weights"]
            else:
                raise DataValidationError(
                    f"{path} has unknown format {stored!r}"
                )
        return cls(
            weights=check_weight_matrix(weights),
            kernel_name=meta["kernel_name"],
            bandwidth=meta["bandwidth"],
            construction=meta["construction"],
            params=meta["params"],
        )


def full_kernel_graph(
    x: np.ndarray,
    *,
    kernel: RadialKernel | None = None,
    bandwidth: float,
    zero_diagonal: bool = False,
) -> SimilarityGraph:
    """The paper's dense graph: ``w_ij = K((x_i - x_j)/h)`` for all pairs.

    Parameters
    ----------
    x:
        Inputs of shape ``(N, d)`` — labeled rows first, then unlabeled.
    kernel:
        Radial kernel; defaults to the Gaussian RBF the paper uses.
    bandwidth:
        Kernel bandwidth ``h`` (the paper's ``sigma``).
    zero_diagonal:
        If true, set ``w_ii = 0``.  The paper keeps self-weights (they
        cancel in the Laplacian quadratic form but *do* enter the degree
        matrix ``D`` and hence Eq. 4/5); the default matches the paper.
    """
    kernel = kernel or GaussianKernel()
    with obs.span(
        "repro.graph.full_kernel",
        n_vertices=int(np.asarray(x).shape[0]),
        kernel=kernel.name,
        bandwidth=float(bandwidth),
    ) as span:
        weights = kernel.gram(x, bandwidth=bandwidth)
        if zero_diagonal:
            np.fill_diagonal(weights, 0.0)
        probes.record_graph_stats(span, weights)
        return SimilarityGraph(
            weights=weights,
            kernel_name=kernel.name,
            bandwidth=float(bandwidth),
            construction="full",
            params={"zero_diagonal": zero_diagonal},
        )


def _knn_dense(x, k, kernel, bandwidth, mode) -> sparse.csr_matrix:
    """Historical O(N^2) route: full kernel matrix, then prune.

    The kept neighbours are the exact lists of :func:`_knn_blocked_gemm`
    (ranked by direct differences, ties toward the smallest vertex
    index), not a sort of the norm-expansion matrix behind the weights:
    that expansion can put bitwise-identical copies of a point at
    distances an ulp apart and so keep the wrong member of a tie set.
    """
    n = x.shape[0]
    sq = pairwise_sq_distances(x)
    weights = kernel.profile(np.sqrt(sq) / bandwidth)

    _, neighbour_idx = _knn_blocked_gemm(x, k)
    selected = np.zeros((n, n), dtype=bool)
    rows = np.repeat(np.arange(n), k)
    selected[rows, neighbour_idx.ravel()] = True
    if mode == "union":
        keep = selected | selected.T
    else:
        keep = selected & selected.T
    np.fill_diagonal(keep, True)
    return sparse.csr_matrix(np.where(keep, weights, 0.0))


def _pair_sq_distances(x, rows, cols) -> np.ndarray:
    """Squared distances ``||x[rows] - x[cols]||^2`` by direct differences.

    The one distance rule every exact route ranks by: unlike
    the norm expansion ``|a|^2 + |b|^2 - 2 a.b`` it gives an exact twin
    distance ``0`` and bitwise-equal values for bitwise-equal pairs, so
    ``(distance, index)`` order is well defined under duplicates.  Pairs
    are processed in chunks of at most :data:`_GEMM_BLOCK_BYTES` of
    differences.
    """
    out = np.empty(rows.size)
    step = max(1, _GEMM_BLOCK_BYTES // (8 * x.shape[1]))
    for lo in range(0, rows.size, step):
        diff = x[rows[lo : lo + step]] - x[cols[lo : lo + step]]
        out[lo : lo + step] = np.einsum("ij,ij->i", diff, diff)
    return out


def _knn_kdtree(x, k) -> tuple[np.ndarray, np.ndarray]:
    """Exact neighbour lists from a ``cKDTree`` query (the low-d engine).

    ``cKDTree`` returns an *arbitrary* member of a tie set at the query
    boundary (so a true neighbour could silently be dropped under exact
    duplicates); this queries one extra neighbour to detect boundary
    ties and re-resolves exactly the affected rows with a ball query,
    ranking the ball by direct differences (:func:`_pair_sq_distances`)
    and keeping the smallest-index member of every tie.
    """
    n = x.shape[0]
    tree = cKDTree(x)
    m = min(n, k + 2)
    dist, idx = tree.query(x, k=m)
    rows = np.arange(n)
    # Canonical (distance, index) order within the returned candidates.
    order = np.lexsort((idx, dist))
    dist = np.take_along_axis(dist, order, axis=1)
    idx = np.take_along_axis(idx, order, axis=1)

    # Drop each row's self entry (under exact duplicates it can land
    # anywhere in the tie group, or be crowded out entirely).
    is_self = idx == rows[:, None]
    has_self = is_self.any(axis=1)
    drop = np.where(has_self, np.argmax(is_self, axis=1), m - 1)
    keep = np.ones((n, m), dtype=bool)
    keep[rows, drop] = False
    candidate_idx = idx[keep].reshape(n, m - 1)
    candidate_dist = dist[keep].reshape(n, m - 1)
    neighbour_idx = np.ascontiguousarray(candidate_idx[:, :k])
    neighbour_dist = np.ascontiguousarray(candidate_dist[:, :k])

    if m - 1 > k:
        # A row is ambiguous when the first *excluded* candidate ties the
        # k-th kept distance (the tree's choice among the tied set was
        # arbitrary) or when self was crowded out of the results (a
        # >= k+2-way duplicate tie).  Those rows are re-resolved exactly.
        ambiguous = (candidate_dist[:, k] == neighbour_dist[:, k - 1]) | ~has_self
        for i in np.flatnonzero(ambiguous):
            # Inflate the radius by a few ulps: a tied point sitting
            # exactly at the k-th distance must not be rounded out of
            # the ball.
            radius = float(neighbour_dist[i, -1]) * (1.0 + 1e-9) + 1e-300
            ball = np.asarray(
                tree.query_ball_point(x[i], radius), dtype=np.intp
            )
            ball = ball[ball != i]
            if ball.size < k:  # pragma: no cover - extreme rounding
                ball = np.delete(np.arange(n, dtype=np.intp), i)
            exact = np.sqrt(
                _pair_sq_distances(x, np.full(ball.size, i), ball)
            )
            best = np.lexsort((ball, exact))[:k]
            neighbour_idx[i] = ball[best]
            neighbour_dist[i] = exact[best]
    return neighbour_dist, neighbour_idx


def _knn_blocked_gemm(x, k) -> tuple[np.ndarray, np.ndarray]:
    """Exact neighbour lists by blocked GEMM top-k (the high-d engine).

    Same contract as :func:`_knn_kdtree`.  One block of rows at a time,
    ``|b|^2 - 2 a.b`` (the norm expansion of ``|a - b|^2`` less the row
    constant ``|a|^2``) goes into a reused buffer of at most
    :data:`_GEMM_BLOCK_BYTES`; ``argpartition`` keeps the
    ``k + _GEMM_MARGIN`` smallest as candidates, which are re-ranked by
    direct differences in ``(distance, index)`` order.  The GEMM values
    are only a filter: a row is accepted when the first excluded GEMM
    value clears the k-th exact distance by the GEMM rounding bound, so
    no excluded point can beat or tie it.  Rows that fail the test (ties
    spilling past the margin) are re-ranked exactly over every point the
    bound cannot exclude, vectorized over the block.
    """
    n, d = x.shape
    c = min(n - 1, k + _GEMM_MARGIN)
    sq_norms = np.einsum("ij,ij->i", x, x)
    if not np.isfinite(4.0 * sq_norms.max()):
        raise DataValidationError(
            "knn graph: squared distances overflow float64 on these inputs "
            "(max |x_i|^2 = inf or near it); rescale the coordinates"
        )
    # |computed - true| of one expansion entry is at most
    # gamma (|a| + |b|)^2 (dot-product bound with a safety factor of 2),
    # plus underflow; ``slack`` bounds it for every j at once.
    gamma = (d + 4) * np.finfo(np.float64).eps
    norms = np.sqrt(sq_norms)
    slack = gamma * (norms + norms.max()) ** 2 + d * np.finfo(np.float64).tiny

    rows_per_block = max(1, _GEMM_BLOCK_BYTES // (8 * n))
    buffer = np.empty((min(rows_per_block, n), n))
    neighbour_dist = np.empty((n, k))
    neighbour_idx = np.empty((n, k), dtype=np.intp)
    for start in range(0, n, rows_per_block):
        rows = np.arange(start, min(start + rows_per_block, n))
        local = np.arange(rows.size)
        gemm = buffer[: rows.size]
        np.matmul(-2.0 * x[rows[0] : rows[-1] + 1], x.T, out=gemm)
        gemm += sq_norms
        gemm[local, rows] = np.inf  # self sorts last: when c = n - 1 it is the boundary
        part = np.argpartition(gemm, c, axis=1)
        boundary = gemm[local, part[:, c]] + sq_norms[rows]
        cand = part[:, :c]
        exact = _pair_sq_distances(
            x, np.repeat(rows, c), cand.ravel()
        ).reshape(rows.size, c)
        best = np.lexsort((cand, exact))[:, :k]
        top_sq = np.take_along_axis(exact, best, axis=1)
        top_idx = np.take_along_axis(cand, best, axis=1)

        # Any point whose exact distance could reach the k-th one has an
        # expansion value (buffer + |a|^2) at most ``reach``; certified
        # rows excluded none of them.
        reach = top_sq[:, -1] * (1.0 + 2.0 * gamma) + slack[rows]
        doubtful = np.flatnonzero(~(boundary - slack[rows] > reach))
        if doubtful.size:
            limit = reach[doubtful] - sq_norms[rows[doubtful]]
            mask = gemm[doubtful] <= limit[:, None]
            mask[np.arange(doubtful.size)[:, None], top_idx[doubtful]] = True
            pair_row, pair_col = np.nonzero(mask)
            pair_sq = _pair_sq_distances(x, rows[doubtful][pair_row], pair_col)
            order = np.lexsort((pair_col, pair_sq, pair_row))
            first = np.concatenate(([0], np.cumsum(mask.sum(axis=1))[:-1]))
            take = order[first[:, None] + np.arange(k)]
            top_sq[doubtful] = pair_sq[take]
            top_idx[doubtful] = pair_col[take]
        neighbour_dist[rows] = np.sqrt(top_sq)
        neighbour_idx[rows] = top_idx
    return neighbour_dist, neighbour_idx


def _knn_engine(d: int) -> str:
    """Which exact neighbour engine :func:`_knn_neighbor_lists` runs."""
    return "blocked_gemm" if d >= KNN_GEMM_MIN_DIM else "kdtree"


def _knn_neighbor_lists(x, k) -> tuple[np.ndarray, np.ndarray]:
    """Exact k-nearest-neighbour lists with deterministic tie handling.

    Returns ``(dist, idx)`` of shape ``(n, k)``, each row sorted by
    ``(distance, index)`` and excluding the vertex itself; of a tie set
    the smallest-index members are kept — the same rule as the dense
    route's stable argsort.  The engine is picked by the input
    dimension (:func:`_knn_engine`): the kd-tree below
    :data:`KNN_GEMM_MIN_DIM` columns, blocked GEMM at and above it.
    """
    if _knn_engine(x.shape[1]) == "blocked_gemm":
        return _knn_blocked_gemm(x, k)
    return _knn_kdtree(x, k)


def _assemble_knn_csr(
    n, neighbour_idx, neighbour_dist, kernel, bandwidth, mode
) -> sparse.csr_matrix:
    """CSR weight matrix from directed neighbour lists (shared by the
    exact neighbour route, the approximate route, and the bandwidth
    search's sparse path)."""
    k = neighbour_idx.shape[1]
    data = kernel.profile(neighbour_dist.ravel() / bandwidth)
    rows = np.repeat(np.arange(n), k)
    directed = sparse.csr_matrix(
        (data, (rows, neighbour_idx.ravel())), shape=(n, n)
    )
    # Kernel weights are symmetric functions of the (symmetric) distance,
    # so w_ij == w_ji wherever both directed edges exist: the elementwise
    # maximum keeps an edge selected by either endpoint (union) and the
    # minimum keeps only mutually-selected edges (intersection).
    if mode == "union":
        symmetric = directed.maximum(directed.T)
    else:
        symmetric = directed.minimum(directed.T)
    diagonal = sparse.diags(
        np.full(n, float(kernel.profile(np.zeros(1))[0])), format="csr"
    )
    out = (symmetric + diagonal).tocsr()
    out.eliminate_zeros()
    return out


def _validate_knn_rows(
    weights: sparse.csr_matrix, k: int, *, mode: str = "union"
) -> None:
    """Fail fast on degenerate rows instead of deep inside a solver.

    Duplicate-heavy inputs with large ``k``, overflowing coordinates, or
    compactly-supported kernels whose support excludes every neighbour
    can produce non-finite weights or vertices with no usable edges;
    both only surface later as cryptic solver errors, so they are
    rejected here with the offending vertices named.

    The zero-degree check only applies to union symmetrization: under
    ``mode="intersection"`` a vertex whose selections are never mutual
    is legitimately isolated, and connectivity is the reachability
    layer's concern (:mod:`repro.graph.components`), not this one's.
    """
    data = weights.data
    if data.size and not np.isfinite(data).all():
        counts = np.diff(weights.indptr)
        bad_rows = np.unique(
            np.repeat(np.arange(weights.shape[0]), counts)[~np.isfinite(data)]
        )
        raise DataValidationError(
            f"knn graph has non-finite weights on rows "
            f"{_format_vertices(bad_rows)}; check the kernel profile and "
            f"the input coordinates of those vertices"
        )
    if mode != "union":
        return
    off_degree = (
        np.asarray(weights.sum(axis=1)).ravel() - weights.diagonal()
    )
    isolated = np.flatnonzero(off_degree <= 0)
    if isolated.size:
        raise DataValidationError(
            f"knn graph (k={k}) left vertices {_format_vertices(isolated)} "
            f"with zero total neighbour weight (only a self-loop): every "
            f"selected neighbour got weight 0 — typically a "
            f"compactly-supported kernel whose support excludes the k-th "
            f"neighbour, or duplicate-heavy data with k too large.  "
            f"Increase the bandwidth, reduce k, or deduplicate the inputs"
        )


def _knn_neighbors(x, k, kernel, bandwidth, mode) -> sparse.csr_matrix:
    """Densification-free route: exact neighbour lists straight to CSR."""
    neighbour_dist, neighbour_idx = _knn_neighbor_lists(x, k)
    return _assemble_knn_csr(
        x.shape[0], neighbour_idx, neighbour_dist, kernel, bandwidth, mode
    )


def knn_graph(
    x: np.ndarray,
    *,
    k: int,
    kernel: RadialKernel | None = None,
    bandwidth: float,
    mode: Literal["union", "intersection", "mutual"] = "union",
    construction: Literal["auto", "dense", "neighbors", "approx"] = "auto",
) -> SimilarityGraph:
    """Sparse k-nearest-neighbour graph with kernel edge weights.

    Each vertex keeps edges to its ``k`` nearest neighbours (by Euclidean
    distance).  Because "i is among j's nearest" is not symmetric, the
    directed neighbour relation must be symmetrized, and ``mode`` makes
    that choice explicit:

    * ``mode="union"`` (default) — keep edge ``{i, j}`` if *either*
      endpoint selected the other.  Every vertex keeps degree >= k, which
      preserves labeled reachability on clustered data; nnz is bounded by
      ``2 N k`` off-diagonal entries.
    * ``mode="intersection"`` (legacy alias ``"mutual"``) — keep the edge
      only if *both* endpoints selected each other.  Sparser (at most
      ``N k`` off-diagonal entries) and robust to hubs, but can isolate
      boundary vertices; nnz is bounded by ``N k``.

    Surviving edges carry the kernel weight of the full graph, and kernel
    self-weights sit on the diagonal to mirror the full graph's degree
    convention.  ``construction`` picks the dense (``O(N^2)`` memory) or
    neighbour route (``O(N k)``, never allocating an ``(N, N)`` array);
    ``"auto"`` switches to neighbours above :data:`DENSE_CONSTRUCTION_MAX`
    vertices.  ``"neighbors"`` means exact neighbour lists, found by
    kd-tree below :data:`KNN_GEMM_MIN_DIM` input columns and by blocked
    GEMM top-k at and above it; the span attribute ``engine`` names the
    one that ran.  Both exact routes build the
    same graph, with ties broken deterministically toward the smallest
    vertex index.  ``construction="approx"`` uses random-projection-tree
    approximate neighbour lists (:mod:`repro.graph.approx`) at the
    default recall knob — see :func:`~repro.graph.approx.approx_knn_graph`
    to tune it.
    """
    x = check_matrix_2d(x, "x")
    n = x.shape[0]
    if not 1 <= k < n:
        raise ConfigurationError(f"k must satisfy 1 <= k < n; got k={k}, n={n}")
    kernel = kernel or GaussianKernel()
    bandwidth = check_positive_scalar(bandwidth, "bandwidth")
    mode = _resolve_knn_mode(mode)
    route = _resolve_construction(
        construction, n, allowed=("dense", "neighbors", "approx")
    )

    with obs.span(
        "repro.graph.knn",
        n_vertices=n,
        k=k,
        mode=mode,
        bandwidth=float(bandwidth),
        construction=route,
    ) as span:
        if route == "dense":
            sparse_weights = _knn_dense(x, k, kernel, bandwidth, mode)
        elif route == "approx":
            from repro.graph.approx import rp_tree_knn

            neighbour_dist, neighbour_idx = rp_tree_knn(x, k)
            sparse_weights = _assemble_knn_csr(
                n, neighbour_idx, neighbour_dist, kernel, bandwidth, mode
            )
        else:
            span.set_attribute("engine", _knn_engine(x.shape[1]))
            sparse_weights = _knn_neighbors(x, k, kernel, bandwidth, mode)
        _validate_knn_rows(sparse_weights, k, mode=mode)
        probes.record_graph_stats(span, sparse_weights)
        return SimilarityGraph(
            weights=sparse_weights,
            kernel_name=kernel.name,
            bandwidth=float(bandwidth),
            construction="knn",
            params={"k": k, "mode": mode, "construction": route},
        )


def _epsilon_dense(x, radius, kernel, bandwidth) -> sparse.csr_matrix:
    """Historical O(N^2) route: full kernel matrix, then prune."""
    sq = pairwise_sq_distances(x)
    weights = kernel.profile(np.sqrt(sq) / bandwidth)
    keep = sq <= radius * radius
    return sparse.csr_matrix(np.where(keep, weights, 0.0))


def _epsilon_neighbors(x, radius, kernel, bandwidth) -> sparse.csr_matrix:
    """Densification-free route: kd-tree range query straight to CSR."""
    n = x.shape[0]
    tree = cKDTree(x)
    pairs = tree.query_pairs(radius, output_type="ndarray")
    left, right = pairs[:, 0], pairs[:, 1]
    diffs = x[left] - x[right]
    dist = np.sqrt(np.einsum("ij,ij->i", diffs, diffs))
    edge_weights = kernel.profile(dist / bandwidth)
    self_weight = float(kernel.profile(np.zeros(1))[0])
    rows = np.concatenate([left, right, np.arange(n)])
    cols = np.concatenate([right, left, np.arange(n)])
    data = np.concatenate([edge_weights, edge_weights, np.full(n, self_weight)])
    out = sparse.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()
    out.eliminate_zeros()
    return out


def epsilon_graph(
    x: np.ndarray,
    *,
    radius: float,
    kernel: RadialKernel | None = None,
    bandwidth: float,
    construction: Literal["auto", "dense", "neighbors"] = "auto",
) -> SimilarityGraph:
    """Sparse epsilon-ball graph: keep edges with ``||x_i - x_j|| <= radius``.

    Equivalent to the full graph built from a kernel truncated at
    ``radius / bandwidth`` scaled radii, so for compactly-supported kernels
    with ``radius >= support_radius * bandwidth`` it equals the full graph.

    ``construction`` picks the dense route (materialize all pairwise
    distances, ``O(N^2)`` memory) or the kd-tree range-query route
    (``O(nnz)``, never allocating an ``(N, N)`` array); ``"auto"``
    switches to neighbours above :data:`DENSE_CONSTRUCTION_MAX` vertices.
    """
    x = check_matrix_2d(x, "x")
    radius = check_positive_scalar(radius, "radius")
    kernel = kernel or GaussianKernel()
    bandwidth = check_positive_scalar(bandwidth, "bandwidth")
    route = _resolve_construction(construction, int(x.shape[0]))

    with obs.span(
        "repro.graph.epsilon",
        n_vertices=int(x.shape[0]),
        radius=float(radius),
        bandwidth=float(bandwidth),
        construction=route,
    ) as span:
        if route == "dense":
            sparse_weights = _epsilon_dense(x, radius, kernel, bandwidth)
        else:
            sparse_weights = _epsilon_neighbors(x, radius, kernel, bandwidth)
        probes.record_graph_stats(span, sparse_weights)
        return SimilarityGraph(
            weights=sparse_weights,
            kernel_name=kernel.name,
            bandwidth=float(bandwidth),
            construction="epsilon",
            params={"radius": radius, "construction": route},
        )


def local_scaling_graph(
    x: np.ndarray,
    *,
    k: int = 7,
) -> SimilarityGraph:
    """Zelnik-Manor & Perona's self-tuning similarity graph.

    Replaces the single global bandwidth with a per-vertex local scale
    ``sigma_i`` = distance to the k-th nearest neighbour:

        w_ij = exp( -||x_i - x_j||^2 / (sigma_i sigma_j) ).

    Dense regions get tight kernels and sparse regions wide ones, which
    removes the bandwidth-selection problem on data whose density varies
    across clusters.  Included as a construction ablation axis; the
    paper's theory assumes a single global bandwidth.
    """
    x = check_matrix_2d(x, "x")
    n = x.shape[0]
    if not 1 <= k < n:
        raise ConfigurationError(f"k must satisfy 1 <= k < n; got k={k}, n={n}")
    sq = pairwise_sq_distances(x)
    with_self_inf = sq.copy()
    np.fill_diagonal(with_self_inf, np.inf)
    kth_sq = np.partition(with_self_inf, kth=k - 1, axis=1)[:, k - 1]
    sigma = np.sqrt(kth_sq)
    degenerate = np.flatnonzero(sigma <= 0)
    if degenerate.size:
        # sigma_i = 0 would put 0/0 = NaN on every duplicate pair and
        # collapse w_ij for the whole row — fail here, naming the rows,
        # instead of deep inside the solver.
        raise DataValidationError(
            f"local scaling (k={k}) is undefined for vertices "
            f"{_format_vertices(degenerate)}: each one's k-th nearest "
            f"neighbour is at distance 0 (at least k identical duplicates).  "
            f"Deduplicate the inputs or raise k above the duplicate count"
        )
    weights = np.exp(-sq / (sigma[:, None] * sigma[None, :]))
    return SimilarityGraph(
        weights=weights,
        kernel_name="gaussian",
        bandwidth=float("nan"),  # per-vertex scales, no single bandwidth
        construction="local_scaling",
        params={"k": k},
    )


def build_similarity_graph(
    x: np.ndarray,
    *,
    construction: Literal["full", "knn", "epsilon"] = "full",
    kernel: RadialKernel | None = None,
    bandwidth: float,
    construction_method: Literal["auto", "dense", "neighbors", "approx"] | None = None,
    **params,
) -> SimilarityGraph:
    """Dispatch to one of the graph constructions by name.

    ``params`` are forwarded (``k``/``mode`` for knn, ``radius`` for
    epsilon).  ``construction_method`` forwards to the sparsifiers'
    ``construction=`` switch (``"dense"``/``"neighbors"``/``"auto"``,
    plus ``"approx"`` for knn graphs) — the name differs only because
    ``construction`` here already selects the graph *family* — so
    estimator ``graph_params`` can pin a route, e.g.
    ``graph_params={"k": 10, "construction_method": "neighbors"}``.
    This is the single entry point the estimators use.
    """
    builders = {
        "full": full_kernel_graph,
        "knn": knn_graph,
        "epsilon": epsilon_graph,
    }
    try:
        builder = builders[construction]
    except KeyError:
        known = ", ".join(sorted(builders))
        raise ConfigurationError(
            f"unknown graph construction {construction!r}; known: {known}"
        ) from None
    if construction_method is not None:
        if construction == "full":
            raise ConfigurationError(
                "construction_method only applies to the 'knn' and "
                "'epsilon' sparsifiers; the 'full' graph is always dense"
            )
        params["construction"] = construction_method
    try:
        return builder(x, kernel=kernel, bandwidth=bandwidth, **params)
    except TypeError as exc:
        raise ConfigurationError(
            f"invalid parameters for {construction!r} graph: {exc}"
        ) from exc
