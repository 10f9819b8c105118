"""Tests for the graph-coarsening multigrid preconditioner.

The hypothesis suite pins the structural invariants the V-cycle relies
on: every matching yields a valid aggregation operator (one unit entry
per row, no empty aggregates, at most two vertices per aggregate), the
Galerkin triple product ``PᵀAP`` of an SPD system is SPD, and the
coarse Laplacian identity ``PᵀL(W)P = L(PᵀWP)`` holds exactly.  The
performance-shaped property — multigrid-preconditioned CG reaches a
residual no worse than unpreconditioned CG on the same iteration
budget — is what justifies shipping the backend at all.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from repro import obs
from repro.datasets.synthetic import make_synthetic_dataset
from repro.exceptions import (
    ConfigurationError,
    ConvergenceError,
    DataValidationError,
)
from repro.graph.laplacian import laplacian
from repro.graph.similarity import knn_graph
from repro.kernels.bandwidth import paper_bandwidth_rule
from repro.linalg.advanced import preconditioned_conjugate_gradient
from repro.linalg.coarsen import (
    CoarseningHierarchy,
    MultigridPreconditioner,
    aggregation_operator,
    build_hierarchy,
    build_matrix_free_hierarchy,
    coarsen_weights,
    graph_from_system,
    heavy_edge_matching,
    solve_multigrid,
)
from repro.linalg.solvers import solve_spd
from repro.linalg.workspace import SolveWorkspace


def _random_graph(n, seed, k=6):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 2))
    bandwidth = paper_bandwidth_rule(n, 5)
    return knn_graph(x, k=min(k, n - 1), bandwidth=bandwidth).weights


def _soft_system(weights, lam, n_labeled):
    n = weights.shape[0]
    mask = np.zeros(n)
    mask[:n_labeled] = 1.0
    return (sparse.diags(mask) + lam * laplacian(weights)).tocsr()


class TestHeavyEdgeMatching:
    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=80),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_matching_is_a_valid_aggregation(self, n, seed):
        weights = _random_graph(n, seed)
        labels = heavy_edge_matching(weights)
        assert labels.shape == (n,)
        assert labels.min() >= 0
        counts = np.bincount(labels)
        # no empty aggregates, and pair matching caps aggregates at 2
        assert counts.min() >= 1
        assert counts.max() <= 2
        p = aggregation_operator(labels)
        assert p.shape == (n, labels.max() + 1)
        # exactly one unit entry per row
        assert np.array_equal(np.diff(p.indptr), np.ones(n, dtype=p.indptr.dtype))
        np.testing.assert_array_equal(p.data, np.ones(n))

    def test_matching_is_deterministic(self):
        weights = _random_graph(50, 3)
        a = heavy_edge_matching(weights)
        b = heavy_edge_matching(weights)
        np.testing.assert_array_equal(a, b)

    def test_rejects_non_square(self):
        with pytest.raises(DataValidationError, match="square"):
            heavy_edge_matching(np.ones((3, 4)))


class TestGalerkinIdentities:
    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=4, max_value=60),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_coarse_laplacian_identity(self, n, seed):
        """``PᵀL(W)P == L(PᵀWP)`` — the identity that makes the
        hierarchy λ-independent."""
        weights = _random_graph(n, seed)
        p = aggregation_operator(heavy_edge_matching(weights))
        lap_then_coarsen = (p.T @ laplacian(weights) @ p).toarray()
        coarsen_then_lap = laplacian(coarsen_weights(weights, p)).toarray()
        np.testing.assert_allclose(
            lap_then_coarsen, coarsen_then_lap, atol=1e-10
        )

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=4, max_value=60),
        seed=st.integers(min_value=0, max_value=2**16),
        lam=st.floats(min_value=1e-3, max_value=10.0),
    )
    def test_triple_product_preserves_spd(self, n, seed, lam):
        weights = _random_graph(n, seed)
        system = _soft_system(weights, lam, max(1, n // 3))
        p = aggregation_operator(heavy_edge_matching(weights))
        coarse = (p.T @ system @ p).toarray()
        np.testing.assert_allclose(coarse, coarse.T, atol=1e-12)
        eigenvalues = np.linalg.eigvalsh(coarse)
        assert eigenvalues.min() > -1e-10

    def test_graph_from_system_recovers_weights(self):
        weights = _random_graph(40, 11)
        lam = 0.7
        system = _soft_system(weights, lam, 10)
        recovered = graph_from_system(system)
        expected = (lam * weights).tocsr()
        expected.setdiag(0.0)
        expected.eliminate_zeros()
        np.testing.assert_allclose(
            recovered.toarray(), expected.toarray(), atol=1e-12
        )


class TestHierarchy:
    def test_sizes_shrink_monotonically(self):
        weights = _random_graph(200, 5)
        hierarchy = build_hierarchy(weights, min_coarse_size=8)
        sizes = hierarchy.sizes
        assert sizes[0] == 200
        assert all(a > b for a, b in zip(sizes, sizes[1:]))
        assert len(hierarchy.levels) >= 2

    def test_small_graph_yields_empty_hierarchy(self):
        weights = _random_graph(20, 1)
        hierarchy = build_hierarchy(weights, min_coarse_size=1024)
        assert hierarchy.levels == ()
        assert hierarchy.sizes == (20,)

    def test_coarsen_diagonal_aggregates_mask(self):
        weights = _random_graph(120, 2)
        hierarchy = build_hierarchy(weights, min_coarse_size=8)
        mask = np.zeros(120)
        mask[:30] = 1.0
        diagonals = hierarchy.coarsen_diagonal(mask)
        assert len(diagonals) == len(hierarchy.levels)
        # aggregation is a partition: total labeled mass is conserved
        for diag in diagonals:
            assert diag.sum() == pytest.approx(30.0)
        with pytest.raises(DataValidationError, match="length"):
            hierarchy.coarsen_diagonal(np.ones(7))

    def test_invalid_config_rejected(self):
        weights = _random_graph(30, 0)
        with pytest.raises(ConfigurationError, match="min_coarse_size"):
            build_hierarchy(weights, min_coarse_size=0)
        with pytest.raises(ConfigurationError, match="max_levels"):
            build_hierarchy(weights, max_levels=-1)


class TestMultigridPreconditioner:
    def test_preconditioner_is_symmetric(self):
        weights = _random_graph(150, 7)
        system = _soft_system(weights, 1.5, 40)
        precond = MultigridPreconditioner.from_matrix(
            system, min_coarse_size=16
        )
        rng = np.random.default_rng(0)
        u, v = rng.normal(size=(2, 150))
        # <Mu, v> == <u, Mv>: required for a valid CG preconditioner
        assert np.dot(precond(u), v) == pytest.approx(
            np.dot(u, precond(v)), rel=1e-8
        )

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        lam=st.floats(min_value=0.1, max_value=50.0),
    )
    def test_mg_pcg_beats_plain_cg_at_equal_budget(self, seed, lam):
        """Same iteration budget, multigrid reaches a residual at least
        as good (with slack) as unpreconditioned CG."""
        weights = _random_graph(300, seed)
        system = _soft_system(weights, lam, 75)
        rng = np.random.default_rng(seed)
        rhs = rng.normal(size=300)
        budget = 8

        def final_residual(preconditioner):
            try:
                result = preconditioned_conjugate_gradient(
                    system,
                    rhs,
                    preconditioner=preconditioner,
                    tol=1e-14,
                    max_iter=budget,
                )
                return result.final_residual
            except ConvergenceError as exc:
                return exc.residual

        mg = MultigridPreconditioner.from_matrix(system, min_coarse_size=16)
        assert final_residual(mg) <= 1.05 * final_residual(None) + 1e-12

    def test_validates_level_shapes_and_params(self):
        weights = _random_graph(40, 4)
        system = _soft_system(weights, 1.0, 10)
        with pytest.raises(ConfigurationError, match="at least one"):
            MultigridPreconditioner([], [])
        with pytest.raises(ConfigurationError, match="label arrays"):
            MultigridPreconditioner([system, system], [])
        with pytest.raises(ConfigurationError, match="omega"):
            MultigridPreconditioner.from_matrix(system, omega=1.5)
        with pytest.raises(ConfigurationError, match="n_smooth"):
            MultigridPreconditioner.from_matrix(system, n_smooth=0)

    def test_rejects_non_positive_diagonal(self):
        bad = sparse.diags([0.0, 1.0, 1.0, 1.0]).tocsr()
        p = aggregation_operator(np.array([0, 0, 1, 1]))
        with pytest.raises(DataValidationError, match="diagonal"):
            MultigridPreconditioner([bad, (p.T @ bad @ p).tocsr()], [p.indices])


class TestSolveMultigrid:
    def test_matches_direct_solve(self):
        weights = _random_graph(250, 9)
        system = _soft_system(weights, 2.0, 60)
        rng = np.random.default_rng(1)
        rhs = rng.normal(size=250)
        result = solve_multigrid(system, rhs, min_coarse_size=16)
        expected = solve_spd(system, rhs, method="direct")
        np.testing.assert_allclose(result.x, expected, atol=1e-7)
        assert result.converged

    def test_solve_spd_method_multigrid(self):
        weights = _random_graph(180, 10)
        system = _soft_system(weights, 0.5, 45)
        rhs = np.ones(180)
        x, info = solve_spd(
            system, rhs, method="multigrid", return_info=True
        )
        np.testing.assert_allclose(
            x, solve_spd(system, rhs, method="direct"), atol=1e-7
        )
        assert info.method == "multigrid"
        assert info.iterations > 0
        # warm start from the exact answer converges immediately
        _, warm_info = solve_spd(
            system, rhs, method="multigrid", x0=x, return_info=True
        )
        assert warm_info.warm_started
        assert warm_info.iterations <= info.iterations


class TestWorkspaceMultigridBackend:
    @pytest.fixture(scope="class")
    def problem(self):
        data = make_synthetic_dataset(60, 240, seed=13)
        bandwidth = paper_bandwidth_rule(60, 5)
        graph = knn_graph(data.x_all, k=8, bandwidth=bandwidth)
        return data, graph

    def test_parity_with_exact_backend_across_lambda_sweep(self, problem):
        data, graph = problem
        mg = SolveWorkspace(graph.weights, backend="multigrid")
        # the workspace floor (512) would leave this 300-vertex fixture
        # with an empty hierarchy; inject a deep one so the sweep
        # exercises real V-cycles, not the degenerate exact-solve case
        mg._hierarchy = build_hierarchy(graph.weights, min_coarse_size=32)
        mg._counters["coarsen_builds"] += 1
        exact = SolveWorkspace(graph.weights, backend="exact")
        for lam in (0.01, 0.1, 1.0, 10.0):
            a = mg.solve_soft(data.y_labeled, lam)
            b = exact.solve_soft(data.y_labeled, lam)
            np.testing.assert_allclose(a.scores, b.scores, atol=1e-6)
            assert a.solve_info.method == "multigrid_pcg"
            assert a.details["n_levels"] >= 3
        stats = mg.stats()
        assert stats.coarsen_builds == 1  # hierarchy shared across the sweep
        assert stats.multigrid_solves == 4
        assert stats.warm_starts == 3
        assert stats.pcg_iterations > 0

    def test_convergence_failure_falls_back_to_exact(
        self, problem, monkeypatch
    ):
        import repro.linalg.workspace as workspace_module

        data, graph = problem

        def stalled(*args, **kwargs):
            raise ConvergenceError("stalled V-cycle", iterations=7, residual=0.25)

        monkeypatch.setattr(workspace_module, "pcg", stalled)
        ws = SolveWorkspace(graph.weights, backend="multigrid")
        tracer = obs.RecordingTracer()
        with obs.use_tracer(tracer):
            fit = ws.solve_soft(data.y_labeled, 5.0)
        assert fit.details["fallback"] == "exact"
        # the fallback keeps its cause, in the result and in the trace
        assert fit.details["stall_iterations"] == 7
        assert fit.details["stall_residual"] == 0.25
        (span,) = [s for s in tracer.iter_spans() if s.name == "repro.workspace.solve"]
        assert span.attributes["fallback"] == "exact"
        assert span.attributes["stall_iterations"] == 7
        assert span.attributes["stall_residual"] == 0.25
        exact = SolveWorkspace(graph.weights, backend="exact")
        np.testing.assert_allclose(
            fit.scores, exact.solve_soft(data.y_labeled, 5.0).scores, atol=1e-8
        )
        assert ws.stats().reanchors == 1

    def test_invalidate_clears_hierarchy(self, problem):
        data, graph = problem
        ws = SolveWorkspace(graph.weights, backend="multigrid")
        ws.solve_soft(data.y_labeled, 0.5)
        ws.invalidate()
        ws.solve_soft(data.y_labeled, 0.5)
        assert ws.stats().coarsen_builds == 2

    def test_empty_hierarchy_degenerates_to_exact_solve(self):
        # below min_coarse_size the V-cycle is a single exact solve
        weights = _random_graph(30, 21)
        hierarchy = CoarseningHierarchy(n_vertices=30)
        system = _soft_system(weights, 1.0, 10)
        precond = MultigridPreconditioner.from_matrix(
            system, hierarchy=hierarchy
        )
        assert precond.n_levels == 1
        rng = np.random.default_rng(2)
        rhs = rng.normal(size=30)
        np.testing.assert_allclose(
            precond(rhs), solve_spd(system, rhs, method="direct"), atol=1e-8
        )


def _mask_diagonals(hierarchy, n_labeled):
    indicator = np.zeros(hierarchy.sizes[0] if hasattr(hierarchy, "sizes") else 0)
    indicator[:n_labeled] = 1.0
    return hierarchy.coarsen_diagonal(indicator)


class TestMatrixFreeHierarchy:
    """The matrix-free hierarchy must be the *same coarsening* as the
    assembled one — identical aggregates, sizes and level nnz — while
    retaining O(N) maps instead of O(Σ nnz_level) matrices."""

    def test_same_coarsening_as_assembled(self):
        weights = _random_graph(400, 3)
        assembled = build_hierarchy(weights, min_coarse_size=32)
        mf = build_matrix_free_hierarchy(weights, min_coarse_size=32)
        assert mf.sizes == assembled.sizes
        assert mf.n_levels == len(assembled.levels) + 1
        for labels, level in zip(mf.labels, assembled.levels):
            # the matching defines the prolongation: P[i, labels[i]] = 1
            np.testing.assert_array_equal(labels, level.prolongation.indices)
        assert mf.level_nnz == tuple(
            level.weights.nnz for level in assembled.levels
        )
        for lap_diag, level in zip(mf.lap_diagonals, assembled.levels):
            np.testing.assert_allclose(
                lap_diag, level.laplacian.diagonal(), atol=1e-12
            )
        np.testing.assert_allclose(
            (mf.coarsest_weights - assembled.levels[-1].weights).toarray(),
            0.0,
            atol=1e-12,
        )

    def test_coarsen_diagonal_matches_assembled(self):
        weights = _random_graph(300, 5)
        assembled = build_hierarchy(weights, min_coarse_size=32)
        mf = build_matrix_free_hierarchy(weights, min_coarse_size=32)
        indicator = np.zeros(300)
        indicator[:80] = 1.0
        for a, b in zip(
            mf.coarsen_diagonal(indicator),
            assembled.coarsen_diagonal(indicator),
        ):
            np.testing.assert_allclose(a, b, atol=1e-12)
        with pytest.raises(DataValidationError, match="length"):
            mf.coarsen_diagonal(np.ones(7))

    def test_retained_below_assembled_estimate(self):
        weights = _random_graph(600, 8)
        mf = build_matrix_free_hierarchy(weights, min_coarse_size=32)
        assert 0 < mf.retained_bytes()
        assert mf.retained_bytes() < mf.assembled_bytes_estimate()

    def test_shared_fine_laplacian_is_not_recomputed(self):
        weights = _random_graph(200, 9)
        lap = laplacian(weights).tocsr()
        mf = build_matrix_free_hierarchy(
            weights, min_coarse_size=32, fine_laplacian=lap
        )
        assert mf.fine_laplacian is lap
        with pytest.raises(DataValidationError, match="fine_laplacian"):
            build_matrix_free_hierarchy(
                weights, fine_laplacian=sparse.eye(5, format="csr")
            )

    def test_small_graph_keeps_fine_level_only(self):
        weights = _random_graph(30, 2)
        mf = build_matrix_free_hierarchy(weights, min_coarse_size=64)
        assert mf.labels == ()
        assert mf.n_levels == 1
        assert mf.coarsest_laplacian is mf.fine_laplacian


class TestMatrixFreeMultigridPreconditioner:
    def _setup(self, n=350, seed=17, lam=1.5, n_labeled=90, min_coarse=32):
        weights = _random_graph(n, seed)
        system = _soft_system(weights, lam, n_labeled)
        mf = build_matrix_free_hierarchy(weights, min_coarse_size=min_coarse)
        indicator = np.zeros(n)
        indicator[:n_labeled] = 1.0
        masks = mf.coarsen_diagonal(indicator)
        return weights, system, mf, masks, lam, n_labeled

    def test_matches_assembled_preconditioner(self):
        weights, system, mf, masks, lam, n_labeled = self._setup()
        assembled = build_hierarchy(weights, min_coarse_size=32)
        systems = [system]
        for level, mask in zip(
            assembled.levels, _mask_diagonals(assembled, n_labeled)
        ):
            systems.append(
                (lam * level.laplacian + sparse.diags(mask, format="csr")).tocsr()
            )
        reference = MultigridPreconditioner(systems, assembled.labels)
        precond = MultigridPreconditioner.from_hierarchy(system, mf, lam, masks)
        assert precond.n_levels == reference.n_levels
        rng = np.random.default_rng(4)
        for residual in rng.normal(size=(3, weights.shape[0])):
            np.testing.assert_allclose(
                precond(residual), reference(residual), rtol=1e-10, atol=1e-12
            )

    def test_preconditioner_is_symmetric(self):
        _, system, mf, masks, lam, _ = self._setup(seed=23)
        precond = MultigridPreconditioner.from_hierarchy(system, mf, lam, masks)
        rng = np.random.default_rng(0)
        u, v = rng.normal(size=(2, 350))
        assert np.dot(precond(u), v) == pytest.approx(
            np.dot(u, precond(v)), rel=1e-8
        )

    def test_float32_policy_stays_close_and_casts_back(self):
        _, system, mf, masks, lam, _ = self._setup(seed=29)
        exact = MultigridPreconditioner.from_hierarchy(system, mf, lam, masks)
        mixed = MultigridPreconditioner.from_hierarchy(
            system, mf, lam, masks, dtype_policy="float32"
        )
        rng = np.random.default_rng(5)
        residual = rng.normal(size=350)
        out = mixed(residual)
        assert out.dtype == np.float64
        reference = exact(residual)
        scale = float(np.linalg.norm(reference))
        assert np.linalg.norm(out - reference) < 1e-5 * scale

    def test_validation(self):
        _, system, mf, masks, lam, _ = self._setup(seed=31)
        with pytest.raises(ConfigurationError, match="omega"):
            MultigridPreconditioner.from_hierarchy(system, mf, lam, masks, omega=2.0)
        with pytest.raises(ConfigurationError, match="n_smooth"):
            MultigridPreconditioner.from_hierarchy(
                system, mf, lam, masks, n_smooth=0
            )
        with pytest.raises(ConfigurationError, match="mask diagonals"):
            MultigridPreconditioner.from_hierarchy(system, mf, lam, masks[:-1])
        with pytest.raises(ConfigurationError, match="dtype_policy"):
            MultigridPreconditioner.from_hierarchy(
                system, mf, lam, masks, dtype_policy="float16"
            )

    def test_degenerate_hierarchy_is_exact_solve(self):
        weights = _random_graph(30, 33)
        system = _soft_system(weights, 1.0, 10)
        mf = build_matrix_free_hierarchy(weights, min_coarse_size=64)
        precond = MultigridPreconditioner.from_hierarchy(system, mf, 1.0, [])
        assert precond.n_levels == 1
        rng = np.random.default_rng(2)
        rhs = rng.normal(size=30)
        np.testing.assert_allclose(
            precond(rhs), solve_spd(system, rhs, method="direct"), atol=1e-8
        )


class TestWorkspaceMatrixFree:
    """hierarchy_mode / dtype_policy plumbing through SolveWorkspace."""

    @pytest.fixture(scope="class")
    def problem(self):
        data = make_synthetic_dataset(60, 240, seed=13)
        bandwidth = paper_bandwidth_rule(60, 5)
        graph = knn_graph(data.x_all, k=8, bandwidth=bandwidth)
        return data, graph

    def _matrix_free_workspace(self, graph, **kwargs):
        ws = SolveWorkspace(
            graph.weights,
            backend="multigrid",
            hierarchy_mode="matrix_free",
            **kwargs,
        )
        # the workspace floor (512) would leave this 300-vertex fixture
        # with an empty hierarchy; inject a deep one so the sweep
        # exercises real V-cycles
        ws._hierarchy = build_matrix_free_hierarchy(
            graph.weights, min_coarse_size=32
        )
        ws._counters["coarsen_builds"] += 1
        return ws

    @pytest.mark.parametrize("dtype_policy", ["float64", "float32"])
    def test_parity_with_exact_across_lambda_sweep(self, problem, dtype_policy):
        data, graph = problem
        ws = self._matrix_free_workspace(graph, dtype_policy=dtype_policy)
        exact = SolveWorkspace(graph.weights, backend="exact")
        for lam in (0.01, 0.1, 1.0, 10.0):
            a = ws.solve_soft(data.y_labeled, lam)
            b = exact.solve_soft(data.y_labeled, lam)
            np.testing.assert_allclose(a.scores, b.scores, atol=1e-6)
            assert a.solve_info.method == "multigrid_pcg"
        stats = ws.stats()
        assert stats.hierarchy_mode == "matrix_free"
        assert stats.dtype_policy == dtype_policy
        assert stats.multigrid_solves == 4

    def test_float32_matches_float64_to_documented_tier(self, problem):
        data, graph = problem
        f64 = self._matrix_free_workspace(graph, dtype_policy="float64")
        f32 = self._matrix_free_workspace(graph, dtype_policy="float32")
        for lam in (0.05, 5.0):
            a = f64.solve_soft(data.y_labeled, lam).scores
            b = f32.solve_soft(data.y_labeled, lam).scores
            rms = float(np.sqrt(np.mean((a - b) ** 2)))
            assert rms < 1e-9  # the tier documented in docs/SCALING.md

    def test_auto_mode_resolves_by_size(self, problem, monkeypatch):
        import repro.linalg.workspace as workspace_module

        _, graph = problem
        small = SolveWorkspace(graph.weights, backend="multigrid")
        assert small.stats().hierarchy_mode == "assembled"
        monkeypatch.setattr(workspace_module, "MATRIX_FREE_MIN_VERTICES", 100)
        large = SolveWorkspace(graph.weights, backend="multigrid")
        assert large.stats().hierarchy_mode == "matrix_free"
        # dense graphs never auto-select the matrix-free representation
        dense = SolveWorkspace(
            np.asarray(graph.weights.todense()), backend="multigrid"
        )
        assert dense.stats().hierarchy_mode == "assembled"

    def test_requested_mode_wins_over_auto(self, problem):
        _, graph = problem
        ws = SolveWorkspace(
            graph.weights, backend="multigrid", hierarchy_mode="matrix_free"
        )
        assert ws.stats().hierarchy_mode == "matrix_free"
        hierarchy = ws.hierarchy()
        assert hierarchy.labels == ()  # 300 vertices < workspace floor

    def test_validation(self, problem):
        _, graph = problem
        with pytest.raises(ConfigurationError, match="hierarchy_mode"):
            SolveWorkspace(graph.weights, hierarchy_mode="bogus")
        with pytest.raises(ConfigurationError, match="dtype_policy"):
            SolveWorkspace(graph.weights, dtype_policy="float16")

    def test_assembled_dtype_policy_sweep_parity(self, problem):
        data, graph = problem
        ws = SolveWorkspace(
            graph.weights, backend="multigrid", dtype_policy="float32",
            hierarchy_mode="assembled",
        )
        ws._hierarchy = build_hierarchy(graph.weights, min_coarse_size=32)
        ws._counters["coarsen_builds"] += 1
        exact = SolveWorkspace(graph.weights, backend="exact")
        for lam in (0.1, 1.0):
            a = ws.solve_soft(data.y_labeled, lam)
            b = exact.solve_soft(data.y_labeled, lam)
            np.testing.assert_allclose(a.scores, b.scores, atol=1e-6)

    def test_invalidate_rebuilds_matrix_free_hierarchy(self, problem):
        data, graph = problem
        ws = SolveWorkspace(
            graph.weights, backend="multigrid", hierarchy_mode="matrix_free"
        )
        ws.solve_soft(data.y_labeled, 0.5)
        ws.invalidate()
        ws.solve_soft(data.y_labeled, 0.5)
        assert ws.stats().coarsen_builds == 2
