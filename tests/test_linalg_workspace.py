"""Unit tests for the cross-solve amortization workspace.

Covers the cache machinery (hits/misses/evictions), the ``auto``
choice between the Woodbury continuation and multigrid (and the
Woodbury path's exact fallback), the one list of sweep backends,
invalidation on graph mutation
(including a hypothesis property test: a mutated workspace must raise,
and recompute once invalidated, never serve stale answers), and the
``x0`` threading through
``solve_spd``.  Numerical parity against direct solves lives in
``tests/test_workspace_parity.py``.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.hard import solve_hard_criterion
from repro.core.soft import solve_soft_criterion
from repro.datasets.synthetic import make_synthetic_dataset
from repro.exceptions import ConfigurationError, WorkspaceInvalidatedError
from repro.experiments.figures.prop21 import run_prop21_experiment
from repro.graph.similarity import full_kernel_graph, knn_graph
from repro.kernels.bandwidth import paper_bandwidth_rule
from repro.linalg import workspace as workspace_module
from repro.linalg.coarsen import build_hierarchy
from repro.linalg.solvers import SolveInfo, solve_spd
from repro.linalg.workspace import SWEEP_BACKENDS, SolveWorkspace
from repro.model_selection.search import cross_validate_lambda


@pytest.fixture(scope="module")
def problem():
    data = make_synthetic_dataset(60, 30, seed=7)
    bandwidth = paper_bandwidth_rule(60, 5)
    graph = full_kernel_graph(data.x_all, bandwidth=bandwidth)
    return data, graph


@pytest.fixture(scope="module")
def sparse_problem():
    data = make_synthetic_dataset(60, 60, seed=9)
    bandwidth = paper_bandwidth_rule(60, 5)
    graph = knn_graph(data.x_all, k=10, bandwidth=bandwidth)
    return data, graph


class TestFactorizationCache:
    def test_exact_repeat_solve_hits_cache(self, problem):
        data, graph = problem
        ws = SolveWorkspace(graph.weights, backend="exact")
        a = ws.solve_soft(data.y_labeled, 0.1)
        b = ws.solve_soft(data.y_labeled, 0.1)
        stats = ws.stats()
        assert stats.factor_misses == 1
        assert stats.factor_hits == 1
        assert np.array_equal(a.scores, b.scores)

    def test_lru_eviction(self, problem, monkeypatch):
        data, graph = problem
        monkeypatch.setattr(workspace_module, "MAX_FACTORIZATIONS", 2)
        ws = SolveWorkspace(graph.weights, backend="exact")
        for lam in (0.1, 0.2, 0.3):
            ws.solve_soft(data.y_labeled, lam)
        stats = ws.stats()
        assert stats.factor_evictions == 1
        # 0.1 was evicted: solving it again must miss, 0.3 must hit.
        ws.solve_soft(data.y_labeled, 0.3)
        assert ws.stats().factor_hits == 1
        ws.solve_soft(data.y_labeled, 0.1)
        assert ws.stats().factor_misses == 4

    def test_hard_factorization_reused_across_calls(self, problem):
        data, graph = problem
        ws = SolveWorkspace(graph.weights)
        ws.solve_hard(data.y_labeled)
        ws.solve_hard(data.y_labeled)
        ws.solve_soft(data.y_labeled, 0.0)  # delegates to hard
        stats = ws.stats()
        assert stats.factor_misses == 1
        assert stats.factor_hits == 2

    def test_distinct_masks_get_distinct_factorizations(self, problem):
        data, graph = problem
        ws = SolveWorkspace(graph.weights, backend="exact")
        ws.solve_soft(data.y_labeled, 0.1)
        ws.solve_soft(data.y_labeled[:50], 0.1)
        assert ws.stats().factor_misses == 2

    def test_invalid_configuration_rejected(self, problem):
        _, graph = problem
        with pytest.raises(ConfigurationError):
            SolveWorkspace(graph.weights, backend="nope")


class TestContinuation:
    @pytest.mark.parametrize("backend", ["multigrid", "auto"])
    def test_sweep_never_mutates_earlier_scores(self, backend):
        """Each λ starts from the previous λ's returned scores (the
        multigrid warm start; the Woodbury path reuses its anchor); no
        later solve writes into an earlier grid point's scores."""
        data = make_synthetic_dataset(30, 170, seed=9)
        bandwidth = paper_bandwidth_rule(30, 5)
        graph = knn_graph(data.x_all, k=10, bandwidth=bandwidth)
        ws = SolveWorkspace(graph.weights, backend=backend)
        if backend == "multigrid":
            # deeper than the workspace's 512-vertex floor, so real V-cycles run
            ws._hierarchy = build_hierarchy(graph.weights, min_coarse_size=16)
        fits, snapshots = [], []
        for lam in (0.01, 0.1, 1.0, 10.0):
            fits.append(ws.solve_soft(data.y_labeled, lam))
            snapshots.append(fits[-1].scores.copy())
            for fit, snapshot in zip(fits, snapshots):
                np.testing.assert_array_equal(fit.scores, snapshot)
        stats = ws.stats()
        if backend == "multigrid":
            assert stats.warm_starts >= 2
        else:
            assert stats.woodbury_solves == 3

    def test_small_labeled_fraction_uses_woodbury(self):
        """Below the crossover with n_labeled <= min(512, N/4), ``auto``
        solves the whole sweep off ONE factorization via the
        rank-n_labeled Woodbury update — no PCG, no fallback."""
        data = make_synthetic_dataset(20, 100, seed=5)
        bandwidth = paper_bandwidth_rule(20, 5)
        graph = full_kernel_graph(data.x_all, bandwidth=bandwidth)
        ws = SolveWorkspace(graph.weights)
        grid = (1e-3, 1e-2, 0.1, 1.0, 10.0)
        fits = ws.sweep_soft(data.y_labeled, grid)
        stats = ws.stats()
        assert stats.factor_misses == 1
        assert stats.woodbury_solves == len(grid) - 1  # all but the anchor
        assert stats.multigrid_solves == 0
        assert stats.reanchors == 0
        assert [fit.solve_info.method for fit in fits[1:]] == ["woodbury"] * 4
        for lam, fit in zip(grid, fits):
            reference = solve_soft_criterion(
                graph.weights, data.y_labeled, lam, check_reachability=False
            )
            np.testing.assert_allclose(
                fit.scores, reference.scores, atol=1e-8, rtol=0
            )

    @pytest.mark.parametrize("route", ["above_crossover", "large_labeled_block"])
    def test_auto_runs_multigrid_otherwise(self, route, monkeypatch):
        """At or above WOODBURY_MAX_VERTICES, or with n_labeled > N/4,
        ``auto`` runs the multigrid path: no workspace factorization."""
        if route == "above_crossover":
            data = make_synthetic_dataset(20, 100, seed=5)
            monkeypatch.setattr(workspace_module, "WOODBURY_MAX_VERTICES", 120)
        else:
            data = make_synthetic_dataset(40, 80, seed=5)
        bandwidth = paper_bandwidth_rule(data.y_labeled.shape[0], 5)
        graph = knn_graph(data.x_all, k=10, bandwidth=bandwidth)
        ws = SolveWorkspace(graph.weights)
        grid = (1e-3, 1e-2, 0.1, 1.0, 10.0)
        fits = ws.sweep_soft(data.y_labeled, grid)
        stats = ws.stats()
        assert [fit.solve_info.method for fit in fits] == ["multigrid_pcg"] * 5
        assert stats.factor_misses == 0
        assert stats.woodbury_solves == 0
        for lam, fit in zip(grid, fits):
            reference = solve_soft_criterion(
                graph.weights, data.y_labeled, lam, check_reachability=False
            )
            np.testing.assert_allclose(
                fit.scores, reference.scores, atol=1e-8, rtol=0
            )

    def test_woodbury_refinement_failure_falls_back_to_exact(self, monkeypatch):
        """A Woodbury update that refinement cannot bring to tolerance
        is replaced by an exact solve, and the switch says why."""
        from repro import obs

        data = make_synthetic_dataset(20, 100, seed=5)
        bandwidth = paper_bandwidth_rule(20, 5)
        graph = full_kernel_graph(data.x_all, bandwidth=bandwidth)
        honest = SolveWorkspace._woodbury_apply

        def perturbed(self, state, lam, rhs):
            return honest(self, state, lam, rhs) + 1e-3

        monkeypatch.setattr(SolveWorkspace, "_woodbury_apply", perturbed)
        ws = SolveWorkspace(graph.weights)
        tracer = obs.RecordingTracer()
        with obs.use_tracer(tracer):
            anchor, fit = ws.sweep_soft(data.y_labeled, (0.1, 1.0))
        assert "fallback" not in anchor.details
        assert fit.details["fallback"] == "exact"
        assert fit.details["unrefined_residual"] > workspace_module.PCG_TOL
        spans = [s for s in tracer.iter_spans() if s.name == "repro.workspace.solve"]
        assert spans[-1].attributes["fallback"] == "exact"
        assert (
            spans[-1].attributes["unrefined_residual"]
            == fit.details["unrefined_residual"]
        )
        assert ws.stats().reanchors == 1
        assert ws.stats().woodbury_solves == 0
        exact = SolveWorkspace(graph.weights, backend="exact")
        np.testing.assert_allclose(
            fit.scores, exact.solve_soft(data.y_labeled, 1.0).scores,
            atol=1e-8, rtol=0,
        )


class TestSweepBackendChoices:
    def test_one_list_everywhere(self):
        from repro.cli import build_parser
        from repro.experiments.amortize import SWEEP_BACKEND_CHOICES

        assert SWEEP_BACKENDS == ("exact", "auto", "multigrid")
        assert SWEEP_BACKEND_CHOICES == ("direct",) + SWEEP_BACKENDS
        args = build_parser().parse_args(["prop21", "--sweep-backend", "auto"])
        assert args.sweep_backend == "auto"
        for removed in ("factored", "spectral", "cg"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["prop21", "--sweep-backend", removed])

    @pytest.mark.parametrize("removed", ["factored", "spectral", "cg"])
    def test_removed_backends_rejected(self, problem, removed):
        data, graph = problem
        with pytest.raises(ConfigurationError, match="'auto'"):
            SolveWorkspace(graph.weights, backend=removed)
        with pytest.raises(ConfigurationError, match="'direct'.*'auto'"):
            run_prop21_experiment(
                n_labeled=10, n_unlabeled=5, seed=0, sweep_backend=removed
            )
        with pytest.raises(ConfigurationError, match="'direct'.*'auto'"):
            cross_validate_lambda(
                graph.weights, data.y_labeled, (0.1,), sweep_backend=removed
            )


class TestInvalidation:
    def test_dense_mutation_raises(self, problem):
        data, graph = problem
        weights = graph.weights.copy()
        ws = SolveWorkspace(weights)
        ws.solve_soft(data.y_labeled, 0.1)
        ws.weights[0, 1] += 0.25
        ws.weights[1, 0] += 0.25
        with pytest.raises(WorkspaceInvalidatedError):
            ws.solve_soft(data.y_labeled, 0.1)

    def test_sparse_mutation_raises(self, sparse_problem):
        data, graph = sparse_problem
        ws = SolveWorkspace(graph.weights.copy())
        ws.solve_hard(data.y_labeled)
        ws.weights.data[0] += 1.0
        with pytest.raises(WorkspaceInvalidatedError):
            ws.solve_hard(data.y_labeled)

    def test_recompute_mode_reflects_mutation(self, problem):
        """A mutation raises; invalidate() then recomputes for the new graph."""
        data, graph = problem
        weights = graph.weights.copy()
        ws = SolveWorkspace(weights, backend="exact")
        ws.solve_soft(data.y_labeled, 0.1)
        ws.weights[0, 1] += 0.25
        ws.weights[1, 0] += 0.25
        with pytest.raises(WorkspaceInvalidatedError, match="invalidate"):
            ws.solve_soft(data.y_labeled, 0.1)
        ws.invalidate()
        fit = ws.solve_soft(data.y_labeled, 0.1)
        reference = solve_soft_criterion(
            ws.weights, data.y_labeled, 0.1, check_reachability=False
        )
        np.testing.assert_allclose(fit.scores, reference.scores, atol=1e-8)

    def test_explicit_invalidate_clears_caches(self, problem):
        data, graph = problem
        ws = SolveWorkspace(graph.weights, backend="exact")
        ws.solve_soft(data.y_labeled, 0.1)
        ws.invalidate()
        ws.solve_soft(data.y_labeled, 0.1)
        assert ws.stats().factor_misses == 2

    @settings(max_examples=15, deadline=None)
    @given(
        entry=st.tuples(
            st.integers(min_value=0, max_value=89),
            st.integers(min_value=0, max_value=89),
        ),
        bump=st.floats(min_value=1e-6, max_value=10.0),
    )
    def test_never_serves_stale_factorization(self, entry, bump):
        """Property: after ANY symmetric weight bump, a workspace raises,
        and once invalidated returns the answer for the mutated graph —
        never the cached answer for the old one.  Diagonal bumps are
        excluded: they shift the degree by the same amount, leaving
        ``L = D - W`` (and hence the solution) unchanged."""
        assume(entry[0] != entry[1])
        data = make_synthetic_dataset(60, 30, seed=3)
        bandwidth = paper_bandwidth_rule(60, 5)
        weights = full_kernel_graph(data.x_all, bandwidth=bandwidth).weights.copy()
        ws = SolveWorkspace(weights, backend="exact")
        stale = ws.solve_soft(data.y_labeled, 0.1)
        i, j = entry
        ws.weights[i, j] += bump
        ws.weights[j, i] = ws.weights[i, j]
        with pytest.raises(WorkspaceInvalidatedError):
            ws.solve_soft(data.y_labeled, 0.1)
        ws.invalidate()
        fresh = ws.solve_soft(data.y_labeled, 0.1)
        reference = solve_soft_criterion(
            ws.weights, data.y_labeled, 0.1, check_reachability=False
        )
        np.testing.assert_allclose(fresh.scores, reference.scores, atol=1e-8)
        assert not np.array_equal(fresh.scores, stale.scores)


class TestCoreDelegation:
    def test_soft_workspace_kwarg(self, problem):
        data, graph = problem
        ws = SolveWorkspace(graph.weights, backend="exact")
        fit = solve_soft_criterion(
            graph.weights, data.y_labeled, 0.1, workspace=ws
        )
        assert fit.method == "workspace[exact]"
        assert ws.stats().factor_misses == 1

    def test_hard_workspace_kwarg(self, problem):
        data, graph = problem
        ws = SolveWorkspace(graph.weights)
        fit = solve_hard_criterion(graph.weights, data.y_labeled, workspace=ws)
        reference = solve_hard_criterion(
            graph.weights, data.y_labeled, check_reachability=False
        )
        np.testing.assert_array_equal(fit.scores[:60], data.y_labeled)
        np.testing.assert_allclose(fit.scores, reference.scores, atol=1e-10)


class TestSolveSpdWarmStart:
    """Satellite: x0 threading through solve_spd."""

    def _system(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(40, 40))
        return a @ a.T + 40 * np.eye(40), rng.normal(size=40)

    def test_x0_forwarded_to_iterative(self):
        system, rhs = self._system()
        exact = np.linalg.solve(system, rhs)
        cold, cold_info = solve_spd(system, rhs, method="cg", return_info=True)
        warm, warm_info = solve_spd(
            system, rhs, method="cg", x0=exact, return_info=True
        )
        assert not cold_info.warm_started
        assert warm_info.warm_started
        assert warm_info.iterations < cold_info.iterations
        np.testing.assert_allclose(warm, exact, atol=1e-8)

    def test_x0_ignored_by_direct(self):
        system, rhs = self._system()
        plain = solve_spd(system, rhs)
        with_x0 = solve_spd(system, rhs, x0=np.ones(40))
        np.testing.assert_array_equal(plain, with_x0)

    def test_solveinfo_new_fields_default(self):
        info = SolveInfo(method="cholesky", size=5)
        assert info.warm_started is False
