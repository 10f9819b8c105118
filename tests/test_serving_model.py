"""Unit tests for the serving model, micro-batching server, and CLI verb.

Covers the serving *boundary* (malformed queries are
:class:`~repro.exceptions.ConfigurationError`, mapped by the CLI to a
one-line ``error:`` + exit 2 — the PR-4 convention), the counter
surfaces, ticket lifecycle, and the ``repro serve-eval`` verb.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.datasets.synthetic import make_regression_dataset, truncated_mvn_inputs
from repro.exceptions import ConfigurationError, NotFittedError
from repro.serving import (
    SERVING_METHODS,
    GraphSSLModel,
    ModelServer,
    run_serve_eval,
)


@pytest.fixture(scope="module")
def fitted():
    rng = np.random.default_rng(5)
    data = make_regression_dataset(25, 75, seed=rng)
    model = GraphSSLModel(graph="full")
    model.fit(data.x_labeled, data.y_labeled, data.x_unlabeled)
    queries = truncated_mvn_inputs(6, seed=rng)
    return model, queries


class TestConstructionAndFit:
    def test_negative_lam_rejected(self):
        with pytest.raises(ConfigurationError, match="lam"):
            GraphSSLModel(lam=-0.5)

    def test_nonpositive_field_scale_rejected(self):
        with pytest.raises(ConfigurationError, match="field_scale"):
            GraphSSLModel(field_scale=0.0)

    def test_unfitted_model_refuses_queries(self):
        with pytest.raises(NotFittedError):
            GraphSSLModel().predict(np.zeros((1, 3)))

    def test_unfitted_model_refuses_server(self):
        with pytest.raises(NotFittedError):
            ModelServer(GraphSSLModel())

    def test_label_length_mismatch(self):
        with pytest.raises(ConfigurationError, match="rows"):
            GraphSSLModel().fit(np.zeros((4, 2)), np.zeros(3))

    def test_unlabeled_feature_mismatch(self):
        with pytest.raises(ConfigurationError, match="features"):
            GraphSSLModel().fit(
                np.random.default_rng(0).normal(size=(4, 2)),
                np.zeros(4),
                np.zeros((3, 5)),
            )

    def test_fit_returns_self_and_exposes_state(self, fitted):
        model, _ = fitted
        assert model.n_labeled_ == 25
        assert model.n_reference_ == 100
        assert model.scores_.shape == (100,)
        assert model.bandwidth_ > 0

    def test_soft_fit_is_one_exact_solve(self):
        """A soft fit solves one λ: no Woodbury basis is built, and the
        scores are the exact workspace solve's, bit for bit."""
        from repro import obs
        from repro.linalg.workspace import SolveWorkspace

        data = make_regression_dataset(25, 175, seed=3)
        model = GraphSSLModel(lam=0.5, graph="knn", graph_params={"k": 10})
        tracer = obs.RecordingTracer()
        with obs.use_tracer(tracer):
            model.fit(data.x_labeled, data.y_labeled, data.x_unlabeled)
        names = {span.name for span in tracer.iter_spans()}
        assert "repro.workspace.woodbury_basis" not in names
        exact = SolveWorkspace(model.graph_.weights, backend="exact")
        np.testing.assert_array_equal(
            model.scores_, exact.solve_soft(data.y_labeled, 0.5).scores
        )


class TestServingBoundary:
    """Malformed queries raise ConfigurationError at the boundary."""

    def test_one_dimensional_query_rejected(self, fitted):
        model, _ = fitted
        with pytest.raises(ConfigurationError, match=r"x\[None, :\]"):
            model.predict(np.zeros(5))

    def test_empty_batch_rejected(self, fitted):
        model, _ = fitted
        with pytest.raises(ConfigurationError, match="empty"):
            model.predict(np.zeros((0, 5)))

    def test_wrong_feature_count_rejected(self, fitted):
        model, _ = fitted
        with pytest.raises(ConfigurationError, match="features"):
            model.predict(np.zeros((2, 4)))

    def test_non_numeric_batch_rejected(self, fitted):
        model, _ = fitted
        with pytest.raises(ConfigurationError, match="numeric"):
            model.predict([["a", "b", "c", "d", "e"]])

    def test_non_finite_batch_rejected(self, fitted):
        model, _ = fitted
        bad = np.zeros((2, 5))
        bad[1, 3] = np.nan
        with pytest.raises(ConfigurationError, match="non-finite"):
            model.predict(bad)

    def test_unknown_method_rejected(self, fitted):
        model, queries = fitted
        with pytest.raises(ConfigurationError, match="unknown serving method"):
            model.predict(queries, method="kriging")

    def test_bad_batch_size_rejected(self, fitted):
        model, queries = fitted
        with pytest.raises(ConfigurationError, match="batch_size"):
            model.predict_batch(queries, batch_size=0)

    def test_interval_requires_hard_criterion(self):
        rng = np.random.default_rng(9)
        data = make_regression_dataset(15, 30, seed=rng)
        soft = GraphSSLModel(lam=0.3)
        soft.fit(data.x_labeled, data.y_labeled, data.x_unlabeled)
        with pytest.raises(ConfigurationError, match="hard-criterion"):
            soft.predict(
                truncated_mvn_inputs(2, seed=rng), return_interval=True
            )

    def test_interval_requires_positive_z(self, fitted):
        model, queries = fitted
        with pytest.raises(ConfigurationError, match="z must be"):
            model.predict(queries, return_interval=True, z=0.0)


class TestCountersAndState:
    def test_stats_counters_advance(self, fitted):
        model, queries = fitted
        before = model.stats()
        model.predict(queries, method="nw")
        model.predict_batch(queries, method="nystrom", batch_size=2)
        after = model.stats()
        assert after.queries == before.queries + 2 * len(queries)
        assert after.nw_queries == before.nw_queries + len(queries)
        assert after.nystrom_queries == before.nystrom_queries + len(queries)
        assert after.batches == before.batches + 1 + 3

    def test_exact_iterations_accumulate(self, fitted):
        model, queries = fitted
        before = model.stats().exact_iterations
        model.predict(queries, method="exact")
        assert model.stats().exact_iterations > before

    @pytest.mark.parametrize("lam", [0.0, 0.5])
    def test_exact_insertion_leaves_fitted_scores_untouched(self, lam):
        """Insertions start CG from the fitted scores; the in-place
        solver copies that start and never writes into it."""
        rng = np.random.default_rng(11)
        data = make_regression_dataset(25, 75, seed=rng)
        model = GraphSSLModel(lam=lam, graph="full")
        model.fit(data.x_labeled, data.y_labeled, data.x_unlabeled)
        before = model.scores_.copy()
        model.predict(
            truncated_mvn_inputs(4, seed=rng), method="exact", return_interval=lam == 0.0
        )
        np.testing.assert_array_equal(model.scores_, before)

    def test_pickle_roundtrip_drops_factorizations(self, fitted):
        import pickle

        model, queries = fitted
        clone = pickle.loads(pickle.dumps(model))
        assert clone._workspace is None and clone._inserter is None
        # The clone still serves — including the exact path, which
        # rebuilds its workspace lazily.
        for method in SERVING_METHODS:
            np.testing.assert_array_equal(
                clone.predict(queries, method=method),
                model.predict(queries, method=method),
            )

    def test_query_weights_rows_are_frozen_graph_rows(self, fitted):
        model, queries = fitted
        rows = model.query_weights(queries)
        assert len(rows) == len(queries)
        for row in rows:
            assert row.indices.shape == row.weights.shape
            assert np.all(np.isfinite(row.weights))
            assert row.total >= 0


class TestModelServer:
    def test_ticket_lifecycle_and_auto_flush(self, fitted):
        model, queries = fitted
        server = ModelServer(model, max_batch_size=3)
        tickets = [server.submit(q) for q in queries[:3]]
        # The third submit filled the batch -> auto-flush resolved all.
        assert all(t.done for t in tickets)
        stats = server.stats()
        assert stats.full_batches == 1 and stats.flushes == 1
        assert stats.pending == 0

    def test_pending_ticket_resolves_lazily(self, fitted):
        model, queries = fitted
        server = ModelServer(model, max_batch_size=50)
        ticket = server.submit(queries[0])
        assert not ticket.done
        value = ticket.result()  # triggers the flush
        assert ticket.done
        assert value == pytest.approx(
            float(model.predict(queries[:1])[0]), abs=0
        )

    def test_submit_rejects_multi_point_input(self, fitted):
        model, queries = fitted
        server = ModelServer(model)
        with pytest.raises(ConfigurationError, match="single query point"):
            server.submit(queries[:2])

    def test_bad_max_batch_size(self, fitted):
        model, _ = fitted
        with pytest.raises(ConfigurationError, match="max_batch_size"):
            ModelServer(model, max_batch_size=0)

    def test_flush_on_empty_queue_is_a_noop(self, fitted):
        model, _ = fitted
        server = ModelServer(model)
        assert server.flush() == 0


class TestServeEvalDriver:
    def test_runs_and_reports_every_method(self):
        result = run_serve_eval(
            n_reference=80,
            n_labeled=20,
            n_queries=12,
            batch_size=4,
            parity_sample=4,
            seed=0,
        )
        assert [r.method for r in result.reports] == list(SERVING_METHODS)
        for report in result.reports:
            assert report.single_qps > 0 and report.batched_qps > 0
        exact = next(r for r in result.reports if r.method == "exact")
        assert exact.max_abs_dev_vs_exact == pytest.approx(0.0, abs=1e-12)
        assert len(result.to_rows()) == len(SERVING_METHODS)
        assert len(result.headers()) == 5

    def test_rejects_bad_shapes(self):
        with pytest.raises(ConfigurationError, match="n_labeled"):
            run_serve_eval(n_reference=10, n_labeled=10)
        with pytest.raises(ConfigurationError, match="unknown serving method"):
            run_serve_eval(n_reference=30, n_labeled=5, methods="krige")


class TestServeEvalCli:
    def test_verb_registered_with_defaults(self):
        args = build_parser().parse_args(["serve-eval"])
        assert args.command == "serve-eval"
        assert args.n_ref == 2000 and args.queries == 256
        assert args.method == "all" and args.graph == "knn"
        assert callable(args.handler)

    def test_small_run_prints_table(self, capsys):
        code = main(
            [
                "serve-eval", "--n-ref", "80", "--n-labeled", "20",
                "--queries", "12", "--batch-size", "4",
                "--parity-sample", "4", "--method", "nw", "--seed", "0",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "serving evaluation" in out
        assert "nw" in out

    def test_driver_configuration_error_exits_two(self, capsys):
        code = main(
            ["serve-eval", "--n-ref", "10", "--n-labeled", "10", "--seed", "0"]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_csv_twin_written(self, capsys, tmp_path):
        csv_path = tmp_path / "serve.csv"
        code = main(
            [
                "serve-eval", "--n-ref", "60", "--n-labeled", "15",
                "--queries", "8", "--batch-size", "4", "--method", "nw",
                "--parity-sample", "0", "--seed", "0",
                "--csv", str(csv_path),
            ]
        )
        assert code == 0
        assert csv_path.exists()
        assert "method" in csv_path.read_text().splitlines()[0]

    def test_progress_jsonl_written(self, tmp_path, capsys):
        jsonl = tmp_path / "progress.jsonl"
        code = main(
            [
                "serve-eval", "--n-ref", "60", "--n-labeled", "15",
                "--queries", "8", "--batch-size", "4", "--method", "nw",
                "--parity-sample", "0", "--seed", "0",
                "--progress-jsonl", str(jsonl),
            ]
        )
        assert code == 0
        lines = jsonl.read_text().splitlines()
        assert lines, "progress JSONL should not be empty"
