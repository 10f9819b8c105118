"""Tests of the benchmark itself: its checks fire and its accounting adds up.

Run from the root of the checkout::

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from repro import obs  # noqa: E402
from repro.datasets.synthetic import make_regression_dataset  # noqa: E402
from repro.graph import knn_graph  # noqa: E402
from repro.linalg.workspace import SolveWorkspace  # noqa: E402


@pytest.fixture(scope="module")
def sweep():
    spec = workloads.SweepSpec(600, (1e-2, 1.0, 10.0), "float64", "gaussian")
    x, y, bandwidth = workloads.sweep_inputs(spec, seed=3)
    graph = knn_graph(x, k=workloads.K, bandwidth=bandwidth)
    workspace = SolveWorkspace(graph.weights, backend="multigrid")
    scores = [workspace.solve_soft(y, lam).scores for lam in spec.grid]
    return graph, x, y, spec.grid, scores


@pytest.fixture(scope="module")
def served():
    spec = workloads.ServeSpec(
        n=400,
        n_labeled=40,
        nw_queries=64,
        single_queries=16,
        exact_queries=4,
        max_batch_size=8,
        oracle_queries=2,
    )
    data, queries, exact = workloads.serve_inputs(spec, seed=5)
    model = workloads._fit(data)
    return spec, data, model, workloads._serve(spec, model, queries, exact), exact


def test_residual_check_passes_on_solver_output(sweep):
    graph, _, y, grid, scores = sweep
    check = checks.sweep_residuals(graph.weights, y, grid, scores)
    assert (check.attempted, check.failed) == (3, 0)


def test_residual_check_fires_on_corrupted_scores(sweep):
    graph, _, y, grid, scores = sweep
    corrupted = [s.copy() for s in scores]
    corrupted[1][-1] += 1e-3
    corrupted[2][0] = np.nan
    check = checks.sweep_residuals(graph.weights, y, grid, corrupted)
    assert (check.attempted, check.failed) == (3, 2)


def test_serve_checks_pass_on_program_output(served):
    spec, data, model, out, exact = served
    for check in workloads._serve_checks(spec, data, model, out, exact):
        assert check.ok, check


def test_bitwise_check_fires_on_one_ulp(served):
    _, _, _, out, _ = served
    looped = out["single"].copy()
    looped[3] = np.nextafter(looped[3], np.inf)
    check = checks.bitwise_equal("nw", out["batched"][: looped.size], looped)
    assert check.failed == 1


def test_range_check_fires_outside_label_range(served):
    _, data, _, out, _ = served
    values = out["exact"].copy()
    values[0] = data.y_labeled.max() + 1e-9
    check = checks.within_range("exact", values, data.y_labeled.min(), data.y_labeled.max())
    assert check.failed == 1


def test_oracle_check_fires_on_perturbed_insertion(served):
    spec, data, model, out, exact = served
    rows = model.query_weights(exact[: spec.oracle_queries])
    expected = [checks.hard_oracle(model.graph_.weights, data.y_labeled, row) for row in rows]
    assert checks.oracle_match(out["exact"][:2], expected).ok
    assert checks.oracle_match(out["exact"][:2] + [0.0, 1e-6], expected).failed == 1


def test_serve_inputs_replace_a_draw_with_an_unlabeled_component():
    # At seed 170 the first draw has 12 points on one clipped edge of the
    # cube that form a k-NN component without a labeled vertex.
    spec = workloads.WORKLOADS["serve-n1e4"]
    first = make_regression_dataset(
        spec.n_labeled, spec.n - spec.n_labeled, seed=np.random.default_rng(170)
    )
    assert not workloads.labels_reach_every_vertex(first)
    data, _, _ = workloads.serve_inputs(spec, seed=170)
    assert workloads.labels_reach_every_vertex(data)
    assert not np.array_equal(data.x_labeled, first.x_labeled)


def test_recall_is_one_for_exact_graph_and_drops_with_a_missing_edge(sweep):
    graph, x, *_ = sweep
    sample = np.arange(0, 600, 60)
    assert checks.knn_recall(x, graph.weights, workloads.K, sample) == 1.0
    w = graph.weights.tolil()
    row = w.rows[0]
    neighbour = next(j for j in row if j != 0)
    w[0, neighbour] = 0.0
    w[neighbour, 0] = 0.0
    w = w.tocsr()
    w.eliminate_zeros()
    assert checks.knn_recall(x, w, workloads.K, sample) < 1.0


def test_layer_self_times_add_up_to_the_root():
    tracer = obs.RecordingTracer()
    with obs.use_tracer(tracer):
        with obs.span(layers.ROOT) as root:
            with layers.layer_span("graph"):
                with obs.span("repro.graph.knn"):
                    time.sleep(0.01)
            with layers.layer_span("serving.fit"):
                with obs.span("repro.serving.fit"):
                    with obs.span("repro.graph.knn"):
                        time.sleep(0.01)
                    with obs.span("repro.workspace.factorize"):
                        time.sleep(0.01)
                    time.sleep(0.01)
            with layers.layer_span("serving.exact"):
                with obs.span("repro.serving.predict"):
                    time.sleep(0.01)
    times = layers.layer_times(root)
    assert sum(times.values()) == pytest.approx(root.duration, rel=1e-9)
    assert times["graph"] >= 0.02
    assert times["workspace.factorize"] >= 0.01
    assert times["serving.exact"] >= 0.01  # inherited by the unmapped span
    assert times["serving.query"] == 0.0
    assert 0.01 <= layers.span_seconds(root, "repro.serving.fit") < 0.02


def test_benchmark_json_lists_the_reported_per_layer_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    listed = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert listed == workloads.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_timed_passes_repeat_set_up_and_loop_and_time_both():
    built, answers, setups, passes = workloads._timed_passes(
        lambda: time.sleep(0.01) or object(),
        lambda built: time.sleep(0.02) or built,
        seconds=0.0,
    )
    assert answers is built
    assert len(setups) == len(passes) == workloads.MIN_PASSES
    assert all(s >= 0.01 and p >= s + 0.02 for s, p in zip(setups, passes))


def test_nearest_rank_quantile():
    values = np.arange(1, 101, dtype=float)
    assert workloads.nearest_rank(values, 0.5) == 50.0
    assert workloads.nearest_rank(values, 0.9) == 90.0


def test_run_refuses_without_program_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    command = json.loads((tmp_path / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        [sys.executable, *command[1:], "--workload", "highdim-d256", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
