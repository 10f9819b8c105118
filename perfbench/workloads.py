"""The benchmark's workloads: inputs made from a seed, then timed API calls.

Two shapes share this module.  A *sweep* builds a kNN graph, a multigrid
:class:`~repro.linalg.workspace.SolveWorkspace` and its coarsening
hierarchy (the set-up), then solves the soft criterion at every point of
a λ grid.  *Serve* fits a :class:`~repro.serving.GraphSSLModel` (the
set-up) and answers a closed loop of queries from one caller: batched
Nadaraya-Watson through a :class:`~repro.serving.ModelServer`, then
one-point ``predict`` calls, then one-point exact insertions.

An untraced run makes at least :data:`MIN_PASSES` passes, each a fresh
set-up followed by the sweep or serve loop, and goes on until ``seconds``
have passed.  ``setup_s`` is the median set-up and ``total_s`` the median
pass, the wall time from the inputs to the last answer.  A traced run
makes one untraced and one traced pass, after one warm-up set-up, and
reports per-layer self times from the traced pass.
"""

from __future__ import annotations

import resource
import statistics
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse.csgraph import connected_components

from repro import obs
from repro.datasets.synthetic import make_regression_dataset, truncated_mvn_inputs
from repro.graph import knn_graph
from repro.linalg.coarsen import CoarseningHierarchy
from repro.linalg.workspace import SolveWorkspace
from repro.serving import GraphSSLModel, ModelServer

import checks
from layers import ROOT, breakdown_table, layer_span, layer_times, span_seconds

#: Neighbours per vertex in every graph.
K = 10

#: An untraced run makes at least this many passes (set-up, then loop);
#: ``setup_s`` and ``total_s`` are medians over them.
MIN_PASSES = 2

#: Rows of the fixed brute-force sample behind ``graph.knn_recall``.
RECALL_SAMPLE = 256

#: Fixed kernel bandwidth of the d=3 Gaussian sweeps (typical 10-NN
#: distances at N=10⁵ are ~0.1, so every edge keeps a usable weight).
GAUSSIAN_BANDWIDTH = 0.5

#: Latent dimension, ambient width and noise of the high-d generator.
LATENT_DIM = 8
AMBIENT_DIM = 256
AMBIENT_NOISE = 0.05


@dataclass(frozen=True)
class SweepSpec:
    n: int
    grid: tuple[float, ...]
    dtype_policy: str
    inputs: str  # "gaussian" (d=3) or "manifold" (d=256)


@dataclass(frozen=True)
class ServeSpec:
    n: int
    n_labeled: int
    nw_queries: int
    single_queries: int
    exact_queries: int
    max_batch_size: int
    oracle_queries: int


WORKLOADS = {
    "sweep-n1e5": SweepSpec(
        100_000, tuple(np.logspace(-3, 2, 20)), "float64", "gaussian"
    ),
    "highdim-d256": SweepSpec(4_000, tuple(np.logspace(-3, 2, 8)), "float64", "manifold"),
    "serve-n1e4": ServeSpec(
        n=10_000,
        n_labeled=500,
        nw_queries=131_072,
        single_queries=5_000,
        exact_queries=100,
        max_batch_size=256,
        oracle_queries=2,
    ),
}


@dataclass
class Outcome:
    """Everything one run measured, checked and wants to print."""

    end_to_end: dict = field(default_factory=dict)  # name -> (value, unit)
    per_layer: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    notes: list = field(default_factory=list)


def peak_rss_mb() -> float:
    """The process's high-water resident set size (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def nearest_rank(values, q: float) -> float:
    """The nearest-rank ``q`` quantile: ``sorted[ceil(q * n) - 1]``."""
    ordered = np.sort(np.asarray(values))
    return float(ordered[max(0, int(np.ceil(q * ordered.size)) - 1)])


def _timed_passes(setup, loop, seconds: float):
    """Make passes of ``built = setup()`` then ``loop(built)``, at least
    :data:`MIN_PASSES` of them and until ``seconds`` have passed.

    Returns the last pass's ``built`` and loop result, every set-up time
    and every pass's wall time.
    """
    setups, passes = [], []
    began = time.perf_counter()
    built = answers = None
    while len(passes) < MIN_PASSES or time.perf_counter() - began < seconds:
        built = answers = None  # free the last pass before the next
        start = time.perf_counter()
        built = setup()
        ready = time.perf_counter()
        answers = loop(built)
        setups.append(ready - start)
        passes.append(time.perf_counter() - start)
    return built, answers, setups, passes


def _pass_note(setups, passes) -> str:
    return (
        f"passes: {len(passes)}; set-up {', '.join(f'{s:.3f}' for s in setups)} s; "
        f"pass {', '.join(f'{s:.3f}' for s in passes)} s"
    )


def recall_sample(n: int) -> np.ndarray:
    return np.linspace(0, n - 1, RECALL_SAMPLE).astype(np.intp)


# ----------------------------------------------------------------------
# Sweeps
# ----------------------------------------------------------------------


def sweep_inputs(spec: SweepSpec, seed: int):
    """``(x, y_labeled, bandwidth)`` for a sweep; 5% of rows labeled."""
    rng = np.random.default_rng(seed)
    n_labeled = spec.n // 20
    if spec.inputs == "gaussian":
        x = rng.normal(size=(spec.n, 3))
        y = np.sin(x[:n_labeled, 0]) + 0.1 * rng.normal(size=n_labeled)
        return x, y, GAUSSIAN_BANDWIDTH
    # A smooth 8-dim manifold in d=256: tanh of a random linear map plus
    # isotropic noise.  The bandwidth is the median 10-NN distance over
    # the recall sample, so kernel weights stay O(1) at any seed.
    z = rng.normal(size=(spec.n, LATENT_DIM))
    embed = rng.normal(size=(LATENT_DIM, AMBIENT_DIM)) / np.sqrt(LATENT_DIM)
    x = np.tanh(z @ embed) + AMBIENT_NOISE * rng.normal(size=(spec.n, AMBIENT_DIM))
    y = np.sin(z[:n_labeled, 0]) + 0.5 * np.tanh(z[:n_labeled, 1])
    kth = []
    for vertex in recall_sample(spec.n):
        sq = np.square(x - x[vertex]).sum(axis=1)
        sq[vertex] = np.inf
        kth.append(np.sqrt(np.partition(sq, K - 1)[K - 1]))
    return x, y, float(np.median(kth))


def _sweep_setup(spec: SweepSpec, x, bandwidth):
    with layer_span("graph"):
        graph = knn_graph(x, k=K, bandwidth=bandwidth)
    with layer_span("workspace.init"):
        workspace = SolveWorkspace(
            graph.weights, backend="multigrid", dtype_policy=spec.dtype_policy
        )
    with layer_span("coarsen"):
        hierarchy = workspace.hierarchy()
    return graph, workspace, hierarchy


def _sweep_solve(spec: SweepSpec, workspace, y):
    scores = []
    for lam in spec.grid:
        with layer_span("workspace.solve"):
            scores.append(workspace.solve_soft(y, lam).scores)
    return scores


def retained_mb(hierarchy) -> float:
    """Bytes the coarsening hierarchy keeps alive, in MB."""
    if isinstance(hierarchy, CoarseningHierarchy):
        total = sum(
            m.data.nbytes + m.indices.nbytes + m.indptr.nbytes
            for level in hierarchy.levels
            for m in (level.prolongation, level.weights, level.laplacian)
        )
    else:
        total = hierarchy.retained_bytes()
    return total / 2**20


def run_sweep(spec: SweepSpec, seed: int, seconds: float, trace: bool) -> Outcome:
    x, y, bandwidth = sweep_inputs(spec, seed)
    out = Outcome()
    if not trace:
        (graph, workspace, _), scores, setups, passes = _timed_passes(
            lambda: _sweep_setup(spec, x, bandwidth),
            lambda built: _sweep_solve(spec, built[1], y),
            seconds,
        )
        out.end_to_end = {
            "setup_s": (statistics.median(setups), "s"),
            "total_s": (statistics.median(passes), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
        out.notes.append(
            f"{_pass_note(setups, passes)}; PCG iterations in the last pass "
            f"{workspace.stats().pcg_iterations}"
        )
        out.checks.append(checks.sweep_residuals(graph.weights, y, spec.grid, scores))
        return out

    _sweep_setup(spec, x, bandwidth)  # warm-up, so neither pass runs cold
    start = time.perf_counter()
    graph, workspace, hierarchy = _sweep_setup(spec, x, bandwidth)
    scores = _sweep_solve(spec, workspace, y)
    untraced = time.perf_counter() - start
    out.checks.append(checks.sweep_residuals(graph.weights, y, spec.grid, scores))
    graph = workspace = hierarchy = scores = None  # free before the traced pass
    tracer = obs.RecordingTracer()
    with obs.use_tracer(tracer), obs.use_registry():
        start = time.perf_counter()
        with obs.span(ROOT) as root:
            graph, workspace, hierarchy = _sweep_setup(spec, x, bandwidth)
            scores = _sweep_solve(spec, workspace, y)
        traced = time.perf_counter() - start
    out.checks.append(checks.sweep_residuals(graph.weights, y, spec.grid, scores))
    stats = workspace.stats()
    times = layer_times(root)
    out.per_layer = _layer_metrics(times, untraced, traced)
    out.per_layer.update(
        {
            "graph.nnz": (graph.weights.nnz, "count"),
            "graph.knn_recall": (
                checks.knn_recall(x, graph.weights, K, recall_sample(spec.n)),
                "ratio",
            ),
            "coarsen.levels": (len(hierarchy.sizes), "count"),
            "coarsen.coarsest_n": (hierarchy.sizes[-1], "count"),
            "coarsen.retained_mb": (retained_mb(hierarchy), "MB"),
            "workspace.ms_per_iteration": (
                1e3 * times["workspace.solve"] / max(stats.pcg_iterations, 1),
                "ms",
            ),
            "workspace.pcg_iterations": (stats.pcg_iterations, "count"),
            "workspace.fallbacks": (stats.reanchors, "count"),
        }
    )
    out.notes.append(
        f"path: hierarchy {stats.hierarchy_mode}, smoothing {stats.dtype_policy}, "
        f"levels {hierarchy.sizes}"
    )
    _report_breakdown(out, times, traced)
    return out


# ----------------------------------------------------------------------
# Serving
# ----------------------------------------------------------------------


def labels_reach_every_vertex(data) -> bool:
    """Whether every vertex of the reference k-NN graph reaches a labeled one.

    The edges do not depend on the bandwidth, so any positive one will do.
    """
    x_all = np.vstack([data.x_labeled, data.x_unlabeled])
    graph = knn_graph(x_all, k=K, bandwidth=1.0)
    _, component = connected_components(graph.weights, directed=False)
    return bool(np.isin(component, component[: data.x_labeled.shape[0]]).all())


def serve_inputs(spec: ServeSpec, seed: int):
    """The reference dataset, the NW query stream and the exact queries.

    The paper's generator sets coordinates outside [0, 1] to 0, which puts
    points on the edges of the cube.  About one draw in 250 at N=10⁴ holds
    a short run of points along one edge that forms a k-NN component with
    no labeled vertex.  The hard criterion is undefined there and ``fit``
    rightly raises ``DisconnectedGraphError``, so such a draw is replaced
    by the next one from the same stream: every seed gives a well-posed
    problem, and the same one every time.
    """
    rng = np.random.default_rng(seed)
    data = make_regression_dataset(spec.n_labeled, spec.n - spec.n_labeled, seed=rng)
    while not labels_reach_every_vertex(data):
        data = make_regression_dataset(spec.n_labeled, spec.n - spec.n_labeled, seed=rng)
    queries = truncated_mvn_inputs(spec.nw_queries, seed=rng)
    exact = truncated_mvn_inputs(spec.exact_queries, seed=rng)
    return data, queries, exact


def _fit(data) -> GraphSSLModel:
    model = GraphSSLModel(graph="knn", graph_params={"k": K})
    with layer_span("serving.fit"):
        model.fit(data.x_labeled, data.y_labeled, data.x_unlabeled)
    return model


def _phase_sums() -> dict:
    registry = obs.get_registry()
    return {
        phase: registry.log_histogram(f"serving.phase.{phase}_s").total
        for phase in ("extract", "predict")
    }


def _serve(spec: ServeSpec, model, queries, exact) -> dict:
    """The closed loop of one caller; returns answers and latencies."""
    with layer_span("server"):
        server = ModelServer(model, max_batch_size=spec.max_batch_size)
        start = time.perf_counter()
        batched = server.predict_many(queries)
        nw_s = time.perf_counter() - start
    single = np.empty(spec.single_queries)
    single_lat = np.empty(spec.single_queries)
    for i in range(spec.single_queries):
        start = time.perf_counter()
        with layer_span("serving.query"):
            single[i] = model.predict(queries[i : i + 1])[0]
        single_lat[i] = time.perf_counter() - start
    phases = _phase_sums()
    exact_pred = np.empty(spec.exact_queries)
    exact_lat = np.empty(spec.exact_queries)
    for i in range(spec.exact_queries):
        start = time.perf_counter()
        with layer_span("serving.exact"):
            exact_pred[i] = model.predict(exact[i : i + 1], method="exact")[0]
        exact_lat[i] = time.perf_counter() - start
    return {
        "server": server,
        "batched": batched,
        "nw_s": nw_s,
        "single": single,
        "single_lat": single_lat,
        "exact": exact_pred,
        "exact_lat": exact_lat,
        "phases": phases,
    }


def _serving_metrics(spec: ServeSpec, served: dict) -> dict:
    return {
        "serving.nw_qps": (spec.nw_queries / served["nw_s"], "1/s"),
        "serving.nw_single_p50_us": (1e6 * nearest_rank(served["single_lat"], 0.5), "us"),
        "serving.nw_single_p99_us": (1e6 * nearest_rank(served["single_lat"], 0.99), "us"),
        "serving.exact_p50_ms": (1e3 * nearest_rank(served["exact_lat"], 0.5), "ms"),
        "serving.exact_p90_ms": (1e3 * nearest_rank(served["exact_lat"], 0.9), "ms"),
    }


def _serve_checks(spec: ServeSpec, data, model, served, exact) -> list:
    y = data.y_labeled
    rows = model.query_weights(exact[: spec.oracle_queries])
    expected = [checks.hard_oracle(model.graph_.weights, y, row) for row in rows]
    return [
        checks.bitwise_equal(
            "serve.nw_batched_vs_looped",
            served["batched"][: spec.single_queries],
            served["single"],
        ),
        checks.within_range("serve.exact_in_label_range", served["exact"], y.min(), y.max()),
        checks.oracle_match(served["exact"][: spec.oracle_queries], expected),
    ]


def run_serve(spec: ServeSpec, seed: int, seconds: float, trace: bool) -> Outcome:
    data, queries, exact = serve_inputs(spec, seed)
    out = Outcome()
    if not trace:
        model, served, setups, passes = _timed_passes(
            lambda: _fit(data),
            lambda model: _serve(spec, model, queries, exact),
            seconds,
        )
        out.end_to_end = {
            "setup_s": (statistics.median(setups), "s"),
            "total_s": (statistics.median(passes), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
        out.notes.append(
            f"{_pass_note(setups, passes)}; last loop: nw {served['nw_s']:.3f} s, "
            f"one-point {served['single_lat'].sum():.3f} s, "
            f"exact {served['exact_lat'].sum():.3f} s"
        )
        out.notes += [
            f"{name} = {value:.6g} {unit}"
            for name, (value, unit) in _serving_metrics(spec, served).items()
        ]
        out.checks += _serve_checks(spec, data, model, served, exact)
        return out

    _fit(data)  # warm-up, so neither pass runs cold
    start = time.perf_counter()
    model = _fit(data)
    served = _serve(spec, model, queries, exact)
    untraced = time.perf_counter() - start
    out.checks += _serve_checks(spec, data, model, served, exact)
    serving = _serving_metrics(spec, served)
    model = served = None

    tracer = obs.RecordingTracer()
    with obs.use_tracer(tracer), obs.use_registry() as registry:
        start = time.perf_counter()
        with obs.span(ROOT) as root:
            model = _fit(data)
            served = _serve(spec, model, queries, exact)
        traced = time.perf_counter() - start
        queue_wait = registry.log_histogram("serving.request.queue_wait_s").mean
    out.checks += _serve_checks(spec, data, model, served, exact)
    times = layer_times(root)
    server_stats = served["server"].stats()
    model_stats = model.stats()
    x_all = np.vstack([data.x_labeled, data.x_unlabeled])
    out.per_layer = _layer_metrics(times, untraced, traced)
    out.per_layer.update(serving)
    out.per_layer.update(
        {
            "serving.fit.self_s": (span_seconds(root, "repro.serving.fit"), "s"),
            "graph.nnz": (model.graph_.weights.nnz, "count"),
            "graph.knn_recall": (
                checks.knn_recall(x_all, model.graph_.weights, K, recall_sample(spec.n)),
                "ratio",
            ),
            "serving.extract_s": (served["phases"]["extract"], "s"),
            "serving.predict_s": (served["phases"]["predict"], "s"),
            "server.mean_batch": (server_stats.answered / server_stats.flushes, "count"),
            "server.queue_wait_s": (queue_wait, "s"),
            "serving.exact_iterations_per_query": (
                model_stats.exact_iterations / model_stats.exact_queries,
                "count",
            ),
        }
    )
    _report_breakdown(out, times, traced)
    return out


# ----------------------------------------------------------------------
# Shared per-layer reporting
# ----------------------------------------------------------------------

#: Every per-layer metric, with its unit.  A layer a workload never
#: enters reports 0 (no time spent, nothing counted).
PER_LAYER_UNITS = {
    "graph.knn_s": "s",
    "graph.nnz": "count",
    "graph.knn_recall": "ratio",
    "coarsen.hierarchy_s": "s",
    "coarsen.levels": "count",
    "coarsen.coarsest_n": "count",
    "coarsen.retained_mb": "MB",
    "workspace.init_s": "s",
    "workspace.solve_s": "s",
    "workspace.ms_per_iteration": "ms",
    "workspace.pcg_iterations": "count",
    "workspace.fallbacks": "count",
    "workspace.factorize_s": "s",
    "serving.fit.self_s": "s",
    "serving.query_s": "s",
    "serving.exact_s": "s",
    "serving.extract_s": "s",
    "serving.predict_s": "s",
    "server.self_s": "s",
    "server.mean_batch": "count",
    "server.queue_wait_s": "s",
    "serving.exact_iterations_per_query": "count",
    "serving.nw_qps": "1/s",
    "serving.nw_single_p50_us": "us",
    "serving.nw_single_p99_us": "us",
    "serving.exact_p50_ms": "ms",
    "serving.exact_p90_ms": "ms",
    "trace.overhead_frac": "ratio",
    "trace.bench_s": "s",
    "trace.unaccounted_frac": "ratio",
}

#: Layer self-times plus the benchmark's own overhead must add up to the
#: traced wall time within this share.
ACCOUNTING_TOLERANCE = 0.01


def _layer_metrics(times: dict, untraced: float, traced: float) -> dict:
    metrics = {name: (0, unit) for name, unit in PER_LAYER_UNITS.items()}
    metrics.update(
        {
            "graph.knn_s": (times["graph"], "s"),
            "coarsen.hierarchy_s": (times["coarsen"], "s"),
            "workspace.init_s": (times["workspace.init"], "s"),
            "workspace.solve_s": (times["workspace.solve"], "s"),
            "workspace.factorize_s": (times["workspace.factorize"], "s"),
            "serving.query_s": (times["serving.query"], "s"),
            "serving.exact_s": (times["serving.exact"], "s"),
            "server.self_s": (times["server"], "s"),
            "trace.overhead_frac": (traced / untraced, "ratio"),
            "trace.bench_s": (times["bench"], "s"),
            "trace.unaccounted_frac": (_unaccounted(times, traced), "ratio"),
        }
    )
    return metrics


def _unaccounted(times: dict, wall: float) -> float:
    return abs(sum(times.values()) - wall) / wall


def _report_breakdown(out: Outcome, times: dict, wall: float) -> None:
    """Add the layer table and the check that the layers account for ``wall``."""
    gap = _unaccounted(times, wall)
    out.notes += breakdown_table(times, wall)
    out.checks.append(
        checks.Check(
            "trace.accounting",
            1,
            int(not gap <= ACCOUNTING_TOLERANCE),
            f"layer self-times + bench overhead are {gap:.4%} from the traced "
            f"wall (tolerance {ACCOUNTING_TOLERANCE:.0%})",
        )
    )


def run(name: str, seed: int, seconds: float, trace: bool) -> Outcome:
    spec = WORKLOADS[name]
    runner = run_serve if isinstance(spec, ServeSpec) else run_sweep
    return runner(spec, seed, seconds, trace)
