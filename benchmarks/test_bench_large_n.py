"""Bench: the N=10⁵ pipeline — approximate kNN build + multigrid λ-sweep.

The scaling wall this bench measures is twofold.  First, graph
construction: the dense O(N²) route is out of reach long before 10⁵
and even exact kd-tree queries degrade with dimension; the RP-tree
route (:mod:`repro.graph.approx`) is measured against the exact build
with its recall printed.  Second, the sweep: in d=3 the ``splu``
fill-in of one soft-system factorization crosses ~80 s at N=10⁵, so the
``exact`` backend (one factorization per grid point) pays it at every
λ, while the ``multigrid`` backend builds a λ-independent coarsening
hierarchy in ~1 s and solves each grid point in a handful of
V-cycle-preconditioned CG iterations.  The default ``auto`` backend
must resolve to that multigrid path here (N is far above the Woodbury
crossover and n_labeled = N/20 exceeds the Woodbury cap).

Scales: ``quick`` (default) runs N=2·10⁴ including the per-point exact
sweep; ``REPRO_BENCH_SCALE=paper`` runs N=10⁵ and drops the exact sweep
(20 × ~80 s factorizations).  The d=3 data is deliberate: in d=2 sparse
factorization fill-in stays nearly linear and the comparison would
flatter nobody — see docs/SCALING.md.

Acceptance guards: ``auto`` runs every grid point on the multigrid path
with no workspace factorization and returns the multigrid sweep's
scores bit for bit; at quick scale the multigrid sweep beats the exact
sweep ≥ 3x and its endpoint scores match it; approximate-kNN recall at
the default knob is ≥ 0.95, and soft-criterion scores on the
approximate graph match the exact graph within 1e-2 RMS over vertices
(the max-norm is reported alongside: it is dominated by the single
worst vertex that lost its one longest edge, and stays a few times
larger even at recall > 0.9999).  The knob loop at the bottom produces
the recall/accuracy trade-off table quoted in docs/SCALING.md.
"""

from __future__ import annotations

import time

import numpy as np

from conftest import REPEATS, SCALE, publish

from repro.experiments.report import ascii_table
from repro.graph.approx import (
    DEFAULT_N_TREES,
    approx_knn_graph,
    knn_recall,
    rp_tree_knn,
)
from repro.graph.similarity import knn_graph
from repro.linalg.workspace import SolveWorkspace
from repro.obs.bench import MemoryBudget

N = 100_000 if SCALE == "paper" else 20_000
D = 3
K = 10
GRID = tuple(float(lam) for lam in np.logspace(-3, 2, 20))

#: Acceptance floor: the coarsening-preconditioned sweep vs the exact
#: (one splu per grid point) sweep, at quick scale.
MIN_MULTIGRID_SPEEDUP = 3.0

#: Acceptance floors for the approximate construction.
MIN_APPROX_RECALL = 0.95
MAX_APPROX_SCORE_ERROR = 1e-2

# ----------------------------------------------------------------------
# Memory-budget bench (the out-of-core pipeline's acceptance gate)
# ----------------------------------------------------------------------

#: The budgeted pipeline: N = 10⁶ at paper scale, a CI-sized 2·10⁵
#: otherwise (large enough that auto-streaming and the auto matrix-free
#: hierarchy both engage — see ``STREAM_AUTO_CANDIDATES`` and
#: ``MATRIX_FREE_MIN_VERTICES``).
N_BUDGET = 1_000_000 if SCALE == "paper" else 200_000

#: Reduced λ grid for the budgeted sweep (memory is λ-count-independent;
#: runtime at N=10⁶ is not).
BUDGET_GRID = tuple(float(lam) for lam in np.logspace(-2, 1, 4))

#: Every phase of the memory-lean pipeline must peak below this fraction
#: of the naive pipeline's peak.  The naive peak is dominated by the
#: one-shot candidate merge: ``n_trees · N · k`` (row, col, sq) triples
#: of 24 bytes concatenated and then copied once more by the
#: dedup/lexsort reduction.
BUDGET_FRACTION = 0.40

#: The matrix-free hierarchy must *retain* at most this fraction of what
#: the assembled float64 hierarchy would store (O(N) maps vs O(Σ nnz)).
HIERARCHY_RETAINED_FRACTION = 0.40

#: Float32 smoothing changes the preconditioner, not the answer: the
#: outer CG still converges in float64 to ``PCG_TOL``, so converged
#: scores agree with the float64 policy to well below this RMS tier
#: (observed ~1e-15 at N=2·10⁵; documented in docs/SCALING.md).
FLOAT32_MAX_RMS = 1e-9


def _naive_candidate_bytes(n: int) -> int:
    return DEFAULT_N_TREES * n * K * 24 * 2


def test_bench_memory_budget(bench, results_dir):
    n = N_BUDGET
    x, y = _make_problem(n)
    budget_bytes = int(BUDGET_FRACTION * _naive_candidate_bytes(n))
    gate = MemoryBudget()

    # Budget phases and BenchRecorder timing passes both reset the shared
    # tracemalloc peak, so the phases run once (gated) and each phase
    # gets its own record from its own duration (repeats=1,
    # informational only).
    with gate.phase("graph", budget_bytes=budget_bytes):
        graph = approx_knn_graph(x, k=K, bandwidth=0.5)
    workspace = SolveWorkspace(
        graph.weights,
        backend="multigrid",
        hierarchy_mode="matrix_free",
        dtype_policy="float32",
    )
    with gate.phase("hierarchy", budget_bytes=budget_bytes):
        hierarchy = workspace.hierarchy()
    with gate.phase("sweep", budget_bytes=budget_bytes):
        fits = workspace.sweep_soft(y, BUDGET_GRID)

    retained = hierarchy.retained_bytes()
    assembled_est = hierarchy.assembled_bytes_estimate()
    stats = workspace.stats()

    from repro.obs.bench import BenchRecord

    # One record per phase: the graph, hierarchy and sweep durations are
    # unlike quantities, not repeat samples of one timing.
    for usage in gate.phases:
        memory = {
            "phase": usage.to_dict(),
            "naive_candidate_bytes": _naive_candidate_bytes(n),
            "peak_bytes": usage.peak_traced_bytes,
            "net_bytes": usage.net_traced_bytes,
        }
        if usage.name == "hierarchy":
            memory["hierarchy_retained_bytes"] = retained
            memory["hierarchy_assembled_estimate_bytes"] = assembled_est
        record = BenchRecord.from_samples(
            f"memory_budget_{usage.name}_n{n}",
            [usage.duration_s],
            memory=memory,
            scale=SCALE,
        )
        bench.add(record)
        record.write_json(results_dir / f"{record.name}.json")

    lines = [
        f"memory-budget pipeline at N={n}, d={D}, k={K} "
        f"({len(BUDGET_GRID)}-point lambda grid, "
        f"hierarchy_mode={stats.hierarchy_mode}, "
        f"dtype_policy={stats.dtype_policy})",
        f"per-phase budget: {budget_bytes / 2**20:.0f} MiB "
        f"(= {BUDGET_FRACTION:.0%} of the naive one-shot candidate peak "
        f"{_naive_candidate_bytes(n) / 2**20:.0f} MiB)",
        gate.report(),
        f"hierarchy retains {retained / 2**20:.1f} MiB vs "
        f"{assembled_est / 2**20:.1f} MiB assembled "
        f"({retained / assembled_est:.1%}; acceptance <= "
        f"{HIERARCHY_RETAINED_FRACTION:.0%})",
    ]
    publish(results_dir, f"memory_budget_pipeline_n{n}", "\n".join(lines))

    # ------------------------------------------------------------------
    # Acceptance guards
    # ------------------------------------------------------------------
    assert gate.ok, gate.report()
    assert stats.hierarchy_mode == "matrix_free"  # auto threshold engaged
    assert retained <= HIERARCHY_RETAINED_FRACTION * assembled_est, (
        retained,
        assembled_est,
    )

    # Parity: the budgeted path must reproduce the assembled float64
    # sweep.  Affordable at CI scale only — at N=10⁶ the assembled
    # reference is exactly the memory burner this bench retires (the
    # parity suite pins the same guarantee at test scale).
    if SCALE != "paper":
        reference = SolveWorkspace(
            graph.weights, backend="multigrid", hierarchy_mode="assembled"
        ).sweep_soft(y, BUDGET_GRID)
        for fit, ref in zip(fits, reference):
            rms = float(np.sqrt(np.mean((fit.scores - ref.scores) ** 2)))
            assert rms < FLOAT32_MAX_RMS, (fit.lam, rms)
            np.testing.assert_allclose(
                fit.scores, ref.scores, atol=1e-6, rtol=0
            )


def _make_problem(n: int):
    rng = np.random.default_rng(n)
    x = rng.normal(size=(n, D))
    n_labeled = n // 20
    y = np.sin(x[:n_labeled, 0]) + 0.1 * rng.normal(size=n_labeled)
    return x, y


def _sweep(weights, y, backend):
    workspace = SolveWorkspace(weights, backend=backend)
    fits = workspace.sweep_soft(y, GRID)
    methods = {fit.solve_info.method for fit in fits}
    return [fit.scores for fit in fits], workspace.stats(), methods


def test_bench_large_n(bench, results_dir):
    x, y = _make_problem(N)

    # ------------------------------------------------------------------
    # Graph construction: exact kd-tree vs RP-tree approximate
    # ------------------------------------------------------------------
    exact_graph, rec_knn = bench.measure(
        f"large_n_knn_exact_n{N}",
        lambda: knn_graph(x, k=K, bandwidth=0.5, construction="neighbors"),
        repeats=REPEATS,
    )
    approx_graph, rec_approx = bench.measure(
        f"large_n_knn_approx_n{N}",
        lambda: knn_graph(x, k=K, bandwidth=0.5, construction="approx"),
        repeats=REPEATS,
    )
    _, approx_idx = rp_tree_knn(x, K)
    recall = knn_recall(x, K, approx_idx)

    # ------------------------------------------------------------------
    # λ-sweeps over the exact graph
    # ------------------------------------------------------------------
    weights = exact_graph.weights
    auto, rec_auto = bench.measure(
        f"large_n_sweep_auto_n{N}",
        lambda: _sweep(weights, y, "auto"),
        repeats=1,
        profile=False,
    )
    multigrid, rec_multigrid = bench.measure(
        f"large_n_sweep_multigrid_n{N}",
        lambda: _sweep(weights, y, "multigrid"),
        repeats=1,
        profile=False,
    )
    rows = [
        ["knn exact", f"{rec_knn.min_s * 1e3:.0f}", "-", "-"],
        ["knn approx", f"{rec_approx.min_s * 1e3:.0f}", "-",
         f"recall {recall:.4f}"],
        ["sweep auto", f"{rec_auto.min_s * 1e3:.0f}",
         f"{len(GRID)}", f"path {'/'.join(sorted(auto[2]))}"],
        ["sweep multigrid", f"{rec_multigrid.min_s * 1e3:.0f}",
         f"{len(GRID)}",
         f"{multigrid[1].pcg_iterations} PCG iters, "
         f"{multigrid[1].coarsen_builds} hierarchy build"],
    ]
    records = [rec_knn, rec_approx, rec_auto, rec_multigrid]
    exact = None
    if SCALE != "paper":
        # 20 per-point factorizations are feasible at quick scale only
        # (at N=1e5, d=3 each splu costs ~80 s).
        exact, rec_exact = bench.measure(
            f"large_n_sweep_exact_n{N}",
            lambda: _sweep(weights, y, "exact"),
            repeats=1,
            profile=False,
        )
        rows.append(
            ["sweep exact", f"{rec_exact.min_s * 1e3:.0f}",
             f"{len(GRID)}", f"{exact[1].factor_misses} factorizations"]
        )
        records.append(rec_exact)
        speedup = rec_exact.min_s / rec_multigrid.min_s

    for rec in records:
        rec.write_json(results_dir / f"{rec.name}.json")

    table = ascii_table(["leg", "time (ms)", "grid", "notes"], rows)
    gate = (
        f"multigrid speedup over exact: {speedup:.2f}x "
        f"(acceptance >= {MIN_MULTIGRID_SPEEDUP:.0f}x); "
        if exact is not None
        else ""
    )
    summary = (
        f"large-N pipeline at N={N}, d={D}, k={K} "
        f"(20-point log lambda grid)\n{table}\n"
        f"{gate}approx recall {recall:.4f} "
        f"(acceptance >= {MIN_APPROX_RECALL})"
    )
    publish(results_dir, f"large_n_pipeline_n{N}", summary)

    # ------------------------------------------------------------------
    # Acceptance guards
    # ------------------------------------------------------------------
    assert recall >= MIN_APPROX_RECALL

    # auto resolves to the multigrid path: same solves, same scores.
    auto_scores, auto_stats, auto_methods = auto
    multigrid_scores, _, _ = multigrid
    assert auto_methods == {"multigrid_pcg"}, auto_methods
    assert auto_stats.factor_misses == 0
    for auto_fit, multigrid_fit in zip(auto_scores, multigrid_scores):
        np.testing.assert_array_equal(auto_fit, multigrid_fit)

    if exact is not None:
        assert speedup >= MIN_MULTIGRID_SPEEDUP
        # The multigrid sweep agrees with per-point factorizations at
        # both ends of the grid.
        exact_scores = exact[0]
        np.testing.assert_allclose(
            multigrid_scores[0], exact_scores[0], atol=1e-6, rtol=0
        )
        np.testing.assert_allclose(
            multigrid_scores[-1], exact_scores[-1], atol=1e-6, rtol=0
        )

    # ------------------------------------------------------------------
    # Recall/accuracy trade-off: sweep the knob, solve one mid-grid λ on
    # each approximate graph, compare to the exact graph's scores.  This
    # table is the source for docs/SCALING.md.
    # ------------------------------------------------------------------
    mid = GRID[len(GRID) // 2]
    reference = SolveWorkspace(weights, backend="multigrid").solve_soft(
        y, mid
    ).scores
    trade_rows = []
    default_errors = None
    for n_trees in (2, 4, DEFAULT_N_TREES, 2 * DEFAULT_N_TREES):
        start = time.perf_counter()
        _, idx = rp_tree_knn(x, K, n_trees=n_trees)
        build_s = time.perf_counter() - start
        knob_graph = approx_knn_graph(
            x, k=K, bandwidth=0.5, n_trees=n_trees
        )
        scores = SolveWorkspace(
            knob_graph.weights, backend="multigrid"
        ).solve_soft(y, mid).scores
        errors = np.abs(scores - reference)
        rms = float(np.sqrt(np.mean(errors**2)))
        knob_recall = knn_recall(x, K, idx)
        if n_trees == DEFAULT_N_TREES:
            default_errors = (knob_recall, rms)
        trade_rows.append(
            [
                n_trees,
                f"{build_s * 1e3:.0f}",
                f"{knob_recall:.4f}",
                f"{rms:.2e}",
                f"{float(errors.max()):.2e}",
            ]
        )
    trade_table = ascii_table(
        ["n_trees", "build (ms)", "recall@10", "rms err", "max err"],
        trade_rows,
    )
    publish(
        results_dir,
        f"large_n_approx_tradeoff_n{N}",
        f"approximate-kNN recall/accuracy trade-off at N={N}, d={D} "
        f"(soft scores at lambda={mid:.3g} vs the exact graph)\n"
        f"{trade_table}\n"
        f"acceptance at the default knob (n_trees={DEFAULT_N_TREES}): "
        f"recall >= {MIN_APPROX_RECALL}, "
        f"rms err < {MAX_APPROX_SCORE_ERROR}",
    )
    assert default_errors is not None
    assert default_errors[0] >= MIN_APPROX_RECALL
    assert default_errors[1] < MAX_APPROX_SCORE_ERROR, default_errors
