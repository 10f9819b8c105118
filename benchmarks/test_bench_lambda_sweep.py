"""Bench: amortized λ-sweeps against per-point direct solves — the
crossover table behind ``auto``.

A 30-point logarithmic λ-grid (1e-3 .. 1e2) over a sparse kNN graph
(k=10, 5% labeled) at N in {1000, 4000, 10000} and d in {2, 3}, solved
four ways:

* **direct** — the historical hot path: one ``solve_soft_criterion``
  per grid point, reassembling and refactorizing every time;
* **woodbury** — one ``SolveWorkspace(backend="auto")`` per sweep with
  :data:`~repro.linalg.workspace.WOODBURY_MAX_VERTICES` lifted above N,
  so every row runs the rank-n_labeled Woodbury continuation off one
  anchor factorization (n_labeled = N/20 ≤ 512 everywhere here);
* **multigrid** — one ``SolveWorkspace(backend="multigrid")``: a
  coarsening hierarchy built once, V-cycle-preconditioned PCG per λ;
* **auto** — the default workspace, which picks one of the two from
  the input (Woodbury below ``WOODBURY_MAX_VERTICES``, else multigrid).

The woodbury and multigrid columns are the crossover table that sets
``WOODBURY_MAX_VERTICES``; the auto column shows the choice landing on
the faster side.  d=3 rows are included because sparse-factorization
fill-in, which the Woodbury basis pays n_labeled back-substitutions
through, grows much faster with N there than in d=2.

Workspaces are constructed *inside* the timed region, so every sample
pays the full cost of the first factorization / hierarchy — the
speedup reported is what a cold sweep actually sees.  The acceptance
guard asserts the auto sweep is at least 3x faster than direct at
N=4000, d=2 (the Woodbury side), that auto resolved to the documented
path on every row, and that its answers match direct solves at the
sweep's ends.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import REPEATS, publish

import repro.linalg.workspace as workspace_module
from repro.core.soft import solve_soft_criterion
from repro.experiments.report import ascii_table
from repro.graph.similarity import knn_graph
from repro.linalg.workspace import SolveWorkspace

SIZES = (1000, 4000, 10000)
DIMENSIONS = (2, 3)
K = 10
GRID = tuple(float(lam) for lam in np.logspace(-3, 2, 30))

#: Acceptance floor for the auto sweep over direct at GATE_PROBLEM.
MIN_AUTO_SPEEDUP = 3.0
GATE_PROBLEM = (4000, 2)

#: Endpoint parity with direct solves, per path.  Both stop at the same
#: relative residual (``PCG_TOL``); the multigrid tier is the one the
#: large-N bench pins, since at N=10⁴ the cold λ=1e-3 solve's error
#: reaches ~2e-8 through the system's conditioning.
ENDPOINT_ATOL = {"woodbury": 1e-8, "multigrid_pcg": 1e-6}


def _make_problem(n: int, d: int):
    rng = np.random.default_rng(n)
    x = rng.normal(size=(n, d))
    n_labeled = n // 20
    y = np.sin(x[:n_labeled, 0]) + 0.1 * rng.normal(size=n_labeled)
    graph = knn_graph(x, k=K, bandwidth=0.5, construction="neighbors")
    return graph.weights, y


def _sweep_direct(weights, y):
    return [
        solve_soft_criterion(weights, y, lam, check_reachability=False).scores
        for lam in GRID
    ]


def _sweep_workspace(weights, y, backend):
    workspace = SolveWorkspace(weights, backend=backend)
    fits = workspace.sweep_soft(y, GRID)
    return [fit.scores for fit in fits], fits[-1].solve_info.method, workspace.stats()


def test_bench_lambda_sweep(bench, results_dir):
    rows = []
    speedups = {}
    for d in DIMENSIONS:
        for n in SIZES:
            weights, y = _make_problem(n, d)
            tag = f"n{n}" if d == 2 else f"n{n}_d{d}"

            direct, rec_direct = bench.measure(
                f"lambda_sweep_direct_{tag}",
                lambda: _sweep_direct(weights, y),
                repeats=REPEATS,
            )
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(workspace_module, "WOODBURY_MAX_VERTICES", n + 1)
                woodbury, rec_woodbury = bench.measure(
                    f"lambda_sweep_woodbury_{tag}",
                    lambda: _sweep_workspace(weights, y, "auto"),
                    repeats=REPEATS,
                )
            multigrid, rec_multigrid = bench.measure(
                f"lambda_sweep_multigrid_{tag}",
                lambda: _sweep_workspace(weights, y, "multigrid"),
                repeats=REPEATS,
            )
            auto, rec_auto = bench.measure(
                f"lambda_sweep_auto_{tag}",
                lambda: _sweep_workspace(weights, y, "auto"),
                repeats=REPEATS,
            )

            records = (rec_direct, rec_woodbury, rec_multigrid, rec_auto)
            for rec in records:
                rec.write_json(results_dir / f"{rec.name}.json")
            auto_scores, auto_path, stats = auto
            best = min(rec_woodbury.min_s, rec_multigrid.min_s)
            speedups[(n, d)] = rec_direct.min_s / rec_auto.min_s
            rows.append(
                [
                    n,
                    d,
                    *(f"{rec.min_s * 1e3:.1f}" for rec in records),
                    auto_path,
                    f"{rec_auto.min_s / best:.2f}",
                    f"{speedups[(n, d)]:.2f}x",
                    stats.factor_misses,
                    stats.reanchors,
                ]
            )

            # auto runs the path its threshold documents ...
            assert woodbury[1] == "woodbury"
            assert multigrid[1] == "multigrid_pcg"
            expected = (
                "woodbury"
                if n < workspace_module.WOODBURY_MAX_VERTICES
                else "multigrid_pcg"
            )
            assert auto_path == expected, (n, d, auto_path)
            # ... and does not drift: it agrees with the per-point direct
            # solves at both ends of the grid.
            atol = ENDPOINT_ATOL[auto_path]
            np.testing.assert_allclose(
                auto_scores[0], direct[0], atol=atol, rtol=0
            )
            np.testing.assert_allclose(
                auto_scores[-1], direct[-1], atol=atol, rtol=0
            )

    table = ascii_table(
        [
            "N",
            "d",
            "direct (ms)",
            "woodbury (ms)",
            "multigrid (ms)",
            "auto (ms)",
            "auto path",
            "auto/best",
            "auto speedup",
            "factorizations",
            "reanchors",
        ],
        rows,
    )
    n_gate, d_gate = GATE_PROBLEM
    summary = (
        "amortized lambda sweeps: 30-point log grid, kNN graph (k=10), "
        "5% labeled\n"
        f"{table}\n"
        f"auto: woodbury below N={workspace_module.WOODBURY_MAX_VERTICES}, "
        "multigrid at or above it\n"
        f"acceptance: auto >= {MIN_AUTO_SPEEDUP:.0f}x direct at "
        f"N={n_gate}, d={d_gate}"
    )
    publish(results_dir, "lambda_sweep", summary)

    # Acceptance guard: cross-solve amortization pays for itself where it
    # matters — the auto sweep beats per-point solves >= 3x.
    assert speedups[GATE_PROBLEM] >= MIN_AUTO_SPEEDUP
