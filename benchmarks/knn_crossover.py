"""Measure the kd-tree vs blocked-GEMM crossover of the exact kNN route.

Times both exact neighbour engines of :mod:`repro.graph.similarity` on
Gaussian clouds over an ``(N, d)`` grid and prints a markdown table with
the engine ``_knn_neighbor_lists`` picks at each point.  The table in
``docs/SCALING.md`` ("The kNN engine") comes from this script::

    PYTHONPATH=src python benchmarks/knn_crossover.py
    PYTHONPATH=src python benchmarks/knn_crossover.py --n 2000 --d 8 16 --k 10

Each cell is the best of ``--repeats`` runs, after an untimed warm-up.
Both engines must return the same neighbour indices; the script exits 1
if they ever differ.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from repro.graph.similarity import (
    KNN_GEMM_MIN_DIM,
    _knn_blocked_gemm,
    _knn_engine,
    _knn_kdtree,
)

GRID = [(n, d) for n in (2_000, 10_000) for d in (3, 5, 8, 16, 32, 64, 256)]
GRID.append((20_000, 64))


def best_of(engine, x, k, repeats):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        out = engine(x, k)
        times.append(time.perf_counter() - start)
    return min(times), out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, nargs="*", help="row counts (default: grid)")
    parser.add_argument("--d", type=int, nargs="*", help="dimensions (default: grid)")
    parser.add_argument("--k", type=int, default=10)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    grid = GRID
    if args.n or args.d:
        grid = [(n, d) for n in (args.n or [10_000]) for d in (args.d or [16])]

    # Untimed warm-up: the first BLAS calls of a process (thread pool,
    # first-touch pages) would otherwise land on the first grid point.
    warm = np.random.default_rng(args.seed).normal(size=(2_000, 16))
    for engine in (_knn_kdtree, _knn_blocked_gemm):
        best_of(engine, warm, args.k, 3)

    print(f"k={args.k}, KNN_GEMM_MIN_DIM={KNN_GEMM_MIN_DIM}")
    print("| N | d | kd-tree (s) | blocked GEMM (s) | faster | chosen |")
    print("|---|---|---|---|---|---|")
    mismatched = False
    for n, d in grid:
        x = np.random.default_rng(args.seed).normal(size=(n, d))
        kd_s, (_, kd_idx) = best_of(_knn_kdtree, x, args.k, args.repeats)
        gemm_s, (_, gemm_idx) = best_of(_knn_blocked_gemm, x, args.k, args.repeats)
        mismatched |= not np.array_equal(kd_idx, gemm_idx)
        faster = "kdtree" if kd_s <= gemm_s else "blocked_gemm"
        print(
            f"| {n} | {d} | {kd_s:.3f} | {gemm_s:.3f} | {faster} | {_knn_engine(d)} |",
            flush=True,
        )
    if mismatched:
        print("error: the engines returned different neighbour indices", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
