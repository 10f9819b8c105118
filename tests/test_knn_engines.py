"""Parity of the two exact kNN engines behind ``construction="neighbors"``.

The kd-tree (low d) and blocked-GEMM (high d) engines share one contract:
``(dist, idx)`` rows sorted by ``(distance, index)``, self excluded, the
smallest-index members of a tie set kept.  Both are called directly here
and must agree with each other, with a direct-difference brute-force
oracle, and with the dense route's edge pattern — on generic clouds and
on the tie-heavy inputs (exact duplicates, integer lattices) where the
tie rule does all the work.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.exceptions import DataValidationError
from repro.graph.similarity import (
    KNN_GEMM_MIN_DIM,
    _assemble_knn_csr,
    _knn_blocked_gemm,
    _knn_engine,
    _knn_kdtree,
    _knn_neighbor_lists,
    knn_graph,
)
from repro.kernels.library import GaussianKernel


def oracle(x, k):
    """Brute force: direct differences, stable sort, self excluded."""
    sq = np.stack([np.einsum("ij,ij->i", x - row, x - row) for row in x])
    np.fill_diagonal(sq, np.inf)
    idx = np.argsort(sq, axis=1, kind="stable")[:, :k]
    return np.sqrt(np.take_along_axis(sq, idx, axis=1)), idx


def gaussian(d):
    return np.random.default_rng(0).normal(size=(600, d))


def duplicates(copies):
    return np.repeat(np.random.default_rng(3).normal(size=(120, 32)), copies, axis=0)


def lattice():
    # 4^5 points of Z^5: every vertex has 2-10 neighbours at distance 1,
    # then dozens at sqrt(2), all exactly tied.
    axes = np.meshgrid(*[np.arange(4.0)] * 5, indexing="ij")
    return np.stack(axes, axis=-1).reshape(-1, 5)


CASES = {
    "gaussian-d3": (gaussian(3), 7),
    "gaussian-d32": (gaussian(32), 7),
    "gaussian-d256": (gaussian(256), 7),
    "duplicates-c2": (duplicates(2), 3),
    "duplicates-c5": (duplicates(5), 7),
    "duplicates-c8": (duplicates(8), 4),
    "lattice-k5": (lattice(), 5),
    "lattice-k20": (lattice(), 20),
    "k-is-n-minus-1": (np.random.default_rng(1).normal(size=(40, 32)), 39),
}


@pytest.fixture(params=sorted(CASES), scope="module")
def case(request):
    x, k = CASES[request.param]
    return x, k, oracle(x, k)


class TestEngineParity:
    def test_engines_agree_with_each_other_and_the_oracle(self, case):
        x, k, (oracle_dist, oracle_idx) = case
        kd_dist, kd_idx = _knn_kdtree(x, k)
        gemm_dist, gemm_idx = _knn_blocked_gemm(x, k)
        np.testing.assert_array_equal(kd_idx, gemm_idx)
        np.testing.assert_allclose(kd_dist, gemm_dist, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(gemm_idx, oracle_idx)
        np.testing.assert_allclose(gemm_dist, oracle_dist, rtol=0, atol=1e-12)

    def test_dense_route_has_the_same_edge_pattern(self, case):
        x, k, _ = case
        kernel = GaussianKernel()
        n, d = x.shape
        bandwidth = float(np.sqrt(d))  # no kernel weight underflows to 0
        dense = knn_graph(x, k=k, bandwidth=bandwidth, construction="dense")
        for engine in (_knn_kdtree, _knn_blocked_gemm):
            dist, idx = engine(x, k)
            lists = _assemble_knn_csr(n, idx, dist, kernel, bandwidth, "union")
            assert (lists != 0).nnz == (dense.weights != 0).nnz
            assert ((lists != 0) != (dense.weights != 0)).nnz == 0


class TestDuplicateOracle:
    """The tie cases in d=32 where the kd-tree's re-resolution used to rank
    a ball by the norm expansion and keep the wrong member of a tie set."""

    @pytest.mark.parametrize("copies,k", [(5, 7), (6, 3), (8, 4), (4, 2)])
    def test_neighbour_lists_match_oracle(self, copies, k):
        x = np.repeat(np.random.default_rng(3).normal(size=(300, 32)), copies, axis=0)
        _, expected = oracle(x, k)
        for engine in (_knn_kdtree, _knn_blocked_gemm):
            np.testing.assert_array_equal(engine(x, k)[1], expected)

    def test_dense_route_keeps_smallest_index_copy_in_low_d(self):
        # Three copies of every point in d=2: the third neighbour is a tie
        # among the copies of the nearest other point.  The norm expansion
        # put those copies an ulp apart and kept a larger index.
        x = np.vstack([np.random.default_rng(0).normal(size=(20, 2))] * 3)
        _, expected = oracle(x, 3)
        dense = knn_graph(x, k=3, bandwidth=0.7, construction="dense")
        for i, row in enumerate(expected):
            kept = set(dense.weights[i].indices) - {i}
            assert set(row) <= kept


class TestEngineDispatch:
    def test_dimension_picks_the_engine(self):
        assert _knn_engine(KNN_GEMM_MIN_DIM - 1) == "kdtree"
        assert _knn_engine(KNN_GEMM_MIN_DIM) == "blocked_gemm"
        x = gaussian(KNN_GEMM_MIN_DIM)
        np.testing.assert_array_equal(
            _knn_neighbor_lists(x, 5)[1], _knn_blocked_gemm(x, 5)[1]
        )

    @pytest.mark.parametrize("d,engine", [(3, "kdtree"), (64, "blocked_gemm")])
    def test_knn_span_names_the_engine(self, d, engine):
        tracer = obs.RecordingTracer()
        x = np.random.default_rng(2).normal(size=(600, d))
        with obs.use_tracer(tracer):
            graph = knn_graph(x, k=5, bandwidth=float(d), construction="neighbors")
        (span,) = [s for s in tracer.iter_spans() if s.name == "repro.graph.knn"]
        assert span.attributes["engine"] == engine
        assert "engine" not in graph.params

    def test_dense_route_records_no_engine(self):
        tracer = obs.RecordingTracer()
        with obs.use_tracer(tracer):
            knn_graph(gaussian(32)[:50], k=5, bandwidth=8.0, construction="dense")
        (span,) = [s for s in tracer.iter_spans() if s.name == "repro.graph.knn"]
        assert "engine" not in span.attributes

    def test_overflowing_inputs_raise_a_typed_error(self):
        x = np.random.default_rng(0).normal(size=(30, 32)) * 1e160
        with pytest.raises(DataValidationError, match="overflow"):
            _knn_blocked_gemm(x, 3)
