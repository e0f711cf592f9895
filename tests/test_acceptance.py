"""End-to-end acceptance criteria.

Each test maps to one numbered criterion; dataset-scale cases share
session fixtures so the whole file stays within the runtime budgets.
"""

import time

import numpy as np
import pytest

from matgraph.graphcore import laplacian
from matgraph.graphlets import PATTERN_KINDS, count, enumerate_pattern
from matgraph.harness import (
    degree_multiset_pairs,
    golden_pairs_suite,
    lambda_census,
    undistinguished_pairs,
    wl_census,
)
from matgraph.models import ModelSpec, run_seeds
from matgraph.spectral import eig_sym
from matgraph.wl import fwl2_equivalent, wl1_equivalent

from .conftest import make_graph

RUNS = 100
THRESHOLD = 1e-3
BASE_SEED = 7

TABLE1 = {
    "mlp": 293045,
    "gcn": 4775,
    "graphsage": 1377,
    "gin": 386,
    "gat": 1828,
    "chebnet": 44,
    "gnnml1": 333,
    "gnnml3": 0,
}


def in_band(count, target, tol=0.15):
    return target * (1 - tol) <= count <= target * (1 + tol)


@pytest.fixture(scope="module")
def seeds():
    return run_seeds(BASE_SEED, RUNS)


@pytest.fixture(scope="module")
def table1(graph8c, seeds):
    counts = {}
    pair_sets = {}
    for kind in TABLE1:
        pairs = undistinguished_pairs(
            ModelSpec(kind=kind), graph8c, seeds, THRESHOLD
        )
        counts[kind] = len(pairs)
        pair_sets[kind] = set(pairs)
    return counts, pair_sets


class TestCriterion1Golden:
    def test_suite_exact_and_fast(self):
        t0 = time.time()
        checks = golden_pairs_suite()
        elapsed = time.time() - t0
        failed = [c.name for c in checks if not c.passed]
        assert not failed
        assert elapsed < 10.0


class TestCriterion2Graph8cCensus:
    def test_census_counts(self, graph8c):
        t0 = time.time()
        report = wl_census(graph8c)
        assert report.counts["1-WL"] == 312
        assert report.counts["2-FWL"] == 0
        lam = lambda_census(graph8c)
        assert lam.counts["equal-lambda-max"] == 19
        assert time.time() - t0 < 60.0


class TestCriterion3SR25:
    def test_wl_equivalence(self, sr25):
        assert len(sr25) == 15
        for i in range(15):
            for j in range(i + 1, 15):
                assert wl1_equivalent(sr25[i], sr25[j]).equivalent
                assert fwl2_equivalent(sr25[i], sr25[j]).equivalent

    @pytest.mark.parametrize("kind", sorted(TABLE1))
    def test_every_model_blind(self, sr25, seeds, kind):
        pairs = undistinguished_pairs(ModelSpec(kind=kind), sr25, seeds, THRESHOLD)
        assert len(pairs) == 105


@pytest.mark.slow
class TestCriterion4Table1:
    def test_gnnml3_exact_zero(self, table1):
        counts, _ = table1
        assert counts["gnnml3"] == 0

    @pytest.mark.parametrize("kind", ["gin", "gnnml1"])
    def test_wl1_matching_models(self, table1, kind):
        counts, _ = table1
        assert in_band(counts[kind], TABLE1[kind])
        assert counts[kind] >= 312  # never below the 1-WL floor

    @pytest.mark.parametrize("kind", ["gcn", "gat", "mlp", "graphsage", "chebnet"])
    def test_stochastic_bands(self, table1, kind):
        counts, _ = table1
        assert in_band(counts[kind], TABLE1[kind])

    def test_mlp_degree_multiset_oracle(self, graph8c, table1):
        counts, pair_sets = table1
        oracle = set(degree_multiset_pairs(graph8c))
        # MLP can only separate graphs with different degree multisets,
        # so the oracle pairs are a subset of what it leaves together
        assert oracle <= pair_sets["mlp"]
        assert in_band(len(oracle), counts["mlp"], tol=0.15)

    def test_chebnet_distinguishes_only_lambda_gaps(self, graph8c, table1):
        # Theorem 2: within 1-WL classes, Chebnet's extra power comes from
        # lambda-max; each pair it separates must differ in lambda-max
        _, pair_sets = table1
        wl1_pairs = wl_census(graph8c).pairs["1-WL"]
        lam = [float(eig_sym(laplacian(G)).lam[-1]) for G in graph8c]
        for i, j in wl1_pairs:
            if (i, j) not in pair_sets["chebnet"]:
                assert abs(lam[i] - lam[j]) > 1e-6


class TestCriterion5GraphletOracle:
    def test_500_random_graphs(self):
        rng = np.random.default_rng(12345)
        for _ in range(500):
            G = make_graph(rng, int(rng.integers(4, 11)), p=0.5)
            for kind in PATTERN_KINDS:
                closed = count(G, kind)
                assert isinstance(closed, int)
                assert closed == enumerate_pattern(G, kind)


class TestCriterion6PropertySuites:
    """The randomized property suites live in the per-module test files:

    - WL permutation invariance: test_wl.py
    - embed determinism / permutation invariance: test_models.py
    - 1-WL-bounded models never separate 1-WL pairs: test_models.py
    - support symmetry / norm / equivariance: test_spectral.py
    - supports zero off the mask A + I with the identity last, Maclaurin
      residual: test_spectral.py

    This check just asserts those files are collected alongside this one.
    """

    def test_property_modules_present(self):
        import tests.test_models
        import tests.test_spectral
        import tests.test_wl

        assert tests.test_wl and tests.test_spectral and tests.test_models
