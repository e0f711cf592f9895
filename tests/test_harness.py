import json

import numpy as np
import pytest

from matgraph.harness import (
    ExperimentConfig,
    degree_multiset_pairs,
    golden_pairs_suite,
    golden_report,
    lambda_census,
    naive_undistinguished_pairs,
    report_render,
    undistinguished_pairs,
    wl_census,
)
from matgraph.models import MODEL_KINDS, DatasetBatch, ModelSpec, pair_distinguished, run_seeds

from .conftest import make_graph, permute_graph


class TestGoldenSuite:
    def test_all_checks_pass(self):
        checks = golden_pairs_suite()
        failed = [c for c in checks if not c.passed]
        assert not failed, [f"{c.name}: {c.expected} != {c.actual}" for c in failed]

    def test_report_counts(self):
        report = golden_report(golden_pairs_suite())
        assert report.counts["failed"] == 0
        assert report.counts["passed"] >= 20


class TestBucketedEngine:
    """The windowed candidate scan must equal the all-pairs oracle."""

    @staticmethod
    def datasets():
        """120 graphs of orders 4 to 7; and 120 of order 10, 12 of them with
        a relabelled copy, of which after run 0 at most 39 of the 132
        graphs are in a pair for every kind tested, so the batch shrinks."""
        rng = np.random.default_rng(5)
        small = [make_graph(rng, int(rng.integers(4, 8))) for _ in range(120)]
        rng = np.random.default_rng(6)
        copies = [make_graph(rng, 10) for _ in range(120)]
        copies += [permute_graph(G, rng.permutation(10)) for G in copies[:12]]
        return small, copies

    @pytest.mark.parametrize("kind", ["mlp", "gcn", "graphsage", "gin", "chebnet"])
    def test_matches_naive_oracle(self, kind, monkeypatch):
        subsets, subset = [], DatasetBatch.subset

        def counted_subset(batch, indices):
            subsets.append(len(indices))
            return subset(batch, indices)

        monkeypatch.setattr(DatasetBatch, "subset", counted_subset)
        spec = ModelSpec(kind=kind)
        seeds = run_seeds(3, 10)
        small, copies = self.datasets()
        for graphs in (small, copies):
            subsets.clear()
            fast = undistinguished_pairs(spec, graphs, seeds, 1e-3)
            slow = naive_undistinguished_pairs(spec, graphs, seeds, 1e-3)
            assert fast == slow  # the same sorted list
            assert all(type(p) is tuple and type(p[0]) is int and type(p[1]) is int
                       for p in fast)
        assert subsets and subsets[0] <= len(copies) // 2
        assert len(fast) >= 12  # the relabelled copies are never separated

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_pair_distinguished_agrees(self, kind, graph8c):
        # a pair's distance does not depend on the batch that embeds it
        spec, seeds = ModelSpec(kind=kind), run_seeds(7, 3)
        graphs = graph8c[:300]
        for i, j in undistinguished_pairs(spec, graphs, seeds, 1e-3):
            assert not pair_distinguished(spec, graphs[i], graphs[j], seeds, 1e-3)

    @pytest.mark.parametrize("engine", [undistinguished_pairs, naive_undistinguished_pairs])
    def test_no_seeds_rejected(self, engine):
        rng = np.random.default_rng(0)
        graphs = [make_graph(rng, 4) for _ in range(5)]
        with pytest.raises(ValueError, match="at least one seed required"):
            engine(ModelSpec(kind="gcn"), graphs, [], 1e-3)

    def test_naive_oracle_refuses_large_input(self):
        rng = np.random.default_rng(0)
        graphs = [make_graph(rng, 4) for _ in range(501)]
        with pytest.raises(ValueError):
            naive_undistinguished_pairs(ModelSpec(kind="gcn"), graphs, [0], 1e-3)


class TestCensus:
    def test_wl_census_keys(self):
        rng = np.random.default_rng(1)
        graphs = [make_graph(rng, 5) for _ in range(20)]
        report = wl_census(graphs)
        assert set(report.counts) == {"1-WL", "2-FWL"}
        # 2-FWL refines 1-WL
        assert report.counts["2-FWL"] <= report.counts["1-WL"]

    def test_lambda_census_subset_of_wl1(self):
        rng = np.random.default_rng(2)
        graphs = [make_graph(rng, 5) for _ in range(20)]
        report = lambda_census(graphs)
        assert report.counts["equal-lambda-max"] <= report.counts["1-WL"]

    def test_degree_multiset_pairs(self):
        rng = np.random.default_rng(3)
        graphs = [make_graph(rng, 5) for _ in range(30)]
        pairs = degree_multiset_pairs(graphs)
        for i, j in pairs:
            di = sorted(graphs[i].adjacency.sum(axis=1))
            dj = sorted(graphs[j].adjacency.sum(axis=1))
            assert di == dj


class TestConfigAndRendering:
    def test_config_from_file(self, tmp_path):
        p = tmp_path / "exp.cfg"
        p.write_text(
            "dataset = data/graph8c.g6\n"
            "runs = 17  # fewer for a smoke run\n"
            "threshold = 1e-4\n"
            "models = gcn,gin\n"
        )
        cfg = ExperimentConfig.from_file(str(p))
        assert cfg.runs == 17
        assert cfg.threshold == 1e-4
        assert cfg.models == ("gcn", "gin")

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(dataset="x", runs=0)
        with pytest.raises(ValueError, match="at least one model kind required"):
            ExperimentConfig(dataset="x", models=())

    def test_render_formats(self):
        report = golden_report(golden_pairs_suite())
        text = report_render(report, "text")
        assert "golden" in text
        payload = json.loads(report_render(report, "json"))
        assert payload["counts"]["failed"] == 0
        csv_out = report_render(report, "csv")
        assert csv_out.splitlines()[0].count(",") >= 1
