import json
from itertools import combinations

import numpy as np
import pytest

from matgraph.appendix_data import (
    BICYCLOPENTYL,
    COSPECTRAL10_A,
    COSPECTRAL10_B,
    DECALIN,
    ROOK4X4,
    SHRIKHANDE,
)
from matgraph import harness, models
from matgraph.graphcore import Graph, laplacian
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
from matgraph.models import MODEL_KINDS, DatasetBatch, ModelSpec, run_seeds
from matgraph.spectral import eig_sym
from matgraph.wl import fwl2_equivalent, wl1_equivalent

from .conftest import make_graph, permute_graph

C6 = Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
TWO_TRIANGLES = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])


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
            slow = naive_undistinguished_pairs(spec, graphs, seeds, 1e-3)
            # with one worker every later run is one embed_all call; with 2
            # or 3, ceil(workers / tiles) runs share a call, before and
            # after the subset
            for workers in (1, 2, 3):
                monkeypatch.setattr(models, "WORKERS", workers)
                subsets.clear()
                fast = undistinguished_pairs(spec, graphs, seeds, 1e-3)
                assert fast == slow  # the same sorted list
                assert all(type(p) is tuple and type(p[0]) is int and type(p[1]) is int
                           for p in fast)
        assert subsets and subsets[0] <= len(copies) // 2
        assert len(fast) >= 12  # the relabelled copies are never separated

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_pairs_empty_part_way_through_a_call(self, workers, monkeypatch):
        # the one pair survives runs 0 and 1 and is dropped by run 2; each
        # call after run 0 embeds ceil(workers / 1 tile) runs, so with 3
        # workers the second run of the first such call drops the pair
        monkeypatch.setattr(models, "WORKERS", workers)
        spec = ModelSpec("gcn")
        graphs = [Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)]),
                  Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (1, 4)])]
        batch = DatasetBatch(spec, graphs)
        seeds = run_seeds(3, 6)
        dist = {s: np.abs(np.subtract(*batch.embed_all(s))).sum() for s in seeds}
        seeds.sort(key=dist.get)  # closest first
        threshold = (dist[seeds[1]] + dist[seeds[2]]) / 2
        drawn, make_weights = [], models.make_weights

        def recorded(spec, seed):
            drawn.append(seed)
            return make_weights(spec, seed)

        monkeypatch.setattr(models, "make_weights", recorded)
        assert naive_undistinguished_pairs(spec, graphs, seeds[:2], threshold) == [(0, 1)]
        assert naive_undistinguished_pairs(spec, graphs, seeds, threshold) == []
        drawn.clear()
        assert undistinguished_pairs(spec, graphs, seeds, threshold) == []
        assert drawn == seeds[:1 + -(-2 // workers) * workers]

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_pair_distinguished_agrees(self, kind, graph8c):
        # a pair's distance does not depend on the batch that embeds it
        spec, seeds = ModelSpec(kind=kind), run_seeds(7, 3)
        graphs = graph8c[:300]
        for i, j in undistinguished_pairs(spec, graphs, seeds, 1e-3):
            assert undistinguished_pairs(spec, [graphs[i], graphs[j]], seeds, 1e-3) == [(0, 1)]

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

    @staticmethod
    def appendix_dataset():
        """The appendix pairs, C6 / 2K3 and a relabelled copy of each graph:
        1-WL pairs, some of them 2-FWL equivalent or with equal lambda-max
        without being isomorphic (rook / Shrikhande)."""
        rng = np.random.default_rng(4)
        graphs = [ROOK4X4, SHRIKHANDE, C6, TWO_TRIANGLES, DECALIN, BICYCLOPENTYL,
                  COSPECTRAL10_A, COSPECTRAL10_B]
        return graphs + [permute_graph(G, rng.permutation(G.n)) for G in graphs]

    def test_wl_census_fwl2_pairs_are_pairwise_verdicts(self):
        graphs = self.appendix_dataset()
        report = wl_census(graphs)
        expected = [(i, j) for i, j in report.pairs["1-WL"]
                    if fwl2_equivalent(graphs[i], graphs[j]).equivalent]
        assert report.pairs["2-FWL"] == expected
        assert report.counts["2-FWL"] > len(graphs) // 2  # more than the copies

    def test_lambda_census_matches_brute_force(self):
        graphs = self.appendix_dataset()
        rng = np.random.default_rng(5)
        graphs += [make_graph(rng, 6) for _ in range(30)]
        lam = [eig_sym(laplacian(G)).lam[-1] for G in graphs]
        expected = [(i, j) for i, j in combinations(range(len(graphs)), 2)
                    if wl1_equivalent(graphs[i], graphs[j]).equivalent
                    and abs(lam[i] - lam[j]) <= 1e-6]
        report = lambda_census(graphs)
        assert report.pairs["equal-lambda-max"] == expected
        assert (0, 1) in expected  # rook / Shrikhande

    def test_lambda_census_subset_of_wl1(self):
        rng = np.random.default_rng(2)
        graphs = [make_graph(rng, 5) for _ in range(20)]
        report = lambda_census(graphs)
        assert report.counts["equal-lambda-max"] <= report.counts["1-WL"]

    def test_rungs_look_up_module_names_and_split_paired_graphs(self, monkeypatch):
        """The rungs call `harness.signatures` and `harness.eig_sym` as they
        are when called, so a wrapper put there sees every call, and a
        splitting rung gets only the graphs in its base's pairs (here all
        but the two graphs of order 3)."""
        graphs = self.appendix_dataset() + [Graph.from_edges(3, [(0, 1), (1, 2)]),
                                            Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])]
        calls = []

        def spy(name, f, size):
            def wrapped(x, *args, **kwargs):
                calls.append((name, size(x), args, kwargs))
                return f(x, *args, **kwargs)
            return wrapped

        monkeypatch.setattr(harness, "signatures", spy("signatures", harness.signatures, len))
        monkeypatch.setattr(harness, "eig_sym", spy("eig_sym", harness.eig_sym,
                                                     lambda B: B.shape))
        wl_census(graphs)
        assert calls == [("signatures", 18, (), {}), ("signatures", 16, ("FWL2",), {})]
        calls.clear()
        lambda_census(graphs)
        assert calls == [("signatures", 18, (), {}), ("eig_sym", (4, 16, 16), (), {}),
                         ("eig_sym", (4, 6, 6), (), {}), ("eig_sym", (8, 10, 10), (), {})]
        calls.clear()
        degree_multiset_pairs(graphs)
        assert calls == [("signatures", 18, (), {"rounds": 1})]

    def test_degree_multiset_pairs(self, mixed):
        rng = np.random.default_rng(3)
        graphs = [make_graph(rng, 5) for _ in range(30)] + mixed
        # the same pairs in the same order as one sorted-degree key per graph
        buckets: dict = {}
        for i, G in enumerate(graphs):
            buckets.setdefault(tuple(sorted(G.adjacency.sum(axis=1).tolist())), []).append(i)
        expected = [p for members in buckets.values() for p in combinations(members, 2)]
        assert degree_multiset_pairs(graphs) == expected


class TestConfigAndRendering:
    def test_config_from_file(self, tmp_path):
        p = tmp_path / "exp.cfg"
        p.write_text(
            "runs = 17  # fewer for a smoke run\n"
            "threshold = 1e-4\n"
            "models = gcn,gin\n"
        )
        cfg = ExperimentConfig.from_file(str(p), dataset="data/graph8c.g6")
        assert cfg.dataset == "data/graph8c.g6"
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
