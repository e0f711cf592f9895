import dataclasses
import json
import math
import operator
from itertools import combinations, product

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
from matgraph import graphcore, harness, models
from matgraph.graphcore import Dataset, Graph, encode_graph6, laplacian, load_dataset
from matgraph.harness import (
    ExperimentConfig,
    PairReport,
    degree_multiset_pairs,
    distinguishability_run,
    golden_pairs_suite,
    golden_report,
    lambda_census,
    report_render,
    undistinguished_pairs,
    wl_census,
)
from matgraph.models import MODEL_KINDS, DatasetBatch, ModelSpec, run_seeds
from matgraph.spectral import eig_sym
from matgraph.wl import fwl2_equivalent, signatures, wl1_equivalent

from .conftest import DATA_DIR, make_graph, naive_undistinguished_pairs, permute_graph

C6 = Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
TWO_TRIANGLES = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
BOUNDED = [k for k in MODEL_KINDS if models.MODELS[k].bound is not None]


def unbounded_kind(monkeypatch, base: str) -> ModelSpec:
    """A test-only kind "<base>-unbounded": `base` without its WL bound, so
    it embeds as `base` does and settles nothing."""
    name = f"{base}-unbounded"  # per base: the budget width is cached per name
    monkeypatch.setitem(models.MODELS, name, dataclasses.replace(models.MODELS[base], bound=None))
    monkeypatch.setattr(models, "MODEL_KINDS", (*MODEL_KINDS, name))
    return ModelSpec(name)


def ordered_kind(monkeypatch, base: str) -> ModelSpec:
    """A test-only kind "<base>-ordered": `base` with the node index in place
    of the degree input, so that it reads node order but keeps `base`'s
    bound. Its layer 0 is then no function of a node's key, so it runs
    every node."""
    def ordered_update(w, l, H, C):
        if l == 0:
            H = np.broadcast_to(np.arange(H.shape[1], dtype=float)[:, None], H.shape)
        return models._conv_update(w, l, H, C)

    name = f"{base}-ordered"  # per base: the budget width is cached per name
    monkeypatch.setitem(models.MODELS, name,
                        dataclasses.replace(models.MODELS[base], update=ordered_update,
                                            key=None, front=None, back=None))
    monkeypatch.setattr(models, "MODEL_KINDS", (*MODEL_KINDS, name))
    monkeypatch.setattr(harness, "MODEL_KINDS", models.MODEL_KINDS)
    return ModelSpec(name)


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
        """120 graphs of orders 4 to 7, and 120 of order 10, 12 of them with
        a relabelled copy. Under a kind without a bound nothing settles, and
        after run 0 some but not all of the graphs are in a pair for every
        kind tested, so the batch shrinks: to more than half of the 120 and
        to under half of the 132."""
        rng = np.random.default_rng(5)
        small = [make_graph(rng, int(rng.integers(4, 8))) for _ in range(120)]
        rng = np.random.default_rng(6)
        copies = [make_graph(rng, 10) for _ in range(120)]
        copies += [permute_graph(G, rng.permutation(10)) for G in copies[:12]]
        return small, copies

    @pytest.mark.parametrize("kind", ["mlp", "gcn", "graphsage", "gin", "chebnet", "gnnml3"])
    def test_matches_naive_oracle(self, kind, monkeypatch):
        embedded, embed_all, subset = [], DatasetBatch.embed_all, DatasetBatch.subset
        settled, find_settled = [], harness._settled

        def positions(batch):
            """The dataset positions of a batch's graphs."""
            return getattr(batch, "positions", list(range(batch.size)))

        def recorded_subset(batch, indices):
            sub = subset(batch, indices)
            sub.positions = [positions(batch)[i] for i in indices]
            return sub

        def recorded_embed_all(batch, seed):
            embedded.append((positions(batch), seed))
            return embed_all(batch, seed)

        def recorded_settled(batch, emb, pairs, *args):
            keep = find_settled(batch, emb, pairs, *args)
            settled.extend(map(tuple, pairs[keep].tolist()))
            return keep

        monkeypatch.setattr(DatasetBatch, "embed_all", recorded_embed_all)
        monkeypatch.setattr(DatasetBatch, "subset", recorded_subset)
        monkeypatch.setattr(harness, "_settled", recorded_settled)
        seeds = run_seeds(3, 10)
        small, copies = self.datasets()
        unbounded = unbounded_kind(monkeypatch, kind)
        for spec, graphs in product((ModelSpec(kind), unbounded), (small, copies)):
            slow = naive_undistinguished_pairs(spec, graphs, seeds, 1e-3)
            # within[k][i, j]: graphs i and j stay within the threshold in runs 0..k
            full = DatasetBatch(spec, graphs)
            runs = [embed_all(full, s) for s in seeds]
            within = np.logical_and.accumulate(
                [np.abs(e[:, None] - e[None]).sum(axis=-1) <= 1e-3 for e in runs])
            # at any worker count, every run is one embed_all call of one seed
            for workers in (1, 2, 3):
                monkeypatch.setattr(models, "WORKERS", workers)
                embedded.clear()
                settled.clear()
                fast = undistinguished_pairs(spec, graphs, seeds, 1e-3)
                assert fast == slow  # the same sorted list
                assert all(type(p) is tuple and type(p[0]) is int and type(p[1]) is int
                           for p in fast)
                assert embedded[0][0] == list(range(len(graphs)))
                assert [seed for _, seed in embedded] == seeds[:len(embedded)]
                assert all(type(seed) is int for _, seed in embedded)
                # each later run embeds exactly the graphs, in dataset
                # order, of the pairs still unsettled before it
                for done, (batch_positions, _) in enumerate(embedded[1:], start=1):
                    unsettled = np.triu(within[done - 1], 1)
                    unsettled[tuple(np.array(settled, dtype=int).reshape(-1, 2).T)] = False
                    active = np.flatnonzero(unsettled.any(axis=0) | unsettled.any(axis=1))
                    assert batch_positions == active.tolist()
            if graphs is copies or spec is unbounded:
                assert len(fast) >= 12  # the relabelled copies are never separated
            if graphs is copies and spec is not unbounded:
                # the relabelled copies settle after run 0, so no later run
                # embeds one of them
                copied = {*range(12), *range(120, len(copies))}
                assert not copied & {i for later, _ in embedded[1:] for i in later}
            if spec is unbounded:
                # nothing settles, so later runs embed only the graphs in pairs
                assert settled == []
                assert 0 < len(embedded[1][0]) < len(graphs)
            if spec is unbounded and graphs is small:
                # over half of the graphs are in pairs, and they alone are embedded
                assert len(embedded[1][0]) > len(graphs) // 2

    @pytest.mark.parametrize("kind", ["mlp", "gcn", "chebnet"])
    def test_settling_refines_the_tiles(self, kind, monkeypatch):
        """On a plain list of orders 4 to 7 and 10, `_settled` builds no
        `Dataset` and stacks no graphs: it refines the near graphs'
        adjacency gathered from the batch's tiles, and settles exactly the
        near pairs whose graphs get equal labels when the same graphs are
        keyed from their `Graph` objects."""
        small, copies = self.datasets()
        graphs, spec = small + copies, ModelSpec(kind)
        batch = DatasetBatch(spec, graphs)
        emb = batch.embed_all(3)
        pairs, dist = harness._candidate_pairs(emb, 1e-3)

        def refuse(*args, **kwargs):
            raise AssertionError("a graph list was stacked")

        monkeypatch.setattr(graphcore, "order_stacks", refuse)
        monkeypatch.setattr(Dataset, "__init__", refuse)
        got = harness._settled(batch, emb, pairs, dist, 1e-3)
        monkeypatch.undo()
        norm = np.abs(emb).sum(axis=1)
        near = dist <= harness.NEAR_EPS * norm[pairs].sum(axis=1)
        keyed = sorted(set(pairs[near].ravel().tolist()))
        labels = dict(zip(keyed, signatures([graphs[i] for i in keyed],
                                            *harness.CENSUS[models.MODELS[kind].bound][1])[-1]))
        want = [bool(n) and labels[i] == labels[j] for (i, j), n in zip(pairs.tolist(), near)]
        assert got.tolist() == want
        assert got.any() and len({graphs[i].n for i in keyed}) > 1

    @pytest.mark.parametrize("kind", BOUNDED)
    def test_sr25_settles_after_run_0(self, kind, sr25, monkeypatch):
        # all 15 sr25 graphs are one 1-WL class at every round
        embedded, embed_all = [], DatasetBatch.embed_all

        def counted_embed_all(batch, seed):
            embedded.append(batch.size)
            return embed_all(batch, seed)

        monkeypatch.setattr(DatasetBatch, "embed_all", counted_embed_all)
        pairs = undistinguished_pairs(ModelSpec(kind), sr25, run_seeds(7, 100), 1e-3)
        assert len(pairs) == 105
        assert embedded[0] == 15 and sum(embedded[1:]) == 0

    def test_threshold_below_rounding_skips_settling(self):
        """A near cut above the threshold could leave rounding-apart pairs of
        equal keys out of the candidates; settling is skipped, and the pairs
        are those of the oracle: the exact copies, not the relabellings."""
        rng = np.random.default_rng(2)
        G = make_graph(rng, 8)
        P = permute_graph(G, rng.permutation(8))
        graphs, spec, seeds = [G, G, P, P], ModelSpec("gcn"), run_seeds(3, 3)
        slow = naive_undistinguished_pairs(spec, graphs, seeds, 1e-300)
        assert undistinguished_pairs(spec, graphs, seeds, 1e-300) == slow == [(0, 1), (2, 3)]
        assert undistinguished_pairs(spec, graphs, seeds, 1e-3) == list(combinations(range(4), 2))

    def test_wrong_wl_bound_raises(self, monkeypatch, tmp_path):
        """A kind that declares a bound but reads node order: of two copies
        each of a graph and of a relabelling, all four of equal keys, only
        the copies are near, so run 0's check raises naming the kind, and
        `distinguishability_run` reports it as error:<kind>."""
        spec = ordered_kind(monkeypatch, "gcn")
        rng = np.random.default_rng(7)
        G = make_graph(rng, 8)
        P = permute_graph(G, rng.permutation(8))
        graphs = [G, G, P, P]
        with pytest.raises(ValueError, match=r"^gcn-ordered: .*WL bound does not hold$"):
            undistinguished_pairs(spec, graphs, run_seeds(3, 2), 1e-3)
        path = tmp_path / "copies.g6"
        path.write_text("".join(encode_graph6(H) + "\n" for H in graphs))
        report = distinguishability_run(
            ExperimentConfig(str(path), models=(spec.kind, "gcn"), runs=2))
        assert report.extras["error:gcn-ordered"].startswith("gcn-ordered: ")
        assert spec.kind not in report.counts
        assert report.counts["gcn"] == 6  # four isomorphic graphs

    def test_wrong_2fwl_bound_raises(self, monkeypatch):
        """The same check holds a 2-FWL bound: Chebnet's supports with the
        node index as input keep Chebnet's 2-FWL bound, and of the four
        graphs of equal 2-FWL keys only the copies are near."""
        spec = ordered_kind(monkeypatch, "chebnet")
        rng = np.random.default_rng(7)
        G = make_graph(rng, 8)
        P = permute_graph(G, rng.permutation(8))
        with pytest.raises(ValueError, match=r"^chebnet-ordered: graphs of equal 2-FWL keys differ "
                                             r"in run 0, so its declared WL bound does not hold$"):
            undistinguished_pairs(spec, [G, G, P, P], run_seeds(3, 2), 1e-3)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_pairs_empty_part_way_through_a_call(self, workers, monkeypatch):
        # the one pair survives runs 0 and 1 and is dropped by run 2, after
        # which no run is drawn, at any worker count
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
        assert drawn == seeds[:3]

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_pair_distinguished_agrees(self, kind, graph8c):
        # a pair's distance does not depend on the batch that embeds it
        spec, seeds = ModelSpec(kind=kind), run_seeds(7, 3)
        graphs = graph8c[:300]
        for i, j in undistinguished_pairs(spec, graphs, seeds, 1e-3):
            assert undistinguished_pairs(spec, [graphs[i], graphs[j]], seeds, 1e-3) == [(0, 1)]

    def test_pairs_share_one_int_per_graph(self):
        # 400 relabelled copies of 4 graphs, so most indices are past
        # CPython's cached small ints and each is in about 100 pairs: the
        # pairs hold exact ints, at most one object per graph index
        rng = np.random.default_rng(4)
        bases = [make_graph(rng, 9) for _ in range(4)]
        graphs = [permute_graph(bases[k % 4], rng.permutation(9)) for k in range(400)]
        spec, seeds = ModelSpec("mlp"), run_seeds(7, 2)
        pairs = undistinguished_pairs(spec, graphs, seeds, 1e-3)
        assert len(pairs) >= 4 * 99 * 100 // 2
        assert pairs == naive_undistinguished_pairs(spec, graphs, seeds, 1e-3)
        assert all(type(p) is tuple and len(p) == 2 and type(p[0]) is type(p[1]) is int
                   for p in pairs)
        assert max(j for _, j in pairs) > 256
        assert len({id(v) for p in pairs for v in p}) <= len(graphs)

    def test_no_seeds_rejected(self):
        rng = np.random.default_rng(0)
        graphs = [make_graph(rng, 4) for _ in range(5)]
        with pytest.raises(ValueError, match="at least one seed required"):
            undistinguished_pairs(ModelSpec(kind="gcn"), graphs, [], 1e-3)


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
        assert calls == [("signatures", 18, ("WL1", math.inf), {}),
                         ("signatures", 16, ("FWL2", math.inf), {})]
        calls.clear()
        lambda_census(graphs)
        assert calls == [("signatures", 18, ("WL1", math.inf), {}), ("eig_sym", (4, 16, 16), (), {}),
                         ("eig_sym", (4, 6, 6), (), {}), ("eig_sym", (8, 10, 10), (), {})]
        calls.clear()
        degree_multiset_pairs(graphs)
        assert calls == [("signatures", 18, ("WL1", 1), {})]

    def test_loaded_dataset_keys_each_rung_once(self, monkeypatch):
        """On a fresh `load_dataset` result, whose memo no other test warms,
        wl_census, lambda_census and degree_multiset_pairs call the
        whole-dataset `signatures` once, for the stable 1-WL ladder, whose
        row 1 is the 1-WL@1 rung; the 2-FWL rung keys a list of the paired
        graphs. Each report equals the one on the list of the same graphs,
        whose base rungs key a temporary dataset of it, to stable 1-WL
        again in lambda_census and to depth 1 in degree_multiset_pairs."""
        dataset = load_dataset(str(DATA_DIR / "graph8c.g6"))
        graphs = list(dataset)
        calls = []

        def spy(gs, *args, **kwargs):
            calls.append((len(gs), isinstance(gs, Dataset), args, kwargs))
            return signatures(gs, *args, **kwargs)

        signatures = harness.signatures
        monkeypatch.setattr(harness, "signatures", spy)
        found = [f(dataset) for f in (wl_census, lambda_census, degree_multiset_pairs)]
        paired = len({i for pair in found[0].pairs["1-WL"] for i in pair})  # all 312 pairs
        assert found[0].counts["1-WL"] == 312 and paired == 395
        assert calls == [(11117, True, ("WL1", math.inf), {}), (paired, False, ("FWL2", math.inf), {})]
        calls.clear()
        assert [f(graphs) for f in (wl_census, lambda_census, degree_multiset_pairs)] == found
        assert calls == [(11117, True, ("WL1", math.inf), {}), (paired, False, ("FWL2", math.inf), {}),
                         (11117, True, ("WL1", math.inf), {}), (11117, True, ("WL1", 1), {})]

    def test_one_refinement_labels_every_1wl_rung(self, monkeypatch):
        """All six 1-WL rungs of a fresh graph8c read rows of one stable
        ladder, refined by one `signatures` call and kept read-only in the
        memo, which later rungs read. On another fresh dataset a rung
        within the kept ladder's depth reads a row, a deeper one refines
        once, to its own depth, and a ladder that stopped short of its
        depth (sr25 is 1-WL stable at round 1) is stable, so reaches
        every rung."""
        calls = []

        def spy(gs, *args, **kwargs):
            calls.append(args)
            return signatures(gs, *args, **kwargs)

        signatures = harness.signatures
        monkeypatch.setattr(harness, "signatures", spy)
        rungs = ("1-WL@1", "1-WL@2", "1-WL@3", "1-WL@4", "1-WL@5", "1-WL")
        dataset = load_dataset(str(DATA_DIR / "graph8c.g6"))
        found = harness._census(dataset, rungs)
        assert calls == [("WL1", math.inf)]
        assert [len(found[r]) for r in rungs] == [293364, 3752, 478, 320, 312, 312]
        assert not harness._wl1_ladder(dataset, math.inf).flags.writeable
        assert harness._census(dataset, ("1-WL@3",)) == {"1-WL@3": found["1-WL@3"]}
        assert calls == [("WL1", math.inf)]
        fresh = Dataset(list(dataset))
        for rung, refined in (("1-WL@2", [("WL1", 2)]), ("1-WL@1", []), ("1-WL@4", [("WL1", 4)]),
                              ("1-WL@3", []), ("1-WL", [("WL1", math.inf)]), ("1-WL@5", [])):
            calls.clear()
            assert harness._census(fresh, (rung,))[rung] == found[rung], rung
            assert calls == refined, rung
        sr25 = load_dataset(str(DATA_DIR / "sr25.g6"))
        for rung, refined in (("1-WL@3", [("WL1", 3)]), ("1-WL", []), ("1-WL@5", [])):
            calls.clear()
            assert len(harness._census(sr25, (rung,))[rung]) == 105
            assert calls == refined, rung

    def test_distinguish_counts_the_degree_oracle(self, tmp_path):
        # counted from the memoised 1-WL@1 classes, it is the pair list's length
        rng = np.random.default_rng(3)
        graphs = [make_graph(rng, n) for n in (5, 6) for _ in range(40)]
        path = tmp_path / "small.g6"
        path.write_text("".join(encode_graph6(G) + "\n" for G in graphs))
        report = distinguishability_run(ExperimentConfig(str(path), models=("mlp",), runs=1))
        assert report.extras["degree-multiset-oracle"] == len(degree_multiset_pairs(graphs)) > 0

    def test_model_bounds_are_key_rungs(self):
        """A kind's bound names a rung whose keys are compared for equality;
        a tolerance rung such as equal-lambda-max is not transitive, so it
        is no key and cannot settle a pair."""
        for kind in BOUNDED:
            assert harness.CENSUS[models.MODELS[kind].bound][2] is operator.eq, kind
        assert harness.CENSUS["equal-lambda-max"][2] is not operator.eq

    def test_bounded_round_rungs_on_graph8c(self, graph8c):
        rungs = ("1-WL@2", "1-WL@3", "1-WL@4", "1-WL@5", "1-WL")
        found = harness._census(graph8c, rungs)
        assert [len(found[r]) for r in rungs] == [3752, 478, 320, 312, 312]
        for coarse, fine in zip(rungs, rungs[1:]):
            assert set(found[fine]) <= set(found[coarse])
        assert found["1-WL@5"] == found["1-WL"]

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
        with pytest.raises(ValueError, match=r"^base_seed must be >= 0$"):
            ExperimentConfig(dataset="x", base_seed=-1)

    def test_record_counts_all_and_keeps_the_first_sorted(self):
        """`record` counts every pair and keeps the first PAIR_LIST_CAP in
        sorted order, whatever order it is given; more pairs than
        C(graph_count, 2) raise."""
        report = PairReport.of_graphs("x", [None] * 50)
        every = list(combinations(range(50), 2))
        assert report.pair_count == len(every) == 1225 > PairReport.PAIR_LIST_CAP
        rng = np.random.default_rng(2)
        for given in (every, every[::-1], [every[k] for k in rng.permutation(len(every))]):
            report.record("m", given)
            assert report.counts["m"] == 1225
            assert report.pairs["m"] == every[:1000]
        few = every[::-3]
        report.record("few", few)
        assert report.counts["few"] == len(few) and report.pairs["few"] == sorted(few)
        with pytest.raises(ValueError, match="more pairs than"):
            report.record("m", every + [(0, 1)])

    def test_render_formats(self):
        report = golden_report(golden_pairs_suite())
        text = report_render(report, "text")
        assert "golden" in text
        payload = json.loads(report_render(report, "json"))
        assert payload["counts"]["failed"] == 0
        csv_out = report_render(report, "csv")
        assert csv_out.splitlines()[0].count(",") >= 1
