from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matgraph.appendix_data import BICYCLOPENTYL, DECALIN
from matgraph.graphcore import Graph
from matgraph.harness import undistinguished_pairs
from matgraph.models import (
    EMBED_DIM,
    MODEL_KINDS,
    MODELS,
    PARAM_BUDGET,
    ModelSpec,
    _count,
    embed,
    make_weights,
    parameter_count,
    run_seeds,
    splitmix64,
    static_supports,
)
from matgraph.spectral import SupportSpec

from .conftest import graphs, naive_undistinguished_pairs, permute_graph

# models whose update rule is a function of the 1-WL color alone
WL1_BOUNDED = ("mlp", "gcn", "graphsage", "gin", "gat", "gnnml1")


class TestSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ModelSpec(kind="transformer")

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_budget_respected(self, kind):
        spec = ModelSpec(kind=kind)
        count = parameter_count(spec)
        assert count <= PARAM_BUDGET
        # width resolution is maximal: one more unit would overflow
        assert _count(kind, spec.resolved_width() + 1) > PARAM_BUDGET

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_paper_configuration(self, kind):
        # the kind is the only field; perfbench's embed_flops reads the
        # other four from a spec
        spec = ModelSpec(kind)
        assert [f.name for f in fields(spec)] == ["kind"]
        assert spec.layers == 3 and spec.cheb_k == 3
        assert spec.support_spec == SupportSpec()
        assert spec.readout == "sum-linear10"

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_weight_count_matches_declared(self, kind):
        spec = ModelSpec(kind=kind)
        weights = make_weights(spec, seed=1)
        total = sum(w.size for w in weights.values())
        assert total == parameter_count(spec)


class TestSeeds:
    def test_splitmix_is_deterministic(self):
        assert splitmix64(42) == splitmix64(42)
        assert splitmix64(42) != splitmix64(43)

    def test_run_seeds_distinct(self):
        seeds = run_seeds(0, 100)
        assert len(set(seeds)) == 100

    def test_make_weights_takes_one_integer_seed(self):
        # numpy's SeedSequence would take a list as entropy and draw
        # unrelated weights
        spec = ModelSpec("gcn")
        for seed in ([3, 4], (3,), np.array([3]), 3.0, "3", None):
            with pytest.raises(TypeError, match="^seed must be an integer, not "):
                make_weights(spec, seed)
        want = make_weights(spec, 3)
        for seed in (np.int64(3), np.uint64(3)):
            got = make_weights(spec, seed)
            assert all(np.array_equal(got[k], want[k]) for k in want)


class TestStaticSupports:
    def test_gcn_support_symmetric_normalized(self):
        G = Graph.from_edges(3, [(0, 1), (1, 2)])
        C = static_supports(ModelSpec(kind="gcn"), G)[0]
        assert np.allclose(C, C.T)
        lam = np.linalg.eigvalsh(C)
        assert np.abs(lam).max() <= 1.0 + 1e-10

    def test_chebnet_support_count(self):
        G = Graph.from_edges(3, [(0, 1), (1, 2)])
        C = static_supports(ModelSpec(kind="chebnet"), G)
        assert len(C) == 3
        assert np.allclose(C[0], np.eye(3))


class TestEmbed:
    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_shape_and_determinism(self, kind):
        G = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        spec = ModelSpec(kind=kind)
        e1 = embed(spec, G, seed=7)
        e2 = embed(spec, G, seed=7)
        assert e1.shape == (EMBED_DIM,)
        assert np.array_equal(e1, e2)
        assert np.isfinite(e1).all()

    @settings(max_examples=100, deadline=None)
    @given(graphs(min_n=2, max_n=7, connected=True), st.sampled_from(MODEL_KINDS))
    def test_permutation_invariance(self, G, kind):
        rng = np.random.default_rng(int(G.adjacency.sum()) // 2 * 13 + G.n)
        perm = rng.permutation(G.n)
        H = permute_graph(G, perm)
        spec = ModelSpec(kind=kind)
        eG = embed(spec, G, seed=3)
        eH = embed(spec, H, seed=3)
        scale = max(1.0, np.abs(eG).max())
        assert np.abs(eG - eH).max() <= 1e-9 * scale

    @pytest.mark.parametrize("n", [1, 4])
    def test_gnnml3_degenerate_spectrum(self, n):
        # edgeless graphs collapse the band centers to one; the support
        # set still carries S columns for the learned-support MLP
        e = embed(ModelSpec(kind="gnnml3"), Graph(np.zeros((n, n))), seed=1)
        assert e.shape == (EMBED_DIM,)
        assert np.isfinite(e).all()


class TestWL1Bound:
    """Models bounded by 1-WL never separate 1-WL-equivalent graphs."""

    def test_declared_bounds(self):
        # 1-WL rounds: the degree input is round 1, and each of the 3 layers
        # adds one; Chebnet and GNNML3 go past 1-WL only by spectral terms
        bounds = {k: MODELS[k].bound for k in MODEL_KINDS if MODELS[k].bound is not None}
        assert bounds == {"mlp": "1-WL@1", "gcn": "1-WL@4", "graphsage": "1-WL@4",
                          "gin": "1-WL@4", "gat": "1-WL@4", "gnnml1": "1-WL@4",
                          "chebnet": "2-FWL", "gnnml3": "2-FWL"}
        assert {k for k, b in bounds.items() if b.startswith("1-WL")} == set(WL1_BOUNDED)

    @pytest.mark.parametrize("kind", WL1_BOUNDED)
    def test_decalin_pair_never_separated(self, kind):
        # the engine settles the pair after run 0; the oracle checks all 100 runs
        spec = ModelSpec(kind=kind)
        seeds = run_seeds(11, 100)
        graphs = [DECALIN, BICYCLOPENTYL]
        assert undistinguished_pairs(spec, graphs, seeds, 1e-3) == [(0, 1)]
        assert naive_undistinguished_pairs(spec, graphs, seeds, 1e-3) == [(0, 1)]

    @settings(max_examples=100, deadline=None)
    @given(
        graphs(min_n=3, max_n=7, connected=True),
        st.sampled_from(WL1_BOUNDED),
        st.integers(0, 2**31),
    )
    def test_isomorphic_graphs_never_separated(self, G, kind, seed):
        # isomorphic pairs are the strictest 1-WL-equivalent pairs
        perm = np.random.default_rng(seed).permutation(G.n)
        H = permute_graph(G, perm)
        spec, seeds = ModelSpec(kind=kind), [seed % 997, seed % 991]
        assert undistinguished_pairs(spec, [G, H], seeds, 1e-3) == [(0, 1)]
        assert naive_undistinguished_pairs(spec, [G, H], seeds, 1e-3) == [(0, 1)]
