"""The order-bucket engine: stacked supports, tiles, subsets, candidate scan."""

import numpy as np
import pytest

from matgraph import models
from matgraph.harness import _candidate_pairs
from matgraph.models import MODEL_KINDS, TILE_NODES, DatasetBatch, ModelSpec, static_supports
from matgraph.spectral import SupportSpec


def same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def bucket_graphs(graphs, grp):
    return [graphs[i] for i in grp.indices]


ADJACENCY = ModelSpec("gnnml3", support_spec=SupportSpec(basis_kind="adjacency"))


@pytest.mark.parametrize("spec", [ModelSpec(k) for k in MODEL_KINDS] + [ADJACENCY],
                         ids=[*MODEL_KINDS, "gnnml3-adjacency"])
def test_stacked_supports_equal_one_graph_builder(spec, mixed):
    kind = spec.kind
    batch = DatasetBatch(spec, mixed)
    assert sorted(grp.n for grp in batch.groups) == [1, 3, 8, 25]
    for grp in batch.groups:
        ones = [static_supports(spec, G) for G in bucket_graphs(mixed, grp)]
        if kind != "gnnml3":
            assert same_bytes(grp.C, np.stack([np.stack(C) for C in ones]))
            continue
        rows, (b, r, c), _ = grp.edges
        assert same_bytes(rows, np.concatenate([ss.features for ss in ones]))
        rc = np.concatenate([np.reshape(ss.mask_index, (-1, 2)) for ss in ones])
        assert np.array_equal(np.stack([r, c], axis=1), rc)
        assert np.array_equal(b, np.repeat(np.arange(len(ones)), [ss.m for ss in ones]))


def test_adjacency_basis_supports(mixed):
    # masked U diag(exp(-b (lam - f)^2)) U^T over the adjacency spectrum
    G = mixed[5]
    ss = static_supports(ADJACENCY, G)
    lam, U = np.linalg.eigh(G.adjacency)
    M = G.adjacency + np.eye(G.n)
    dense = ss.dense(G.n)
    for s, f in enumerate(ss.centers):
        want = (U * np.exp(-5.0 * (lam - f) ** 2)) @ U.T
        np.testing.assert_allclose(dense[s], np.where(M > 0, want, 0.0), atol=1e-12)
    assert ss.centers[0] == pytest.approx(lam[0])
    assert np.array_equal(dense[-1], np.eye(G.n))


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_node_features_replace_degrees(kind, mixed):
    batch = DatasetBatch(ModelSpec(kind), mixed)
    (grp,) = [g for g in batch.groups if g.n == 8]
    assert len(grp.indices) > TILE_NODES // 8  # the bucket spans several tiles
    for k, i in enumerate(grp.indices):
        G = mixed[i]
        want = G.node_features if G.node_features is not None else G.adjacency.sum(1)[:, None]
        assert np.array_equal(grp.H0[k], want)


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_subset_equals_fresh_batch(kind, mixed):
    spec = ModelSpec(kind)
    idx = [302, 0, 151, 7, 154, 152, 3, 1, 153, 250]  # every order, out of order
    got = DatasetBatch(spec, mixed).subset(idx).embed_all(11)
    want = DatasetBatch(spec, [mixed[i] for i in idx]).embed_all(11)
    assert same_bytes(got, want)


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_threaded_tiles_equal_inline_tiles(kind, mixed, monkeypatch):
    # readout="sum": without the final linear a graph's row does not
    # depend on how many graphs share its batch
    monkeypatch.setattr(models, "WORKERS", max(models.WORKERS, 3))
    spec = ModelSpec(kind, readout="sum")
    batch = DatasetBatch(spec, mixed)
    tiles = [(grp, lo, hi) for grp in batch.groups for lo, hi in grp.tiles()]
    assert len(tiles) >= 4
    runs = [batch.embed_all(13) for _ in range(5)]
    assert all(same_bytes(e, runs[0]) for e in runs[1:])
    for grp, lo, hi in tiles:  # each a batch of one tile, which runs inline
        idx = grp.indices[lo:hi]
        alone = DatasetBatch(spec, [mixed[i] for i in idx]).embed_all(13)
        assert same_bytes(runs[0][idx], alone)


def scan_matches_brute_force(emb, t):
    d = np.abs(emb[:, None, :] - emb[None, :, :]).sum(axis=2)
    want = {(int(i), int(j)) for i, j in zip(*np.nonzero(d <= t)) if i < j}
    got = _candidate_pairs(emb, t)
    assert got.shape == (len(want), 2) and got.dtype == np.int64
    assert {(int(i), int(j)) for i, j in got} == want
    return len(want)


def test_candidate_pairs_match_brute_force():
    rng = np.random.default_rng(9)
    base = rng.uniform(0, 0.01, size=(60, 4))
    emb = base[rng.integers(0, 60, size=200)]  # many exact duplicates
    emb[::3] += rng.uniform(-5e-4, 5e-4, size=emb[::3].shape)
    assert scan_matches_brute_force(emb, 1e-3) > 200
    # a dyadic grid: every difference and sum is exact, so many pairs sit
    # at exactly t on one coordinate (the sort or the filter one) or in
    # total, and many rows tie on one or more coordinates
    t = 2.0 ** -10
    grid = rng.integers(0, 5, size=(300, 3)) * t
    d = np.abs(grid[:, None, :] - grid[None, :, :]).sum(axis=2)
    assert (d == t).sum() > 300 and (d == 0).sum() > 600
    scan_matches_brute_force(grid, t)
    # one coordinate, consecutive rows exactly t apart
    assert scan_matches_brute_force(np.arange(50.0)[:, None] * t, t) == 49
    # a threshold equal to the computed distance of some pairs
    emb = rng.uniform(0, 0.02, size=(200, 5))
    d = np.abs(emb[:, None, :] - emb[None, :, :]).sum(axis=2)
    assert scan_matches_brute_force(emb, float(np.sort(d[np.triu_indices(200, 1)])[150])) > 150
    # every coordinate a near-copy of the first: the filter coordinate
    # rejects almost nothing and the exact distance decides
    x = rng.uniform(0, 0.05, size=400)
    x[::4] = x[1::4]  # exact duplicates
    emb = np.stack([x, x + rng.uniform(0, 1e-5, 400), 2 * x, x], axis=1)
    assert scan_matches_brute_force(emb, 1e-3) > 400


def test_candidate_pairs_empty():
    assert _candidate_pairs(np.arange(10.0)[:, None], 1e-3).shape == (0, 2)
