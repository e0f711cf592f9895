"""The order-bucket engine: per-tile supports, tiles, subsets, candidate scan."""

import dataclasses
import importlib
import importlib.util
import inspect
import itertools
import json
import os
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from matgraph import models
from matgraph.graphcore import Graph, order_stacks
from matgraph.harness import _candidate_pairs
from matgraph.models import (
    MODEL_KINDS,
    MODELS,
    DatasetBatch,
    ModelSpec,
    embed,
    make_weights,
    static_supports,
)
from matgraph.spectral import SupportSpec, scatter_supports, stacked_supports
from matgraph.wl import _refine

from .conftest import make_graph


def same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


ADJACENCY = SupportSpec(basis_kind="adjacency")


def dense_supports(A: np.ndarray, spec: SupportSpec) -> np.ndarray:
    """Dense (B, S, n, n) designed supports of the stack A."""
    rows, index, _ = stacked_supports(A, spec)
    return scatter_supports(rows, index, (len(A), A.shape[-1]))


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_stacked_supports_equal_one_graph_builder(kind, mixed):
    # every tile keeps its graphs' static_supports, less a declared identity
    spec, skip = ModelSpec(kind), MODELS[kind].identity
    batch = DatasetBatch(spec, mixed)
    assert sorted({tile.n for tile in batch.groups}) == [1, 3, 8, 25]
    assert len(batch.groups) > 4  # order 8 spans several tiles
    for tile in batch.groups:
        idx, n, supports = tile.indices, tile.n, tile.supports
        ones = [static_supports(spec, mixed[i]) for i in idx]
        want = np.stack([np.array(C[skip:]).reshape(-1, n, n) for C in ones])
        if kind == "gnnml3":
            # the tile's mask rows sit at the nonzero positions of its A + I
            rows, index, _ = supports
            A = np.stack([mixed[i].adjacency for i in idx])
            assert all(np.array_equal(got, i)
                       for got, i in zip(index, np.nonzero(A + np.eye(n))))
            supports = scatter_supports(rows, index, (len(idx), n))
        assert same_bytes(supports, want)


def test_adjacency_basis_stack_equals_one_graph(mixed):
    # the adjacency basis, which no model reads, keeps the gnnml3 case's
    # property: a tile-sized stack's supports are its graphs' own
    for idx, A in order_stacks(mixed):
        step = max(1, models.TILE_NODES // A.shape[-1])
        for lo in range(0, len(idx), step):
            want = [dense_supports(mixed[i].adjacency[None], ADJACENCY) for i in idx[lo:lo + step]]
            assert same_bytes(dense_supports(A[lo:lo + step], ADJACENCY), np.concatenate(want))


def test_identity_supports_declared(mixed):
    assert {k for k in MODEL_KINDS if MODELS[k].identity} == {"mlp", "graphsage", "chebnet"}
    for kind in ("mlp", "graphsage", "chebnet"):
        for G in mixed[:3] + mixed[151:155]:  # orders 1, 8, 3 and 25
            assert same_bytes(static_supports(ModelSpec(kind), G)[0], np.eye(G.n))


def load_tracing():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def traced_gcn_metrics(spans_path: str) -> None:
    """Print, as JSON, perfbench's per-layer metrics of a traced 5-run gcn
    `undistinguished_pairs` on graph8c[:300], and the batch size of every
    `embed_all` call. Run in a child process: `Tracer.install` replaces
    matgraph's names for the life of the process."""
    from matgraph import graphcore, harness

    sizes, embed_all = [], DatasetBatch.embed_all

    def recorded(batch, seed):
        sizes.append(batch.size)
        return embed_all(batch, seed)

    DatasetBatch.embed_all = recorded  # wrapped in turn by the tracer
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    graphs = graphcore.load_dataset(str(Path(__file__).parent.parent / "data" / "graph8c.g6"))
    harness.undistinguished_pairs(ModelSpec("gcn"), graphs[:300], models.run_seeds(7, 5), 1e-3)
    tracer.write(spans_path)
    metrics = tracing.layer_metrics(tracing.read_spans(spans_path), ["gcn"])
    print(json.dumps({"metrics": {k: v for k, (v, _) in metrics.items()}, "sizes": sizes}))


def test_traced_embed_counts_are_per_seed(tmp_path):
    # perfbench's tracer counts one span per embed_all call and reads the
    # batch's size: with one seed per call, its counts are per run
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    code = "import sys; from tests.test_batch import traced_gcn_metrics as f; f(sys.argv[1])"
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path / "spans.jsonl")],
                          cwd=root, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    metrics, sizes = out["metrics"], out["sizes"]
    assert len(sizes) > 2 and sizes[0] == 300 > sizes[-1]  # later runs, on subsets
    assert metrics["models.embed_all_calls"] == metrics["models.make_weights_calls"] == len(sizes)
    assert metrics["models.graphs_embedded"] == sum(sizes)


@pytest.mark.parametrize("kind", ["chebnet", "gnnml3"])
def test_tile_threads_call_no_traced_name(kind, graph8c, monkeypatch):
    # perfbench/tracing.py replaces every public matgraph function outside
    # its LEAF_HELPERS (models.eig_sym, spectral.stacked_supports, ...) and a
    # few methods with wrappers that share one span stack; the tile threads
    # that build supports and embed must call none of them
    tracing = load_tracing()
    monkeypatch.setattr(models, "WORKERS", max(models.WORKERS, 3))
    calls = []

    def wrap(fn, name):
        def recorded(*args, **kwargs):
            calls.append((name, threading.current_thread()))
            return fn(*args, **kwargs)
        return recorded

    for m in tracing.MODULES:
        mod = importlib.import_module(f"matgraph.{m}")
        for attr, obj in list(vars(mod).items()):
            if (not attr.startswith("_") and attr not in tracing.LEAF_HELPERS
                    and inspect.isfunction(obj) and obj.__module__.startswith("matgraph.")):
                monkeypatch.setattr(mod, attr, wrap(obj, f"{m}.{attr}"))
    for m, cls_name, meth in tracing.METHODS:
        cls = getattr(importlib.import_module(f"matgraph.{m}"), cls_name)
        monkeypatch.setattr(cls, meth, wrap(vars(cls)[meth], f"{m}.{cls_name}.{meth}"))

    batch = models.DatasetBatch(ModelSpec(kind), graph8c[:1000])
    assert len(batch.groups) >= 4
    batch.embed_all(3)
    one_tile = models.DatasetBatch(ModelSpec(kind), graph8c[:100])
    assert len(one_tile.groups) == 1
    one_tile.embed_all(4)  # a task list of one tile, run inline
    names = {name for name, _ in calls}
    assert {"models.DatasetBatch.__init__", "models.DatasetBatch.embed_all"} <= names
    off_thread = {name for name, thread in calls if thread is not threading.current_thread()}
    assert not off_thread


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_traced_flops_read_the_tiles(kind, mixed):
    # perfbench's tracer counts an embed_all's flops from the tiles'
    # (len(indices), n) in `batch.groups`, reading spec.cheb_k and
    # spec.readout; the count is linear in B, so the tiles of one order
    # add up to that order's (B, n)
    tracing = load_tracing()
    spec = ModelSpec(kind)
    width = spec.resolved_width()
    batch = DatasetBatch(spec, mixed)
    tiles = tracing.embed_flops(spec, width, [(len(t.indices), t.n) for t in batch.groups])
    orders = [(B, n) for n, B in Counter(G.n for G in mixed).items()]
    assert len(batch.groups) > len(orders)
    assert tiles == tracing.embed_flops(spec, width, orders) > 0


def test_adjacency_basis_supports(mixed):
    # masked U diag(exp(-b (lam - f)^2)) U^T over the adjacency spectrum
    G = mixed[5]
    _, _, centers = stacked_supports(G.adjacency[None], ADJACENCY)
    dense = dense_supports(G.adjacency[None], ADJACENCY)[0]
    lam, U = np.linalg.eigh(G.adjacency)
    M = G.adjacency + np.eye(G.n)
    assert len(dense) == len(centers[0]) + 1
    for s, f in enumerate(centers[0]):
        want = (U * np.exp(-5.0 * (lam - f) ** 2)) @ U.T
        np.testing.assert_allclose(dense[s], np.where(M > 0, want, 0.0), atol=1e-12)
    assert centers[0, 0] == pytest.approx(lam[0])
    assert np.array_equal(dense[-1], np.eye(G.n))


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_node_features_replace_degrees(kind, mixed):
    batch = DatasetBatch(ModelSpec(kind), mixed)
    tiles = [tile for tile in batch.groups if tile.n == 8]
    assert len(tiles) > 1  # the order-8 graphs span several tiles
    for tile in tiles:
        for k, i in enumerate(tile.indices):
            G = mixed[i]
            want = G.node_features if G.node_features is not None else G.adjacency.sum(1)[:, None]
            assert np.array_equal(tile.H0[k], want)


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_node_features_must_be_one_column(kind, mixed):
    # every kind's layer 0 reads one input column, and the key table keys
    # nodes by it: a wider or empty feature matrix is refused, naming its width
    rng = np.random.default_rng(5)
    for width in (0, 2, 119):
        G = Graph(mixed[5].adjacency, node_features=rng.random((8, width)))
        with pytest.raises(ValueError, match=rf"^graph 2: node features must be 1 column, "
                                             rf"not {width}$"):
            DatasetBatch(ModelSpec(kind), [mixed[0], mixed[1], G])


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_subset_equals_fresh_batch(kind, mixed):
    spec = ModelSpec(kind)
    idx = [302, 0, 151, 7, 154, 152, 3, 1, 153, 250]  # every order, out of order
    got = DatasetBatch(spec, mixed).subset(idx).embed_all(11)
    want = DatasetBatch(spec, [mixed[i] for i in idx]).embed_all(11)
    assert same_bytes(got, want)


def tile_arrays(batch, tile) -> list[np.ndarray]:
    """A tile's positions, inputs, supports and keys, as one list of arrays."""
    s = tile.supports  # GNNML3's is (rows, (b, r, c), centers)
    keys = [] if batch.table is None else [batch.table[tile.keys]]
    return [tile.indices, tile.H0, *([s] if isinstance(s, np.ndarray) else [s[0], *s[1], s[2]]),
            *keys]


@pytest.mark.parametrize("features", [False, True], ids=["mixed", "node-features"])
@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_subset_gathers_without_rebuilding(kind, features, mixed, monkeypatch):
    # a subset, and a subset of that subset, take each graph's inputs,
    # supports and key rows from the built tiles: no support builder,
    # eigendecomposition, key aggregate, key ranking or order_stacks runs,
    # every tile holds at most TILE_NODES nodes of one order, and tiles,
    # key tables and rows are byte-equal to a fresh batch's. The key table
    # keeps the rows the subset uses, in order, which is the table a fresh
    # batch ranks (both subsets hold an order-25 graph, so GAT's tables are
    # as wide)
    graphs = mixed
    if features:
        rng = np.random.default_rng(3)
        graphs = [Graph(G.adjacency, node_features=rng.normal(size=(G.n, 1))) for G in mixed]
    spec = ModelSpec(kind)
    batch = DatasetBatch(spec, graphs)
    calls = []

    def refuse(name):
        return lambda *args, **kwargs: calls.append(name)

    key = MODELS[kind].key and refuse("key")
    monkeypatch.setitem(models.MODELS, kind,
                        dataclasses.replace(MODELS[kind], supports=refuse("supports"), key=key))
    for name in ("order_stacks", "_eig_sym", "_stacked_supports", "_rank_rows"):
        monkeypatch.setattr(models, name, refuse(name))
    monkeypatch.setattr(np, "unique", refuse("unique"))
    # every order, out of order, and more order-8 graphs than one tile holds
    idx = [302, 0, 151, 7, 154, 155, 152, 3, 1, 153, 250]
    idx += np.random.default_rng(4).permutation(np.arange(8, 300))[:200].tolist()
    first = batch.subset(idx)
    again = [len(idx) - 1, 4, 5, 0] + [k for k in range(11, len(idx)) if k % 5]
    second = first.subset(again)
    monkeypatch.undo()
    assert calls == []
    for sub, gs in ((first, [graphs[i] for i in idx]),
                    (second, [graphs[idx[k]] for k in again])):
        assert sub.graphs == gs and sub.size == len(gs)
        assert sum(tile.n == 8 for tile in sub.groups) > 1
        for tile in sub.groups:
            assert {gs[i].n for i in tile.indices} == {tile.n}
            assert len(tile.indices) == 1 or len(tile.indices) * tile.n <= models.TILE_NODES
        fresh = DatasetBatch(spec, gs)
        assert np.array_equal(sub.featured, [G.node_features is not None for G in gs])
        assert (sub.table is None) == (fresh.table is None)
        if sub.table is not None:
            assert same_bytes(sub.table, fresh.table)
        assert [tile.n for tile in sub.groups] == [tile.n for tile in fresh.groups]
        for got, want in zip(sub.groups, fresh.groups):
            assert all(map(same_bytes, tile_arrays(sub, got), tile_arrays(fresh, want)))
        for seed in (11, 12):
            assert same_bytes(sub.embed_all(seed), fresh.embed_all(seed))


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_empty_selection_and_empty_batch(kind, mixed):
    spec = ModelSpec(kind)
    for batch in (DatasetBatch(spec, mixed), DatasetBatch(spec, [])):
        empty = batch.subset([])
        assert empty.size == 0 and empty.graphs == [] and empty.groups == []
        for seed in (3, 4):
            assert empty.embed_all(seed).shape == (0, models.EMBED_DIM)
        assert empty.subset([]).size == 0


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_threaded_tiles_equal_inline_tiles(kind, mixed, monkeypatch):
    # the tiles' support builds and forward passes run threaded, with
    # thread switches forced often
    monkeypatch.setattr(models, "WORKERS", max(models.WORKERS, 3))
    spec = ModelSpec(kind)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        batch = DatasetBatch(spec, mixed)
        runs = [batch.embed_all(13) for _ in range(5)]
    finally:
        sys.setswitchinterval(interval)
    assert len(batch.groups) >= 4
    assert all(same_bytes(e, runs[0]) for e in runs[1:])
    for tile in batch.groups:  # each a batch of one tile, which runs inline
        idx = tile.indices
        alone = DatasetBatch(spec, [mixed[i] for i in idx]).embed_all(13)
        assert same_bytes(runs[0][idx], alone)


@pytest.mark.parametrize("workers", [1, 3, 8])
@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_multi_seed_runs_equal_one_seed_runs(kind, workers, mixed, sr25, monkeypatch):
    # one embed_all call embeds one seed: successive calls on one batch, on
    # one tile (sr25) and on six tiles (mixed), each equal that seed's
    # call on a fresh batch, byte for byte, and a sequence of seeds is refused
    monkeypatch.setattr(models, "WORKERS", workers)
    spec = ModelSpec(kind)
    seeds = [13, np.int64(2**40 + 5), 7]
    for graphs, tiles in ((sr25, 1), (mixed, 6)):
        batch = DatasetBatch(spec, graphs)
        assert len(batch.groups) == tiles
        with pytest.raises(TypeError):
            batch.embed_all(seeds)
        for s in seeds:
            run = batch.embed_all(s)
            assert run.shape == (len(graphs), models.EMBED_DIM)
            assert same_bytes(run, DatasetBatch(spec, graphs).embed_all(s))


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_row_depends_only_on_graph_and_seed(kind, mixed):
    # a graph's embedding alone equals its row in the full batch, in a
    # subset batch and in a 2-graph batch, byte for byte
    spec = ModelSpec(kind)
    batch = DatasetBatch(spec, mixed)
    full = batch.embed_all(5)
    idx = [302, 0, 151, 7, 154, 155, 152, 3, 1, 153, 250]  # every order, out of order
    sub = batch.subset(idx).embed_all(5)
    for k, i in enumerate(idx):
        alone = embed(spec, mixed[i], 5)
        pair = DatasetBatch(spec, [mixed[idx[k - 1]], mixed[i]]).embed_all(5)
        assert same_bytes(full[i], alone)
        assert same_bytes(sub[k], alone)
        assert same_bytes(pair[1], alone)


TABLE_KINDS = ("mlp", "gcn", "graphsage", "gin", "gat", "gnnml1")


def test_table_kinds_declared():
    # chebnet's supports are scaled by lambda-max and gnnml3's supports are
    # learned: they run every node
    assert {k for k in MODEL_KINDS if MODELS[k].key is not None} == set(TABLE_KINDS)
    assert all(MODELS[k].front is not None for k in TABLE_KINDS)
    assert {k for k in TABLE_KINDS if MODELS[k].back is None} == {"mlp"}
    for k in set(MODEL_KINDS) - set(TABLE_KINDS):
        assert MODELS[k].front is MODELS[k].back is None


def gat_slots(tile, width) -> np.ndarray:
    """GAT's key of each node of a tile (T, n, width): its input, then the
    inputs of its neighbours and itself in ascending order, then +inf."""
    H, n = tile.H0[..., 0], tile.n
    slots = np.full((*H.shape, width), np.inf)
    slots[..., 0] = H
    slots[..., 1:n + 1] = np.sort(np.where(tile.supports[:, 0] > 0, H[:, None, :], np.inf), -1)
    return slots


def per_node_rows(kind, tile, w, width=None) -> np.ndarray:
    """Test-side reference for a table kind's rows of a tile: every node
    runs layer 0 on its own key, and layer 1's transforms as one
    (1, d) @ (d, e) product per node; the tile aggregates them, then runs
    the kind's per-node layers and the readout. GAT's key is `width` wide."""
    def per_node(X, W):
        return (X[..., None, :] @ W)[..., 0, :]

    def relu(x):
        return np.maximum(x, 0.0)

    def leaky(x):
        return np.where(x > 0, x, 0.2 * x)

    def softmax(logits):
        e = np.exp(logits - logits.max(axis=-1, keepdims=True))
        return e / e.sum(axis=-1, keepdims=True)

    H, C = tile.H0, tile.supports
    A = [C[:, s] @ H for s in range(C.shape[1])]  # each node's aggregates
    if kind in ("mlp", "gcn", "graphsage"):
        X = [H] * MODELS[kind].identity + A  # the key's columns
        # one column: a broadcast; graphsage's two: one (1, 2) @ (2, e) product
        pre = X[0] * w["W0"][0] if len(X) == 1 else per_node(np.concatenate(X, -1), w["W0"][:, 0])
        H1 = relu(pre + w["b0"])
        T = [per_node(H1, W) for W in w["W1"]]
        if kind == "mlp":
            H = relu(per_node(relu(T[0] + w["b1"]), w["W2"][0]) + w["b2"])
        else:
            out = T[0] if MODELS[kind].identity else C[:, 0] @ T[0]
            for t in T[1:]:  # graphsage's D^-1 A term
                out = out + C[:, 0] @ t
            H = relu(out + w["b1"])
    elif kind == "gat":
        # layer 0 over the node's neighbourhood slots, each sum taken slot by slot
        slots = gat_slots(tile, width)
        present = slots[..., 1:] < np.inf
        x = np.where(present, slots[..., 1:], 0.0)
        e = w["W0"].shape[-1]
        f_src, f_dst = w["W0"] @ w["a0"][:e], w["W0"] @ w["a0"][e:]
        att = np.where(present, leaky(slots[..., :1] * f_src + x * f_dst), -np.inf)
        att = np.exp(att - att.max(axis=-1, keepdims=True))
        total = att[..., 0]
        for j in range(1, width - 1):
            total = total + att[..., j]
        att = att / total[..., None]
        z = att[..., 0] * x[..., 0]
        for j in range(1, width - 1):
            z = z + att[..., j] * x[..., j]
        HW1 = per_node(relu(z[..., None] * w["W0"][0] + w["b0"]), w["W1"])
        f_src, f_dst = ((HW1[..., None, :] @ a)[..., 0] for a in (w["a1"][:e], w["a1"][e:]))
        logits = np.where(C[:, 0] > 0, leaky(f_src[..., :, None] + f_dst[..., None, :]), -np.inf)
        H = relu(softmax(logits) @ HW1 + w["b1"])
    elif kind == "gin":
        H1 = relu(per_node(relu(A[0] * w["W0.0"] + w["b0.0"]), w["W0.1"]) + w["b0.1"])
        inner = relu(C[:, 0] @ per_node(H1, w["W1.0"]) + w["b1.0"])
        H = relu(inner @ w["W1.1"] + w["b1.1"])
    else:  # gnnml1: identity and adjacency terms plus a Hadamard product
        H1 = relu(H * w["W0.0"] + A[0] * w["W0.1"] + (H * w["W0.2"]) * (H * w["W0.3"])
                  + w["b0"])
        node = per_node(H1, w["W1.0"]) + per_node(H1, w["W1.2"]) * per_node(H1, w["W1.3"])
        H = relu(node + C[:, 0] @ per_node(H1, w["W1.1"]) + w["b1"])
    if kind != "mlp":
        H = MODELS[kind].update(w, 2, H, C)
    return (H.sum(axis=-2)[:, None, :] @ w["final"])[:, 0]


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("kind", TABLE_KINDS)
def test_table_rows_equal_per_node_rows(kind, seed, monkeypatch):
    # the kind's layer 0 and layer 1's transforms run once per distinct
    # key of the batch; every row must equal the per-node reference byte
    # for byte, on stacks with edgeless, complete and random graphs with
    # isolated vertices. One order-8 graph carries a 1-column node feature
    # that is not its degree: its nodes are keyed by their feature rows.
    rng = np.random.default_rng(seed)
    graphs = []
    for n in range(1, 31):
        graphs += [make_graph(rng, n, p) for p in (0.0, 1.0)]
        graphs += [make_graph(rng, n, rng.choice([0.1, 0.3, 0.6]))
                   for _ in range(rng.integers(1, 5))]
    featured = len(graphs)
    graphs.append(Graph(make_graph(rng, 8).adjacency, node_features=rng.random((8, 1))))
    update, layers = MODELS[kind].update, []

    def recorded(w, l, H, C):
        layers.append(l)
        return update(w, l, H, C)

    monkeypatch.setitem(models.MODELS, kind, dataclasses.replace(MODELS[kind], update=recorded))
    spec = ModelSpec(kind)
    weights = make_weights(spec, seed)
    batch = DatasetBatch(spec, graphs)
    keep = [i for i in range(len(graphs)) if i != featured][::-1]
    subset = batch.subset(keep)
    # the subset keeps the rows its nodes use, and GAT's width
    assert same_bytes(subset.table, DatasetBatch(spec, [graphs[i] for i in keep]).table)
    for b in (batch, subset):
        layers.clear()
        got = b.embed_all(seed)
        # no tile runs layer 0 or 1 on its nodes, the featured one included
        assert set(layers) == (set() if kind == "mlp" else {2})
        assert len(b.groups) == 30
        width = b.table.shape[1]
        for tile in b.groups:
            H, C = tile.H0, tile.supports
            key = gat_slots(tile, width) if kind == "gat" else np.concatenate(
                [H] * (kind not in ("gcn", "gin")) + [C[:, s] @ H for s in range(C.shape[1])],
                axis=-1)
            assert same_bytes(b.table[tile.keys], key)
            assert same_bytes(got[tile.indices], per_node_rows(kind, tile, weights, width))
    assert batch.featured.sum() == 1
    # each distinct key once: fewer rows than nodes, and no row twice
    distinct = {row.tobytes() for row in batch.table}
    assert len(distinct) == len(batch.table) < sum(G.n for G in graphs)


def test_gat_table_is_round_two_colours(graph8c):
    # GAT's layer 0 reads a node's input and the multiset of its
    # neighbours' inputs: on degree inputs its table has one row per
    # 1-WL round-2 colour (1393 among graph8c's 88936 nodes)
    A = np.stack([G.adjacency for G in graph8c]) > 0
    colours = list(itertools.islice(_refine(A, "WL1"), 3))[2]
    assert len(DatasetBatch(ModelSpec("gat"), graph8c).table) == colours.max() + 1 == 1393


def scan_matches_brute_force(emb, t):
    d = np.abs(emb[:, None, :] - emb[None, :, :]).sum(axis=2)
    want = {(int(i), int(j)) for i, j in zip(*np.nonzero(d <= t)) if i < j}
    got, dist = _candidate_pairs(emb, t)
    assert got.shape == (len(want), 2) and got.dtype == np.int64
    assert {(int(i), int(j)) for i, j in got} == want
    # each pair's distance as the scan computed it is the one of its rows
    assert same_bytes(dist, np.abs(emb[got[:, 0]] - emb[got[:, 1]]).sum(axis=1))
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
    # rows spread along s = (1, -1, 1, -1): every coordinate is crowded,
    # but the signed sum spreads four times as far, so it is the sort key
    s = np.array([1.0, -1.0, 1.0, -1.0])
    emb = rng.uniform(0, 0.05, size=(150, 1)) * s + rng.uniform(0, 1e-3, size=(150, 4))
    emb = emb[rng.integers(0, 150, size=300)]  # exact duplicates
    emb[::2] += rng.uniform(0, 2.5e-4, size=emb[::2].shape)
    assert scan_matches_brute_force(emb, 1e-3) > 300
    # the same on a dyadic grid: many pairs sit at exactly t in L1 and
    # in their exactly computed signed sum
    grid = (rng.integers(0, 40, size=(300, 1)) * s + rng.integers(0, 4, size=(300, 4))) * t / 4
    d = np.abs(grid[:, None, :] - grid[None, :, :]).sum(axis=2)
    assert (d == t).sum() > 1000
    assert scan_matches_brute_force(grid, t) > 1000
    # rows of magnitude 1e4, as gnnml1 and gnnml3 embed: each row has a
    # partner offset along the signs of the principal axis by exact
    # multiples of q, the float spacing in [2^13, 2^14), at L1 distance
    # less than one q below t; their signed sums, computed near 1e5, are
    # off by several q, so the sort key's window must allow for that
    s = np.where(rng.random(10) < 0.5, -1.0, 1.0)
    base = (1e4 * rng.uniform(1, 1.6, size=10) + rng.uniform(0, 0.05, size=(200, 1)) * s
            + rng.uniform(0, 1e-3, size=(200, 10)))
    q = 2.0 ** -39
    off = np.full(10, (1e-4 // q) * q)
    off[-1] = ((1e-3 - off[:-1].sum()) // q) * q
    assert scan_matches_brute_force(np.concatenate([base, base + s * off]), 1e-3) >= 200


def test_candidate_pairs_empty():
    for emb in (np.arange(10.0)[:, None], np.ones((1, 10)), np.empty((0, 10))):
        pairs, dist = _candidate_pairs(emb, 1e-3)
        assert pairs.shape == (0, 2) and pairs.dtype == np.int64
        assert dist.shape == (0,) and dist.dtype == np.float64
