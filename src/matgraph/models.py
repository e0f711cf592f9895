"""Random-weight forward passes for the eight-model zoo.

All models are instances of the unified message-passing layer
H^{l+1} = sigma(sum_s C^{(s)} H^l W^{(l,s)}), differing in how the
convolution supports C^{(s)} are built: fixed matrices (MLP, GCN,
GraphSage, GIN, Chebnet), attention computed from the running
representation (GAT), an explicit Hadamard term (GNNML1), or supports
learned from designed spectral ones (GNNML3).

Each kind is declared once, as a `Model` entry of `MODELS`: its support
builder, its per-layer weight schema, its layer update, for GNNML3 the
step that learns its supports from the weights, and, for a kind that
takes the key table (below), its key, front and back. `make_weights`
draws the schema, `parameter_count` sums its shapes and `DatasetBatch`
runs the update, so adding a model kind means adding one table entry.
An entry may also declare its WL bound, `bound`: the name of the
`harness.CENSUS` key rung whose equal keys fix its embedding up to
rounding. It is "1-WL@1" for MLP, which sums a function of
each degree; "1-WL@4" (layers + 1 rounds) for GCN, GAT, GraphSage, GIN and
GNNML1, each of whose layers reads a node and the multiset of its
neighbors; and "2-FWL" for Chebnet and GNNML3, which go past 1-WL only
through spectral terms that 2-FWL-equivalent graphs share (they are
cospectral, and the L3 sentences that 2-FWL bounds agree on them; Geerts,
ICDT 2019). `harness` settles pairs by it after the first run and checks
it on every dataset it runs.

Every kind runs in the paper's one configuration: 3 layers, the largest
width within a ~30K parameter budget, a sum readout into a 10-dimensional
linear, GIN's eps 0.1, Chebnet's K = 3 supports and GNNML3's designed
supports (`spectral.SupportSpec()`). These are constants: a `ModelSpec`
is its kind, and the table's callables take no spec.
Weights are never trained; they are drawn once per seed (scaled uniform,
half-width sqrt(6/(fan_in+fan_out))), `make_weights` returns them as a
dict of arrays by name, and the resulting embeddings are compared across
graphs. Determinism: every weight array is regenerable bit-exactly from
the 64-bit seed, and a graph's embedding depends only on the graph and
the seed (below).

For dataset-scale runs, `DatasetBatch` slices each order's (B, n, n)
adjacency stack of a `graphcore.Dataset` (the loader's arrays, or a
list's, stacked once and freed once the tiles hold their slices) into
tiles of TILE_NODES nodes; `DatasetBatch.groups` is the flat list of
tiles. Every tile has one format: its graphs' dataset positions, their
(T, n, n) bool adjacency, one dense (T, S, n, n) stack of static
supports and its key rows; a node's degree, its input, is read off the
adjacency. The kind's support builder runs on each tile's stack once,
when the batch is built, and the tile keeps its supports: elementwise
formulas, one stacked eigendecomposition (Chebnet, GNNML3's designed
supports). GNNML3's learned supports depend on the weights: per seed,
`Model.learn` maps each mask entry's designed supports through
mlp1..mlp4 and places the results in a zero stack.
`DatasetBatch.subset` builds nothing: it gathers each kept graph's
adjacency, supports and key rows from the built tiles into the tiles a
new batch of those graphs would have, and keeps the rows of the batch's
key table that they use, renumbered by counting, so a subset before
every later run costs a copy, not a build, and its runs' fronts cover
only its own keys.
The one-graph helper `static_supports` is the B = 1 case of the same
builders. A support that is the identity (the first one of MLP,
GraphSage and Chebnet, declared by `Model.identity`) is neither built
nor stored: its term C H W is computed as H W. A node's input is one
column, its degree, so layer 0's transforms by one-row blocks W_s are
one product: the broadcast H * W for one term, concat(X) @ W[:, 0] for
several.

The key table. The paper's first colour is the degree, H^(1) = A 1, and
layer 0 aggregates before it transforms, sum_s (C_s H) W_s, so a node's
layer-0 output is a function of its key: the columns layer 0 reads of
it, its input (when a term reads it as it is) and its aggregate by each
static support, e.g. (C d)_v for GCN and GIN and (d_v, (C d)_v) for
GraphSage and GNNML1. graph8c's 88936 nodes have 1889, 237, 148 and 148
distinct keys under these four. Each tile's build computes its nodes'
keys, `DatasetBatch` ranks them once into the table of distinct keys
(bit for bit), and each tile keeps its nodes' (T, n) rows of it. Layer 1
transforms before it aggregates, sum_s C_s (H1 W_s), and H1 W_s reads
only layer 0's output, so per seed `embed_all` runs, on the calling
thread and once per table row, layer 0 and every node-wise step up to
layer 1's aggregation (`Model.front`; GIN's node-wise W0.1 and GNNML1's
Hadamard term included); each tile gathers the rows and aggregates them
(`Model.back`), and layer 2 and the readout run per node as before.
MLP never aggregates, so all of its layers run on the table.

GAT's layer-0 logits on a 1-column input, leaky(x_v W0 a[:e] + x_u W0
a[e:]), and its message (att x) W0 read only x_v and its neighbours'
x_u, so its layer-0 output is a function of x_v and the multiset of
those x_u: the node's 1-WL round-2 colour (1393 on graph8c). Its key is
x_v, then the degrees of its self-connected neighbourhood (the
attention's mask A + I) sorted, padded to the batch's widest order. A
tile builds it as small integers, the degrees themselves and the widest
order for padding, which `_rank_rows` packs into as few words as their
range allows (one per node on graph8c), and the table holds them as
floats, +inf for padding. GAT's front runs the attention and its
softmax over each row's present slots, H1 = relu(z W0 + b0) from the
attention-weighted input sum z, then layer 1's transform HW1 = H1 W1 and
its two attention scores; the back runs layer 1's attention from the
gathered scores and aggregates att @ HW1.

The kinds that take the table declare it in their `MODELS` entry, never
chosen from the batch: MLP, GCN, GraphSage, GIN, GAT and GNNML1. Only
Chebnet, whose supports are scaled by lambda-max (79915 distinct keys on
graph8c), and GNNML3, whose supports are learned, run every node through
every layer.

A graph's row depends only on the graph and the seed: it is
byte-identical whether the graph is embedded alone, in a `subset` or
with the whole dataset, in whichever tile. A key depends only on its
node's graph, and each table row's transforms are one (1, d) @ (d, e)
product per row, so a table row's bits depend on its key and the seed,
not on the table's size or order; GAT's front sums a row's slots one by
one, so the padding of a wider table adds exact zeros after them. The
layers' per-node matmuls are taken per graph (numpy loops over a tile's
stack, each an (n, d) @ (d, e) product whose rows do not depend on
their position), and the final
linear is one (1, d) @ (d, 10) product per graph; one (N, d) @ (d, 10)
product over the batch would not do, as BLAS rounds a row differently
when N changes. GAT's layer computes its transform H W once; the
attention logits and the aggregation att @ (H W) both read it. Every
layer of a tile runs on that tile alone, so that a layer's temporaries
stay cache-sized instead of growing with the dataset.

The tiles are independent: each builds its own supports and keys and
writes its own rows of the output. Both the support builds and an
`embed_all` call run as a list of tasks, one per tile, on one thread per
available CPU (the calling thread plus a shared pool of `WORKERS - 1`
threads), so that numpy's matmuls, ufuncs and eigendecompositions, which
release the GIL, use every core. There is no setting for this; a list of
one task runs inline. An `embed_all` call embeds one seed, whose weights
are drawn once on the calling thread. Every task does the same
operations in the same order on whichever thread takes it, so the
embeddings are bit-identical to a one-thread pass.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from functools import cache, partial
from math import prod
from typing import Callable, ClassVar, Sequence

import numpy as np

from matgraph.graphcore import Dataset, Graph, laplacian
from matgraph.spectral import SupportSpec, _eig_sym, _stacked_supports
from matgraph.wl import _rank_rows

PARAM_BUDGET = 30_000
EMBED_DIM = 10
TILE_NODES = 1024  # nodes per forward-pass tile: 128 graphs of order 8
# threads that run an embed_all call's tasks: one per CPU this process may use
WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
           else os.cpu_count() or 1)

# (name, shape, fan_in, fan_out) of one weight array
Entry = tuple[str, tuple[int, ...], int, int]


@dataclass(frozen=True)
class ModelSpec:
    kind: str
    # the paper's one configuration, as constants; perfbench's flop count reads all four
    layers: ClassVar[int] = 3
    support_spec: ClassVar[SupportSpec] = SupportSpec()  # GNNML3's designed supports
    cheb_k: ClassVar[int] = 3  # Chebnet's supports T_0 .. T_{cheb_k - 1}
    readout: ClassVar[str] = "sum-linear10"  # sum over nodes, then the final linear

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")

    def resolved_width(self) -> int:
        """Hidden width: the largest that fits PARAM_BUDGET."""
        return _budget_width(self.kind)


@dataclass(frozen=True)
class Model:
    """One model kind: its supports, its weights and its layer update."""

    # A (B,n,n) -> (B,S,n,n) static supports of the stack, the identity
    # left out when `identity`; GNNML3's designed ones
    supports: Callable
    layer: Callable  # (l, d_in, width) -> schema of layer l, in draw order
    update: Callable  # (weights, l, H (B,n,d), C (B,S,n,n)) -> H after layer l
    identity: bool = False  # the first support is I, which `supports` leaves out
    emits: int = 1  # width of a layer's output, in multiples of `width`
    head: tuple[Entry, ...] = ()  # schema of the weights drawn after the layers
    # Uniform-init half-width multiplier. The stochastic distinguishability
    # counts depend on embedding scale relative to the comparison threshold;
    # the gains in MODELS put each model's count in the reference band on
    # the 8-node census.
    gain: float = 1.0
    # the harness.CENSUS key rung (a string: harness imports this module)
    # whose equal keys give equal embeddings (None: no such bound);
    # `harness` settles pairs by it
    bound: str | None = None
    # (weights, A (T,n,n) bool, the static supports) -> the (T,S,n,n)
    # supports the layers read, for a kind whose supports depend on the
    # weights (GNNML3's learned ones; None: the static supports)
    learn: Callable | None = None
    # A kind that takes the key table declares all three (None: every node
    # runs every layer). `key`: (H (T,n,1), C, widest) -> (T, n, c), the
    # columns layer 0 reads of each node: floats (its input, when a term
    # reads it as it is, then its aggregate by each support), or GAT's
    # integer degrees, padded with the batch's widest order. `front`:
    # (weights, the table's c columns, each (k, 1, 1)) -> the (k, 1, .)
    # rows layer 1 reads (layer 0 and layer 1's transforms, one
    # (1, d) @ (d, e) product per row). `back`: (weights, those rows
    # gathered to the tile's nodes (T, n, e), C) -> H after layer 1; None
    # for a kind that never aggregates (MLP), whose front runs every layer.
    key: Callable | None = None
    front: Callable | None = None
    back: Callable | None = None


def _schema(kind: str, width: int) -> list[Entry]:
    """Every weight of the model, in RNG draw order (final linear last)."""
    model = MODELS[kind]
    entries, d = [], 1  # input features are 1-dim
    for l in range(ModelSpec.layers):
        entries += model.layer(l, d, width)
        d = model.emits * width
    return entries + list(model.head) + [("final", (d, EMBED_DIM), d, EMBED_DIM)]


def _count(kind: str, width: int) -> int:
    return sum(prod(shape) for _, shape, _, _ in _schema(kind, width))


@cache  # one entry per kind
def _budget_width(kind: str) -> int:
    """Largest width whose parameter count fits PARAM_BUDGET."""
    w = 1
    while _count(kind, w + 1) <= PARAM_BUDGET:
        w += 1
    return w


def parameter_count(spec: ModelSpec) -> int:
    """Total trainable scalars for the given spec (final linear included)."""
    return _count(spec.kind, spec.resolved_width())


def make_weights(spec: ModelSpec, seed: int) -> dict[str, np.ndarray]:
    """Every weight array of the model by name, in schema draw order.
    `seed` is one integer: numpy would also take a list as entropy."""
    if not isinstance(seed, (int, np.integer)):
        raise TypeError(f"seed must be an integer, not {type(seed).__name__}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    gain = MODELS[spec.kind].gain
    weights: dict[str, np.ndarray] = {}
    for name, shape, fan_in, fan_out in _schema(spec.kind, spec.resolved_width()):
        a = gain * np.sqrt(6.0 / (fan_in + fan_out))
        weights[name] = rng.uniform(-a, a, size=shape)
    return weights


def _relu(x: np.ndarray) -> np.ndarray:
    """ReLU in place: x must be a temporary the caller owns."""
    return np.maximum(x, 0.0, out=x)


def _bias_relu(x: np.ndarray, b: np.ndarray) -> np.ndarray:
    """relu(x + b), in place on the temporary x."""
    x += b
    return _relu(x)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def _leaky(x: np.ndarray) -> np.ndarray:
    return np.where(x > 0, x, 0.2 * x)


def static_supports(spec: ModelSpec, G: Graph) -> list[np.ndarray]:
    """Fixed convolution supports of one graph as dense n x n arrays
    (everything except GAT's attention and GNNML3's learned part, which
    depend on the weights): the kind's support builder on a stack of one.
    For GNNML3 these are the S designed supports the learned part reads.
    A declared identity support comes first, as np.eye(n)."""
    model = MODELS[spec.kind]
    return [np.eye(G.n)] * model.identity + list(model.supports(G.adjacency[None])[0])


# --- the model table ---------------------------------------------------------


def _stack(A: np.ndarray, *C: np.ndarray) -> np.ndarray:
    """(B, S, n, n) supports of the stack A, one per C (each (B,n,n) or n x n)."""
    out = np.empty((len(A), len(C), *A.shape[1:]))
    for s, c in enumerate(C):
        out[:, s] = c
    return out


def _gcn_supports(A: np.ndarray) -> np.ndarray:
    s = 1.0 / np.sqrt(A.sum(axis=-1) + 1.0)
    return _stack(A, s[:, :, None] * (A + np.eye(A.shape[-1])) * s[:, None, :])


def _graphsage_supports(A: np.ndarray) -> np.ndarray:
    """D^-1 A; the identity term is declared in MODELS."""
    d = A.sum(axis=-1)
    inv = np.divide(1.0, d, out=np.zeros_like(d), where=d > 0)
    return _stack(A, inv[:, :, None] * A)


def _chebnet_supports(A: np.ndarray) -> np.ndarray:
    """T_1 .. T_{k-1} of the scaled Laplacian; T_0 = I is declared in MODELS."""
    I, L = np.eye(A.shape[-1]), laplacian(A)
    lam_max = _eig_sym(L).lam[:, -1:, None]
    C = [I, 2.0 / lam_max * L - I]
    while len(C) < ModelSpec.cheb_k:
        C.append(2.0 * C[1] @ C[-1] - C[-2])
    return _stack(A, *C[1:])


def _conv_layer(num_supports: int) -> Callable:
    """Schema of relu(sum_s C_s H W_s + b): one d_in x width block per support."""
    return lambda l, d, w: [(f"W{l}", (num_supports, d, w), d, w), (f"b{l}", (w,), d, w)]


def _mm(X: np.ndarray, W: np.ndarray) -> np.ndarray:
    """X @ W, as the broadcast product X * W when W has one row (the 1-dim
    input of layer 0): the same products without a matmul call. Only the
    sign of a zero can differ, and the bias added after it removes that."""
    return X * W if W.shape[0] == 1 else X @ W


def _aggregates(C: np.ndarray, H: np.ndarray, skip: int) -> list[np.ndarray]:
    """H when `skip` (its term reads the input as it is), then C^(s) H for
    each support of C (B,S,n,n): the inputs of a layer's terms, and at
    layer 0 the columns of a node's key."""
    return [H] * skip + [C[:, s] @ H for s in range(C.shape[1])]


def _key(skip: int) -> Callable:
    return lambda H, C, widest: np.concatenate(_aggregates(C, H, skip), axis=-1)


def _weigh(X: list[np.ndarray], W: np.ndarray) -> np.ndarray:
    """sum_j X_j W_j for W (S,d,e): one product concat(X) @ W[:, 0] when
    there are several one-row blocks (layer 0 reads one column), else in order."""
    if len(X) > 1 and W.shape[1] == 1:
        return np.concatenate(X, axis=-1) @ W[:, 0]
    out = _mm(X[0], W[0])
    for x, w in zip(X[1:], W[1:]):
        out += _mm(x, w)
    return out


def _conv(C: np.ndarray, H: np.ndarray, W: np.ndarray) -> np.ndarray:
    """sum_s C^(s) H W_s for C (B,S,n,n), H (B,n,d), W (S,d,e). When C has one
    support fewer than W has blocks, C^(0) is the identity that
    `Model.identity` leaves out, and its term is H W_0."""
    return _weigh(_aggregates(C, H, len(W) - C.shape[1]), W)


def _aggregate(C: np.ndarray, G: list[np.ndarray]) -> np.ndarray:
    """sum_j C^(j) G_j of transformed rows G_j (B,n,e); when G has one entry
    more than C has supports, the first is a node-wise term (C^(0) = I)."""
    skip = len(G) - C.shape[1]
    out = G[0] if skip else C[:, 0] @ G[0]
    for s in range(1, len(G)):
        out += C[:, s - skip] @ G[s]
    return out


def _conv_update(w: dict, l: int, H: np.ndarray, C: np.ndarray) -> np.ndarray:
    return _bias_relu(_conv(C, H, w[f"W{l}"]), w[f"b{l}"])


def _conv_front(w: dict, X: list[np.ndarray]) -> list[np.ndarray]:
    """Layer 0 on the key columns X, then layer 1's transforms H1 W1_s."""
    H1 = _bias_relu(_weigh(X, w["W0"]), w["b0"])
    return [H1 @ W for W in w["W1"]]


def _conv_back(w: dict, G: list[np.ndarray], C: np.ndarray) -> np.ndarray:
    """Layer 1 from its transformed rows: relu(sum_s C_s (H1 W1_s) + b1)."""
    return _bias_relu(_aggregate(C, G), w["b1"])


def _mlp_front(w: dict, X: list[np.ndarray]) -> list[np.ndarray]:
    """Every layer: MLP's one term reads its input as it is, H W."""
    H = X[0]
    for l in range(ModelSpec.layers):
        H = _bias_relu(_mm(H, w[f"W{l}"][0]), w[f"b{l}"])
    return [H]


def _gin_layer(l: int, d: int, w: int) -> list[Entry]:
    """Biased 2-layer MLP after the aggregation."""
    return [(f"W{l}.0", (d, w), d, w), (f"b{l}.0", (w,), d, w),
            (f"W{l}.1", (w, w), w, w), (f"b{l}.1", (w,), w, w)]


def _gin_mlp(w: dict, l: int, X: np.ndarray) -> np.ndarray:
    """The MLP after its first transform X: relu(relu(X + b.0) W.1 + b.1)."""
    return _bias_relu(_bias_relu(X, w[f"b{l}.0"]) @ w[f"W{l}.1"], w[f"b{l}.1"])


def _gin_update(w: dict, l: int, H: np.ndarray, C: np.ndarray) -> np.ndarray:
    return _gin_mlp(w, l, _mm(C[:, 0] @ H, w[f"W{l}.0"]))


def _gin_front(w: dict, X: list[np.ndarray]) -> list[np.ndarray]:
    """Layer 0 on the key column C H, then layer 1's transform H1 W1.0."""
    return [_gin_mlp(w, 0, _mm(X[0], w["W0.0"])) @ w["W1.0"]]


def _gin_back(w: dict, G: list[np.ndarray], C: np.ndarray) -> np.ndarray:
    return _gin_mlp(w, 1, _aggregate(C, G))


def _gat_layer(l: int, d: int, w: int) -> list[Entry]:
    """Transform, attention vector over (source, target), bias."""
    return [(f"W{l}", (d, w), d, w), (f"a{l}", (2 * w,), 2 * w, 1),
            (f"b{l}", (w,), d, w)]


def _gat_attention(f_src: np.ndarray, f_dst: np.ndarray, mask: np.ndarray):
    """Softmax attention (T, n, n) over the self-connected neighborhood
    `mask` (T, n, n), from each node's scores (T, n) as source and as
    target; rows sum to 1. Every row holds its self-loop, so its max is
    finite and the masked logits' exp(-inf) is exactly 0."""
    logits = np.where(mask > 0, _leaky(f_src[..., :, None] + f_dst[..., None, :]), -np.inf)
    logits -= logits.max(axis=-1, keepdims=True)
    e = np.exp(logits, out=logits)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def _gat_scores(HW: np.ndarray, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's attention scores HW a[:d] (as source) and HW a[d:] (as target)."""
    d = HW.shape[-1]
    return HW @ a[:d], HW @ a[d:]


def _gat_update(w: dict, l: int, H: np.ndarray, C: np.ndarray) -> np.ndarray:
    """The shared transform H W feeds both the attention and the aggregation."""
    HW = _mm(H, w[f"W{l}"])
    return _bias_relu(_gat_attention(*_gat_scores(HW, w[f"a{l}"]), C[:, 0]) @ HW, w[f"b{l}"])


def _gat_key(H: np.ndarray, C: np.ndarray, widest: int) -> np.ndarray:
    """A node's degree, then the degrees of its self-connected neighbourhood
    sorted, `widest` past the last: (T, n, n + 1) small integers."""
    pad = np.min_scalar_type(widest).type(widest)
    codes = H[..., 0].astype(pad.dtype)
    # pad off the neighbourhood: every code is below it (faster than np.where)
    slots = np.maximum(codes[:, None, :], (C[:, 0] == 0).view(np.uint8) * pad)
    slots.sort(axis=-1)
    return np.concatenate([codes[..., None], slots], axis=-1)


def _gat_front(w: dict, X: list[np.ndarray]) -> list[np.ndarray]:
    """Layer 0 on each row's input x_v and neighbourhood slots X[1:] (+inf
    past the last), then layer 1's transform HW1 = H1 W1 and its two
    attention scores. A slot's logit is leaky(x_v W0 a0[:e] + x_u W0
    a0[e:]); the softmax and the attention-weighted input sum z are summed
    slot by slot, so padding adds exact zeros after the present slots and
    a row's bits do not depend on the table's width; H1 = relu(z W0 + b0)."""
    W0 = w["W0"]
    slots = np.concatenate(X[1:], axis=-1)[:, 0]  # (k, m)
    present = slots < np.inf
    x = np.where(present, slots, 0.0)
    f_src, f_dst = _gat_scores(W0, w["a0"])
    att = np.where(present, _leaky(X[0][:, 0] * f_src + x * f_dst), -np.inf)
    att = np.exp(att - att.max(axis=1, keepdims=True))
    total = att[:, 0].copy()
    for j in range(1, att.shape[1]):
        total += att[:, j]
    att /= total[:, None]
    z = att[:, 0] * x[:, 0]
    for j in range(1, att.shape[1]):
        z += att[:, j] * x[:, j]
    HW1 = _bias_relu(z[:, None, None] * W0, w["b0"]) @ w["W1"]
    return [HW1, *(f[..., None] for f in _gat_scores(HW1, w["a1"]))]


def _gat_back(w: dict, G: list[np.ndarray], C: np.ndarray) -> np.ndarray:
    """Layer 1 from the gathered rows HW1 and its scores (T, n, 1) each."""
    HW1, f_src, f_dst = G
    return _bias_relu(_gat_attention(f_src[..., 0], f_dst[..., 0], C[:, 0]) @ HW1, w["b1"])


def _gnnml1_layer(l: int, d: int, w: int) -> list[Entry]:
    return [(f"W{l}.{t}", (d, w), d, w) for t in range(4)] + [(f"b{l}", (w,), d, w)]


def _hadamard(w: dict, l: int, H: np.ndarray) -> np.ndarray:
    out = _mm(H, w[f"W{l}.2"])
    out *= _mm(H, w[f"W{l}.3"])
    return out


def _gnnml1_combine(w: dict, l: int, H: np.ndarray, AH: np.ndarray) -> np.ndarray:
    """Identity and adjacency (C_0 = A) terms plus a Hadamard product, from
    the input H and its aggregate A H."""
    out = _mm(H, w[f"W{l}.0"])
    out += _mm(AH, w[f"W{l}.1"])
    out += _hadamard(w, l, H)
    return _bias_relu(out, w[f"b{l}"])


def _gnnml1_update(w: dict, l: int, H: np.ndarray, C: np.ndarray) -> np.ndarray:
    return _gnnml1_combine(w, l, H, C[:, 0] @ H)


def _gnnml1_front(w: dict, X: list[np.ndarray]) -> list[np.ndarray]:
    """Layer 0 on the key columns (H, A H), then layer 1's node-wise term
    H1 W1.0 + (H1 W1.2) * (H1 W1.3) and its transform H1 W1.1."""
    H1 = _gnnml1_combine(w, 0, *X)
    node = H1 @ w["W1.0"]
    node += _hadamard(w, 1, H1)
    return [node, H1 @ w["W1.1"]]


def _gnnml3_layer(l: int, d: int, w: int) -> list[Entry]:
    """Learned-support convolution, then the two MLPs of the Hadamard part."""
    S = ModelSpec.support_spec.S
    return [(f"W{l}", (S, d, w), d, w), (f"b{l}", (w,), d, w)] + [
        (f"mlp{t}.{l}.{p}", shape, d, w)
        for t in (5, 6) for p, shape in (("W", (d, w)), ("b", (w,)))]


def _gnnml3_head(S: int) -> tuple[Entry, ...]:
    """mlp1..3 map edge features to 2S, mlp4 maps their mix to S supports."""
    return tuple(
        (f"mlp{t}.{p}", shape, S, 2 * S)
        for t in (1, 2, 3) for p, shape in (("W", (S, 2 * S)), ("b", (2 * S,)))
    ) + (("mlp4.W", (4 * S, S), 4 * S, S), ("mlp4.b", (S,), 4 * S, S))


def _gnnml3_learn(w: dict, A: np.ndarray, D: np.ndarray) -> np.ndarray:
    """The learned masked supports (Eq. 8): mlp1..mlp4 map each entry of
    the mask A + I, its designed supports D[b, :, r, c] as one row, to S
    learned values; zeros off the mask. The rows and the MLP temporaries
    are freed before the output is allocated, so that the embed's peak
    memory holds none of them next to it."""
    b, r, c = np.nonzero(A | np.eye(A.shape[-1], dtype=bool))
    rows = D[b, :, r, c]  # (m, S), entries row-major per graph
    x1, x2, x3 = (_sigmoid(rows @ w[f"mlp{k}.W"] + w[f"mlp{k}.b"]) for k in (1, 2, 3))
    del rows
    x2 *= x3
    del x3
    mixed = np.concatenate([x1, x2], axis=1)
    del x1, x2
    learned = _bias_relu(mixed @ w["mlp4.W"], w["mlp4.b"])
    del mixed
    out = np.zeros_like(D)
    out[b, :, r, c] = learned
    return out


def _gnnml3_update(w: dict, l: int, H: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Each layer emits width (conv part) + width (Hadamard part)."""
    conv = _conv(C, H, w[f"W{l}"])
    conv += w[f"b{l}"]
    h5 = _mm(H, w[f"mlp5.{l}.W"])
    h5 += w[f"mlp5.{l}.b"]
    h6 = _mm(H, w[f"mlp6.{l}.W"])
    h6 += w[f"mlp6.{l}.b"]
    h5 *= h6
    return _relu(np.concatenate([conv, h5], axis=-1))


# The degree input is round 1, and each layer, a function of a node and the
# multiset of its neighbors, adds one (Morris et al., arXiv 1810.02244).
_MP_BOUND = f"1-WL@{ModelSpec.layers + 1}"

MODELS: dict[str, Model] = {
    # a sum over nodes of a function of the degree: round 1
    "mlp": Model(_stack, _conv_layer(1), _conv_update, identity=True, bound="1-WL@1",
                 key=_key(1), front=_mlp_front),
    "gcn": Model(_gcn_supports, _conv_layer(1), _conv_update, gain=0.57, bound=_MP_BOUND,
                 key=_key(0), front=_conv_front, back=_conv_back),
    "graphsage": Model(_graphsage_supports, _conv_layer(2), _conv_update, identity=True,
                       gain=0.345, bound=_MP_BOUND,
                       key=_key(1), front=_conv_front, back=_conv_back),
    # A + (1 + eps) I with GIN's eps = 0.1
    "gin": Model(lambda A: _stack(A, A + 1.1 * np.eye(A.shape[-1])), _gin_layer, _gin_update,
                 bound=_MP_BOUND, key=_key(0), front=_gin_front, back=_gin_back),
    # attention is computed over the self-connected neighborhood
    "gat": Model(lambda A: _stack(A, A + np.eye(A.shape[-1])), _gat_layer, _gat_update,
                 gain=0.64, bound=_MP_BOUND, key=_gat_key, front=_gat_front, back=_gat_back),
    # Laplacian polynomials scaled by lambda-max: 2-FWL-equivalent graphs are cospectral
    "chebnet": Model(_chebnet_supports, _conv_layer(ModelSpec.cheb_k), _conv_update,
                     identity=True, bound="2-FWL"),
    "gnnml1": Model(lambda A: _stack(A, A), _gnnml1_layer, _gnnml1_update, bound=_MP_BOUND,
                    key=_key(1), front=_gnnml1_front, back=_conv_back),
    "gnnml3": Model(lambda A: _stacked_supports(A, ModelSpec.support_spec)[0], _gnnml3_layer,
                    _gnnml3_update, emits=2, head=_gnnml3_head(ModelSpec.support_spec.S),
                    bound="2-FWL", learn=_gnnml3_learn),
}
MODEL_KINDS = tuple(MODELS)


# --- batched forward pass ----------------------------------------------------


def _tile_slices(count: int, n: int) -> list[slice]:
    """Consecutive slices of `count` graphs of order n, each a tile's worth:
    at most TILE_NODES nodes, or one graph."""
    step = max(1, TILE_NODES // n)
    return [slice(lo, lo + step) for lo in range(0, count, step)]


class _Tile:
    """Up to TILE_NODES nodes of graphs of one order: their dataset
    positions, adjacency and supports, and their rows of the key table."""

    def __init__(self, indices: np.ndarray, A: np.ndarray, supports=None, keys=None):
        self.indices = indices  # dataset position of each graph
        self.n = A.shape[-1]
        self.A = A  # (T, n, n) bool adjacency
        self.supports = supports  # the static (T, S, n, n) supports
        # a kind with a key table: each node's (T, n) row of the batch's
        # table, or, from the build until the batch ranks them, its keys
        self.keys = keys

    def degrees(self) -> np.ndarray:
        """(T, n, 1) degrees, every node's input."""
        return self.A.sum(axis=-1, keepdims=True, dtype=np.float64)

    def build(self, spec: ModelSpec, widest: int) -> None:
        """The supports of the tile's adjacencies, and its nodes' keys."""
        model = MODELS[spec.kind]
        self.supports = model.supports(self.A.astype(np.float64))
        if model.key is not None:
            self.keys = model.key(self.degrees(), self.supports, widest)

    def embed(self, spec: ModelSpec, weights: dict, out: np.ndarray, rows) -> None:
        """Every layer, the readout and the final linear, into the tile's
        graphs' rows of out. Given the key table's `rows` (the front's, each
        (k, e)), each node gathers its own and the layers go on from the back."""
        model, C = MODELS[spec.kind], self.supports
        if model.learn is not None:
            C = model.learn(weights, self.A, C)
        if rows is None:
            H, first = self.degrees(), 0
        else:
            G = [r[self.keys] for r in rows]
            H, first = (G[0], spec.layers) if model.back is None else (model.back(weights, G, C), 2)
        for l in range(first, spec.layers):
            H = model.update(weights, l, H, C)
        # one (1, d) @ (d, 10) product per graph: a graph's row does not
        # depend on how many graphs share the product
        out[self.indices] = (H.sum(axis=-2)[:, None, :] @ weights["final"])[:, 0]


def _gathered(indices: np.ndarray, parts: list[tuple[_Tile, np.ndarray]]) -> _Tile:
    """The tile at dataset positions `indices` of the graphs at `rows` of
    each (tile, rows) of `parts`, in that order: every field copied."""
    def cat(field: str):
        if getattr(parts[0][0], field) is None:
            return None
        return np.concatenate([getattr(tile, field)[rows] for tile, rows in parts])

    return _Tile(indices, cat("A"), cat("supports"), cat("keys"))


@cache
def _pool(threads: int):
    """The shared tile threads; concurrent.futures is imported on first use,
    which keeps it out of the start-up of processes that embed one tile."""
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(threads, thread_name_prefix="matgraph-tile")


if hasattr(os, "register_at_fork"):
    # a forked child has none of the parent's pool threads: start a new pool
    os.register_at_fork(after_in_child=_pool.cache_clear)


def _run_tiles(tasks: list[Callable[[], None]]) -> None:
    """Run every task: the calling thread and up to WORKERS - 1 pool
    threads each take the next task until none is left."""
    helpers = min(WORKERS, len(tasks)) - 1
    if helpers < 1:
        for task in tasks:
            task()
        return
    todo, lock = iter(tasks), threading.Lock()

    def drain():
        while True:
            with lock:
                task = next(todo, None)
            if task is None:
                return
            task()

    futures = [_pool(WORKERS - 1).submit(drain) for _ in range(helpers)]
    try:
        drain()
    finally:
        with lock:  # after an error here, the pool threads take no new task
            todo = iter(())
        for f in futures:
            f.result()


def _split(dataset: Dataset) -> list[_Tile]:
    """The dataset's tiles, by order, each with its slice of its order's
    adjacency stack."""
    return [_Tile(idx[part], A[part] != 0) for idx, A in dataset.stacks
            for part in _tile_slices(len(idx), A.shape[-1])]


class DatasetBatch:
    """Graphs split by order into tiles, each with its supports, and for a
    kind that takes it the key table, ready for repeated seed runs.

    Building the supports and keys costs one pass over the dataset's
    stacks (a list's are built here), its tiles on the tile threads; every
    embed_all call reuses it, and a `subset` gathers from it, which is what
    makes 100-run dataset sweeps affordable.
    """

    def __init__(self, spec: ModelSpec, graphs: Sequence[Graph]):
        self.spec = spec
        self.size = len(graphs)
        # a list is stacked here, once, and its stacks freed before the build
        self.groups = _split(Dataset.of(graphs))
        widest = max((tile.n for tile in self.groups), default=0)  # pads GAT's keys
        _run_tiles([partial(tile.build, spec, widest) for tile in self.groups])
        self.table = None  # the key table (k, c): each distinct key once, bit for bit
        if MODELS[spec.kind].key is not None and self.groups:
            self.table = self._rank_keys(widest)

    def _rank_keys(self, widest: int) -> np.ndarray:
        """Rank the tiles' keys into the table of distinct keys, and give
        each tile its nodes' (T, n) rows of it. Float keys rank bit for bit;
        GAT's keys are small integers, so `_rank_rows` packs a row into few
        words, and the table holds them as floats, +inf for the padding
        `widest` (its keys, one wider than their order, are padded to the
        widest)."""
        width = max(tile.keys.shape[-1] for tile in self.groups)
        keys = np.full((sum(tile.keys.shape[0] * tile.n for tile in self.groups), width),
                       widest, dtype=self.groups[0].keys.dtype)
        lo = 0
        for tile in self.groups:
            T, n, c = tile.keys.shape
            keys[lo:lo + T * n, :c] = tile.keys.reshape(-1, c)
            lo += T * n
        coded = keys.dtype.kind != "f"
        rows = _rank_rows(keys if coded else keys.view(np.int64))  # each node's row
        table = np.empty((rows.max() + 1, width), dtype=keys.dtype)
        table[rows] = keys
        lo = 0
        for tile in self.groups:
            T, n = tile.keys.shape[:2]
            tile.keys, lo = rows[lo:lo + T * n].reshape(T, n), lo + T * n
        return np.append(np.arange(widest, dtype=float), np.inf)[table] if coded else table

    def subset(self, indices: Sequence[int]) -> "DatasetBatch":
        """A batch of the graphs at `indices`, in that order, with the tiles
        that a new batch of them would have. Each graph's adjacency, supports
        and key rows are gathered from this batch's tiles, and the key table
        keeps the rows they use, in order, renumbered by counting: no stack,
        support, eigendecomposition or key is built or ranked again."""
        indices = np.asarray(indices, dtype=np.int64).reshape(-1)
        tile_of, row_of = np.empty((2, self.size), dtype=np.int64)  # each graph's tile, row
        for t, tile in enumerate(self.groups):
            tile_of[tile.indices], row_of[tile.indices] = t, np.arange(len(tile.indices))
        tile_of, row_of = tile_of[indices], row_of[indices]
        order = np.array([tile.n for tile in self.groups], dtype=np.int64)[tile_of]
        batch = DatasetBatch.__new__(DatasetBatch)
        batch.spec, batch.size, batch.groups = self.spec, len(indices), []
        for n in dict.fromkeys(order.tolist()):  # first-appearance order, as Dataset.stacks
            idx = np.flatnonzero(order == n)
            for part in _tile_slices(len(idx), n):
                k = idx[part]
                # runs of consecutive graphs from one tile of this batch
                runs = np.split(k, np.flatnonzero(np.diff(tile_of[k])) + 1)
                batch.groups.append(_gathered(k, [(self.groups[tile_of[r[0]]], row_of[r])
                                                  for r in runs]))
        batch.table = None
        if self.table is not None and batch.groups:
            used = np.zeros(len(self.table), dtype=bool)
            for tile in batch.groups:
                used[tile.keys] = True
            row = np.cumsum(used) - 1  # each used row's row in the subset's table
            for tile in batch.groups:
                tile.keys = row[tile.keys]
            batch.table = self.table[used]
        return batch

    def embed_all(self, seed: int) -> np.ndarray:
        """Embeddings (N, 10) of every graph under one seed, the tiles'
        tasks run together on the tile threads."""
        # drawn on the calling thread: perfbench's tracer wraps make_weights
        # and keeps one span stack
        weights = make_weights(self.spec, seed)
        rows = None  # the key table's rows, which every tile gathers
        if self.table is not None:
            columns = [self.table[:, None, j:j + 1] for j in range(self.table.shape[1])]
            rows = [r[:, 0] for r in MODELS[self.spec.kind].front(weights, columns)]
        out = np.empty((self.size, EMBED_DIM))
        _run_tiles([partial(tile.embed, self.spec, weights, out, rows) for tile in self.groups])
        return out


def embed(spec: ModelSpec, G: Graph, seed: int) -> np.ndarray:
    """10-dimensional sum-readout embedding under seed-derived weights."""
    return DatasetBatch(spec, [G]).embed_all(seed)[0]


def splitmix64(x: int) -> int:
    """Stateless 64-bit mixer used to derive per-run seeds."""
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


def run_seeds(base_seed: int, runs: int) -> list[int]:
    if base_seed < 0:
        raise ValueError("base_seed must be >= 0")
    if runs < 1:
        raise ValueError("runs must be >= 1")
    return [base_seed ^ splitmix64(i) for i in range(runs)]
