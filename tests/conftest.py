"""Shared fixtures and hypothesis strategies for the test suite."""

import numpy as np
import pytest
from hypothesis import strategies as st

from matgraph.graphcore import Graph
from matgraph.models import DatasetBatch, ModelSpec


def random_adjacency(rng: np.random.Generator, n: int, p: float = 0.5):
    upper = rng.random((n, n)) < p
    A = np.triu(upper, 1).astype(float)
    return A + A.T


def make_graph(rng: np.random.Generator, n: int, p: float = 0.5) -> Graph:
    return Graph(random_adjacency(rng, n, p))


def permute_graph(G: Graph, perm: np.ndarray) -> Graph:
    A = G.adjacency[np.ix_(perm, perm)]
    return Graph(A)


def encode_graph6(G: Graph) -> str:
    """The graph6 line of G (n <= 258047), bit by bit: the inverse of
    `graphcore.parse_graph6`, for round-trip checks and test files."""
    n = G.n
    assert n <= 258047, "graph6 headers for n > 258047 are not supported"
    bits = []
    for j in range(1, n):
        for i in range(j):
            bits.append(int(G.adjacency[i, j]))
    while len(bits) % 6:
        bits.append(0)
    if n <= 62:
        chars = [chr(n + 63)]
    else:
        chars = ["~"] + [chr((n >> shift & 63) + 63) for shift in (12, 6, 0)]
    for k in range(0, len(bits), 6):
        v = 0
        for b in bits[k : k + 6]:
            v = (v << 1) | b
        chars.append(chr(v + 63))
    return "".join(chars)


@st.composite
def graphs(draw, min_n: int = 2, max_n: int = 8, connected: bool = False):
    n = draw(st.integers(min_n, max_n))
    seed = draw(st.integers(0, 2**32 - 1))
    p = draw(st.sampled_from([0.3, 0.5, 0.7]))
    rng = np.random.default_rng(seed)
    G = make_graph(rng, n, p)
    if connected:
        # chain the vertices so every draw is connected
        A = G.adjacency.copy()
        for i in range(n - 1):
            A[i, i + 1] = A[i + 1, i] = 1.0
        G = Graph(A)
    return G


@st.composite
def graph_and_permutation(draw, min_n: int = 2, max_n: int = 8):
    G = draw(graphs(min_n=min_n, max_n=max_n))
    seed = draw(st.integers(0, 2**32 - 1))
    perm = np.random.default_rng(seed).permutation(G.n)
    return G, perm


def naive_undistinguished_pairs(spec: ModelSpec, graphs: list[Graph], seeds: list[int],
                                threshold: float) -> list[tuple[int, int]]:
    """All-pairs oracle for `harness.undistinguished_pairs`: every pair of
    the whole batch is checked in every run (small datasets only)."""
    batch = DatasetBatch(spec, graphs)
    n = len(graphs)
    alive = {(i, j) for i in range(n) for j in range(i + 1, n)}
    for seed in seeds:
        emb = batch.embed_all(seed)
        alive = {(i, j) for i, j in alive if float(np.abs(emb[i] - emb[j]).sum()) <= threshold}
    return sorted(alive)


DATA_DIR = __import__("pathlib").Path(__file__).resolve().parent.parent / "data"


@pytest.fixture(scope="session")
def graph8c():
    from matgraph.graphcore import load_dataset

    return load_dataset(str(DATA_DIR / "graph8c.g6"))


@pytest.fixture(scope="session")
def sr25():
    from matgraph.graphcore import load_dataset

    return load_dataset(str(DATA_DIR / "sr25.g6"))


@pytest.fixture(scope="session")
def mixed(graph8c, sr25):
    """Orders 1, 3, 8 and 25 interleaved: a lone vertex, an edgeless graph,
    and 301 graph8c graphs (more than one forward-pass tile) around sr25[:3]."""
    return [Graph(np.zeros((1, 1))), *graph8c[:150], Graph(np.zeros((3, 3))),
            *sr25[:3], graph8c[300], *graph8c[150:300]]
