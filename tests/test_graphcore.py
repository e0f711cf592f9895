import numpy as np
import pytest
from hypothesis import given, settings

from matgraph.graphcore import (
    Graph,
    GraphFormatError,
    degree_vector,
    encode_graph6,
    laplacian,
    load_dataset,
    order_stacks,
    parse_graph6,
)
from matgraph.spectral import eig_sym

from .conftest import graphs, make_graph


class TestGraph:
    def test_from_edges(self):
        G = Graph.from_edges(3, [(0, 1), (1, 2)])
        assert G.n == 3
        assert G.num_edges == 2
        assert G.adjacency[0, 1] == 1.0
        assert G.adjacency[0, 2] == 0.0

    @pytest.mark.parametrize("edge", [(0.5, 1), (1.0, 2), (True, 2), ("0", 1)])
    def test_from_edges_rejects_non_integer_endpoints(self, edge):
        with pytest.raises(ValueError, match="invalid edge"):
            Graph.from_edges(3, [edge])

    def test_rejects_asymmetric(self):
        A = np.zeros((2, 2))
        A[0, 1] = 1.0
        with pytest.raises(ValueError):
            Graph(A)

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph(np.eye(2))

    def test_rejects_nonbinary(self):
        A = np.array([[0.0, 0.5], [0.5, 0.0]])
        with pytest.raises(ValueError):
            Graph(A)

    def test_adjacency_is_readonly(self):
        G = Graph.from_edges(2, [(0, 1)])
        with pytest.raises(ValueError):
            G.adjacency[0, 1] = 0.0


class TestGraph6:
    def test_known_strings(self):
        # "D?{" is a known 5-vertex graph6 string
        G = parse_graph6("DQc")
        assert G.n == 5

    def test_path_graph(self):
        # P3: edges 01, 12
        G = Graph.from_edges(3, [(0, 1), (1, 2)])
        assert parse_graph6(encode_graph6(G)).adjacency.tolist() == (
            G.adjacency.tolist()
        )

    def test_rejects_garbage(self):
        with pytest.raises(GraphFormatError):
            parse_graph6("\x01\x02")

    @settings(max_examples=150, deadline=None)
    @given(graphs(min_n=1, max_n=12))
    def test_roundtrip(self, G):
        H = parse_graph6(encode_graph6(G))
        assert np.array_equal(G.adjacency, H.adjacency)

    @pytest.mark.parametrize("n", [63, 100])
    def test_roundtrip_four_byte_header(self, n):
        G = make_graph(np.random.default_rng(n), n, p=0.3)
        text = encode_graph6(G)
        # `~` then n in three 6-bit groups, e.g. 63 -> "~??~"
        assert text[:4] == "~" + "".join(chr((n >> s & 63) + 63) for s in (12, 6, 0))
        assert np.array_equal(parse_graph6(text).adjacency, G.adjacency)

    @pytest.mark.parametrize("text", ["?", "~???"])
    def test_rejects_order_zero(self, text):
        with pytest.raises(GraphFormatError, match="order 0"):
            parse_graph6(text)

    def test_rejects_eight_byte_header(self):
        with pytest.raises(GraphFormatError, match="258047"):
            parse_graph6("~~??????")

    def test_load_dataset_mixed_orders(self, tmp_path):
        rng = np.random.default_rng(4)
        graphs = [make_graph(rng, n) for n in (5, 63, 1, 100, 62)]
        path = tmp_path / "mixed.g6"
        path.write_text("".join(encode_graph6(G) + "\n" for G in graphs))
        loaded = load_dataset(str(path))
        assert [G.n for G in loaded] == [5, 63, 1, 100, 62]
        for G, H in zip(graphs, loaded):
            assert np.array_equal(G.adjacency, H.adjacency)


class TestOrderStacks:
    def test_mixed_orders(self, mixed):
        stacks = order_stacks(mixed)
        assert iter(stacks) is stacks  # a generator: one stack at a time
        stacks = list(stacks)
        assert [A.shape[-1] for _, A in stacks] == [1, 8, 3, 25]  # first appearance
        positions = np.concatenate([pos for pos, _ in stacks])
        assert sorted(positions.tolist()) == list(range(len(mixed)))
        for pos, A in stacks:
            assert (np.diff(pos) > 0).all()
            assert A.dtype == float
            assert np.array_equal(A, [mixed[i].adjacency for i in pos])


class TestLaplacian:
    def test_degree_vector(self):
        G = Graph.from_edges(3, [(0, 1), (1, 2)])
        assert degree_vector(G).ravel().tolist() == [1.0, 2.0, 1.0]

    @settings(max_examples=120, deadline=None)
    @given(graphs(min_n=2, max_n=10))
    def test_normalized_spectrum_in_0_2(self, G):
        lam = eig_sym(laplacian(G)).lam
        assert lam.min() >= -1e-10
        assert lam.max() <= 2.0 + 1e-10

    def test_combinatorial(self):
        G = Graph.from_edges(2, [(0, 1)])
        L = laplacian(G, kind="combinatorial")
        assert np.array_equal(L, np.array([[1.0, -1.0], [-1.0, 1.0]]))
