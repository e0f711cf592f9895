import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matgraph.graphcore import (
    Dataset,
    Graph,
    GraphFormatError,
    _check_adjacency,
    encode_graph6,
    laplacian,
    load_dataset,
    order_stacks,
    parse_graph6,
)
from matgraph.spectral import eig_sym

from .conftest import DATA_DIR, graphs, make_graph


def graph6_by_bits(line: str) -> np.ndarray:
    """Decode one valid graph6 line bit by bit, the way the per-line
    decoder did before the stack decoder: the reference for it."""
    data = line.strip().encode("ascii")
    if data[0] != 126:
        n, head = data[0] - 63, 1
    else:
        n, head = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63), 4
    bits = []
    for b in data[head:]:
        bits.extend(((b - 63) >> k) & 1 for k in range(5, -1, -1))
    A = np.zeros((n, n))
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bits[k]:
                A[i, j] = A[j, i] = 1.0
            k += 1
    return A


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

    @pytest.mark.parametrize("A, message", [
        (np.zeros((2, 3)), "square"),
        (np.zeros((0, 0)), "square"),
        (np.zeros((1, 2, 2)), "square"),
        ([[0.0, 1.0], [0.0, 0.0]], "symmetric"),
        (np.eye(2), "zero diagonal"),
        ([[0.0, 2.0], [2.0, 0.0]], "0 or 1"),
    ])
    def test_one_checker_for_a_graph_and_a_stack(self, A, message):
        with pytest.raises(ValueError, match=message):
            Graph(A)
        A = np.asarray(A)
        if A.ndim == 2:  # the same fault in one matrix of a stack
            stack = np.zeros((3, *A.shape))
            stack[1] = A
            with pytest.raises(ValueError, match=message):
                _check_adjacency(stack, 3)

    def test_adjacency_is_readonly(self):
        G = Graph.from_edges(2, [(0, 1)])
        with pytest.raises(ValueError):
            G.adjacency[0, 1] = 0.0

    def test_caller_arrays_stay_writable(self):
        # the graph keeps a read-only copy; the caller's array stays its own
        A = np.zeros((2, 2))
        G = Graph(A)
        A[0, 1] = A[1, 0] = 1.0
        assert G.num_edges == 0
        with pytest.raises(ValueError, match="read-only"):
            G.adjacency[0, 0] = 0.0

    def test_graphs_compare_by_identity(self, sr25):
        # `==` on the array field cannot give one bool, so a graph is equal
        # only to itself and hashes by identity: search and sets work
        G, H = sr25[0], sr25[1]
        copy = Graph(G.adjacency)
        assert G == G and G != copy and len({G, H, copy, G}) == 3
        assert H in sr25 and copy not in sr25 and copy in [G, H, copy]
        assert sr25.index(H) == 1 and sr25.count(G) == 1 and list(sr25).index(H) == 1


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


class TestGraph6Stacks:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from([1, 2, 3, 8, 62, 63, 100]),
                              st.integers(0, 2**32 - 1), st.booleans()),
                    min_size=1, max_size=12))
    def test_load_dataset_matches_bit_loop(self, tmp_path_factory, drawn):
        # n = 2 and n = 3 lines have one length and different headers;
        # 63 and 100 have 4-byte headers; True adds a blank line before
        lines = [encode_graph6(make_graph(np.random.default_rng(seed), n))
                 for n, seed, _ in drawn]
        path = tmp_path_factory.mktemp("g6") / "mixed.g6"
        path.write_text("".join(("\n  \n" if blank else "") + line + "\n"
                                for line, (_, _, blank) in zip(lines, drawn)))
        loaded = load_dataset(str(path))
        assert len(loaded) == len(lines)
        bases = {}
        for line, G in zip(lines, loaded):
            A = graph6_by_bits(line)
            assert G.adjacency.dtype == A.dtype and G.adjacency.shape == A.shape
            assert G.adjacency.tobytes() == A.tobytes()
            assert not G.adjacency.flags.writeable and G.adjacency.base is not None
            # one read-only stack per header, the graphs are views of it
            assert bases.setdefault(line[:4] if line[0] == "~" else line[0],
                                    G.adjacency.base) is G.adjacency.base

    @pytest.mark.parametrize("name", ["graph8c", "sr25"])
    def test_shipped_files_encode_to_their_lines(self, name):
        path = DATA_DIR / f"{name}.g6"
        lines = path.read_text().split()
        assert [encode_graph6(G) for G in load_dataset(str(path))] == lines

    @pytest.mark.parametrize("bad, message", [
        ("G?\x01???", "character outside [63,126] at byte offset 2"),
        ("G??\x7f??", "character outside [63,126] at byte offset 3"),
        ("~??", "truncated graph6 header"),
        ("~~??????", "graph6 headers for n > 258047 are not supported"),
        ("?", "graph6 order 0: a graph needs n >= 1"),
        ("~???", "graph6 order 0: a graph needs n >= 1"),
        ("G????", "payload length 4 does not match n=8 (expected 5)"),
        ("G??????", "payload length 6 does not match n=8 (expected 5)"),
        ("A@", "nonzero trailing bits at byte offset 1"),
        ("G????@", "nonzero trailing bits at byte offset 5"),
    ])
    def test_bad_line_between_good_lines(self, tmp_path, bad, message):
        good = [encode_graph6(make_graph(np.random.default_rng(n), n)) for n in (8, 2, 63)]
        path = tmp_path / "bad.g6"
        path.write_text("\n".join([*good, "", bad, *good]) + "\n")
        with pytest.raises(GraphFormatError) as e:
            load_dataset(str(path))
        assert str(e.value) == f"{path}:5: {message}"
        with pytest.raises(GraphFormatError) as e:
            parse_graph6(bad)
        assert str(e.value) == message

    @pytest.mark.parametrize("format, text", [("graph6", ""), ("graph6", " \n\r\n"),
                                              ("edgelist-json", "[]")],
                             ids=["empty", "blank-lines", "empty-array"])
    def test_file_without_graphs_is_an_error(self, tmp_path, format, text):
        path = tmp_path / "empty"
        path.write_text(text)
        with pytest.raises(GraphFormatError) as e:
            load_dataset(str(path), format=format)
        assert str(e.value) == f"{path} has no graphs"

    def test_blank_text_is_empty(self):
        with pytest.raises(GraphFormatError, match="^empty graph6 string$"):
            parse_graph6(" \t\n")

    def test_earliest_bad_line_in_the_file_is_reported(self, tmp_path):
        # the order-8 group comes first, but line 3's order-5 error is earlier
        good = encode_graph6(make_graph(np.random.default_rng(0), 8))
        path = tmp_path / "two.g6"
        path.write_text("\n".join([good, good, "D????", "G????", good]) + "\n")
        with pytest.raises(GraphFormatError) as e:
            load_dataset(str(path))
        assert str(e.value) == (f"{path}:3: payload length 4 does not match n=5 "
                                "(expected 2)")

    @pytest.mark.parametrize("line", ["Gé????".encode(), b"G\xff????"])
    def test_rejects_bytes_outside_ascii(self, tmp_path, line):
        path = tmp_path / "utf8.g6"
        path.write_bytes(b"G?????\n" + line + b"\n")
        with pytest.raises(GraphFormatError) as e:
            load_dataset(str(path))
        assert str(e.value) == f"{path}:2: character outside [63,126] at byte offset 1"
        with pytest.raises(GraphFormatError, match="outside .* at byte offset 1$"):
            parse_graph6(line)

    def test_rejects_text_outside_ascii(self):
        with pytest.raises(GraphFormatError, match="outside .* at byte offset 1$"):
            parse_graph6("Gé????")


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

    def test_interleaved_orders(self):
        """Orders interleaved at random: stacks in first-appearance order,
        positions ascending, and each stack a float stack byte-equal to
        `np.stack` of its graphs' adjacencies."""
        rng = np.random.default_rng(9)
        orders = rng.choice([1, 2, 5, 8, 13], 200)
        graphs = [make_graph(rng, int(n)) for n in orders]
        stacks = list(order_stacks(graphs))
        assert [A.shape[-1] for _, A in stacks] == list(dict.fromkeys(orders.tolist()))
        for pos, A in stacks:
            assert np.array_equal(pos, np.flatnonzero(orders == A.shape[-1]))
            want = np.stack([graphs[i].adjacency for i in pos])
            assert A.dtype == want.dtype == float and A.shape == want.shape
            assert A.tobytes() == want.tobytes()

    def test_no_graphs(self):
        assert list(order_stacks([])) == []


class TestDataset:
    @staticmethod
    def assert_views(dataset):
        """Every stack is read-only and its rows are its graphs' adjacencies."""
        for pos, A in dataset.stacks:
            assert not A.flags.writeable and not pos.flags.writeable
            for row, i in enumerate(pos.tolist()):
                assert dataset[i].adjacency.base is A
                assert np.shares_memory(dataset[i].adjacency, A[row])

    def test_loaded_stacks_are_the_graphs_memory(self, graph8c, sr25, tmp_path):
        # graph8c and sr25 are one order each; the file below has three
        # orders, order 5 under two headers ("~??D" is a valid header of
        # n = 5), which are merged into one stack in line order
        for dataset in (graph8c, sr25):
            assert len(dataset.stacks) == 1
            self.assert_views(dataset)
        rng = np.random.default_rng(8)
        five, three = [make_graph(rng, 5) for _ in range(3)], make_graph(rng, 3)
        lines = [encode_graph6(G) for G in (five[0], three, five[1], five[2])]
        lines[2] = "~??" + lines[2]
        path = tmp_path / "headers.g6"
        path.write_text("\n".join(lines) + "\n")
        dataset = load_dataset(str(path))
        assert [(pos.tolist(), A.shape[-1]) for pos, A in dataset.stacks] == [([0, 2, 3], 5),
                                                                               ([1], 3)]
        self.assert_views(dataset)
        for G, H in zip((five[0], three, five[1], five[2]), dataset):
            assert np.array_equal(G.adjacency, H.adjacency)

    def test_immutable(self, sr25):
        dataset = Dataset(list(sr25))
        with pytest.raises(TypeError):
            dataset[0] = sr25[1]
        with pytest.raises(TypeError):
            del dataset[0]
        with pytest.raises(AttributeError):
            dataset.append(sr25[0])
        assert isinstance(dataset[1:3], list) and dataset[1:3] == list(sr25)[1:3]
        assert list(dataset) == list(sr25) and len(dataset) == 15
        with pytest.raises(ValueError, match="read-only"):
            dataset.stacks[0][1][0, 0, 1] = 0.0

    def test_list_is_stacked_as_order_stacks_does(self, mixed):
        dataset = Dataset(mixed)
        assert Dataset.of(dataset) is dataset and list(dataset) == mixed
        for (pos, A), (want_pos, want) in zip(dataset.stacks, order_stacks(mixed), strict=True):
            assert np.array_equal(pos, want_pos)
            assert A.dtype == want.dtype and A.tobytes() == want.tobytes()


class TestLaplacian:
    @settings(max_examples=120, deadline=None)
    @given(graphs(min_n=2, max_n=10))
    def test_normalized_spectrum_in_0_2(self, G):
        lam = eig_sym(laplacian(G)).lam
        assert lam.min() >= -1e-10
        assert lam.max() <= 2.0 + 1e-10
