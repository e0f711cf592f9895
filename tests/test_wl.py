import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from matgraph.appendix_data import (
    BICYCLOPENTYL,
    COSPECTRAL10_A,
    COSPECTRAL10_B,
    DECALIN,
    ROOK4X4,
    SHRIKHANDE,
)
from matgraph.graphcore import Dataset, Graph
from matgraph.wl import (
    _compact,
    _histograms,
    _initial_colors,
    _neighbour_counts,
    _next_colors,
    _rank_rows,
    _refine,
    _sorted_codes,
    _sorted_neighbours,
    _walk_counts,
    fwl2_equivalent,
    fwl3_tensor_statistic,
    signatures,
    wl1_equivalent,
    wl2_equivalent,
)

from .conftest import graph_and_permutation, make_graph, permute_graph, random_adjacency

P3 = Graph.from_edges(3, [(0, 1), (1, 2)])
TRIANGLE = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
C6 = Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
TWO_TRIANGLES = Graph.from_edges(
    6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
)


# (equivalent, separating_iteration) of 1-WL, 2-WL and 2-FWL, as the
# interned-tuple refinement that preceded the array engine reported them
PINNED_VERDICTS = [
    ("P3/triangle", P3, TRIANGLE, [(False, 1), (False, 0), (False, 0)]),
    ("C6/2K3", C6, TWO_TRIANGLES, [(True, None), (True, None), (False, 1)]),
    ("decalin/bicyclopentyl", DECALIN, BICYCLOPENTYL,
     [(True, None), (True, None), (False, 2)]),
    ("cospectral10", COSPECTRAL10_A, COSPECTRAL10_B,
     [(True, None), (True, None), (False, 1)]),
    ("rook/Shrikhande", ROOK4X4, SHRIKHANDE, [(True, None), (True, None), (True, None)]),
    ("P3/C6", P3, C6, [(False, 0), (False, 0), (False, 0)]),
]


@pytest.mark.parametrize(
    "G, H, expected", [p[1:] for p in PINNED_VERDICTS], ids=[p[0] for p in PINNED_VERDICTS]
)
def test_pinned_verdicts(G, H, expected):
    verdicts = [f(G, H) for f in (wl1_equivalent, wl2_equivalent, fwl2_equivalent)]
    assert [(v.equivalent, v.separating_iteration) for v in verdicts] == expected
    assert [v.test for v in verdicts] == ["WL1", "WL2", "FWL2"]


def first_split(ladder: np.ndarray, i: int, j: int) -> int | None:
    """The first row of a `signatures` ladder whose labels of graphs i and
    j differ, or None if no row does."""
    rows = np.flatnonzero(ladder[:, i] != ladder[:, j])
    return int(rows[0]) if rows.size else None


def test_signature_keys_match_pairwise_wl1(mixed):
    """Equal keys iff wl1_equivalent, on orders 1, 3, 8 and 25 together
    with a relabelled copy of every graph; and round by round, the
    separating iteration is the first row of the ladder whose labels
    differ (row 0 for graphs of different orders)."""
    rng = np.random.default_rng(0)
    copies = [permute_graph(G, rng.permutation(G.n)) for G in mixed]
    graphs = mixed + copies
    ladder = signatures(graphs)
    keys = ladder[-1]
    m = len(mixed)
    pairs = {(i, i + m) for i in range(m)}  # each graph and its copy
    pairs |= {(i, i + m + 1) for i in range(m - 1)}  # each graph and the next copy
    pairs |= {(i, j) for i in range(len(graphs)) for j in range(i + 1, len(graphs))
              if keys[i] == keys[j]}
    assert len(pairs) > 2 * m  # sr25[:3] adds equal keys of non-isomorphic graphs
    splits = set()
    for i, j in sorted(pairs):
        verdict = wl1_equivalent(graphs[i], graphs[j])
        assert (keys[i] == keys[j]) == verdict.equivalent
        assert first_split(ladder, i, j) == verdict.separating_iteration, (i, j)
        splits.add(verdict.separating_iteration)
    assert {None, 0, 1} <= splits


@pytest.mark.parametrize("rounds", [None, 0, 1, 3])
@pytest.mark.parametrize("test", ["WL1", "WL2", "FWL2"])
def test_labels_are_dense_int64(mixed, test, rounds):
    """Labels are int64 and every row is dense in 0..L-1, so `np.bincount`
    counts its classes with no empty one: on orders 1, 3, 8 and 25 with a
    relabelled copy of every graph (which shares its graph's label in
    every row), on one graph and on none. With `rounds=k` there are at
    most k + 1 rows."""
    rng = np.random.default_rng(4)
    graphs = mixed + [permute_graph(G, rng.permutation(G.n)) for G in mixed]
    labels = {len(gs): signatures(gs, test, rounds) for gs in (graphs, graphs[:1], [])}
    for size, got in labels.items():
        assert got.dtype == np.int64 and got.ndim == 2 and got.shape[1] == size
        assert rounds is None or len(got) <= rounds + 1
        for row in got:
            assert (np.bincount(row) > 0).all()
    assert labels[1].tolist() == [[0]] * len(labels[1])
    m = len(mixed)
    assert np.array_equal(labels[2 * m][:, :m], labels[2 * m][:, m:])


def path_edges(n, start=0):
    return [(start + i, start + i + 1) for i in range(n - 1)]


def cycle_edges(n, start=0):
    return [(start + i, start + (i + 1) % n) for i in range(n)]


@pytest.mark.parametrize("test, pair_test", [
    ("WL2", wl2_equivalent), ("FWL2", fwl2_equivalent)
], ids=["WL2", "FWL2"])
def test_signature_keys_match_pairwise(sr25, test, pair_test):
    """Equal keys iff the pairwise verdict, and its separating iteration
    the first row of the ladder whose labels differ (row 0 across
    orders), over every pair of one call that mixes graphs settling at
    rounds 0, 1, 2 and later with graphs that never settle: a lone
    order-4 path, random graphs of orders 6 and 7, P10 / C4 + P6 (equal
    degree sequences, apart only far from the leaves), C18 / 2 C9, the
    appendix pairs, sr25[:3] and relabelled copies."""
    rng = np.random.default_rng(3)
    randoms = [make_graph(rng, n, p) for n in (6, 7) for p in (0.3, 0.5, 0.7)
               for _ in range(6)]
    paths_and_cycles = [
        Graph.from_edges(4, path_edges(4)),
        Graph.from_edges(10, path_edges(10)),
        Graph.from_edges(10, cycle_edges(4) + path_edges(6, 4)),
        Graph.from_edges(18, cycle_edges(18)),
        Graph.from_edges(18, cycle_edges(9) + cycle_edges(9, 9)),
    ]
    appendix = [C6, TWO_TRIANGLES, DECALIN, BICYCLOPENTYL, COSPECTRAL10_A,
                COSPECTRAL10_B, ROOK4X4, SHRIKHANDE, *sr25[:3]]
    graphs = randoms + paths_and_cycles + appendix
    graphs += [permute_graph(G, rng.permutation(G.n))
               for G in [*randoms[::9], ROOK4X4, sr25[0]]]
    ladder = signatures(graphs, test)
    keys = ladder[-1]
    # a settled graph's label is unique, and it settles at the first round
    # k whose `rounds=k` labels already single it out; the graphs that
    # never settle share theirs
    def alone(labels):
        return set(np.flatnonzero(np.bincount(labels)[labels] == 1).tolist())

    unsettled, settle_rounds, k = alone(keys), set(), 0
    while unsettled:
        settled = unsettled & alone(signatures(graphs, test, rounds=k)[-1])
        if settled:
            settle_rounds.add(k)
        unsettled -= settled
        k += 1
    assert {0, 1, 2} <= settle_rounds and max(settle_rounds) >= 3
    assert len(np.unique(keys)) < len(keys)
    for i in range(len(graphs)):
        for j in range(i + 1, len(graphs)):
            verdict = pair_test(graphs[i], graphs[j])
            assert (keys[i] == keys[j]) == verdict.equivalent, (i, j)
            assert first_split(ladder, i, j) == verdict.separating_iteration, (i, j)


class TestWL1:
    def test_separates_path_from_triangle(self):
        assert not wl1_equivalent(P3, TRIANGLE).equivalent

    def test_classic_blind_spot(self):
        # C6 vs 2xK3: both 2-regular, classic 1-WL failure case
        v = wl1_equivalent(C6, TWO_TRIANGLES)
        assert v.equivalent

    def test_decalin_pair(self):
        assert wl1_equivalent(DECALIN, BICYCLOPENTYL).equivalent

    def test_verdict_records_separating_round(self):
        v = wl1_equivalent(P3, TRIANGLE)
        assert v.separating_iteration is not None
        assert v.separating_iteration >= 0

    @settings(max_examples=120, deadline=None)
    @given(graph_and_permutation(min_n=2, max_n=9))
    def test_permutation_invariance(self, gp):
        G, perm = gp
        H = permute_graph(G, perm)
        keys = signatures([G, H], "WL1")
        assert np.array_equal(keys[:, 0], keys[:, 1])  # in every round
        assert wl1_equivalent(G, H).equivalent


def reference_ranks(rows):
    """Rank of each row among the distinct rows, in lexicographic order:
    the inverse of `np.unique` over rows."""
    return np.unique(rows, axis=0, return_inverse=True)[1].reshape(-1)


@settings(max_examples=150, deadline=None)
@given(width=st.integers(1, 700), count=st.integers(1, 40), digits=st.integers(1, 64),
       offset=st.integers(-2, 2), low=st.sampled_from([-1, 0, 7]),
       fill=st.sampled_from(["random", "ends", "equal", "zeros"]),
       seed=st.integers(0, 2**32 - 1))
# sr25's 2-FWL histogram rows; 8**21 == (2**21)**3 == 2**63; base 2**63 + 1 packs nothing
@example(width=625, count=15, digits=21, offset=0, low=-1, fill="random", seed=0)
@example(width=9, count=40, digits=3, offset=0, low=0, fill="ends", seed=1)
@example(width=9, count=40, digits=3, offset=1, low=0, fill="ends", seed=2)
@example(width=3, count=30, digits=1, offset=2, low=-1, fill="ends", seed=3)
def test_rank_rows_matches_unique(width, count, digits, offset, low, fill, seed):
    """Ranks equal np.unique's inverse on rows of 1-700 columns whose values
    span a base (max - min + 1) near 2**(63 / digits), so base**digits
    straddles 2**63: -1 as the least value, only the two extremes, all
    rows equal and all zeros."""
    rng = np.random.default_rng(seed)
    base = max(1, int(2 ** (63 / digits)) + offset)
    high = min(low + base - 1, 2**63 - 1)
    # few distinct rows, so that equal rows are common
    pool = rng.integers(low, high, size=(count // 3 + 1, width), endpoint=True)
    if fill == "ends":
        pool = np.where(rng.random(pool.shape) < 0.5, low, high)
    rows = pool[rng.integers(0, len(pool), count)]
    if fill == "equal":
        rows = np.repeat(pool[:1], count, axis=0)
    elif fill == "zeros":
        rows = np.zeros((count, width), dtype=np.int64)
    else:
        rows[0, 0], rows[-1, -1] = low, high  # the base is the one drawn
    ranks = _rank_rows(rows)
    assert ranks.dtype == np.int64
    assert np.array_equal(ranks, reference_ranks(rows))


def lexsort_ranks(rows):
    """Rank of each row among the distinct rows, by `np.lexsort` over its
    columns: the reference for `_rank_rows`' fold."""
    order = np.lexsort(rows.T[::-1])
    ordered = rows[order]
    step = np.ones(len(rows), dtype=np.int64)
    step[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    ranks = np.empty_like(step)
    ranks[order] = np.cumsum(step) - 1
    return ranks


def test_rank_rows_matches_lexsort():
    # 3000 random row sets: least values -5..4, spans 1..2**40 (so 1 to 63
    # columns per word, the last word often shorter), small codes as
    # uint8, and duplicate rows
    rng = np.random.default_rng(29)
    cases = []
    for case in range(3000):
        lo, span = int(rng.integers(-5, 5)), int(2 ** rng.uniform(0, 40))
        N, m = int(rng.integers(1, 60)), int(rng.integers(1, 40))
        pool = rng.integers(lo, lo + span, size=(int(rng.integers(1, N + 1)), m),
                            endpoint=True)
        rows = pool[rng.integers(0, len(pool), N)]
        if case % 4 == 0 and lo >= 0 and lo + span < 256:
            rows = rows.astype(np.uint8)
        cases.append(rows)
    # rows of 1-20 columns spanning int64, so that each column is a word
    # of its own, with duplicates and single rows; then one word of small
    # range, which ranks by counting
    for case in range(400):
        N, m = (1 if case % 8 == 0 else int(rng.integers(2, 80))), case % 20 + 1
        pool = rng.integers(-2**63, 2**63 - 1, size=(int(rng.integers(1, N + 1)), m),
                            endpoint=True)
        cases.append(pool[rng.integers(0, len(pool), N)])
    cases.append(rng.integers(-3, 4, size=(50, 1)))
    for case, rows in enumerate(cases):
        assert np.array_equal(_rank_rows(rows), lexsort_ranks(rows)), case


def degree_round_by_rows(A):
    """1-WL's round from one color with every vertex's full row: color 0,
    then -1 per non-neighbour and 0 per neighbour, sorted."""
    B, n, _ = A.shape
    multiset = np.sort(np.where(A, 0, -1), axis=2).reshape(B * n, n)
    return reference_ranks(np.concatenate([np.zeros((B * n, 1), np.int64), multiset],
                                          axis=1)).reshape(B, n)


def test_degree_round_matches_row_rank():
    """1-WL's first round ranks degrees; it equals ranking the rows, on
    random stacks with isolated vertices, of order 1 and edgeless."""
    rng = np.random.default_rng(13)
    stacks = [np.zeros((3, 1, 1), bool), np.zeros((2, 5, 5), bool)]
    for _ in range(60):
        B, n = int(rng.integers(1, 6)), int(rng.integers(1, 12))
        stacks.append(np.stack([random_adjacency(rng, n, rng.choice([0.1, 0.3, 0.6]))
                                for _ in range(B)]) != 0)
    isolated = 0
    for A in stacks:
        C = _initial_colors(A, "WL1")
        assert np.array_equal(_next_colors(A, C, 1, "WL1"), degree_round_by_rows(A))
        isolated += int((A.sum(axis=2) == 0).sum())
    assert isolated > 60


def test_compact_matches_rank():
    """Renumbering colors by counting equals ranking them as rows, for
    colors with gaps, one color, and colors below a larger bound."""
    rng = np.random.default_rng(17)
    for _ in range(50):
        classes = int(rng.integers(1, 40))
        shape = tuple(rng.integers(1, 6, int(rng.integers(2, 4))))
        C = rng.choice(rng.choice(classes, int(rng.integers(1, classes + 1)), replace=False),
                       shape)
        got, k = _compact(C, classes + int(rng.integers(0, 3)))
        assert np.array_equal(got, _rank_rows(C.reshape(-1, 1)).reshape(shape))
        assert k == len(np.unique(C))


def wl2_round_by_vectors(C):
    """2-WL's round with each cell's sorted row and sorted column in full:
    a `(B, n, n, 2n)` array, the reference the ranked form must match."""
    rows = np.sort(C, axis=2)[:, :, None, :]
    cols = np.sort(C, axis=1).transpose(0, 2, 1)[:, None, :, :]
    multiset = np.concatenate(np.broadcast_arrays(rows, cols), axis=3)
    flat = np.concatenate([C.reshape(-1, 1), multiset.reshape(C.size, -1)], axis=1)
    return reference_ranks(flat).reshape(C.shape)


class TestWL2:
    def test_round_matches_vector_rows(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            B, n = rng.integers(1, 5), rng.integers(1, 10)
            A = np.stack([random_adjacency(rng, n, rng.choice([0.3, 0.5, 0.7]))
                          for _ in range(B)]) != 0
            # graph colors over four rounds, and arbitrary colors
            C = _initial_colors(A, "WL2")
            for _ in range(4):
                expected = wl2_round_by_vectors(C)
                assert np.array_equal(_next_colors(A, C, int(C.max()) + 1, "WL2"), expected)
                C = expected
            C = _rank_rows(rng.integers(0, 4, (B * n * n, 1))).reshape(B, n, n)
            assert np.array_equal(_next_colors(A, C, int(C.max()) + 1, "WL2"),
                                  wl2_round_by_vectors(C))

    def test_no_stronger_than_wl1_on_c6_pair(self):
        # non-folklore 2-WL matches 1-WL in power: cannot separate these
        assert wl2_equivalent(C6, TWO_TRIANGLES).equivalent
        # the folklore variant does separate them
        assert not fwl2_equivalent(C6, TWO_TRIANGLES).equivalent

    def test_cospectral_pair_status(self):
        # cospectral and 1-WL equivalent, but 2-FWL tells them apart
        assert wl1_equivalent(COSPECTRAL10_A, COSPECTRAL10_B).equivalent
        assert not fwl2_equivalent(COSPECTRAL10_A, COSPECTRAL10_B).equivalent

    @settings(max_examples=100, deadline=None)
    @given(graph_and_permutation(min_n=2, max_n=7))
    def test_permutation_invariance(self, gp):
        G, perm = gp
        H = permute_graph(G, perm)
        keys = signatures([G, H], "WL2")
        assert np.array_equal(keys[:, 0], keys[:, 1])  # in every round
        assert wl2_equivalent(G, H).equivalent


class TestFWL2:
    def test_refines_wl2_on_sr_pair(self):
        # SRGs with the same parameters are 2-FWL equivalent
        assert fwl2_equivalent(ROOK4X4, SHRIKHANDE).equivalent
        assert wl2_equivalent(ROOK4X4, SHRIKHANDE).equivalent

    def test_separates_decalin_pair(self):
        assert not fwl2_equivalent(DECALIN, BICYCLOPENTYL).equivalent

    @settings(max_examples=100, deadline=None)
    @given(graph_and_permutation(min_n=2, max_n=7))
    def test_permutation_invariance(self, gp):
        G, perm = gp
        H = permute_graph(G, perm)
        keys = signatures([G, H], "FWL2")
        assert np.array_equal(keys[:, 0], keys[:, 1])  # in every round
        assert fwl2_equivalent(G, H).equivalent


class TestFWL3Statistic:
    def test_rook_and_shrikhande_values(self):
        assert fwl3_tensor_statistic(ROOK4X4) == 205632.0
        assert fwl3_tensor_statistic(SHRIKHANDE) == 208704.0

    @settings(max_examples=100, deadline=None)
    @given(graph_and_permutation(min_n=2, max_n=8))
    def test_permutation_invariance(self, gp):
        G, perm = gp
        H = permute_graph(G, perm)
        assert fwl3_tensor_statistic(G) == fwl3_tensor_statistic(H)


def reference_colors(graphs, test, last=None):
    """Exact signatures interned into one table, one graph after another,
    for rounds 0..n (or 0..`last`): per graph, each round's colors in
    row-major cell order. The definition the array engine must match."""
    table = {}

    def intern(signature):
        return table.setdefault(signature, len(table))

    def rounds(A):
        n = len(A)
        if test == "WL1":
            cells = list(range(n))
            c = {v: intern(("init",)) for v in cells}
        else:
            cells = [(v, u) for v in range(n) for u in range(n)]
            c = {(v, u): intern(("init", v == u, bool(A[v, u]))) for v, u in cells}
        out = []
        for _ in range((n if last is None else last) + 1):
            out.append([c[x] for x in cells])
            if test == "WL1":
                sig = {v: (c[v], tuple(sorted(c[u] for u in range(n) if A[v, u])))
                       for v in cells}
            elif test == "FWL2":
                sig = {(v, u): (c[v, u], tuple(sorted((c[v, k], c[k, u]) for k in range(n))))
                       for v, u in cells}
            else:
                sig = {(v, u): (c[v, u], tuple(sorted(c[v, k] for k in range(n))),
                                tuple(sorted(c[k, u] for k in range(n))))
                       for v, u in cells}
            c = {x: intern(s) for x, s in sig.items()}
        return out

    return [rounds(G.adjacency) for G in graphs]


def same_partition(a, b):
    a, b = np.ravel(a).tolist(), np.ravel(b).tolist()
    return len(set(zip(a, b))) == len(set(a)) == len(set(b))


@pytest.mark.parametrize("test, pair_test", [
    ("WL1", wl1_equivalent), ("WL2", wl2_equivalent), ("FWL2", fwl2_equivalent)
])
def test_engine_matches_interned_reference(test, pair_test):
    """Random pairs of order 1-7: relabelled copies, same-order graphs
    with equal edge counts or equal degree sequences, and any two graphs
    (mostly of different orders). Same-order pairs must get the
    reference's partition of their union in every round, and every pair
    the verdict of comparing the reference's sorted colors round by
    round."""
    rng = np.random.default_rng(1)
    checked = 0
    while checked < 200:
        n = int(rng.integers(1, 8))
        G = Graph(random_adjacency(rng, n))
        kind = checked % 4
        if kind == 0:
            H = permute_graph(G, rng.permutation(n))
        elif kind == 3:
            H = Graph(random_adjacency(rng, int(rng.integers(1, 8))))
        else:
            H = Graph(random_adjacency(rng, n))
            same = (int(H.adjacency.sum()) // 2 == int(G.adjacency.sum()) // 2 if kind == 1 else
                    sorted(H.adjacency.sum(1)) == sorted(G.adjacency.sum(1)))
            if not same:
                continue
        assert_matches_reference(G, H, test, pair_test)
        checked += 1


def assert_matches_reference(G, H, test, pair_test, past_stable=None):
    """G and H, if of one order, get the reference's partition of their
    union in every round, and the verdict of comparing the reference's
    sorted colors round by round. The reference runs n rounds, or
    `past_stable` rounds past the engine's last, which repeats the stable
    partition."""
    expected = (True, None)
    if G.n != H.n:
        expected = (False, 0)
    else:
        rounds = list(_refine(np.stack([G.adjacency != 0, H.adjacency != 0]), test))
        ref_g, ref_h = reference_colors(
            [G, H], test, None if past_stable is None else len(rounds) - 1 + past_stable)
        for t in range(len(ref_g)):
            assert same_partition(rounds[min(t, len(rounds) - 1)], [ref_g[t], ref_h[t]])
        for t in range(len(ref_g)):
            if sorted(ref_g[t]) != sorted(ref_h[t]):
                expected = (False, t)
                break
    v = pair_test(G, H)
    assert (v.equivalent, v.separating_iteration) == expected


def circulant(n, jumps):
    return Graph.from_edges(n, [(i, (i + j) % n) for i in range(n) for j in jumps])


PETERSEN = Graph.from_edges(10, cycle_edges(5) + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
                            + [(i, i + 5) for i in range(5)])
PRISM5 = Graph.from_edges(10, cycle_edges(5) + cycle_edges(5, 5) + [(i, i + 5) for i in range(5)])


def complete_bipartite(m):
    return Graph.from_edges(2 * m, [(i, m + j) for i in range(m) for j in range(m)])


def test_walk_count_rounds_match_interned_reference(sr25):
    """2-FWL pairs of orders 9-25, whose first round and, for the strongly
    regular ones, every round has k**2 <= n colors and so counts
    color-pair walks: cycles against two half cycles, K_(m,m), circulants
    of equal degree, Petersen, rook/Shrikhande and relabelled sr25 graphs
    against the interned-tuple reference."""
    rng = np.random.default_rng(11)

    def relabel(G):
        return permute_graph(G, rng.permutation(G.n))

    pairs = [(Graph.from_edges(n, cycle_edges(n)),
              Graph.from_edges(n, cycle_edges(n // 2) + cycle_edges(n // 2, n // 2)))
             for n in (10, 12, 16, 18)]
    pairs += [(complete_bipartite(5), relabel(complete_bipartite(5))),
              (complete_bipartite(6), circulant(12, (1, 2, 3))),
              (circulant(13, (1, 5)), circulant(13, (1, 2))),
              (circulant(13, (1, 3, 4)), relabel(circulant(13, (1, 3, 4)))),
              (circulant(9, (1, 3)), circulant(9, (1, 2))),
              (PETERSEN, relabel(PETERSEN)), (PETERSEN, PRISM5),
              (ROOK4X4, SHRIKHANDE), (relabel(SHRIKHANDE), ROOK4X4),
              (sr25[0], relabel(sr25[0])), (relabel(sr25[1]), relabel(sr25[2]))]
    for G, H in pairs:
        assert G.n == H.n and 3 ** 2 <= G.n  # round 1 counts walks
        assert_matches_reference(G, H, "FWL2", fwl2_equivalent, past_stable=2)


def test_walk_counts_and_sorted_codes_partition_alike():
    """Both 2-FWL rows give one partition on random stacks of 1-4 colors,
    drawn cell by cell or as circulant patterns f(u - v) under random
    relabellings, whose cells repeat rows across graphs and across the
    diagonal."""
    rng = np.random.default_rng(5)
    for _ in range(300):
        B, n, k = int(rng.integers(1, 4)), int(rng.integers(1, 13)), int(rng.integers(1, 5))
        if rng.random() < 0.5:
            C = rng.integers(0, k, size=(B, n, n))
        else:
            f = rng.integers(0, k, size=n)
            shift = (np.arange(n)[None, :] - np.arange(n)[:, None]) % n
            C = np.stack([f[shift][np.ix_(p, p)] for p in (rng.permutation(n) for _ in range(B))])
        C, classes = _compact(C, k)
        by_walks = _rank_rows(_walk_counts(C, classes).reshape(C.size, -1))
        by_codes = _rank_rows(_sorted_codes(C, classes).reshape(C.size, -1))
        assert same_partition(by_walks, by_codes)


def wl1_round_by_tuples(A, C):
    """1-WL's round as each vertex's color and the sorted tuple of its
    neighbours' colors, ranked: the reference partition."""
    keys = [(int(C[b, v]), tuple(sorted(C[b, A[b, v]].tolist())))
            for b in range(len(C)) for v in range(C.shape[1])]
    rank = {key: r for r, key in enumerate(sorted(set(keys)))}
    return np.array([rank[key] for key in keys])


def test_wl1_counts_and_sorted_multisets_partition_alike():
    """Both 1-WL rows give one partition on random bool stacks of 1-5
    colors, with self-loops and full rows, so that a vertex counts one
    color n times; and `_next_colors` sorts, with the reference's
    partition, a stack of 20 colors at n = 14, as 15**20 overflows int64."""
    rng = np.random.default_rng(3)
    for _ in range(300):
        B, n, k = int(rng.integers(1, 4)), int(rng.integers(1, 13)), int(rng.integers(1, 6))
        A = rng.random((B, n, n)) < rng.choice([0.3, 0.7, 0.9, 1.0])
        C, classes = _compact(rng.integers(0, k, size=(B, n)), k)
        by_counts = _rank_rows(_neighbour_counts(A, C, classes).reshape(B * n, -1))
        by_sort = _rank_rows(_sorted_neighbours(A, C).reshape(B * n, -1))
        assert same_partition(by_counts, by_sort)
        assert np.array_equal(_next_colors(A, C, classes, "WL1").ravel(), by_counts)
    A = rng.random((3, 14, 14)) < 0.5
    C, classes = _compact(rng.permutation(np.arange(42) % 20).reshape(3, 14), 20)
    assert 15 ** classes > 2**63
    got = _next_colors(A, C, classes, "WL1")
    assert np.array_equal(got, _rank_rows(_sorted_neighbours(A, C).reshape(42, -1))
                          .reshape(3, 14))
    assert same_partition(got, wl1_round_by_tuples(A, C))


@pytest.mark.parametrize("test", ["WL1", "FWL2"])
def test_signature_rounds_match_reference(test):
    """With `rounds=k`, two keys are equal iff the graphs have one order
    and the reference's sorted colors agree in each of rounds 0..k, for
    k = 0..3: random stacks of orders 4-7, relabelled copies, and pairs
    that are separated late or never: 1-WL separates P6 / C4 + K2 at
    round 2, P8 / C4 + P4 at round 3 and P10 / C4 + P6 at round 4, 2-FWL
    separates C18 / 2 C9 at round 3; C6 / 2 C3 and the appendix pairs."""
    rng = np.random.default_rng(7)
    families = [Graph.from_edges(6, path_edges(6)),
                Graph.from_edges(6, cycle_edges(4) + path_edges(2, 4)),
                Graph.from_edges(8, path_edges(8)),
                Graph.from_edges(8, cycle_edges(4) + path_edges(4, 4)),
                Graph.from_edges(10, path_edges(10)),
                Graph.from_edges(10, cycle_edges(4) + path_edges(6, 4)),
                Graph.from_edges(18, cycle_edges(18)),
                Graph.from_edges(18, cycle_edges(9) + cycle_edges(9, 9)),
                C6, TWO_TRIANGLES, DECALIN, BICYCLOPENTYL, COSPECTRAL10_A, COSPECTRAL10_B]
    separated_at = set()  # the rounds k at which some pair equal at k - 1 splits
    for stack in range(15):
        graphs = [make_graph(rng, int(rng.integers(4, 8)), rng.choice([0.3, 0.5, 0.7]))
                  for _ in range(10)]
        if stack == 0:
            graphs += families
        graphs += [permute_graph(G, rng.permutation(G.n)) for G in graphs[::3]]
        ref = [[sorted(colors) for colors in rounds]
               for rounds in reference_colors(graphs, test)]
        pairs = [(i, j) for i in range(len(graphs)) for j in range(i + 1, len(graphs))]
        equal_before = set(pairs)
        for k in range(4):
            keys = signatures(graphs, test, rounds=k)[-1]
            for i, j in pairs:
                expected = graphs[i].n == graphs[j].n and all(
                    ref[i][t] == ref[j][t] for t in range(k + 1))
                assert (keys[i] == keys[j]) == expected, (stack, k, i, j)
            equal = {(i, j) for i, j in pairs if keys[i] == keys[j]}
            if equal_before - equal:
                separated_at.add(k)
            equal_before = equal
    assert separated_at == {0, 1, 2, 3}


def refines(fine, coarse):
    """Every class of the labels `fine` lies within one class of `coarse`."""
    fine, coarse = np.ravel(fine).tolist(), np.ravel(coarse).tolist()
    return len(set(zip(fine, coarse))) == len(set(fine))


@pytest.mark.parametrize("test", ["WL1", "WL2", "FWL2"])
def test_histograms_and_sorted_colors_partition_alike(graph8c, sr25, test):
    """Ranking each graph's color histogram and ranking its sorted colors
    give one partition of the graphs in every round with fewer colors
    than cells, where `ladder` takes histograms, of graph8c[:600] and of
    sr25, each refined as one stack: two or three rounds each."""
    checked = 0
    for graphs in (graph8c[:600], sr25):
        (_, A), = Dataset.of(graphs).stacks
        for C in _refine(A != 0, test):
            cells = C.reshape(len(C), -1)
            classes = int(C.max()) + 1
            if classes < cells.shape[1]:
                assert same_partition(_rank_rows(_histograms(cells, classes)),
                                      _rank_rows(np.sort(cells, axis=1)))
                checked += 1
    assert checked == (3 if test == "WL1" else 2)


@pytest.mark.parametrize("test", ["WL1", "WL2", "FWL2"])
def test_ladder_rows_are_the_round_partitions(graph8c, sr25, test):
    """Row t of the ladder is the partition of the last row of
    `rounds=t`, for t up to two past its last row R; every row refines
    the one before it and keeps the orders apart; `rounds` past R gives
    the same R + 1 rows. Each order's graphs, refined on their own, get
    the same rows, their own last row repeated once their stack stops
    (sr25 is 1-WL stable at round 1). On graph8c[:600], sr25, random
    graphs of orders 4-9 and relabelled copies of every seventh graph."""
    rng = np.random.default_rng(9)
    randoms = [make_graph(rng, int(rng.integers(4, 10)), p)
               for p in (0.3, 0.5, 0.7) for _ in range(30)]
    graphs = [*graph8c[:600], *sr25, *randoms]
    graphs += [permute_graph(G, rng.permutation(G.n)) for G in graphs[::7]]
    orders = [G.n for G in graphs]
    rows = signatures(graphs, test)
    R = len(rows) - 1
    for t in range(R + 3):
        assert same_partition(rows[min(t, R)], signatures(graphs, test, rounds=t)[-1]), t
    assert all(refines(row, orders) for row in rows)
    assert all(refines(fine, coarse) for coarse, fine in zip(rows, rows[1:]))
    past = signatures(graphs, test, rounds=R + 2)
    assert len(past) == R + 1 and all(map(same_partition, past, rows))
    stops = set()
    for n in set(orders):
        own = [i for i, m in enumerate(orders) if m == n]
        alone = signatures([graphs[i] for i in own], test)
        stops.add(len(alone) - 1)
        for t in range(R + 1):
            assert same_partition(rows[t, own], alone[min(t, len(alone) - 1)]), (n, t)
    assert max(stops) == R > min(stops)
