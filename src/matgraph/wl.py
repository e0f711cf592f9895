"""Exact color-refinement tests: 1-WL, 2-WL, 2-FWL and a 3-tensor statistic.

One engine refines a stack of same-order graphs as their disjoint
union: each round gives every vertex (1-WL) or vertex pair (2-WL, 2-FWL)
of every graph in the stack one integer row - its color plus the
multiset of colors the test looks at - and the new color is the row's
rank among the distinct rows of the whole stack. Ranks on the union
induce the same partition as exact signatures interned into one shared
table, so colors of different graphs in one stack are comparable and
no lossy hashing is involved. This sort-and-relabel step is the cost
centre of WL refinement (Shervashidze et al., JMLR 2011), so where the
colors are few the engine counts instead of sorting, by three rules on
the stack's order n and color count k alone:

- A 1-WL round with (n + 1)**k <= 2**63 writes the multiset as one
  integer, the sum over v's neighbours u of (n + 1)**C[u]: the paper's
  H^(t+1) = (H^(t) | A H^(t)) with base-(n + 1) powers for the colors,
  which makes the sum injective. From one color that is the degree, the
  paper's H^(1) = A 1. Otherwise the row holds v's neighbours' colors,
  sorted.
- A 2-FWL round with k**2 <= n skips the sort of its n pair codes per
  cell: the multiset of (C[v,w], C[w,u]) over w is the vector of
  color-pair walk counts (M_a M_c)[v,u] of the color indicator matrices
  (Geerts, ICDT 2019), which BLAS products count. Every strongly regular
  pair (sr25, rook/Shrikhande) refines that way, as its 3 initial colors
  are stable; see `_next_colors` for the bound.
- `ladder` labels a graph by its colors as a multiset: with k below the
  graph's cell count (n for 1-WL, n**2 for 2-WL and 2-FWL) by its color
  histogram, one `np.bincount` over the stack, otherwise by its colors
  sorted.

Each rank (`_rank_rows`) folds a row's columns into dense ranks, as many
columns per int64 word as their value range allows, and ranks a word
whose values span at most its length by counting, others by an argsort:
never `np.lexsort`. Colors left with gaps when graphs leave a stack are
renumbered by counting. Refinement stops at the stable partition, the
first round whose class count does not grow (every later round repeats
it).

`ladder`, and `signatures` on graphs, record every round: row t of their
`(R + 1, N)` int64 matrix labels each graph by its multiset of colors
after t rounds, which compresses it to one integer as WL relabelling
does. So one refinement labels every depth of a test, and an L-layer
message-passing model's bound, 1-WL at round L + 1 (Morris et al., arXiv
1810.02244), is a row of it. A graph leaves its stack as soon as its
multiset of colors is unique there (or at round `rounds`): it is a
singleton in every later row, and the graphs left are refined without
it. A stack that stops repeats its last row, so every row is a partition
of all the graphs. Nothing is kept between calls, so labels compare only
within one row of one call.

The pair tests keep their own loop, `_refine`, as merging it with
`signatures` was slower both ways (2-core Xeon, one BLAS thread): on
relabelled sr25 pairs, a two-graph `ladder` verdict cost 0.33 ms per
pair for 1-WL and 2-FWL against `_pair_test`'s 0.17 ms (0.10 against
0.03 ms for 1-WL, 0.22 against 0.13 ms for 2-FWL), as labelling the
graphs each round costs more than comparing two sorted color vectors;
and `signatures` on `_refine`, which cannot drop settled graphs, took the
graph8c 1-WL census from 0.146 to 0.420 s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import count
from typing import Sequence

import numpy as np

from matgraph.graphcore import Dataset, Graph


@dataclass(frozen=True)
class PairVerdict:
    equivalent: bool
    test: str
    separating_iteration: int | None = field(default=None)

    def __post_init__(self):
        if self.equivalent != (self.separating_iteration is None):
            raise ValueError("separating_iteration present iff not equivalent")


def _rank_rows(rows: np.ndarray) -> np.ndarray:
    """Lexicographic rank of each row of `rows` among its distinct rows.

    The columns are folded into dense ranks from left to right. With r the
    ranks of the columns so far, k their count and base = max - min + 1,
    the next run of columns, as many as keep k * base**run below 2**63,
    is packed as base-`base` digits w below base**run, and the rows' new
    ranks are those of the one int64 word r * base**run + w. When not even
    one column fits, the column is ranked on its own, its d dense ranks s,
    and the word is r * d + s, below N**2 for N rows. A word whose bound,
    k * base**run or k * d, is at most N is ranked by counting, as
    `_compact` does, any other by an argsort, so no `np.lexsort` runs.
    """
    (N, m), lo, hi = rows.shape, int(rows.min()), int(rows.max())
    base = hi - lo + 1
    ranks, k = np.zeros(N, dtype=np.int64), 1
    first = 0
    while first < m:
        run = 0
        while first + run < m and k * base ** (run + 1) < 1 << 63:
            run += 1
        if run:
            powers = np.array([base ** e for e in range(run - 1, -1, -1)], dtype=np.int64)
            word, size = np.einsum("ij,j->i", rows[:, first:first + run], powers), base ** run
            if lo:  # rows @ powers may wrap, but the word, below 2**63, wraps back
                word -= (lo * powers).sum()
            if k > 1:
                word += ranks * size
            ranks, k = _rank_word(word, k * size)
        else:  # base > 2**63 / k >= N
            run = 1
            column, size = _rank_word(rows[:, first].astype(np.int64), base)
            ranks, k = (column, size) if k == 1 else _rank_word(ranks * size + column, k * size)
        first += run
    return ranks


def _rank_word(word: np.ndarray, bound: int) -> tuple[np.ndarray, int]:
    """Dense rank of each entry of the int64 vector `word` among its
    distinct values, and their count. When `bound` is at most the entry
    count the values lie in 0..bound-1 and are ranked by counting, else
    by an argsort."""
    if bound <= len(word):
        return _compact(word, bound)
    order = word.argsort()
    ordered = word[order]
    step = np.zeros(len(word), dtype=np.int64)
    step[1:] = ordered[1:] != ordered[:-1]
    ranks = np.empty_like(step)
    ranks[order] = step.cumsum()
    return ranks, int(ranks[order[-1]]) + 1


def _compact(C: np.ndarray, classes: int) -> tuple[np.ndarray, int]:
    """Colors `C`, all below `classes`, renumbered 0..k-1 in their order,
    and k: the rank of each color among those present, by counting."""
    present = np.zeros(classes, dtype=np.int64)
    present[C.ravel()] = 1
    rank = np.cumsum(present) - 1
    return rank[C], int(rank[-1]) + 1


def _initial_colors(A: np.ndarray, test: str) -> np.ndarray:
    """Round-0 colors of a `(B, n, n)` bool stack: `(B, n)` zeros for
    "WL1"; for "WL2" and "FWL2" `(B, n, n)` pair colors, diagonal, edge
    and non-edge ranked among those present."""
    B, n, _ = A.shape
    if test == "WL1":
        return np.zeros((B, n), dtype=np.int64)
    return _compact(np.where(np.eye(n, dtype=bool), 0, np.where(A, 1, 2)), 3)[0]


def _sorted_codes(C: np.ndarray, classes: int) -> np.ndarray:
    """`(B, n, n, n + 1)` rows of 2-FWL pair colors `C`: C[v,u], then the
    codes C[v,w] * classes + C[w,u] over w, sorted. classes**2 fits in
    int64 whenever the rows fit in memory."""
    B, n, _ = C.shape
    rows = np.empty((B, n, n, n + 1), dtype=np.int64)
    rows[..., 0] = C
    codes = rows[..., 1:]
    np.multiply(C[:, :, None, :], classes, out=codes)
    codes += C.transpose(0, 2, 1)[:, None, :, :]
    codes.sort(axis=3)
    return rows


def _walk_counts(C: np.ndarray, classes: int) -> np.ndarray:
    """`(B, n, n, 1 + classes**2)` rows of 2-FWL pair colors `C`: C[v,u],
    then for a, c in order the number of w with C[v,w] = a and
    C[w,u] = c, which is the walk count (M_a M_c)[v,u] of the color
    indicator matrices M_a = [C = a]. One float64 product per color a
    fills its `classes` columns (counts up to n are exact), so besides the
    rows no temporary is larger than the `(B, n, classes, n)` stack of
    the M_c."""
    B, n, _ = C.shape
    M = (C[:, :, None, :] == np.arange(classes)[:, None]).astype(np.float64)  # M[b,w,c,u]
    rows = np.empty((B, n, n, 1 + classes * classes), dtype=np.int64)
    rows[..., 0] = C
    for a in range(classes):
        walks = np.matmul(M[:, :, a, :], M.reshape(B, n, classes * n))  # walks[b,v,(c,u)]
        rows[..., 1 + a * classes:1 + (a + 1) * classes] = (
            walks.reshape(B, n, classes, n).transpose(0, 1, 3, 2))
    return rows


def _sorted_neighbours(A: np.ndarray, C: np.ndarray) -> np.ndarray:
    """`(B, n, n + 1)` rows of 1-WL vertex colors `C`: C[v], then the
    colors C[u] of v's neighbours and -1 per non-neighbour, sorted."""
    B, n = C.shape
    rows = np.empty((B, n, n + 1), dtype=np.int64)
    rows[..., 0] = C
    rows[..., 1:] = np.where(A, C[:, None, :], -1)
    rows[..., 1:].sort(axis=2)
    return rows


def _neighbour_counts(A: np.ndarray, C: np.ndarray, classes: int) -> np.ndarray:
    """`(B, n, 2)` rows of 1-WL vertex colors `C`: C[v], then the sum over
    v's neighbours u of (n + 1)**C[u]. A color is counted at most n times,
    so the sum is v's neighbour color counts as base-(n + 1) digits, below
    (n + 1)**classes, which must fit in int64: one integer product of the
    stack with its powers."""
    B, n = C.shape
    power = (n + 1) ** np.arange(classes, dtype=np.int64)
    rows = np.empty((B, n, 2), dtype=np.int64)
    rows[..., 0] = C
    rows[..., 1:] = np.matmul(A.astype(np.int64), power[C][:, :, None])
    return rows


def _next_colors(A: np.ndarray, C: np.ndarray, classes: int, test: str) -> np.ndarray:
    """One refinement round of colors `C` numbered 0..classes-1: each
    cell's rank, among the distinct rows of the stack, of its color
    followed by the multiset of colors `test` looks at.

    A 1-WL round's row is C[v] and the multiset of v's neighbours'
    colors, in one of two encodings of one partition. With k = classes
    and (n + 1)**k <= 2**63, it is the one integer of `_neighbour_counts`,
    one integer product per stack, and the stack's 2-column rows pack into
    one word: on graph8c's round from 7 colors, ~4 ms against the sorted
    rows' 15-20 ms (2-core Xeon, one BLAS thread). Otherwise it is the n
    sorted entries of `_sorted_neighbours`.

    A 2-FWL round's row is C[v,u] and the multiset of (C[v,w], C[w,u])
    over w, in one of two encodings of one partition. With k = classes
    and k**2 <= n, it is the k**2 walk counts of `_walk_counts`, which
    BLAS products count in O(k**2 n**3) flops; otherwise the n codes of
    `_sorted_codes`, an O(n**3 log n) sort. The bound is about where the
    two cost the same (2-core Xeon, one BLAS thread: at the largest k
    within it the counts take 0.80-1.04x the sort's time for n = 25 to
    300 and 1.17x at n = 402; at the first k past it, 1.11-1.20x). Within
    it no array a counting round allocates, its `(B, n, n, 1 + k**2)`
    int64 rows or its two `(B, n, k, n)` float64 arrays, is larger than
    the sort's `(B, n, n, n + 1)` int64 buffer.
    """
    if test == "FWL2":
        rows = _walk_counts if classes * classes <= C.shape[-1] else _sorted_codes
        return _rank_rows(rows(C, classes).reshape(C.size, -1)).reshape(C.shape)
    if test == "WL1":
        # (n + 1)**k <= 2**63 needs k < 64, which spares a huge power
        fits = classes < 64 and (C.shape[1] + 1) ** classes <= 1 << 63
        rows = _neighbour_counts(A, C, classes) if fits else _sorted_neighbours(A, C)
        return _rank_rows(rows.reshape(C.size, -1)).reshape(C.shape)
    # 2-WL: the sorted row depends only on v and the sorted column only on
    # u, so their ranks among the stack's rows order cells as the vectors do
    B, n, _ = C.shape
    rows = _rank_rows(np.sort(C, axis=2).reshape(B * n, n)).reshape(B, n, 1)
    cols = _rank_rows(np.sort(C, axis=1).transpose(0, 2, 1).reshape(B * n, n)).reshape(B, 1, n)
    cells = np.stack(np.broadcast_arrays(C, rows, cols), axis=3)
    return _rank_rows(cells.reshape(C.size, 3)).reshape(C.shape)


def _refine(A: np.ndarray, test: str):
    """Refine a `(B, n, n)` bool stack of graphs as one disjoint union.

    Yields the colors of every round, initial colors first: `(B, n)` for
    "WL1", `(B, n, n)` for "WL2" and "FWL2". Stops once the class count
    stops growing.
    """
    C = _initial_colors(A, test)
    while True:
        yield C
        classes = int(C.max()) + 1
        C = _next_colors(A, C, classes, test)
        if C.max() + 1 == classes:
            return


def _histograms(cells: np.ndarray, classes: int) -> np.ndarray:
    """`(B, classes)` counts of each color in each row of the `(B, c)`
    colors `cells`, numbered 0..classes-1: one `np.bincount` over the
    stack, each row's colors offset past those of the rows before it."""
    B = len(cells)
    offset = (cells + classes * np.arange(B)[:, None]).ravel()
    return np.bincount(offset, minlength=B * classes).reshape(B, classes)


def ladder(stacks, size: int, test: str = "WL1", rounds: float = math.inf) -> np.ndarray:
    """The `(R + 1, size)` int64 class labels of graphs given as one
    `(positions, A)` per order, `positions` covering 0..size-1 and `A`
    their `(B, n, n)` adjacency stack: row t labels every graph by `test`
    ("WL1", "WL2" or "FWL2") after t rounds, numbered 0..L_t-1, so two
    labels of one row are equal iff t rounds do not separate the graphs
    ("WL1" at t = 1 compares degree multisets). R is `rounds`, or the
    round at which the last stack stops, whichever comes first.

    Each stack is refined as one union, and each round ranks its graphs
    by their multisets of colors: with k colors, fewer than a graph's c
    cells (n for "WL1", n**2 for "WL2" and "FWL2"), by their `(B, k)`
    color histograms, otherwise by their `(B, c)` sorted colors, one
    partition either way. A graph whose multiset is unique in the stack
    at round t settles: it leaves the stack, a singleton in every later
    row. This is exact. A cell's color class in the union refinement
    depends only on its own graph, so dropping graphs renumbers the
    others' colors but leaves their partition, and two graphs whose
    multisets differ at round t differ at every later round. The rest are
    re-ranked and refined until their partition stops growing; the round
    after that, or at round `rounds`, the stack stops, and its last row
    repeats in every later one. A graph's code in row t is its rank among
    the stack's live graphs at the last round, up to t, that ranked it,
    offset by a running count of the codes handed out, so that each
    (stack, round) has codes of its own; each row renumbers its codes by
    counting, so `np.bincount` of a row gives its class sizes. Labels are
    comparable only within one row of one call.
    """
    rows = [np.zeros(size, dtype=np.int64)]  # each round's codes of every graph
    codes = 0  # the codes handed out so far
    for members, A in stacks:
        A = A != 0
        C = _initial_colors(A, test)
        classes = int(C.max()) + 1
        stable = False
        for t in count():
            cells = C.reshape(len(C), -1)
            ranks = _rank_rows(_histograms(cells, classes) if classes < cells.shape[1]
                               else np.sort(cells, axis=1))
            if t == len(rows):  # the first stack this deep: the others repeat their last row
                rows.append(rows[-1].copy())
            for row in rows[t:]:
                row[members] = codes + ranks
            codes += int(ranks.max()) + 1
            settled = (stable or t == rounds) | (np.bincount(ranks)[ranks] == 1)
            if settled.all():
                break
            live = ~settled
            members, A = members[live], A[live]
            C, classes = _compact(C[live], classes)
            C = _next_colors(A, C, classes, test)
            grown = int(C.max()) + 1
            stable, classes = grown == classes, grown
    return np.stack([_compact(row, max(codes, 1))[0] for row in rows])


def signatures(graphs: Sequence[Graph], test: str = "WL1",
               rounds: float = math.inf) -> np.ndarray:
    """The `ladder` of `graphs`, refined together one stack per order (a
    `Dataset`'s own stacks, or those of a list, stacked once): row t is
    the partition after t rounds, and the last row the stable partition,
    or that of round `rounds` if it comes first."""
    return ladder(Dataset.of(graphs).stacks, len(graphs), test, rounds)


def _pair_test(G: Graph, H: Graph, test: str) -> PairVerdict:
    """Refine G and H as one stack; the first round whose sorted colors
    differ between them is the separating iteration."""
    if G.n != H.n:
        return PairVerdict(equivalent=False, test=test, separating_iteration=0)
    A = np.stack([G.adjacency != 0, H.adjacency != 0])
    for t, C in enumerate(_refine(A, test)):
        g, h = np.sort(C.reshape(2, -1), axis=1)
        if not np.array_equal(g, h):
            return PairVerdict(equivalent=False, test=test, separating_iteration=t)
    return PairVerdict(equivalent=True, test=test)


def wl1_equivalent(G: Graph, H: Graph) -> PairVerdict:
    return _pair_test(G, H, "WL1")


def wl2_equivalent(G: Graph, H: Graph) -> PairVerdict:
    return _pair_test(G, H, "WL2")


def fwl2_equivalent(G: Graph, H: Graph) -> PairVerdict:
    return _pair_test(G, H, "FWL2")


def fwl3_tensor_statistic(G: Graph) -> float:
    """Sum of the 3-tensor square over cells whose connection state is 0.

    The state tensor assigns each ordered node triple one of 9 states:
    a 3-bit encoding of which of the three pairs are edges (0 = no pair
    connected, 7 = triangle), and state 8 on the tensor diagonal
    (i = j = k). The tensor square is
    (T^2)_{ijk} = sum_s T_{sjk} T_{isk} T_{ijs}.
    """
    A = G.adjacency.astype(np.int64)
    n = G.n
    T = A[None, :, :] + 2 * A[:, None, :] + 4 * A[:, :, None]  # edges jk, ik, ij
    i, j, k = np.ogrid[:n, :n, :n]
    T = np.where((i == j) & (j == k), 8, T)
    T2 = np.einsum("sjk,isk,ijs->ijk", T, T, T)
    return float(T2[T == 0].sum())
