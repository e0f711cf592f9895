"""Exact color-refinement tests: 1-WL, 2-WL, 2-FWL and a 3-tensor statistic.

One engine refines a stack of same-order graphs as their disjoint
union: each round gives every vertex (1-WL) or vertex pair (2-WL, 2-FWL)
of every graph in the stack one integer row - its color plus the sorted
multiset of colors the test looks at - and the new color is the row's
rank among the distinct rows of the whole stack. Ranks on the union
induce the same partition as exact signatures interned into one shared
table, so colors of different graphs in one stack are comparable and
no lossy hashing is involved. This sort-and-relabel step is the cost
centre of WL refinement (Shervashidze et al., JMLR 2011); a rank packs
runs of a row's columns into as few int64 words as their value range
allows and sorts the words, which keeps the lexicographic order. 1-WL's
round from one color ranks the degrees, the paper's H^(1) = A 1, and
colors left with gaps when graphs leave a stack are renumbered by
counting. A 2-FWL round with few colors, k**2 <= n, skips the sort of
its n pair codes per cell: the multiset of (C[v,w], C[w,u]) over w is
the vector of color-pair walk counts (M_a M_c)[v,u] of the color
indicator matrices (Geerts, ICDT 2019), which BLAS products count. Every
strongly regular pair (sr25, rook/Shrikhande) refines that way, as its 3
initial colors are stable; see `_next_colors` for the bound. Refinement
stops at the stable partition, the first round whose class count does
not grow (every later round repeats it).

`ladder`, and `signatures` on graphs, record every round: row t of their
`(R + 1, N)` int64 matrix labels each graph by its sorted colors after t
rounds, which compresses them to one integer as WL relabelling does. So
one refinement labels every depth of a test, and an L-layer
message-passing model's bound, 1-WL at round L + 1 (Morris et al., arXiv
1810.02244), is a row of it. A graph leaves its stack as soon as its
sorted colors are unique there (or at round `rounds`): it is a singleton
in every later row, and the graphs left are refined without it. A stack
that stops repeats its last row, so every row is a partition of all the
graphs. Nothing is kept between calls, so labels compare only within one
row of one call.

The pair tests keep their own loop, `_refine`, as merging it with
`signatures` was slower both ways (2-core Xeon): a two-graph `signatures`
call cost ~2.1x per 1-WL and 12-18 % or more per 2-FWL verdict on
relabelled sr25 pairs, and `signatures` on `_refine`, which cannot drop
settled graphs, took the graph8c 1-WL census from 0.146 to 0.420 s.
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

    Runs of columns are packed into int64 words as base-(max - min + 1)
    digits, as many per word as keep it below 2**63, all words by one
    integer product of the rows with a matrix of digit powers, so the
    words order the rows as the columns do: one word is argsorted, more
    are lexsorted.
    """
    (N, m), lo, hi = rows.shape, int(rows.min()), int(rows.max())
    base = hi - lo + 1
    digits = 1  # columns per word
    while digits < m and base ** (digits + 1) <= 1 << 63:
        digits += 1
    if digits == 1:
        words = rows
    else:
        # P[k, j]: column k's digit power in word j, the last run may be
        # shorter. rows @ P is the words (rows - lo) @ P plus lo * P.sum(0);
        # every word is below 2**63, so the int64 product may wrap but the
        # subtraction wraps back to it exactly
        P = np.zeros((m, -(-m // digits)), dtype=np.int64)
        for j, first in enumerate(range(0, m, digits)):
            run = min(digits, m - first)
            P[first:first + run, j] = [base ** e for e in range(run - 1, -1, -1)]
        words = rows.astype(np.int64, copy=False) @ P - lo * P.sum(axis=0)
    order = np.argsort(words[:, 0]) if words.shape[1] == 1 else np.lexsort(words.T[::-1])
    ordered = words[order]
    step = np.ones(N, dtype=np.int64)
    step[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    ranks = np.empty_like(step)
    ranks[order] = np.cumsum(step) - 1
    return ranks


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


def _next_colors(A: np.ndarray, C: np.ndarray, classes: int, test: str) -> np.ndarray:
    """One refinement round of colors `C` numbered 0..classes-1: each
    cell's rank, among the distinct rows of the stack, of its color
    followed by the multiset of colors `test` looks at.

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
        if classes == 1:
            # one color: a vertex's row is 0, then -1 per non-neighbour and
            # 0 per neighbour, so rows order as the degrees do
            return _rank_rows(A.sum(axis=2).reshape(-1, 1)).reshape(C.shape)
        multiset = np.sort(np.where(A, C[:, None, :], -1), axis=2)
    else:
        # the sorted row depends only on v and the sorted column only on u:
        # their ranks among the stack's rows order cells as the vectors do
        B, n, _ = C.shape
        rows = _rank_rows(np.sort(C, axis=2).reshape(B * n, n)).reshape(B, n, 1)
        cols = _rank_rows(np.sort(C, axis=1).transpose(0, 2, 1).reshape(B * n, n))
        multiset = np.stack(np.broadcast_arrays(rows, cols.reshape(B, 1, n)), axis=3)
    flat = np.concatenate([C.reshape(-1, 1), multiset.reshape(C.size, -1)], axis=1)
    return _rank_rows(flat).reshape(C.shape)


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


def ladder(stacks, size: int, test: str = "WL1", rounds: float = math.inf) -> np.ndarray:
    """The `(R + 1, size)` int64 class labels of graphs given as one
    `(positions, A)` per order, `positions` covering 0..size-1 and `A`
    their `(B, n, n)` adjacency stack: row t labels every graph by `test`
    ("WL1", "WL2" or "FWL2") after t rounds, numbered 0..L_t-1, so two
    labels of one row are equal iff t rounds do not separate the graphs
    ("WL1" at t = 1 compares degree multisets). R is `rounds`, or the
    round at which the last stack stops, whichever comes first.

    Each stack is refined as one union. A graph whose sorted colors are
    unique in the stack at round t settles: it leaves the stack, a
    singleton in every later row. This is exact. A cell's color class in
    the union refinement depends only on its own graph, so dropping
    graphs renumbers the others' colors but leaves their partition, and
    two graphs whose sorted colors differ at round t differ at every
    later round. The rest are re-ranked and refined until their
    partition stops growing; the round after that, or at round `rounds`,
    the stack stops, and its last row repeats in every later one. A
    graph's code in row t is its rank among the stack's live graphs at
    the last round, up to t, that ranked it, offset so that each (stack,
    round) has codes of its own; each row renumbers its codes by
    counting, so `np.bincount` of a row gives its class sizes. Labels are
    comparable only within one row of one call.
    """
    rows = np.zeros((1, size), dtype=np.int64)  # each round's codes of every graph
    for members, A in stacks:
        A = A != 0
        C = _initial_colors(A, test)
        classes = int(C.max()) + 1
        stable = False
        for t in count():
            ranks = _rank_rows(np.sort(C.reshape(len(C), -1), axis=1))
            if t == len(rows):  # the first stack this deep: the others repeat their last row
                rows = np.vstack([rows, rows[-1:]])
            rows[t:, members] = rows.max() + 1 + ranks  # past every code handed out so far
            settled = (stable or t == rounds) | (np.bincount(ranks)[ranks] == 1)
            if settled.all():
                break
            live = ~settled
            members, A = members[live], A[live]
            C, classes = _compact(C[live], classes)
            C = _next_colors(A, C, classes, test)
            grown = int(C.max()) + 1
            stable, classes = grown == classes, grown
    return np.stack([_compact(row, int(rows.max(initial=0)) + 1)[0] for row in rows])


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
