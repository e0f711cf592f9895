"""Graphlet counts as matrix-language sentences, with an exhaustive
enumeration oracle.

Each count is a sentence of `SENTENCES`, evaluated by `matlang` and
divided by its divisor. Counts follow partial-subgraph semantics (a
4-clique contains three 4-cycles, not zero). The enumeration oracle
iterates over vertex subsets directly and is the testing ground truth
(guarded to n <= 16).
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from matgraph.graphcore import Graph
from matgraph.matlang import eval_sentence, parse

# kind -> (sentence, divisor)
SENTENCES = {
    "three_star": ("ones' * f:binom3(A * ones)", 1),
    "triangle": ("tr(A^3)", 6),
    "tailed_triangle": ("tr(A^3 * diag(A * ones + -2 * ones))", 2),
    "four_cycle": ("tr(A^4) + tr(A^2) + -2 * (ones' * A^2 * ones)", 8),
}
PATTERN_KINDS = tuple(SENTENCES)


def count(G: Graph, kind: str) -> int:
    """The number of `kind` graphlets in G, from its sentence."""
    sentence, divisor = SENTENCES[kind]
    x = eval_sentence(parse(sentence), G.adjacency) / divisor
    r = round(x)
    if abs(x - r) > 1e-6:
        raise AssertionError(f"count {x!r} is not integral; broken adjacency?")
    return int(r)


def enumerate_pattern(G: Graph, kind: str) -> int:
    """Exhaustive subset enumeration; the independent oracle (n <= 16)."""
    if kind not in PATTERN_KINDS:
        raise ValueError(f"unknown pattern kind {kind!r}")
    if G.n > 16:
        raise ValueError("enumeration oracle is limited to n <= 16")
    A = G.adjacency
    n = G.n
    if kind == "triangle":
        return sum(
            1
            for u, v, w in combinations(range(n), 3)
            if A[u, v] and A[v, w] and A[u, w]
        )
    if kind == "three_star":
        total = 0
        for center in range(n):
            nbrs = np.flatnonzero(A[center])
            k = len(nbrs)
            total += k * (k - 1) * (k - 2) // 6
        return total
    if kind == "tailed_triangle":
        total = 0
        for u, v, w in combinations(range(n), 3):
            if A[u, v] and A[v, w] and A[u, w]:
                for x in (u, v, w):
                    total += int(A[x].sum()) - 2  # tails leaving the triangle
        return total
    # four_cycle: count vertex 4-subsets once per cycle they carry; the
    # 3 distinct cycles on a 4-set are indexed by the vertex opposite `a`
    total = 0
    for quad in combinations(range(n), 4):
        a, b, c, d = quad
        for opp in (b, c, d):
            p, q = sorted({b, c, d} - {opp})
            if A[a, p] and A[p, opp] and A[opp, q] and A[q, a]:
                total += 1
    return total


_CUSTOM_SENTENCE = "ones' * A * diag(f:exp(-1 * (A^2 * ones))) * A * ones"


def custom_sentence(G: Graph) -> float:
    """The custom sentence e_c(A) = 1' A diag(exp(-A^2 1)) A 1.

    Evaluated through the expression-language module so the two stay
    consistent.
    """
    return eval_sentence(parse(_CUSTOM_SENTENCE), G.adjacency)
