"""Exact color-refinement tests: 1-WL, 2-WL, 2-FWL and a 3-tensor statistic.

Recoloring uses exact structural signatures interned to integers in a
shared registry (no lossy hashing), so signatures are comparable across
graphs refined independently, as long as they share a registry and are
refined for the same number of rounds. All graphs are refined for a fixed
round count (n for vertex coloring, n for pair coloring - the partition
cannot refine further once stable, and equal round counts keep signatures
structure-determined).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from matgraph.graphcore import Graph


class ColorRegistry:
    """Interns exact signature tuples to small integers.

    Two graphs refined against the same registry (for the same number of
    rounds) receive equal color ids exactly when their signatures are
    structurally identical.
    """

    def __init__(self):
        self._table: dict[tuple, int] = {}

    def intern(self, signature: tuple) -> int:
        return self._table.setdefault(signature, len(self._table))


_DEFAULT_REGISTRY = ColorRegistry()


def _histogram(colors) -> tuple[tuple[int, int], ...]:
    return tuple(sorted(Counter(colors).items()))


@dataclass(frozen=True)
class ColorPartition:
    arity: int
    colors: tuple[int, ...]
    iterations: int

    @property
    def histogram(self) -> tuple[tuple[int, int], ...]:
        """Sorted (color, count) pairs; totals n (arity 1) or n^2 (arity 2)."""
        return _histogram(self.colors)

    @property
    def signature(self) -> str:
        """Canonical rendering of the final color histogram."""
        return ";".join(f"{c}x{m}" for c, m in self.histogram)


@dataclass(frozen=True)
class PairVerdict:
    equivalent: bool
    test: str
    separating_iteration: int | None = field(default=None)

    def __post_init__(self):
        if self.equivalent != (self.separating_iteration is None):
            raise ValueError("separating_iteration present iff not equivalent")


def _neighbors(G: Graph) -> list[np.ndarray]:
    return [np.flatnonzero(G.adjacency[v]) for v in range(G.n)]


def _wl1_refine(
    G: Graph, reg: ColorRegistry, rounds: int, init: list[int] | None = None
):
    """1-WL engine; yields the vertex colors of every round, initial first."""
    n = G.n
    if init is None:
        colors = [reg.intern(("init", 0))] * n
    else:
        if len(init) != n:
            raise ValueError(f"init has {len(init)} entries, expected {n}")
        colors = [reg.intern(("init", c)) for c in init]
    yield colors
    nbrs = _neighbors(G)
    for _ in range(rounds):
        colors = [
            reg.intern((colors[v], tuple(sorted(colors[u] for u in nbrs[v]))))
            for v in range(n)
        ]
        yield colors


def wl1_canonical(
    G: Graph,
    init: list[int] | None = None,
    registry: ColorRegistry | None = None,
    rounds: int | None = None,
) -> ColorPartition:
    """Vertex color refinement run for a fixed number of rounds (default n).

    Each round a node's signature is (own color, sorted multiset of
    neighbor colors); signatures are interned globally so the result is
    comparable across graphs sharing the registry.
    """
    reg = registry if registry is not None else _DEFAULT_REGISTRY
    total = G.n if rounds is None else rounds
    *_, colors = _wl1_refine(G, reg, total, init)
    return ColorPartition(arity=1, colors=tuple(colors), iterations=total)


def _pair_refine(G: Graph, reg: ColorRegistry, rounds: int, folklore: bool):
    """Shared engine for 2-WL and 2-FWL; yields the pair colors of every
    round, initial first, flattened row-major."""
    n = G.n
    A = G.adjacency
    colors = [
        [
            reg.intern(
                ("pair-init", "same" if v == u else ("edge" if A[v, u] else "nonedge"))
            )
            for u in range(n)
        ]
        for v in range(n)
    ]
    yield [c for row in colors for c in row]
    for _ in range(rounds):
        if folklore:
            new = [
                [
                    reg.intern(
                        (
                            colors[v][u],
                            tuple(sorted((colors[v][k], colors[k][u]) for k in range(n))),
                        )
                    )
                    for u in range(n)
                ]
                for v in range(n)
            ]
        else:
            new = [
                [
                    reg.intern(
                        (
                            colors[v][u],
                            tuple(sorted(colors[v][k] for k in range(n))),
                            tuple(sorted(colors[k][u] for k in range(n))),
                        )
                    )
                    for u in range(n)
                ]
                for v in range(n)
            ]
        colors = new
        yield [c for row in colors for c in row]


def _pair_partition(
    G: Graph, folklore: bool, registry: ColorRegistry | None, rounds: int | None
) -> ColorPartition:
    reg = registry if registry is not None else _DEFAULT_REGISTRY
    total = G.n if rounds is None else rounds
    *_, colors = _pair_refine(G, reg, total, folklore)
    return ColorPartition(arity=2, colors=tuple(colors), iterations=total)


def wl2_canonical(G: Graph, registry=None, rounds=None) -> ColorPartition:
    return _pair_partition(G, folklore=False, registry=registry, rounds=rounds)


def fwl2_canonical(G: Graph, registry=None, rounds=None) -> ColorPartition:
    return _pair_partition(G, folklore=True, registry=registry, rounds=rounds)


def _pair_test(G: Graph, H: Graph, test: str) -> PairVerdict:
    """Run a refinement test jointly on two graphs, round by round."""
    if G.n != H.n:
        return PairVerdict(equivalent=False, test=test, separating_iteration=0)
    reg = ColorRegistry()
    rounds = max(G.n, H.n)

    def histograms(F: Graph) -> list:
        if test == "WL1":
            return [_histogram(c) for c in _wl1_refine(F, reg, rounds)]
        return [_histogram(c) for c in _pair_refine(F, reg, rounds, test == "FWL2")]

    hist_g = histograms(G)  # G fully before H: the registry's intern order
    hist_h = histograms(H)
    for t, (hg, hh) in enumerate(zip(hist_g, hist_h)):
        if hg != hh:
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
    e_jk = np.broadcast_to(A[None, :, :], (n, n, n))
    e_ik = np.broadcast_to(A[:, None, :], (n, n, n))
    e_ij = np.broadcast_to(A[:, :, None], (n, n, n))
    T = e_jk + 2 * e_ik + 4 * e_ij
    i, j, k = np.ogrid[:n, :n, :n]
    T = np.where((i == j) & (j == k), 8, T)
    T2 = np.einsum("sjk,isk,ijs->ijk", T, T, T)
    return float(T2[T == 0].sum())
