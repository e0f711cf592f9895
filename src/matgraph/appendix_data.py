"""Built-in benchmark graphs: three pairs from the paper's appendix.

Three classic pairs of non-isomorphic graphs ordered by the strength of
the test needed to separate them:

  * ``decalin``/``bicyclopentyl``: 1-WL equivalent, separated by spectra
    (e.g. tr(A^5)).
  * ``cospectral10_a``/``cospectral10_b``: cospectral 4-regular graphs on
    10 vertices, separated by Hadamard-product sentences (3-WL power).
  * ``rook4x4``/``shrikhande``: strongly regular SRG(16,6,2,2) pair,
    3-WL equivalent, separated only by 3-FWL-level statistics (rook's
    graph has 8 K4s, Shrikhande's none).

The first two pairs are adjacency literals. Rook's graph and the
Shrikhande graph are built from their definitions, as Cayley graphs of
Z4 x Z4 with vertices in row-major order. `GRAPHS` names all six.
"""

from __future__ import annotations

import numpy as np

from matgraph.graphcore import Graph


def _graph(rows: str) -> Graph:
    A = np.array(
        [[int(c) for c in line.split()] for line in rows.strip().splitlines()],
        dtype=np.float64,
    )
    return Graph(adjacency=A)


DECALIN = _graph(
    """
    0 1 1 0 0 0 1 0 0 0
    1 0 0 0 0 1 0 0 0 1
    1 0 0 1 0 0 0 0 0 0
    0 0 1 0 1 0 0 0 0 0
    0 0 0 1 0 1 0 0 0 0
    0 1 0 0 1 0 0 0 0 0
    1 0 0 0 0 0 0 1 0 0
    0 0 0 0 0 0 1 0 1 0
    0 0 0 0 0 0 0 1 0 1
    0 1 0 0 0 0 0 0 1 0
    """
)

BICYCLOPENTYL = _graph(
    """
    0 1 1 0 0 1 0 0 0 0
    1 0 0 0 0 0 1 0 0 1
    1 0 0 1 0 0 0 0 0 0
    0 0 1 0 1 0 0 0 0 0
    0 0 0 1 0 1 0 0 0 0
    1 0 0 0 1 0 0 0 0 0
    0 1 0 0 0 0 0 1 0 0
    0 0 0 0 0 0 1 0 1 0
    0 0 0 0 0 0 0 1 0 1
    0 1 0 0 0 0 0 0 1 0
    """
)

COSPECTRAL10_A = _graph(
    """
    0 1 0 1 0 1 0 1 0 0
    1 0 1 1 1 0 0 0 0 0
    0 1 0 0 1 0 1 0 0 1
    1 1 0 0 0 1 0 1 0 0
    0 1 1 0 0 0 1 0 0 1
    1 0 0 1 0 0 0 0 1 1
    0 0 1 0 1 0 0 1 1 0
    1 0 0 1 0 0 1 0 1 0
    0 0 0 0 0 1 1 1 0 1
    0 0 1 0 1 1 0 0 1 0
    """
)

COSPECTRAL10_B = _graph(
    """
    0 1 0 1 0 0 1 1 0 0
    1 0 1 1 1 0 0 0 0 0
    0 1 0 0 1 1 0 0 0 1
    1 1 0 0 0 1 0 1 0 0
    0 1 1 0 0 0 1 0 0 1
    0 0 1 1 0 0 0 1 1 0
    1 0 0 0 1 0 0 0 1 1
    1 0 0 1 0 1 0 0 1 0
    0 0 0 0 0 1 1 1 0 1
    0 0 1 0 1 0 1 0 1 0
    """
)


def _cayley(steps) -> Graph:
    """The Cayley graph of Z4 x Z4 on `steps`, a set closed under
    negation, its cell (r, c) numbered 4 r + c (row-major order): cells
    (r, c) and (r', c') are adjacent iff (r' - r, c' - c) mod 4 is a step."""
    r, c = np.divmod(np.arange(16), 4)
    is_step = np.zeros((4, 4), dtype=bool)
    is_step[tuple(zip(*steps))] = True  # a negative index is its residue mod 4
    return Graph(is_step[(r - r[:, None]) % 4, (c - c[:, None]) % 4])


# K4 x K4, the 4 x 4 rook's graph: two cells are adjacent iff they share
# a row or a column
ROOK4X4 = _cayley([(0, 1), (0, 2), (0, 3), (1, 0), (2, 0), (3, 0)])

SHRIKHANDE = _cayley([(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1)])

GRAPHS: dict[str, Graph] = {
    "decalin": DECALIN,
    "bicyclopentyl": BICYCLOPENTYL,
    "cospectral10_a": COSPECTRAL10_A,
    "cospectral10_b": COSPECTRAL10_B,
    "rook4x4": ROOK4X4,
    "shrikhande": SHRIKHANDE,
}
