"""Rook's 4 x 4 graph and the Shrikhande graph, as their definitions
build them."""

import hashlib
from itertools import combinations

import numpy as np
import pytest

from matgraph.appendix_data import GRAPHS

# sha256 of the adjacency bytes of the 16 x 16 literals that the
# definitions replaced: the definitions give the same graphs with the
# same vertex order
ADJACENCY_SHA256 = {
    "rook4x4": "ca41f389b9ff053642c750790c7cca27169178064d7dee1de6ce8d4ff6e46458",
    "shrikhande": "ff2aadcabe0f3d8d6c885b653e3abc4dcc54e9861d070a2f7e710841a7c8bb9f",
}


@pytest.mark.parametrize("name", ADJACENCY_SHA256)
def test_definition_reproduces_the_literal(name):
    digest = hashlib.sha256(GRAPHS[name].adjacency.tobytes()).hexdigest()
    assert digest == ADJACENCY_SHA256[name]


@pytest.mark.parametrize("name", ADJACENCY_SHA256)
def test_strongly_regular_16_6_2_2(name):
    """A^2 = k I + lambda A + mu (J - I - A) with (k, lambda, mu) = (6, 2, 2)."""
    A = GRAPHS[name].adjacency
    I, J = np.eye(16), np.ones((16, 16))
    assert np.array_equal(A @ A, 6 * I + 2 * A + 2 * (J - I - A))


@pytest.mark.parametrize("name, count", [("rook4x4", 8), ("shrikhande", 0)])
def test_k4_count_tells_them_apart(name, count):
    """Rook's graph has a K4 in each row and column; Shrikhande's has none."""
    A = GRAPHS[name].adjacency
    quads = combinations(range(16), 4)
    assert sum(all(A[u, v] for u, v in combinations(q, 2)) for q in quads) == count
