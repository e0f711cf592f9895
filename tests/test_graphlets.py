import numpy as np
import pytest
from hypothesis import given, settings

from matgraph.appendix_data import (
    COSPECTRAL10_A,
    COSPECTRAL10_B,
    ROOK4X4,
    SHRIKHANDE,
)
from matgraph.graphcore import Graph
from matgraph.graphlets import (
    PATTERN_KINDS,
    SENTENCES,
    count,
    custom_sentence,
    enumerate_pattern,
)
from matgraph.matlang import OpSet, fragment_check, parse

from .conftest import graphs

K4 = Graph.from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
C4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
STAR4 = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])


class TestKnownCounts:
    def test_k4(self):
        assert count(K4, "triangle") == 4
        assert count(K4, "four_cycle") == 3
        assert count(K4, "three_star") == 4
        assert count(K4, "tailed_triangle") == 12

    def test_c4(self):
        assert count(C4, "triangle") == 0
        assert count(C4, "four_cycle") == 1
        assert count(C4, "three_star") == 0
        assert count(C4, "tailed_triangle") == 0

    def test_star(self):
        assert count(STAR4, "three_star") == 1
        assert count(STAR4, "triangle") == 0


class TestOracleEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(graphs(min_n=4, max_n=10))
    def test_closed_forms_match_enumeration(self, G):
        for kind in PATTERN_KINDS:
            assert count(G, kind) == enumerate_pattern(G, kind)

    def test_counts_are_ints(self):
        for kind in PATTERN_KINDS:
            assert isinstance(count(K4, kind), int)


class TestCustomSentence:
    def test_matches_direct_computation(self):
        # e_c(A) = 1' A diag(exp(-A^2 1)) A 1
        for G in (K4, C4, COSPECTRAL10_A, COSPECTRAL10_B):
            A = G.adjacency
            ones = np.ones(G.n)
            want = ones @ A @ np.diag(np.exp(-(A @ A @ ones))) @ A @ ones
            assert custom_sentence(G) == pytest.approx(float(want), rel=1e-12)

    def test_cannot_separate_sr_pair(self):
        assert custom_sentence(ROOK4X4) == pytest.approx(
            custom_sentence(SHRIKHANDE)
        )


class TestSentenceFragments:
    # the least fragment of each count's sentence, so that a rewrite into a
    # stronger fragment fails here
    LEAST = {
        "three_star": "L1+",
        "triangle": "L2",
        "tailed_triangle": "L2+",
        "four_cycle": "L2+",
    }

    @pytest.mark.parametrize("kind", PATTERN_KINDS)
    def test_least_fragment_pinned(self, kind):
        expr = parse(SENTENCES[kind][0])
        accepted = [name for name in ("L1", "L1+", "L2", "L2+", "L3", "L3+")
                    if fragment_check(expr, OpSet.named(name))]
        assert accepted[0] == self.LEAST[kind]
