import re
import time

import numpy as np
import pytest
from hypothesis import given, settings

from matgraph.graphcore import Graph
from matgraph.matlang import (
    OPS,
    Expr,
    OpSet,
    ParseError,
    ShapeError,
    eval_expr,
    eval_sentence,
    fragment_check,
    parse,
    sentence_corpus,
    shape_check,
)
from matgraph.wl import wl1_equivalent

from .conftest import graphs

P3 = Graph.from_edges(3, [(0, 1), (1, 2)])
TRIANGLE = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])


def ev(text, G):
    return eval_sentence(parse(text), G.adjacency)


def sentence_distinguishes(e: Expr, G, H, tol: float = 1e-9) -> bool:
    """True iff the sentence evaluates differently (beyond tol) on G and H."""
    return abs(eval_sentence(e, G.adjacency) - eval_sentence(e, H.adjacency)) > tol


class TestParser:
    def test_precedence_and_transpose(self):
        e = parse("ones' * A * ones")
        assert shape_check(e, 4) == (1, 1)

    def test_power_sugar(self):
        # A^3 on the triangle: tr = 2 * number of triangles * 3 = 6
        assert ev("tr(A^3)", TRIANGLE) == pytest.approx(6.0)
        # the triangle's spectrum is 2, -1, -1: tr(A^7) = 2^7 - 2, exactly
        assert ev("tr(A^7)", TRIANGLE) == 126.0

    def test_rejects_unbalanced(self):
        with pytest.raises(ParseError):
            parse("tr(A")

    def test_rejects_unknown_function(self):
        with pytest.raises(ParseError):
            parse("f:bogus(A)")

    def test_rejects_empty(self):
        with pytest.raises(ParseError):
            parse("")

    @pytest.mark.parametrize("text, pos", [
        ("2^2", 0),
        ("tr(2)", 3),
        ("2 + A", 0),
        ("A + 2", 4),
        ("had(2, A)", 4),
        ("f:exp(2)", 6),
        ("ones' * (3)' * ones", 9),
        ("2 .* A", 0),
        ("2", 0),
        ("2 * 3", 4),
    ])
    def test_literal_outside_a_product_is_rejected_at_its_position(self, text, pos):
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert exc.value.pos == pos

    @pytest.mark.parametrize("text", ["2 * A", "A * 2", "A 2", "(3) * A", "A * -0.5 * 2"])
    def test_literal_factor_scales(self, text):
        assert parse(text).op == "ScalarMul"

    def test_power_is_one_node(self):
        A = Expr("Var", (), "A")
        assert parse("A^1") == A
        # one node whatever the exponent: no chain of k - 1 products
        assert parse("A^1000000000") == Expr("Power", (A,), 1000000000)
        assert shape_check(parse("tr(A^1000000000)"), 8) == (1, 1)

    @pytest.mark.parametrize("power", ["0", "1.5", "1e999", "x"])
    def test_rejects_bad_power(self, power):
        with pytest.raises(ParseError, match="power must be an integer"):
            parse(f"A^{power}")


class TestShapes:
    def test_sentence_shapes(self):
        assert shape_check(parse("ones' * A * ones"), 5) == (1, 1)
        assert shape_check(parse("tr(A^2)"), 5) == (1, 1)
        assert shape_check(parse("A * ones"), 5) != (1, 1)

    def test_mul_mismatch(self):
        with pytest.raises(ShapeError):
            shape_check(parse("ones * ones"), 3)

    def test_hadamard_mismatch(self):
        with pytest.raises(ShapeError):
            shape_check(parse("had(A, ones)"), 3)

    @pytest.mark.parametrize("text, message", [
        ("ones * ones", "MatMul: 3x1 incompatible with 3x1"),
        ("A .* ones", "Hadamard: operand shapes (3, 3) != (3, 1)"),
        ("A + ones", "Add: operand shapes (3, 3) != (3, 1)"),
        ("diag(A)", "Diag requires an 3x1 vector, got 3x3"),
        ("diag(ones')", "Diag requires an 3x1 vector, got 1x3"),
        ("tr(ones)", "Trace requires an 3x3 matrix, got 3x1"),
        ("f:exp(A)", "Pointwise exp applies to scalars or vectors, got 3x3"),
        ("ones^2", "Power requires a square matrix, got 3x1"),
    ])
    def test_mismatch_message(self, text, message):
        with pytest.raises(ShapeError, match=f"^{re.escape(message)}$"):
            shape_check(parse(text), 3)

    def test_pointwise_takes_the_matrix_when_n_is_one(self):
        assert shape_check(parse("f:exp(A)"), 1) == (1, 1)


# one sentence per operator -> the fragments that allow it, from the module
# docstring: L1 = {mul, transpose, ones, diag} over the variable A, L2 adds
# trace, L3 adds hadamard, and the enriched fragments L1+, L2+, L3+ add
# addition, scalar multiplication and pointwise functions to their base
ALL = {"L1", "L2", "L3", "L1+", "L2+", "L3+"}
ALLOWED_IN = {
    "A": ALL,
    "ones": ALL,
    "A * A": ALL,
    "A^2": ALL,
    "A'": ALL,
    "diag(ones)": ALL,
    "tr(A)": {"L2", "L3", "L2+", "L3+"},
    "had(A, A)": {"L3", "L3+"},
    "A + A": {"L1+", "L2+", "L3+"},
    "2 * A": {"L1+", "L2+", "L3+"},
    "f:exp(ones)": {"L1+", "L2+", "L3+"},
}


class TestFragments:
    def test_every_operator_is_covered(self):
        assert {parse(text).op for text in ALLOWED_IN} == set(OPS)

    @pytest.mark.parametrize("text", list(ALLOWED_IN))
    def test_operator_fragments(self, text):
        e = parse(text)
        assert {f for f in ALL if fragment_check(e, OpSet.named(f))} == ALLOWED_IN[text]

    def test_trace_needs_l2(self):
        e = parse("tr(A^2)")
        assert not fragment_check(e, OpSet.named("L1"))
        assert fragment_check(e, OpSet.named("L2"))

    def test_hadamard_needs_l3(self):
        e = parse("ones' * had(A, A^2) * ones")
        assert not fragment_check(e, OpSet.named("L2"))
        assert fragment_check(e, OpSet.named("L3"))

    def test_pointwise_needs_enrichment(self):
        e = parse("ones' * f:exp(A) * ones")
        assert not fragment_check(e, OpSet.named("L1"))
        assert fragment_check(e, OpSet.named("L1+"))

    def test_l1_sentence(self):
        e = parse("ones' * A * ones")
        assert fragment_check(e, OpSet.named("L1"))


class TestEval:
    def test_edge_count(self):
        assert ev("ones' * A * ones", P3) == pytest.approx(4.0)

    def test_trace_powers(self):
        # closed walks of length 2 = 2 * edges
        assert ev("tr(A^2)", P3) == pytest.approx(4.0)
        assert ev("tr(A^3)", P3) == pytest.approx(0.0)

    def test_diag(self):
        # diag(A * ones) = degree matrix; its trace is 2 * edges
        assert ev("tr(diag(A * ones))", TRIANGLE) == pytest.approx(6.0)

    def test_scalar_literal(self):
        assert ev("2 * tr(A^2)", P3) == pytest.approx(8.0)

    @settings(max_examples=100, deadline=None)
    @given(graphs(min_n=2, max_n=8))
    def test_matches_numpy(self, G):
        A = G.adjacency
        cases = {
            "ones' * A^2 * ones": float(A.dot(A).sum()),
            "tr(A^3)": float(np.trace(A @ A @ A)),
            "ones' * had(A, A^2) * ones": float((A * (A @ A)).sum()),
        }
        for text, want in cases.items():
            assert ev(text, G) == pytest.approx(want, abs=1e-9)

    def test_eval_expr_vector(self):
        out = eval_expr(parse("A * ones"), {"A": P3.adjacency})
        assert out.shape == (3, 1)
        assert out.ravel().tolist() == [1.0, 2.0, 1.0]


class TestFragmentSoundness:
    """L1 sentences cannot separate 1-WL-equivalent graphs (soundness)."""

    def test_l1_sentences_agree_on_wl1_pair(self):
        from matgraph.appendix_data import BICYCLOPENTYL, DECALIN

        assert wl1_equivalent(DECALIN, BICYCLOPENTYL).equivalent
        for e in sentence_corpus("L1", max_depth=3, limit=200):
            assert not sentence_distinguishes(e, DECALIN, BICYCLOPENTYL)

    def test_l3_sentence_separates_wl1_pair(self):
        from matgraph.appendix_data import BICYCLOPENTYL, DECALIN

        e = parse("tr(A^5)")  # L2 already suffices here
        assert sentence_distinguishes(e, DECALIN, BICYCLOPENTYL)

    def test_corpus_stops_at_the_cap(self):
        # candidates are kept as they are made, and a product stops once
        # its target shape is full, instead of forming every product first
        start = time.perf_counter()
        assert len(sentence_corpus("L2", max_depth=4, limit=300)) == 300
        assert time.perf_counter() - start < 1.0

    def test_corpus_members_typecheck(self):
        corpus = sentence_corpus("L3", max_depth=3, limit=100)
        assert corpus
        for e in corpus:
            assert shape_check(e, 6) == (1, 1)
            assert fragment_check(e, OpSet.named("L3"))


class TestPermutationInvariance:
    @settings(max_examples=100, deadline=None)
    @given(graphs(min_n=2, max_n=8))
    def test_sentences_are_invariants(self, G):
        rng = np.random.default_rng(int(G.adjacency.sum()) // 2 + G.n)
        perm = rng.permutation(G.n)
        H = Graph(G.adjacency[np.ix_(perm, perm)])
        for text in ["tr(A^4)", "ones' * had(A, A^2) * ones"]:
            assert ev(text, G) == pytest.approx(ev(text, H), abs=1e-9)
