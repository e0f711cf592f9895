import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matgraph.graphcore import Graph, laplacian
from matgraph.spectral import (
    SupportSpec,
    band_centers,
    eig_sym,
    frequency_response,
    maclaurin_coefficients,
    stacked_supports,
)

from .conftest import graphs, permute_graph, random_adjacency

P2 = Graph.from_edges(2, [(0, 1)])


def maclaurin_residual(
    spec_support: np.ndarray, L: np.ndarray, b: float, f_s: float, order: int
) -> float:
    """Max-norm gap between a dense support and its truncated power series.

    Validates that the designed support is a polynomial in the Laplacian
    (Theorem 7); converges only where the Gaussian's Maclaurin series
    does on the spectrum (small b * lam_max^2).
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    a = maclaurin_coefficients(b, f_s, order)
    acc = np.zeros_like(L)
    P = np.eye(L.shape[0])
    for i in range(order + 1):
        acc += a[i] * P
        P = P @ L
    return float(np.max(np.abs(spec_support - acc)))


class TestEigSym:
    def test_reconstruction(self):
        rng = np.random.default_rng(0)
        B = rng.standard_normal((6, 6))
        B = B + B.T
        basis = eig_sym(B)
        assert np.allclose((basis.U * basis.lam) @ basis.U.T, B, atol=1e-10)

    def test_sorted_eigenvalues(self):
        basis = eig_sym(laplacian(P2))
        assert basis.lam.tolist() == pytest.approx([0.0, 2.0])

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            eig_sym(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestFrequencyResponse:
    def test_peak_at_center(self):
        lam = np.linspace(0, 2, 11)
        phi = frequency_response(lam, b=5.0, f_s=1.0)
        assert phi.argmax() == 5
        assert phi.max() == pytest.approx(1.0)

    def test_band_centers_cover_spectrum(self):
        centers = band_centers(np.array([[0.0], [-1.0]]), np.array([[2.0], [3.0]]), 5)
        # S - 1 bands per spectrum, the all-pass support takes the last slot
        assert np.array_equal(centers, [[0.0, 0.5, 1.0, 1.5], [-1.0, 0.0, 1.0, 2.0]])

    def test_degenerate_spectrum(self):
        centers = band_centers(np.array([[1.0], [0.0]]), np.array([[1.0], [2.0]]), 5)
        assert np.array_equal(centers, [[1.0] * 4, [0.0, 0.5, 1.0, 1.5]])

    def test_one_support_needs_a_degenerate_spectrum(self):
        assert band_centers(np.array([[1.0]]), np.array([[1.0]]), 1).shape == (1, 0)
        with pytest.raises(ValueError, match="S >= 2"):
            band_centers(np.array([[1.0], [0.0]]), np.array([[1.0], [2.0]]), 1)
        # a spec must work on any graph, so it takes the builder's rule
        for S in (0, 1):
            with pytest.raises(ValueError, match=r"^S must be >= 2$"):
                SupportSpec(S=S)

    @pytest.mark.parametrize("b", [float("nan"), float("inf"), 0.0])
    def test_bandwidth_must_be_finite_and_positive(self, b):
        with pytest.raises(ValueError, match="finite and > 0"):
            SupportSpec(b=b)
        with pytest.raises(ValueError, match="finite and > 0"):
            frequency_response(np.zeros(3), b, 0.0)


class TestSupports:
    @settings(max_examples=100, deadline=None)
    @given(graphs(min_n=2, max_n=8, connected=True))
    def test_symmetry_and_norm(self, G):
        for C in stacked_supports(G.adjacency[None])[0][0]:
            assert np.allclose(C, C.T, atol=1e-10)
            # Gaussian responses are bounded by 1, so the full (unmasked)
            # operator norm is <= 1; masking can only shrink the max entry
            assert np.abs(C).max() <= 1.0 + 1e-8

    @settings(max_examples=100, deadline=None)
    @given(graphs(min_n=2, max_n=7, connected=True))
    def test_permutation_equivariance(self, G):
        # G and its relabelling H, built as one stack of two
        rng = np.random.default_rng(G.num_edges * 31 + G.n)
        perm = rng.permutation(G.n)
        H = permute_graph(G, perm)
        CG, CH = stacked_supports(np.stack([G.adjacency, H.adjacency]))[0]
        for s in range(CG.shape[0]):
            assert np.allclose(
                CG[s][np.ix_(perm, perm)], CH[s], atol=1e-8
            )

    def test_masked_to_receptive_field(self):
        G = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        C = stacked_supports(G.adjacency[None])[0][0]
        M = G.adjacency + np.eye(4)
        assert np.all(C[:, M == 0] == 0.0)

    def test_allpass_support(self):
        spec = SupportSpec()
        G = Graph.from_edges(3, [(0, 1), (1, 2)])
        C = stacked_supports(G.adjacency[None], spec)[0][0]
        assert np.allclose(C[-1], np.eye(3))

    @settings(max_examples=120, deadline=None)
    @given(st.integers(1, 9), st.integers(1, 4), st.integers(2, 6),
           st.sampled_from(["normalized-laplacian", "adjacency"]), st.floats(0.1, 20.0),
           st.integers(0, 2**32 - 1))
    def test_zero_off_the_mask_and_identity_last(self, n, B, S, basis, b, seed):
        # every designed support of a stack, edgeless and complete graphs
        # among them, is zero off its graph's A + I, and the last is I
        rng = np.random.default_rng(seed)
        A = np.stack([random_adjacency(rng, n, rng.choice([0.0, 0.5, 1.0])) for _ in range(B)])
        supports, centers = stacked_supports(A, SupportSpec(basis, b, S))
        assert supports.shape == (B, S, n, n) and centers.shape == (B, S - 1)
        off = (A + np.eye(n) == 0)[:, None]
        assert np.array_equal(np.where(off, supports, 0.0), np.zeros_like(supports))
        assert not np.signbit(supports[np.broadcast_to(off, supports.shape)]).any()
        assert np.array_equal(supports[:, -1], np.broadcast_to(np.eye(n), (B, n, n)))


class TestMaclaurin:
    def test_recurrence_matches_direct_series(self):
        # coefficients of exp(-b(f-lam)^2) as a series in lam
        b, f = 0.25, 0.3
        a = maclaurin_coefficients(b, f, 14)
        lam = 0.37
        direct = np.exp(-b * (f - lam) ** 2)
        series = sum(a[i] * lam**i for i in range(15))
        assert series == pytest.approx(direct, abs=1e-10)

    def test_residual_vanishes_small_bandwidth(self):
        # P2 spectrum {0, 2}; with b = 0.25 the order-20 truncation of the
        # Gaussian response is exact to 1e-6
        L = laplacian(P2)
        basis = eig_sym(L)
        dense = basis.reconstruct(frequency_response(basis.lam, 0.25, 0.0))
        assert maclaurin_residual(dense, L, 0.25, 0.0, 20) <= 1e-6

    def test_residual_decreases_with_order(self):
        L = laplacian(P2)
        basis = eig_sym(L)
        dense = basis.reconstruct(frequency_response(basis.lam, 0.5, 0.0))
        r = [maclaurin_residual(dense, L, 0.5, 0.0, k) for k in (5, 10, 20, 30)]
        assert r[0] > r[1] > r[2] > r[3]
        assert r[3] <= 1e-6

    @settings(max_examples=100, deadline=None)
    @given(st.floats(0.05, 0.3), st.floats(0.0, 1.0))
    def test_residual_small_for_small_b(self, b, f_s):
        L = laplacian(P2)
        basis = eig_sym(L)
        dense = basis.reconstruct(frequency_response(basis.lam, b, f_s))
        assert maclaurin_residual(dense, L, b, f_s, 20) <= 1e-5
