"""Spectral machinery: eigendecomposition and Gaussian convolution supports.

Supports are built by designing Gaussian frequency responses
Phi_s(lambda) = exp(-b (lambda - f_s)^2) over the eigenvalues of a basis
matrix (normalized Laplacian by default), reconstructing the dense matrix
U diag(Phi_s(lambda)) U^T, and masking it to the 1-hop receptive field
M = A + I. The masked entries are stored as sparse edge-feature vectors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from matgraph.graphcore import Graph, laplacian


@dataclass(frozen=True)
class SpectralBasis:
    U: np.ndarray
    lam: np.ndarray

    def __post_init__(self):
        if np.any(np.diff(self.lam) < -1e-12):
            raise ValueError("eigenvalues must be nondecreasing")

    def reconstruct(self, response: np.ndarray) -> np.ndarray:
        """Dense matrix with the given per-eigenvalue response applied."""
        return (self.U * response) @ self.U.T


def eig_sym(B: np.ndarray) -> SpectralBasis:
    """Symmetric eigendecomposition, eigenvalues ascending.

    Rejects matrices that are not symmetric within 1e-12. Within
    degenerate eigenspaces the basis is arbitrary; all downstream uses
    (matrix functions) are basis-invariant.
    """
    B = np.asarray(B, dtype=np.float64)
    if B.ndim != 2 or B.shape[0] != B.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {B.shape}")
    if np.max(np.abs(B - B.T), initial=0.0) > 1e-12:
        raise ValueError("matrix is not symmetric within 1e-12")
    lam, U = np.linalg.eigh(B)
    return SpectralBasis(U=U, lam=lam)


def frequency_response(lam: np.ndarray, b: float, f_s: float) -> np.ndarray:
    """Gaussian band response Phi_s(lambda) = exp(-b (lambda - f_s)^2)."""
    if b <= 0:
        raise ValueError("bandwidth b must be positive")
    lam = np.asarray(lam, dtype=np.float64)
    return np.exp(-b * (lam - f_s) ** 2)


def band_centers(
    lam_min: float, lam_max: float, S: int, include_allpass: bool = True
) -> list[float]:
    """Uniform band centers f_s = lam_min + (s-1)/(S-1) (lam_max - lam_min).

    Indices run over s in {1, ..., S-1}, so the grid includes lam_min but
    stops one step short of lam_max; the all-pass support (constant
    response 1) accounts for the remaining slot. A degenerate spectrum
    collapses to the single center lam_min.
    """
    if lam_max < lam_min:
        raise ValueError("lam_max < lam_min")
    if lam_max == lam_min:
        return [lam_min]
    if S < 2:
        raise ValueError("uniform band sampling requires S >= 2")
    return [lam_min + (s - 1) / (S - 1) * (lam_max - lam_min) for s in range(1, S)]


@dataclass(frozen=True)
class SupportSpec:
    basis_kind: str = "normalized-laplacian"
    b: float = 5.0
    S: int = 5
    include_allpass: bool = True

    def __post_init__(self):
        if self.basis_kind not in ("normalized-laplacian", "adjacency"):
            raise ValueError(f"unknown basis kind {self.basis_kind!r}")
        if self.S < 1:
            raise ValueError("S must be >= 1")
        if self.b <= 0:
            raise ValueError("b must be > 0")


@dataclass(frozen=True)
class SupportSet:
    mask_index: tuple[tuple[int, int], ...]
    features: np.ndarray  # m x S, column s = sparse2vec of support s
    centers: tuple[float, ...] = field(default=())

    @property
    def m(self) -> int:
        return len(self.mask_index)

    @property
    def num_supports(self) -> int:
        return self.features.shape[1]

    def dense(self, n: int) -> np.ndarray:
        """Stack of S dense n x n supports recovered from the vectors."""
        out = np.zeros((self.num_supports, n, n))
        rows = [i for i, _ in self.mask_index]
        cols = [j for _, j in self.mask_index]
        for s in range(self.num_supports):
            out[s, rows, cols] = self.features[:, s]
        return out


def mask_positions(M: np.ndarray) -> tuple[tuple[int, int], ...]:
    """Row-major sorted (row, col) positions of the nonzero mask entries."""
    rows, cols = np.nonzero(M)
    return tuple(zip(rows.tolist(), cols.tolist()))


def sparse2vec(M: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Entries of X at the mask's nonzero positions, row-major."""
    if M.shape != X.shape:
        raise ValueError(f"mask shape {M.shape} != matrix shape {X.shape}")
    return X[np.nonzero(M)]


def vec2sparse(v: np.ndarray, M: np.ndarray) -> np.ndarray:
    """Scatter v back to the mask's nonzero positions; zeros elsewhere."""
    rows, cols = np.nonzero(M)
    if len(v) != len(rows):
        raise ValueError(f"vector length {len(v)} != mask size {len(rows)}")
    X = np.zeros_like(M, dtype=np.float64)
    X[rows, cols] = v
    return X


def basis_matrix(G: Graph, kind: str) -> np.ndarray:
    if kind == "normalized-laplacian":
        return laplacian(G, kind="normalized")
    if kind == "adjacency":
        return G.adjacency
    raise ValueError(f"unknown basis kind {kind!r}")


def build_supports(G: Graph, spec: SupportSpec = SupportSpec()) -> SupportSet:
    """Algorithm 1: design S masked convolution supports for one graph.

    Each support is U diag(Phi_s(lambda)) U^T restricted to the 1-hop
    mask M = A + I. The all-pass support (response identically 1)
    reconstructs the identity, so its masked entries are 1 on the
    diagonal, 0 on edges. A degenerate spectrum (edgeless graphs, n = 1)
    has the single center lam_min, which is repeated so that the set
    always holds S supports.
    """
    basis = eig_sym(basis_matrix(G, spec.basis_kind))
    M = G.adjacency + np.eye(G.n)
    positions = mask_positions(M)
    bands = spec.S - 1 if spec.include_allpass else spec.S
    centers = band_centers(float(basis.lam[0]), float(basis.lam[-1]), bands + 1)
    if len(centers) == 1:
        centers *= bands
    columns = []
    for f_s in centers:
        C = basis.reconstruct(frequency_response(basis.lam, spec.b, f_s))
        columns.append(sparse2vec(M, C))
    if spec.include_allpass:
        columns.append(sparse2vec(M, np.eye(G.n)))
    features = np.column_stack(columns)
    return SupportSet(mask_index=positions, features=features, centers=tuple(centers))


def maclaurin_coefficients(b: float, f_s: float, order: int) -> np.ndarray:
    """Maclaurin coefficients a_i of Phi(x) = exp(-b (x - f_s)^2).

    Phi' = -2b (x - f_s) Phi gives the series recurrence
    (i + 1) a_{i+1} = 2 b f_s a_i - 2 b a_{i-1}, with a_0 = exp(-b f_s^2).
    """
    a = np.zeros(order + 1)
    a[0] = np.exp(-b * f_s**2)
    if order >= 1:
        a[1] = 2 * b * f_s * a[0]
    for i in range(1, order):
        a[i + 1] = (2 * b * f_s * a[i] - 2 * b * a[i - 1]) / (i + 1)
    return a


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
