"""Spectral machinery: eigendecomposition and Gaussian convolution supports.

Supports are built by designing Gaussian frequency responses
Phi_s(lambda) = exp(-b (lambda - f_s)^2) over the eigenvalues of a basis
matrix (normalized Laplacian by default), reconstructing the dense matrix
U diag(Phi_s(lambda)) U^T, and masking it to the 1-hop receptive field
M = A + I. The masked entries are stored as sparse edge-feature vectors.

`eig_sym` and `stacked_supports` work on a whole (B, n, n) stack of
equal-order graphs at once; `build_supports` is their one-graph case.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from matgraph.graphcore import Graph, laplacian


@dataclass(frozen=True)
class SpectralBasis:
    U: np.ndarray  # (..., n, n), eigenvectors in columns
    lam: np.ndarray  # (..., n)

    def __post_init__(self):
        if np.any(np.diff(self.lam) < -1e-12):
            raise ValueError("eigenvalues must be nondecreasing")

    def reconstruct(self, response: np.ndarray) -> np.ndarray:
        """Dense matrices with the given per-eigenvalue response applied."""
        return (self.U * response[..., None, :]) @ self.U.mT


def eig_sym(B: np.ndarray) -> SpectralBasis:
    """Symmetric eigendecomposition of a matrix or a (..., n, n) stack,
    eigenvalues ascending.

    Rejects matrices that are not symmetric within 1e-12. Within
    degenerate eigenspaces the basis is arbitrary; all downstream uses
    (matrix functions) are basis-invariant.
    """
    B = np.asarray(B, dtype=np.float64)
    if B.ndim < 2 or B.shape[-1] != B.shape[-2]:
        raise ValueError(f"expected square matrices, got shape {B.shape}")
    if np.max(np.abs(B - B.mT), initial=0.0) > 1e-12:
        raise ValueError("matrix is not symmetric within 1e-12")
    lam, U = np.linalg.eigh(B)
    return SpectralBasis(U=U, lam=lam)


def frequency_response(lam: np.ndarray, b: float, f_s: float) -> np.ndarray:
    """Gaussian band response Phi_s(lambda) = exp(-b (lambda - f_s)^2)."""
    if b <= 0:
        raise ValueError("bandwidth b must be positive")
    lam = np.asarray(lam, dtype=np.float64)
    return np.exp(-b * (lam - f_s) ** 2)


def band_centers(lam_min: np.ndarray, lam_max: np.ndarray, S: int) -> np.ndarray:
    """Uniform band centers f_s = lam_min + (s-1)/(S-1) (lam_max - lam_min)
    of each spectrum, for (B, 1) arrays of extreme eigenvalues: (B, S-1).

    Indices run over s in {1, ..., S-1}, so the grid includes lam_min but
    stops one step short of lam_max; the all-pass support (constant
    response 1) accounts for the remaining slot. A degenerate spectrum
    (lam_min == lam_max) has the single center lam_min, repeated in
    every slot.
    """
    lam_min, lam_max = np.asarray(lam_min, np.float64), np.asarray(lam_max, np.float64)
    if np.any(lam_max < lam_min):
        raise ValueError("lam_max < lam_min")
    if S < 2 and np.any(lam_max > lam_min):
        raise ValueError("uniform band sampling requires S >= 2")
    grid = np.arange(S - 1) / (S - 1)
    return np.where(lam_max == lam_min, lam_min, lam_min + grid * (lam_max - lam_min))


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

    @classmethod
    def of_stack(cls, features, index, centers) -> "SupportSet":
        """The set of a one-graph `stacked_supports` result."""
        _, rows, cols = index
        return cls(
            mask_index=tuple(zip(rows.tolist(), cols.tolist())),
            features=features,
            centers=tuple(centers[0].tolist()),
        )

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


def basis_matrix(A: np.ndarray, kind: str) -> np.ndarray:
    """The spectral basis of each adjacency in a (..., n, n) stack."""
    if kind == "normalized-laplacian":
        return laplacian(A, kind="normalized")
    if kind == "adjacency":
        return A
    raise ValueError(f"unknown basis kind {kind!r}")


def stacked_supports(
    A: np.ndarray, spec: SupportSpec = SupportSpec()
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray], np.ndarray]:
    """Algorithm 1: design S masked convolution supports for each graph of
    a (B, n, n) adjacency stack.

    Each support is U diag(Phi_s(lambda)) U^T restricted to the 1-hop
    mask M = A + I. The all-pass support (response identically 1)
    reconstructs the identity, so its masked entries are 1 on the
    diagonal, 0 on edges. Returns `(features, (b, r, c), centers)`: row t
    of the m x S `features` holds every support's value at mask entry
    (graph b[t], row r[t], col c[t]), entries row-major per graph and
    graphs in stack order; `centers` holds each graph's `band_centers`,
    B x (number of bands), so that a degenerate spectrum (edgeless
    graphs, n = 1) repeats its single center and every graph has S
    supports.
    """
    basis = eig_sym(basis_matrix(A, spec.basis_kind))
    index = np.nonzero(A + np.eye(A.shape[-1]))
    bands = spec.S - 1 if spec.include_allpass else spec.S
    centers = band_centers(basis.lam[:, :1], basis.lam[:, -1:], bands + 1)
    columns = [
        basis.reconstruct(frequency_response(basis.lam, spec.b, centers[:, s:s + 1]))[index]
        for s in range(bands)
    ]
    if spec.include_allpass:
        columns.append((index[1] == index[2]).astype(np.float64))
    return np.column_stack(columns), index, centers


def build_supports(G: Graph, spec: SupportSpec = SupportSpec()) -> SupportSet:
    """Algorithm 1 for one graph: `stacked_supports` of a stack of one."""
    return SupportSet.of_stack(*stacked_supports(G.adjacency[None], spec))


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
