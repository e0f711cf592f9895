"""Spectral machinery: eigendecomposition and Gaussian convolution supports.

Supports are built by designing Gaussian frequency responses
Phi_s(lambda) = exp(-b (lambda - f_s)^2) over the eigenvalues of a basis
matrix (normalized Laplacian by default), reconstructing the dense matrix
U diag(Phi_s(lambda)) U^T, and masking it to the 1-hop receptive field
M = A + I. Of the S supports, S - 1 are Gaussian bands and the last is
the all-pass support (Phi = 1, the identity). The masked entries are
stored as sparse edge-feature rows.

`eig_sym` and `stacked_supports` work on a whole (B, n, n) stack of
equal-order graphs at once; a single graph is a stack of one.
`scatter_supports` is the inverse of the gather `stacked_supports` does:
it turns the rows back into dense supports.
`_eig_sym`, `_stacked_supports` and `_scatter_supports` are the same
functions under private names, for callers on worker threads: perfbench's
tracer replaces every public name with a span-recording wrapper that keeps
one call stack and so must only be entered from one thread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from matgraph.graphcore import laplacian


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


_eig_sym = eig_sym


def frequency_response(lam: np.ndarray, b: float, f_s: float) -> np.ndarray:
    """Gaussian band response Phi_s(lambda) = exp(-b (lambda - f_s)^2)."""
    if not (math.isfinite(b) and b > 0):
        raise ValueError("bandwidth b must be finite and > 0")
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
    S: int = 5  # S - 1 Gaussian bands plus the all-pass support

    def __post_init__(self):
        if self.basis_kind not in ("normalized-laplacian", "adjacency"):
            raise ValueError(f"unknown basis kind {self.basis_kind!r}")
        if self.S < 1:
            raise ValueError("S must be >= 1")
        if not (math.isfinite(self.b) and self.b > 0):
            raise ValueError("b must be finite and > 0")


def basis_matrix(A: np.ndarray, kind: str) -> np.ndarray:
    """The spectral basis of each adjacency in a (..., n, n) stack."""
    if kind == "normalized-laplacian":
        return laplacian(A)
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
    basis = _eig_sym(basis_matrix(A, spec.basis_kind))
    index = np.nonzero(A + np.eye(A.shape[-1]))
    centers = band_centers(basis.lam[:, :1], basis.lam[:, -1:], spec.S)
    columns = [
        basis.reconstruct(frequency_response(basis.lam, spec.b, centers[:, s:s + 1]))[index]
        for s in range(spec.S - 1)
    ]
    columns.append((index[1] == index[2]).astype(np.float64))
    return np.column_stack(columns), index, centers


_stacked_supports = stacked_supports


def scatter_supports(
    rows: np.ndarray, index: tuple[np.ndarray, np.ndarray, np.ndarray],
    shape: tuple[int, int],
) -> np.ndarray:
    """Dense (B, S, n, n) supports of a stack of B graphs of order n from
    their m x S mask rows and the rows' positions (b, r, c), as
    `stacked_supports` returns them; zeros off the mask. The inverse of
    its gather: `scatter_supports(rows, index, shape)[b, :, r, c]` is rows."""
    b, r, c = index
    out = np.zeros((shape[0], rows.shape[1], shape[1], shape[1]))
    out[b, :, r, c] = rows
    return out


_scatter_supports = scatter_supports


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
