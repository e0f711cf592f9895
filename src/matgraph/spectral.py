"""Spectral machinery: eigendecomposition and Gaussian convolution supports.

Supports are built by designing Gaussian frequency responses
Phi_s(lambda) = exp(-b (lambda - f_s)^2) over the eigenvalues of a basis
matrix (normalized Laplacian by default), reconstructing the dense matrix
U diag(Phi_s(lambda)) U^T, and masking it to the 1-hop receptive field
M = A + I. Of the S supports, S - 1 are Gaussian bands and the last is
the all-pass support (Phi = 1, the identity).

`eig_sym` and `stacked_supports` work on a whole (B, n, n) stack of
equal-order graphs at once; a single graph is a stack of one.
`_eig_sym` and `_stacked_supports` are the same functions under private
names, for callers on worker threads: perfbench's tracer replaces every
public name with a span-recording wrapper that keeps one call stack and
so must only be entered from one thread.
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
        if self.S < 2:  # band_centers needs two slots for a non-degenerate spectrum
            raise ValueError("S must be >= 2")
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
) -> tuple[np.ndarray, np.ndarray]:
    """Algorithm 1: design S masked convolution supports for each graph of
    a (B, n, n) adjacency stack.

    Each support is U diag(Phi_s(lambda)) U^T restricted to the 1-hop
    mask M = A + I, zeros off it. The all-pass support (response
    identically 1) is the identity, stored as such. Returns
    `(supports, centers)`: the (B, S, n, n) supports, and each graph's
    `band_centers`, B x (number of bands), so that a degenerate spectrum
    (edgeless graphs, n = 1) repeats its single center and every graph
    has S supports.
    """
    basis = _eig_sym(basis_matrix(A, spec.basis_kind))
    n = A.shape[-1]
    mask = A + np.eye(n) != 0
    centers = band_centers(basis.lam[:, :1], basis.lam[:, -1:], spec.S)
    supports = np.zeros((len(A), spec.S, n, n))
    for s in range(spec.S - 1):
        band = basis.reconstruct(frequency_response(basis.lam, spec.b, centers[:, s:s + 1]))
        np.copyto(supports[:, s], band, where=mask)
    supports[:, -1] = np.eye(n)
    return supports, centers


_stacked_supports = stacked_supports


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
