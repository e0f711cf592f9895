"""Spectral machinery: eigendecomposition and Gaussian convolution supports.

Supports are built by designing Gaussian frequency responses
Phi_s(lambda) = exp(-b (lambda - f_s)^2) over the eigenvalues of a basis
matrix (normalized Laplacian by default), reconstructing the dense matrix
U diag(Phi_s(lambda)) U^T, and masking it to the 1-hop receptive field
M = A + I. Of the S supports, S - 1 are Gaussian bands and the last is
the all-pass support (Phi = 1, the identity). The paper's Theorem 7 (a
support is a power series in the basis matrix) is checked by the tests,
which hold the Gaussian's Maclaurin coefficients.

`eig_sym` and `stacked_supports` work on a whole (B, n, n) stack of
equal-order graphs at once; a single graph is a stack of one. `eig_sym`
checks its input and returns numpy's eigenpairs `(lam, U)` as they are.
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


def eig_sym(B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric eigendecomposition `(lam, U)` of a matrix or a (..., n, n)
    stack, as `np.linalg.eigh` returns it: eigenvalues ascending, (..., n),
    and eigenvectors in the columns of U, (..., n, n).

    Rejects matrices that are not symmetric within 1e-12. Within
    degenerate eigenspaces the basis is arbitrary; all downstream uses
    (matrix functions U diag(phi(lam)) U^T) are basis-invariant.
    """
    B = np.asarray(B, dtype=np.float64)
    if B.ndim < 2 or B.shape[-1] != B.shape[-2]:
        raise ValueError(f"expected square matrices, got shape {B.shape}")
    if np.max(np.abs(B - B.mT), initial=0.0) > 1e-12:
        raise ValueError("matrix is not symmetric within 1e-12")
    return np.linalg.eigh(B)


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
    lam, U = _eig_sym(laplacian(A) if spec.basis_kind == "normalized-laplacian" else A)
    n = A.shape[-1]
    mask = A + np.eye(n) != 0
    centers = band_centers(lam[:, :1], lam[:, -1:], spec.S)
    supports = np.zeros((len(A), spec.S, n, n))
    for s in range(spec.S - 1):
        phi = frequency_response(lam, spec.b, centers[:, s:s + 1])
        np.copyto(supports[:, s], (U * phi[..., None, :]) @ U.mT, where=mask)
    supports[:, -1] = np.eye(n)
    return supports, centers


_stacked_supports = stacked_supports
