"""Covariance estimation and assembly of the generalized eigenproblem pair.

Two estimator families are supported: plain sample covariances, and a
rank-based route (Kendall tau-a plus the sine bridge) for latent Gaussian
copula data. Either way the output is a GepPair (A, B) whose Rayleigh
quotient the sampler works with.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import (
    DimensionMismatchError,
    DomainError,
    EmptyInputError,
    InsufficientDataError,
)

DEFAULT_PSD_FLOOR = 1e-8

# pair-chunk size for the O(n^2) Kendall enumeration; bounds peak memory at
# 4 * d bytes per pair, and keeps each chunk's float32 sign sums exact (< 2**24)
_KENDALL_CHUNK = 1 << 13


@dataclass
class Dataset:
    """Two-view data matrix pair, rows = samples."""

    X: np.ndarray
    Y: np.ndarray

    def __post_init__(self) -> None:
        self.X = np.asarray(self.X, dtype=float)
        self.Y = np.asarray(self.Y, dtype=float)
        if self.X.ndim != 2 or self.Y.ndim != 2:
            raise DimensionMismatchError("X and Y must be 2-d matrices")
        if self.X.shape[0] != self.Y.shape[0]:
            raise DimensionMismatchError(
                f"row counts differ: X has {self.X.shape[0]}, Y has {self.Y.shape[0]}"
            )
        if self.X.shape[0] < 2:
            raise InsufficientDataError("need at least 2 samples")
        if not (np.isfinite(self.X).all() and np.isfinite(self.Y).all()):
            raise DomainError("data contains non-finite entries")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p_x(self) -> int:
        return self.X.shape[1]

    @property
    def p_y(self) -> int:
        return self.Y.shape[1]

    def combined(self) -> np.ndarray:
        return np.hstack([self.X, self.Y])


@dataclass
class GepPair:
    """The matrix pair (A, B) defining the sample Rayleigh quotient.

    A has zero diagonal blocks and off-diagonal blocks Sxy, Sxy';
    B is block-diagonal with blocks Sx, Sy. n is the sample count behind
    the estimates (needed by the quasi-posterior scale); population-only
    pairs may leave it None.
    """

    A: np.ndarray
    B: np.ndarray
    p_x: int
    p_y: int
    n: int | None = None

    p: int = field(init=False)

    def __post_init__(self) -> None:
        self.p = self.p_x + self.p_y
        if self.A.shape != (self.p, self.p) or self.B.shape != (self.p, self.p):
            raise DimensionMismatchError("A and B must be p x p with p = p_x + p_y")
        if np.diag(self.A).any():
            raise DomainError("A must have a zero diagonal")


def sample_covariance(data: np.ndarray) -> np.ndarray:
    """Column-centered second-moment matrix with divisor n.

    Centering happens here; upstream code hands in raw observations.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim != 2:
        raise DimensionMismatchError("expected an n x d matrix")
    n = data.shape[0]
    if n == 0:
        raise EmptyInputError("empty data matrix")
    centered = data - data.mean(axis=0)
    cov = centered.T @ centered / n
    # enforce exact symmetry; BLAS rounding can differ across the diagonal
    return (cov + cov.T) / 2.0


def kendall_tau_matrix(data: np.ndarray) -> np.ndarray:
    """Pairwise Kendall tau-a matrix, ties contributing zero.

    Exact pair enumeration: tau(j,j') = (concordant - discordant) / C(n,2),
    computed as an inner product of pairwise difference signs. O(n^2 d) work,
    chunked over sample pairs to bound memory. The signs come from dense
    column ranks held in float32, so ties (and +-0.0) stay ties and every
    chunk's sums are exact integers.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim != 2:
        raise DimensionMismatchError("expected an n x d matrix")
    n, d = data.shape
    if n < 2:
        raise InsufficientDataError("Kendall tau needs at least 2 samples")
    if not np.isfinite(data).all():
        raise DomainError("data contains non-finite entries")
    order = np.argsort(data, axis=0)
    ordered = np.take_along_axis(data, order, axis=0)
    dense = np.zeros((n, d), dtype=np.float32)
    np.cumsum(ordered[1:] != ordered[:-1], axis=0, dtype=np.float32, out=dense[1:])
    ranks = np.empty_like(dense)
    np.put_along_axis(ranks, order, dense, axis=0)
    rows, cols = np.triu_indices(n, k=1)
    n_pairs = rows.size
    acc = np.zeros((d, d))
    for start in range(0, n_pairs, _KENDALL_CHUNK):
        sl = slice(start, min(start + _KENDALL_CHUNK, n_pairs))
        signs = np.sign(ranks[rows[sl]] - ranks[cols[sl]])
        acc += signs.T @ signs
    tau = acc / n_pairs
    np.fill_diagonal(tau, 1.0)
    return (tau + tau.T) / 2.0


def sine_bridge(tau):
    """Map Kendall tau to a Pearson correlation for continuous Gaussian-copula margins.

    Accepts scalars or arrays; entries must lie in [-1, 1].
    """
    arr = np.asarray(tau, dtype=float)
    if np.any(np.abs(arr) > 1.0):
        raise DomainError("Kendall tau outside [-1, 1]")
    out = np.sin(np.pi * arr / 2.0)
    if np.isscalar(tau) or arr.ndim == 0:
        return float(out)
    return out


def psd_repair(M: np.ndarray) -> np.ndarray:
    """Clip the spectrum of a symmetric matrix at DEFAULT_PSD_FLOOR from below.

    Leaves the input untouched when its minimum eigenvalue already clears the
    floor, so the sample-covariance route is never perturbed.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionMismatchError("expected a square matrix")
    if not np.allclose(M, M.T, atol=1e-8):
        raise DomainError("matrix is not symmetric")
    sym = (M + M.T) / 2.0
    eigvals, eigvecs = scipy.linalg.eigh(sym)
    if eigvals[0] >= DEFAULT_PSD_FLOOR:
        return M.copy()
    clipped = np.maximum(eigvals, DEFAULT_PSD_FLOOR)
    out = (eigvecs * clipped) @ eigvecs.T
    return (out + out.T) / 2.0


def assemble_gep(
    Sx: np.ndarray,
    Sy: np.ndarray,
    Sxy: np.ndarray,
    n: int | None = None,
    rank_based: bool = False,
) -> GepPair:
    """Place (Sx, Sy, Sxy) into the (A, B) pair.

    rank_based=True sends Sx and Sy through psd_repair; rank-based
    correlation estimates can be indefinite and the quotient denominator must
    stay positive. The spectrum of the block-diagonal B is the union of its
    blocks' spectra, so repairing the blocks repairs B. Sample-covariance B is
    left untouched.
    """
    Sx = np.asarray(Sx, dtype=float)
    Sy = np.asarray(Sy, dtype=float)
    Sxy = np.asarray(Sxy, dtype=float)
    if Sx.ndim != 2 or Sx.shape[0] != Sx.shape[1]:
        raise DimensionMismatchError("Sx must be square")
    if Sy.ndim != 2 or Sy.shape[0] != Sy.shape[1]:
        raise DimensionMismatchError("Sy must be square")
    p_x, p_y = Sx.shape[0], Sy.shape[0]
    if Sxy.shape != (p_x, p_y):
        raise DimensionMismatchError(
            f"Sxy must be {p_x} x {p_y}, got {Sxy.shape}"
        )
    if rank_based:
        Sx, Sy = psd_repair(Sx), psd_repair(Sy)
    p = p_x + p_y
    A = np.zeros((p, p))
    A[:p_x, p_x:] = Sxy
    A[p_x:, :p_x] = Sxy.T
    B = np.zeros((p, p))
    B[:p_x, :p_x] = Sx
    B[p_x:, p_x:] = Sy
    return GepPair(A=A, B=B, p_x=p_x, p_y=p_y, n=n)


def estimate_gep(dataset: Dataset, method: str = "sample") -> GepPair:
    """Estimate (Sx, Sy, Sxy) from data and assemble the pair.

    method: "sample" for plain sample covariances, "kendall-sine" for the
    rank-based route through the entrywise sine bridge.
    """
    if method == "sample":
        S = sample_covariance(dataset.combined())
        rank_based = False
    elif method == "kendall-sine":
        S = sine_bridge(kendall_tau_matrix(dataset.combined()))
        rank_based = True
    else:
        raise DomainError(f"unknown estimator {method!r}; use 'sample' or 'kendall-sine'")
    px = dataset.p_x
    return assemble_gep(
        S[:px, :px],
        S[px:, px:],
        S[:px, px:],
        n=dataset.n,
        rank_based=rank_based,
    )
