"""Simulated-data generators: the Gaussian population model and its truncated
Gaussian copula variant.

The population covariance has two identical views built from five AR-like
blocks, a rank-one cross block with top generalized eigenvalue lambda1, and a
sparse principal pair supported on coordinates {1, 6, 11} of each view
(1-based, clipped for tiny views).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .covariance import Dataset
from .errors import DomainError, NotPositiveDefiniteError

BLOCK_CORR = 0.8
SUPPORT_1BASED = (1, 6, 11)
DEFAULT_LAMBDA1 = 0.9


@dataclass
class PopulationModel:
    """Ground-truth covariance and principal pair for simulation studies.
    The Cholesky factor of Sigma is computed once, at construction."""

    Sigma: np.ndarray
    v_x_star: np.ndarray
    v_y_star: np.ndarray
    lambda1: float
    chol: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        try:
            self.chol = np.linalg.cholesky(self.Sigma)
        except np.linalg.LinAlgError as exc:
            raise NotPositiveDefiniteError("population covariance is not PD") from exc

    @property
    def p(self) -> int:
        return self.Sigma.shape[0]

    @property
    def p_x(self) -> int:
        return self.v_x_star.size

    @property
    def p_y(self) -> int:
        return self.v_y_star.size


def _banded_block(size: int) -> np.ndarray:
    idx = np.arange(size)
    return BLOCK_CORR ** np.abs(idx[:, None] - idx[None, :])


def build_population_cov(p: int, lambda1: float = DEFAULT_LAMBDA1) -> PopulationModel:
    """Construct the simulation covariance at total dimension p.

    Each view is p/2-dimensional: five diagonal blocks of size p/10 with
    entries 0.8^|j-j'|. The cross block is rank one, scaled so the top
    generalized eigenvalue of the induced (A, B) is exactly lambda1.
    """
    if p % 10 != 0 or p <= 0:
        raise DomainError(f"p must be a positive multiple of 10, got {p}")
    if not 0.0 < lambda1 < 1.0:
        raise DomainError("lambda1 must lie in (0, 1)")
    m = p // 2
    block = _banded_block(p // 10)
    Sx = np.kron(np.eye(5), block)

    v = np.zeros(m)
    support = [j - 1 for j in SUPPORT_1BASED if j <= m]
    if not support:
        raise DomainError(f"p = {p} leaves no room for the planted support")
    v[support] = 1.0 / np.sqrt(3.0)

    # both views share Sx and v, so the per-view scalings in the cross block
    # coincide and the top eigenvector is exactly (v, v)
    scale = float(v @ Sx @ v)
    Sxy = lambda1 * np.outer(Sx @ v, Sx @ v) / scale

    Sigma = np.zeros((p, p))
    Sigma[:m, :m] = Sx
    Sigma[m:, m:] = Sx
    Sigma[:m, m:] = Sxy
    Sigma[m:, :m] = Sxy.T
    return PopulationModel(Sigma=Sigma, v_x_star=v.copy(), v_y_star=v.copy(), lambda1=lambda1)


def sample_gaussian_pairs(model: PopulationModel, n: int, seed) -> Dataset:
    """Draw n i.i.d. pairs from Normal(0, Sigma), deterministically in seed."""
    rng = np.random.default_rng(seed)
    draws = rng.standard_normal((n, model.p)) @ model.chol.T
    m = model.p_x
    return Dataset(X=draws[:, :m], Y=draws[:, m:])


@dataclass
class TruncationSpec:
    """Observation scheme for the truncated copula generator: C holds
    per-coordinate truncation thresholds for the second view (a scalar
    broadcasts). Both views are observed on the latent scale; the rank-based
    estimator is invariant to any monotone transform of it."""

    C: np.ndarray

    def __post_init__(self) -> None:
        self.C = np.asarray(self.C, dtype=float)


def truncate_copula(latent: Dataset, spec: TruncationSpec) -> Dataset:
    """Observe the latent pairs: zero the second view at or below its
    threshold.

    Idempotent: zeros stay zeros and surviving entries already exceed C.
    """
    C = np.broadcast_to(spec.C, (latent.p_y,))
    return Dataset(X=latent.X.copy(), Y=np.where(latent.Y > C, latent.Y, 0.0))
