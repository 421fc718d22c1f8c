"""Model layer: spike-and-slab prior, Rayleigh-quotient quasi-posterior,
its tempered extension, and the MALA gradient.

Everything is handled in log scale. The exponents scale like n / t_k and
would overflow any direct density evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .covariance import GepPair
from .errors import DimensionMismatchError, DomainError, UndefinedQuotientError

DEFAULT_RHO0 = 10.0
DEFAULT_RHO1 = 0.5
DEFAULT_SIGMA = 1.0
DEFAULT_TEMPERATURES = (1.0, 1.0 / 0.9, 1.0 / 0.8, 1.0 / 0.7, 1.0 / 0.6)


@dataclass(frozen=True)
class PriorConfig:
    """Hyper-parameters of the quasi-posterior.

    rho0 is the spike precision, rho1 the slab precision, q the prior
    inclusion probability, sigma the quasi-likelihood scale. a = log(q/(1-q))
    is derived.
    """

    rho0: float = DEFAULT_RHO0
    rho1: float = DEFAULT_RHO1
    q: float = 0.5
    sigma: float = DEFAULT_SIGMA
    a: float = field(init=False)

    def __post_init__(self) -> None:
        if not self.rho0 >= self.rho1 > 0:
            raise DomainError("need rho0 >= rho1 > 0")
        if not 0.0 < self.q < 1.0:
            raise DomainError("q must lie in (0, 1)")
        if not self.sigma > 0:
            raise DomainError("sigma must be positive")
        object.__setattr__(self, "a", float(np.log(self.q / (1.0 - self.q))))

    @classmethod
    def defaults(cls, p: int) -> "PriorConfig":
        """Standard hyper-parameters at dimension p: q = p^-1.5."""
        if p < 2:
            raise DomainError("p must be at least 2")
        return cls(q=float(p) ** -1.5)


@dataclass
class TemperingLadder:
    """Temperatures t_1 < ... < t_K with per-temperature log weights and
    MALA step sizes. t_1 = 1 is the cold level whose samples are kept."""

    temperatures: np.ndarray
    log_weights: np.ndarray
    step_sizes: np.ndarray

    def __post_init__(self) -> None:
        self.temperatures = np.asarray(self.temperatures, dtype=float)
        if self.temperatures.ndim != 1 or self.temperatures.size == 0:
            raise DomainError("temperatures must be a nonempty 1-d vector")
        if self.temperatures[0] != 1.0:
            raise DomainError("the first temperature must be exactly 1")
        if np.any(np.diff(self.temperatures) <= 0):
            raise DomainError("temperatures must be strictly increasing")
        K = self.temperatures.size
        self.log_weights = np.asarray(self.log_weights, dtype=float)
        self.step_sizes = np.asarray(self.step_sizes, dtype=float)
        if self.log_weights.shape != (K,) or self.step_sizes.shape != (K,):
            raise DimensionMismatchError("ladder vectors must share one length")
        if np.any(self.step_sizes <= 0):
            raise DomainError("step sizes must be positive")

    @property
    def K(self) -> int:
        return self.temperatures.size

    @classmethod
    def for_dimension(
        cls, p: int, temperatures=DEFAULT_TEMPERATURES
    ) -> "TemperingLadder":
        """Default ladder with dimension-scaled initial steps eta_k = 0.5 t_k / p."""
        temps = np.asarray(temperatures, dtype=float)
        return cls(
            temperatures=temps,
            log_weights=np.zeros(temps.size),
            step_sizes=0.5 * temps / float(p),
        )

    def copy(self) -> "TemperingLadder":
        return TemperingLadder(
            temperatures=self.temperatures.copy(),
            log_weights=self.log_weights.copy(),
            step_sizes=self.step_sizes.copy(),
        )


@dataclass
class ChainState:
    """One point (delta, theta, k) of the extended sampling space.

    k is the 1-based temperature index. Kernel steps never leave delta empty.
    """

    delta: np.ndarray
    theta: np.ndarray
    k: int = 1

    def __post_init__(self) -> None:
        self.delta = np.asarray(self.delta, dtype=np.uint8)
        self.theta = np.asarray(self.theta, dtype=float)
        if self.delta.shape != self.theta.shape or self.delta.ndim != 1:
            raise DimensionMismatchError("delta and theta must be 1-d and equal length")

    @property
    def p(self) -> int:
        return self.delta.size

    @property
    def n_active(self) -> int:
        return int(self.delta.sum())

    def copy(self) -> "ChainState":
        return ChainState(delta=self.delta.copy(), theta=self.theta.copy(), k=self.k)


def rayleigh(theta: np.ndarray, gep: GepPair) -> float:
    """(theta' A theta) / (theta' B theta); scale-invariant in theta."""
    theta = np.asarray(theta, dtype=float)
    qb = float(theta @ gep.B @ theta)
    if qb <= 0.0:
        raise UndefinedQuotientError("theta' B theta <= 0")
    qa = float(theta @ gep.A @ theta)
    return qa / qb


def rayleigh_selected(state: ChainState, gep: GepPair) -> float:
    """Quotient of the masked vector theta * delta; -inf on the empty model."""
    if state.n_active == 0:
        return -np.inf
    masked = state.theta * state.delta
    return rayleigh(masked, gep)


def quasi_scale(gep: GepPair, prior: PriorConfig) -> float:
    """Quasi-likelihood scale 2n / sigma^2 on the Rayleigh quotient."""
    if gep.n is None:
        raise DomainError("GepPair has no sample count n; quasi-posterior needs it")
    return 2.0 * gep.n / prior.sigma**2


def log_quasi_posterior(
    state: ChainState, gep: GepPair, prior: PriorConfig, r_sel: float
) -> float:
    """Unnormalized log density at temperature 1:
    a |delta|_0 - (rho1/2)|theta_sel|^2 - (rho0/2)|theta - theta_sel|^2
    + (2n/sigma^2) R(theta_sel).

    r_sel is the selected quotient R(theta_sel), which the sampler holds from
    its loading move; rayleigh_selected evaluates it at O(p^2) cost.
    """
    scale = quasi_scale(gep, prior)
    mask = state.delta.astype(bool)
    theta_sel = state.theta[mask]
    theta_unsel = state.theta[~mask]
    return (
        prior.a * float(mask.sum())
        - 0.5 * prior.rho1 * float(theta_sel @ theta_sel)
        - 0.5 * prior.rho0 * float(theta_unsel @ theta_unsel)
        + scale * r_sel
    )


def log_tempered(
    state: ChainState, gep: GepPair, prior: PriorConfig, ladder: TemperingLadder
) -> float:
    """Extended log density: -log c_k + log_quasi_posterior / t_k, with the
    quotient evaluated from scratch; the reference the kernels are tested on.

    Only the exponent is tempered; the weight c_k is not.
    """
    k = state.k
    if not 1 <= k <= ladder.K:
        raise IndexError(f"temperature index {k} outside 1..{ladder.K}")
    t_k = float(ladder.temperatures[k - 1])
    log_post = log_quasi_posterior(state, gep, prior, rayleigh_selected(state, gep))
    return float(-ladder.log_weights[k - 1] + log_post / t_k)


def selected_target(
    u: np.ndarray,
    A_ss: np.ndarray,
    B_ss: np.ndarray,
    prior: PriorConfig,
    scale: float,
    t_k: float,
):
    """Selected-block log target at temperature t_k, its quotient and its
    gradient: (log_w, r, grad).

    Target: (-(rho1/2) |u|^2 + scale R(u)) / t_k on the sub-blocks A_ss, B_ss.
    Quotient rule: grad R(u) = 2 (A u - R(u) B u) / (u' B u). Raises
    UndefinedQuotientError when u' B u <= 0.
    """
    Bu = B_ss @ u
    qb = float(u @ Bu)
    if not qb > 0.0:
        raise UndefinedQuotientError("selected block has theta' B theta <= 0")
    Au = A_ss @ u
    r = float(u @ Au) / qb
    log_w = (-0.5 * prior.rho1 * float(u @ u) + scale * r) / t_k
    grad_r = 2.0 * (Au - r * Bu) / qb
    return log_w, r, (-prior.rho1 * u + scale * grad_r) / t_k


class QuadraticCache:
    """Cached quadratic forms of the masked vector, with O(p) single-flip updates.

    Tracks qa = v'Av, qb = v'Bv for v = theta * delta, plus the full products
    a_dot = A v and b_dot = B v. Flipping one coordinate is a rank-one
    correction. The sampler builds a fresh cache every iteration, so drift
    accumulates over one sweep of at most the subset size in flips.
    """

    def __init__(self, gep: GepPair, state: ChainState):
        self._gep = gep
        self._A_diag = np.ascontiguousarray(np.diag(gep.A))
        self._B_diag = np.ascontiguousarray(np.diag(gep.B))
        sel = np.flatnonzero(state.delta)
        theta_sel = state.theta[sel]
        self.a_dot = gep.A[:, sel] @ theta_sel
        self.b_dot = gep.B[:, sel] @ theta_sel
        self.qa = float(theta_sel @ self.a_dot[sel])
        self.qb = float(theta_sel @ self.b_dot[sel])
        self.n_active = sel.size

    def branch_forms(self, j: int, theta_j: float, selected: bool):
        """Quadratic forms with coordinate j forced off and on:
        (qa_off, qb_off, qa_on, qb_on)."""
        aj = float(self.a_dot[j])
        bj = float(self.b_dot[j])
        ta = theta_j * theta_j * float(self._A_diag[j])
        tb = theta_j * theta_j * float(self._B_diag[j])
        if selected:
            qa_on, qb_on = self.qa, self.qb
            qa_off = self.qa - 2.0 * theta_j * aj + ta
            qb_off = self.qb - 2.0 * theta_j * bj + tb
        else:
            qa_off, qb_off = self.qa, self.qb
            qa_on = self.qa + 2.0 * theta_j * aj + ta
            qb_on = self.qb + 2.0 * theta_j * bj + tb
        return qa_off, qb_off, qa_on, qb_on

    def branch_rayleigh(self, j: int, theta_j: float, selected: bool):
        """Quotients with coordinate j off and on, honoring the empty-model
        convention: the off branch of a single active coordinate is -inf."""
        qa_off, qb_off, qa_on, qb_on = self.branch_forms(j, theta_j, selected)
        off_empty = selected and self.n_active == 1
        if off_empty or qb_off <= 0.0:
            r_off = -np.inf
        else:
            r_off = qa_off / qb_off
        if qb_on <= 0.0:
            r_on = -np.inf
        else:
            r_on = qa_on / qb_on
        if r_off == -np.inf and r_on == -np.inf:
            raise UndefinedQuotientError(
                f"both flip branches of coordinate {j} have undefined quotients"
            )
        return r_off, r_on

    def commit_flip(self, j: int, theta_j: float, now_selected: bool) -> None:
        """Apply the rank-one update after state.delta[j] changed."""
        qa_off, qb_off, qa_on, qb_on = self.branch_forms(j, theta_j, not now_selected)
        if now_selected:
            self.qa, self.qb = qa_on, qb_on
            self.a_dot += theta_j * self._gep.A[j]
            self.b_dot += theta_j * self._gep.B[j]
            self.n_active += 1
        else:
            self.qa, self.qb = qa_off, qb_off
            self.a_dot -= theta_j * self._gep.A[j]
            self.b_dot -= theta_j * self._gep.B[j]
            self.n_active -= 1
