"""Dual adaptation for the tempering sampler: Robbins-Monro tuning of the
MALA step sizes toward 30% acceptance, and Wang-Landau learning of the
temperature weights with stage-halving on flat occupancy.

The sampler calls one hook per iteration after its kernel steps. The hook
never sees a generator: it rewrites the ladder's weights and step sizes,
which only change how later iterations use their draws, not which numbers
they draw.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .covariance import GepPair
from .errors import DomainError
from .model import ChainState, PriorConfig, TemperingLadder
from .sampler import DEFAULT_SUBSET_SIZE, ChainTrace, run_chain

ACCEPTANCE_TARGET = 0.3
STEP_DECAY = 0.6
TAU_MIN = -20.0
TAU_MAX = 5.0
INITIAL_WL_INCREMENT = 10.0
DEFAULT_FLATNESS_TOL = 0.2


@dataclass
class AdaptState:
    """Mutable adaptation variables.

    tau holds log step sizes (eta_k = e^{tau_k}); log_c the temperature
    log weights; v the visit counts since the last stage reset.
    """

    tau: np.ndarray
    log_c: np.ndarray
    v: np.ndarray
    a_wl: float = INITIAL_WL_INCREMENT
    w: float = DEFAULT_FLATNESS_TOL
    n_resets: int = 0

    def __post_init__(self) -> None:
        self.tau = np.asarray(self.tau, dtype=float)
        self.log_c = np.asarray(self.log_c, dtype=float)
        self.v = np.asarray(self.v, dtype=np.int64)
        if not (self.tau.shape == self.log_c.shape == self.v.shape):
            raise DomainError("tau, log_c, v must share one length")
        if self.a_wl < 0:
            raise DomainError("a_wl must be nonnegative")
        if not 0.0 < self.w < 1.0:
            raise DomainError("flatness tolerance w must lie in (0, 1)")

    @property
    def K(self) -> int:
        return self.tau.size

    @classmethod
    def for_ladder(cls, ladder: TemperingLadder) -> "AdaptState":
        return cls(
            tau=np.log(ladder.step_sizes),
            log_c=ladder.log_weights.copy(),
            v=np.zeros(ladder.K, dtype=np.int64),
        )


def adapt_step_size(adapt: AdaptState, k: int, alpha: float) -> float:
    """Robbins-Monro move of tau_k toward the acceptance target.

    The decay weight uses the current visit count, floored at 1 so the
    exponent is finite even before temperature k has been visited.
    Returns the updated tau_k.
    """
    if not 0.0 <= alpha <= 1.0:
        raise DomainError("alpha must lie in [0, 1]")
    i = k - 1
    weight = float(max(adapt.v[i], 1)) ** (-STEP_DECAY)
    tau_k = adapt.tau[i] + weight * (alpha - ACCEPTANCE_TARGET)
    adapt.tau[i] = min(max(tau_k, TAU_MIN), TAU_MAX)
    return float(adapt.tau[i])


def wang_landau_update(adapt: AdaptState, k_visited: int) -> None:
    """Penalize the visited temperature and count the visit."""
    if not 1 <= k_visited <= adapt.K:
        raise DomainError(f"temperature index {k_visited} outside 1..{adapt.K}")
    adapt.log_c[k_visited - 1] += adapt.a_wl
    adapt.v[k_visited - 1] += 1


def flatness_check(adapt: AdaptState) -> bool:
    """Halve the increment and reset counts when occupancy is w-flat.

    Flat means the visit-fraction vector is within w/K of uniform in the
    max norm. No visits at all is a no-op.
    """
    total = int(adapt.v.sum())
    if total == 0:
        return False
    dev = np.max(np.abs(adapt.v / total - 1.0 / adapt.K))
    if dev <= adapt.w / adapt.K:
        adapt.a_wl /= 2.0
        adapt.v[:] = 0
        adapt.n_resets += 1
        return True
    return False


class AdaptiveHook:
    """Glue between run_chain and AdaptState.

    Iteration order: the sampler has already run its support, loading and
    temperature steps; the hook then applies the weight update at the
    temperature now occupied, the step-size update at the temperature the
    loading move was made under, and the flatness check. The live ladder is
    rewritten in place so the next iteration samples under the new tuning.
    """

    def __init__(self, adapt: AdaptState, ladder: TemperingLadder):
        self.adapt = adapt
        self.ladder = ladder

    def after_iteration(self, state: ChainState, k_mala: int, alpha: float) -> None:
        adapt = self.adapt
        wang_landau_update(adapt, state.k)
        adapt_step_size(adapt, k_mala, alpha)
        flatness_check(adapt)
        self.ladder.log_weights[:] = adapt.log_c
        self.ladder.step_sizes[:] = np.exp(adapt.tau)


def run_adaptive_chain(
    gep: GepPair,
    prior: PriorConfig,
    temperatures,
    n_iters: int,
    subset_size: int = DEFAULT_SUBSET_SIZE,
    seed=None,
) -> tuple[ChainTrace, AdaptState]:
    """Adaptive run: fresh ladder over `temperatures` with eta_k = 0.5 t_k / p,
    zero initial weights, then run_chain with the adaptation hook attached."""
    ladder = TemperingLadder.for_dimension(gep.p, temperatures)
    adapt = AdaptState.for_ladder(ladder)
    hook = AdaptiveHook(adapt, ladder)
    trace = run_chain(
        gep,
        prior,
        ladder,
        n_iters,
        subset_size=subset_size,
        seed=seed,
        adapt=hook,
    )
    return trace, adapt
