"""Simulated-tempering sampler: coordinate-flip Gibbs for the support,
block MALA for the loadings, reflected random-walk temperature moves.

Hot loops run on python scalars against the QuadraticCache; full-matrix
work is confined to the selected block and one O(p) commit per flip.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .covariance import GepPair
from .errors import DomainError, UndefinedQuotientError
from .model import (
    ChainState,
    PriorConfig,
    QuadraticCache,
    TemperingLadder,
    log_quasi_posterior,
    quasi_scale,
    rayleigh_selected,
    selected_target,
)

DEFAULT_SUBSET_SIZE = 100


def _sigmoid(x: float) -> float:
    # evaluate exp only on the negative-magnitude side; never overflows
    if x >= 0.0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def draw_subset(p: int, size: int, rng) -> np.ndarray:
    """Uniform without-replacement subset via partial Fisher-Yates. One
    bounded-integer call draws the offsets: the same values, and the same
    generator state after, as one scalar `rng.integers(p - i)` per position."""
    if size < 0:
        raise DomainError("subset size must be nonnegative")
    size = min(size, p)
    idx = list(range(p))
    for i, r in enumerate(rng.integers(0, p - np.arange(size)).tolist()):
        j = i + r
        idx[i], idx[j] = idx[j], idx[i]
    return np.array(idx[:size], dtype=np.int64)


def _flip_log_odds(
    cache: QuadraticCache,
    j: int,
    theta_j: float,
    selected: bool,
    prior: PriorConfig,
    quot_coef: float,
    t_k: float,
) -> float:
    """Log odds of delta_j = 1 against 0, everything else held fixed."""
    r_off, r_on = cache.branch_rayleigh(j, theta_j, selected)
    if r_on == -np.inf:
        return -np.inf
    if r_off == -np.inf:
        return np.inf
    base = prior.a + 0.5 * (prior.rho0 - prior.rho1) * theta_j * theta_j
    return (base + quot_coef * (r_on - r_off)) / t_k


def gibbs_update_delta(
    state: ChainState,
    gep: GepPair,
    prior: PriorConfig,
    ladder: TemperingLadder,
    subset: np.ndarray,
    uniforms: np.ndarray,
    cache: QuadraticCache,
) -> None:
    """One sweep of single-coordinate flips over `subset`, in place, with
    `cache` built at the state: j = subset[i] is on afterwards exactly when
    uniforms[i] < q_j, its success probability, for uniforms in [0, 1]. A
    forced coordinate, whose off branch has no quotient (the last active
    one), stays on even at 1.0. Coupled chains share the uniforms."""
    quot_coef = quasi_scale(gep, prior)
    t_k = float(ladder.temperatures[state.k - 1])
    delta = state.delta
    theta = state.theta
    for i, j in enumerate(subset):
        j = int(j)
        theta_j = float(theta[j])
        selected = delta[j] == 1
        ell = _flip_log_odds(cache, j, theta_j, selected, prior, quot_coef, t_k)
        now = ell == math.inf or float(uniforms[i]) < _sigmoid(ell)
        if now != selected:
            delta[j] = 1 if now else 0
            cache.commit_flip(j, theta_j, now)


def _selected_block(state: ChainState, gep: GepPair, prior: PriorConfig, ladder: TemperingLadder):
    """The loading move's selected block at the state's rung, before any
    write: (sel, u, block, t_k, eta, lw_u, r_u, mu). block holds the trailing
    arguments of selected_target, and mu = u + eta * grad is the MALA drift."""
    quot_coef = quasi_scale(gep, prior)
    t_k = float(ladder.temperatures[state.k - 1])
    eta = float(ladder.step_sizes[state.k - 1])
    sel = np.flatnonzero(state.delta)
    u = state.theta[sel].copy()
    block = (gep.A[np.ix_(sel, sel)], gep.B[np.ix_(sel, sel)], prior, quot_coef, t_k)
    lw_u, r_u, g_u = selected_target(u, *block)
    return sel, u, block, t_k, eta, lw_u, r_u, u + eta * g_u


def _mala_accept(
    u: np.ndarray,
    prop: np.ndarray,
    forward_half_sq: float,
    lw_u: float,
    r_u: float,
    block: tuple,
    eta: float,
    accept_u: float,
):
    """Metropolis correction for a precomputed proposal.

    block holds the trailing arguments of selected_target (A_ss, B_ss, prior,
    scale, t_k). forward_half_sq is -log of the forward proposal density up
    to its normalizing constant. Returns (u_new, alpha, r_new, accepted); a
    proposal outside the quotient's domain is a certain rejection.
    """
    try:
        lw_p, r_p, g_p = selected_target(prop, *block)
    except UndefinedQuotientError:
        return u, 0.0, r_u, False
    back = u - prop - eta * g_p
    log_alpha = lw_p - lw_u - float(back @ back) / (4.0 * eta) + forward_half_sq
    alpha = math.exp(log_alpha) if log_alpha < 0.0 else 1.0
    if accept_u < alpha:
        return prop, alpha, r_p, True
    return u, alpha, r_u, False


def mala_update_theta(
    state: ChainState,
    gep: GepPair,
    prior: PriorConfig,
    ladder: TemperingLadder,
    normals: np.ndarray,
    accept_u: float,
):
    """Redraw unselected coordinates from their exact Gaussian conditional and
    advance the selected block by one MALA step, in place.

    `normals` holds p standard normals: the first (delta == 0).sum() scale
    the unselected redraw, the rest are the proposal noise. Returns
    (accepted, alpha, r_selected); alpha is the acceptance probability
    actually used, which the adaptive layer consumes.
    """
    sel, u, block, t_k, eta, lw_u, r_u, mu = _selected_block(state, gep, prior, ladder)
    unsel = np.flatnonzero(state.delta == 0)
    state.theta[unsel] = math.sqrt(t_k / prior.rho0) * normals[: unsel.size]
    xi = normals[unsel.size :]
    prop = mu + math.sqrt(2.0 * eta) * xi
    u_new, alpha, r_new, accepted = _mala_accept(
        u, prop, 0.5 * float(xi @ xi), lw_u, r_u, block, eta, accept_u
    )
    state.theta[sel] = u_new
    return accepted, alpha, r_new


def temperature_update(
    state: ChainState,
    gep: GepPair,
    prior: PriorConfig,
    ladder: TemperingLadder,
    w: float | None,
    u: float | None,
    log_post: float,
) -> int:
    """Reflected +-1 random walk on the temperature index with the
    Hastings asymmetry correction at the boundaries, in place.

    w picks the direction and u the acceptance; both are used even when the
    proposal is forced, so coupled chains can share them. K=1 is the
    identity and reads neither, so its callers draw neither.
    """
    K = ladder.K
    if K == 1:
        return state.k
    k = state.k
    if k == 1:
        k_new = 2
        log_q_fwd = 0.0
    elif k == K:
        k_new = K - 1
        log_q_fwd = 0.0
    else:
        k_new = k - 1 if w <= 0.5 else k + 1
        log_q_fwd = math.log(0.5)
    log_q_rev = 0.0 if k_new in (1, K) else math.log(0.5)

    lw = ladder.log_weights
    t = ladder.temperatures
    log_ratio = (
        (-lw[k_new - 1] + log_post / t[k_new - 1])
        - (-lw[k - 1] + log_post / t[k - 1])
        + log_q_rev
        - log_q_fwd
    )
    if u <= 0.0 or math.log(u) < log_ratio:
        state.k = k_new
    return state.k


def initial_state(p: int, rng) -> ChainState:
    """Algorithm start: k=1, fair-coin support (redrawn if empty), standard
    normal loadings. Support is drawn before the loadings."""
    delta = rng.integers(0, 2, size=p).astype(np.uint8)
    while delta.sum() == 0:
        delta = rng.integers(0, 2, size=p).astype(np.uint8)
    theta = rng.standard_normal(p)
    return ChainState(delta=delta, theta=theta, k=1)


@dataclass
class ChainTrace:
    """Full recording of a chain run: every state plus per-iteration
    diagnostics. Row 0 is the initial state.

    Row t records iteration t, unless `iters` holds the iteration number of
    each row, as in a thinned trace read back from CSV.
    """

    delta: np.ndarray
    theta: np.ndarray
    k: np.ndarray
    rayleigh: np.ndarray
    n_iters: int
    diagnostics: dict = field(default_factory=dict)
    iters: np.ndarray | None = None

    @property
    def p(self) -> int:
        return self.delta.shape[1]

    def support_sizes(self) -> np.ndarray:
        return self.delta.sum(axis=1).astype(np.int64)


def advance_chain(
    state: ChainState,
    gep: GepPair,
    prior: PriorConfig,
    ladder: TemperingLadder,
    subset_size: int,
    rng,
    adapt=None,
):
    """One full sampler iteration in place: support sweep over a fresh random
    subset, loading update, temperature move, then the optional adaptation
    hook. The hook never sees the generator: attaching one changes the ladder
    that later draws are applied against, never the draws themselves.

    All of the iteration's random numbers are drawn here, first, and the
    kernels only apply them. Returns (alpha, k_mala, r_selected) where k_mala
    is the temperature the loading move ran under.
    """
    subset = draw_subset(gep.p, subset_size, rng)
    uniforms = rng.random(subset.size)
    normals = rng.standard_normal(gep.p)
    accept_u = float(rng.random())
    w, u = rng.random(2).tolist() if ladder.K > 1 else (None, None)

    gibbs_update_delta(state, gep, prior, ladder, subset, uniforms, QuadraticCache(gep, state))

    k_mala = state.k
    _, alpha, r_sel = mala_update_theta(state, gep, prior, ladder, normals, accept_u)

    # the quotient from the loading move spares an O(p^2) re-evaluation
    log_post = log_quasi_posterior(state, gep, prior, r_sel)
    temperature_update(state, gep, prior, ladder, w, u, log_post)

    if adapt is not None:
        adapt.after_iteration(state, k_mala, alpha)
    return alpha, k_mala, r_sel


def run_chain(
    gep: GepPair,
    prior: PriorConfig,
    ladder: TemperingLadder,
    n_iters: int,
    subset_size: int = DEFAULT_SUBSET_SIZE,
    seed=None,
    adapt=None,
) -> ChainTrace:
    """Run the full sampler for n_iters iterations, recording every state."""
    if n_iters < 0:
        raise DomainError("n_iters must be nonnegative")
    p = gep.p
    rng = np.random.default_rng(seed)

    state = initial_state(p, rng)
    delta_tr = np.empty((n_iters + 1, p), dtype=np.uint8)
    theta_tr = np.empty((n_iters + 1, p))
    k_tr = np.empty(n_iters + 1, dtype=np.int64)
    r_tr = np.empty(n_iters + 1)
    alpha_tr = np.empty(n_iters)
    k_mala_tr = np.empty(n_iters, dtype=np.int64)

    delta_tr[0] = state.delta
    theta_tr[0] = state.theta
    k_tr[0] = state.k
    r_tr[0] = rayleigh_selected(state, gep)

    for it in range(n_iters):
        alpha, k_mala, r_sel = advance_chain(
            state, gep, prior, ladder, subset_size, rng, adapt=adapt
        )
        delta_tr[it + 1] = state.delta
        theta_tr[it + 1] = state.theta
        k_tr[it + 1] = state.k
        r_tr[it + 1] = r_sel
        alpha_tr[it] = alpha
        k_mala_tr[it] = k_mala

    return ChainTrace(
        delta=delta_tr,
        theta=theta_tr,
        k=k_tr,
        rayleigh=r_tr,
        n_iters=n_iters,
        diagnostics={"alpha": alpha_tr, "k_mala": k_mala_tr},
    )
