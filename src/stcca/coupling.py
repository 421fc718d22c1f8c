"""Coupled pairs of sampler chains for empirical mixing diagnostics.

Two chains driven by shared randomness: the support sweep reuses one uniform
per coordinate, the loading update routes common normals by activity group,
and the temperature move shares its direction and acceptance draws. Once the
pair coincides it stays coincident, so the first hitting time of equality is
a genuine meeting time and feeds a total-variation bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .adapt import AdaptiveHook, AdaptState
from .covariance import GepPair
from .errors import DomainError, EmptyInputError
from .model import (
    DEFAULT_TEMPERATURES,
    ChainState,
    PriorConfig,
    QuadraticCache,
    TemperingLadder,
    log_quasi_posterior,
)
from .sampler import (
    DEFAULT_SUBSET_SIZE,
    _mala_accept,
    _selected_block,
    advance_chain,
    draw_subset,
    gibbs_update_delta,
    initial_state,
    temperature_update,
)


@dataclass
class CoupledState:
    """A lagged pair: chain1 leads chain2 by `lag` iterations."""

    chain1: ChainState
    chain2: ChainState
    lag: int

    def __post_init__(self) -> None:
        if self.lag < 1:
            raise DomainError("lag must be a positive integer")
        if self.chain1.p != self.chain2.p:
            raise DomainError("coupled chains must share a dimension")

    def is_identical(self) -> bool:
        return (
            self.chain1.k == self.chain2.k
            and np.array_equal(self.chain1.delta, self.chain2.delta)
            and np.array_equal(self.chain1.theta, self.chain2.theta)
        )


def mirrors(pair: CoupledState) -> bool:
    """Whether the loading move couples the jointly active block maximally
    (one rung, a shared active coordinate); only then is u_couple drawn."""
    return pair.chain1.k == pair.chain2.k and bool(
        np.any(pair.chain1.delta.astype(bool) & pair.chain2.delta.astype(bool))
    )


def coupled_gibbs_step(
    pair: CoupledState,
    gep: GepPair,
    prior: PriorConfig,
    ladder: TemperingLadder,
    subset: np.ndarray,
    uniforms: np.ndarray,
    cache1: QuadraticCache,
    cache2: QuadraticCache,
) -> None:
    """Support sweep over a common subset with one shared uniform per
    coordinate; each chain thresholds against its own success probability,
    through its own cache."""
    gibbs_update_delta(pair.chain1, gep, prior, ladder, subset, uniforms, cache1)
    gibbs_update_delta(pair.chain2, gep, prior, ladder, subset, uniforms, cache2)


def coupled_theta_step(
    pair: CoupledState,
    gep: GepPair,
    prior: PriorConfig,
    ladder: TemperingLadder,
    normals: np.ndarray,
    u_couple: float | None,
    accept_u: float,
):
    """Loading update for both chains from one pool of shared normals.

    Coordinates inactive in both chains get a common standard normal, scaled
    by each chain's own temperature. A coordinate active in exactly one chain
    consumes the same normal twice: as conditional redraw noise in the
    inactive chain and as proposal noise in the active one. When the active
    sets and temperature indices agree, the whole proposal block is coupled
    maximally with a reflected residual, so proposals can coincide exactly;
    otherwise the shared-index part reuses common noise. One acceptance
    uniform serves both chains.

    `normals` holds p standard normals: first those of the coordinates not
    active in both chains, then the jointly active block's. u_couple is read
    only when `mirrors(pair)`.

    Returns (alpha1, alpha2, r1, r2) with each chain's acceptance probability
    and post-move selected-block quotient.
    """
    c1, c2 = pair.chain1, pair.chain2
    sel1, u1, block1, t1, eta1, lw1, r1, mu1 = _selected_block(c1, gep, prior, ladder)
    sel2, u2, block2, t2, eta2, lw2, r2, mu2 = _selected_block(c2, gep, prior, ladder)
    d1 = c1.delta.astype(bool)
    d2 = c2.delta.astype(bool)
    g11 = d1 & d2

    z_full = np.zeros(c1.p)
    not_g11 = np.flatnonzero(~g11)
    z_full[not_g11] = normals[: not_g11.size]
    xi_base = normals[not_g11.size :]

    c1.theta[~d1] = math.sqrt(t1 / prior.rho0) * z_full[~d1]
    c2.theta[~d2] = math.sqrt(t2 / prior.rho0) * z_full[~d2]

    s1 = math.sqrt(2.0 * eta1)
    s2 = math.sqrt(2.0 * eta2)

    in11_1 = d2[sel1]
    in11_2 = d1[sel2]
    xi1 = np.empty(sel1.size)
    xi1[in11_1] = xi_base
    xi1[~in11_1] = z_full[sel1[~in11_1]]
    prop1 = mu1 + s1 * xi1

    # coordinates active in exactly one chain take their shared normals;
    # the jointly active components are coupled below
    prop2 = np.empty(sel2.size)
    prop2[~in11_2] = mu2[~in11_2] + s2 * z_full[sel2[~in11_2]]
    if mirrors(pair):
        # equal step scale on the shared components: maximal coupling of the
        # two Gaussian blocks, residual mass handled by reflection. A copied
        # block makes the shared components coincide exactly, which is what
        # lets the pair coalesce coordinate island by coordinate island.
        z = (mu1[in11_1] - mu2[in11_2]) / s1
        shifted = xi_base + z
        log_ratio = -0.5 * float(shifted @ shifted) + 0.5 * float(xi_base @ xi_base)
        if u_couple <= 0.0 or math.log(u_couple) < log_ratio:
            prop2[in11_2] = prop1[in11_1]
        else:
            e = z / math.sqrt(float(z @ z))
            prop2[in11_2] = mu2[in11_2] + s2 * (
                xi_base - 2.0 * float(e @ xi_base) * e
            )
    else:
        prop2[in11_2] = mu2[in11_2] + s2 * xi_base

    # forward term from the realized proposal rather than the noise, so two
    # identical chains run bit-identical arithmetic through the accept test
    fwd1 = float((prop1 - mu1) @ (prop1 - mu1)) / (4.0 * eta1)
    u1_new, alpha1, r1, _ = _mala_accept(u1, prop1, fwd1, lw1, r1, block1, eta1, accept_u)
    fwd2 = float((prop2 - mu2) @ (prop2 - mu2)) / (4.0 * eta2)
    u2_new, alpha2, r2, _ = _mala_accept(u2, prop2, fwd2, lw2, r2, block2, eta2, accept_u)
    c1.theta[sel1] = u1_new
    c2.theta[sel2] = u2_new
    return alpha1, alpha2, r1, r2


def coupled_temperature_step(
    pair: CoupledState,
    gep: GepPair,
    prior: PriorConfig,
    ladder: TemperingLadder,
    w: float | None,
    u: float | None,
    log_post1: float,
    log_post2: float,
):
    """Temperature move for both chains from one direction draw and one
    acceptance draw; each chain tests its own ratio. Returns (k1, k2)."""
    k1 = temperature_update(pair.chain1, gep, prior, ladder, w, u, log_post1)
    k2 = temperature_update(pair.chain2, gep, prior, ladder, w, u, log_post2)
    return k1, k2


def coupled_step(
    pair: CoupledState,
    gep: GepPair,
    prior: PriorConfig,
    ladder: TemperingLadder,
    subset_size: int,
    rng,
    adapt=None,
):
    """One full coupled iteration in place: shared-subset support sweep,
    coupled loading update, coupled temperature move. Adaptation, when
    attached, is driven by chain1 alone so both chains see one kernel.

    The draws come first, in the solo chain's order, except that u_couple
    is drawn after the sweep, when `mirrors(pair)`. Returns (alpha1, alpha2).
    """
    subset = draw_subset(gep.p, subset_size, rng)
    uniforms = rng.random(subset.size)
    normals = rng.standard_normal(gep.p)

    coupled_gibbs_step(
        pair, gep, prior, ladder, subset, uniforms,
        QuadraticCache(gep, pair.chain1), QuadraticCache(gep, pair.chain2),
    )

    u_couple = float(rng.random()) if mirrors(pair) else None
    accept_u = float(rng.random())
    w, u = rng.random(2).tolist() if ladder.K > 1 else (None, None)

    k_mala = pair.chain1.k
    alpha1, alpha2, r1, r2 = coupled_theta_step(
        pair, gep, prior, ladder, normals, u_couple, accept_u
    )

    lp1 = log_quasi_posterior(pair.chain1, gep, prior, r1)
    lp2 = log_quasi_posterior(pair.chain2, gep, prior, r2)
    coupled_temperature_step(pair, gep, prior, ladder, w, u, lp1, lp2)

    if adapt is not None:
        adapt.after_iteration(pair.chain1, k_mala, alpha1)
    return alpha1, alpha2


def coupling_limits(p: int, lag: int | None, n_max: int | None) -> tuple[int, int]:
    """(lag, n_max) of a lagged coupling at dimension p: a None lag is p and
    a None n_max is 10p + 1000."""
    return (p if lag is None else lag), (10 * p + 1000 if n_max is None else n_max)


def lagged_meeting_time(
    gep: GepPair,
    prior: PriorConfig,
    temperatures=DEFAULT_TEMPERATURES,
    n_max: int | None = None,
    subset_size: int = DEFAULT_SUBSET_SIZE,
    lag: int | None = None,
    seed=None,
) -> int | None:
    """First iteration t > lag at which the leading chain equals the lagged
    chain exactly, or None if the pair never meets within n_max iterations.

    The leading chain warms up alone for `lag` iterations, then both advance
    under the coupled kernel. Both chains are initialized independently from
    the sampler's initial law; the initializations, the warm-up, and the
    coupled phase each consume their own substream of `seed`, and adaptation
    keeps a single shared state driven by the leading chain.
    """
    p = gep.p
    lag, n_max = coupling_limits(p, lag, n_max)
    if lag < 1:
        raise DomainError("lag must be a positive integer")
    if n_max <= lag:
        raise DomainError("n_max must exceed the lag")

    entropy = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    seq_x, seq_y, seq_solo, seq_pair = entropy.spawn(4)

    ladder = TemperingLadder.for_dimension(p, temperatures)
    hook = AdaptiveHook(AdaptState.for_ladder(ladder), ladder)

    x = initial_state(p, np.random.default_rng(seq_x))
    y = initial_state(p, np.random.default_rng(seq_y))

    rng_solo = np.random.default_rng(seq_solo)
    for _ in range(lag):
        advance_chain(x, gep, prior, ladder, subset_size, rng_solo, adapt=hook)

    pair = CoupledState(chain1=x, chain2=y, lag=lag)
    rng_pair = np.random.default_rng(seq_pair)
    for t in range(lag + 1, n_max + 1):
        coupled_step(pair, gep, prior, ladder, subset_size, rng_pair, adapt=hook)
        if pair.is_identical():
            return t
    return None


def replicate_meeting_times(
    gep: GepPair,
    prior: PriorConfig,
    n_reps: int,
    temperatures=DEFAULT_TEMPERATURES,
    seed=None,
    **kwargs,
) -> list[int | None]:
    """Independent meeting-time replications, one spawned substream each."""
    if n_reps < 1:
        raise DomainError("n_reps must be positive")
    entropy = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return [
        lagged_meeting_time(gep, prior, temperatures, seed=child, **kwargs)
        for child in entropy.spawn(n_reps)
    ]


@dataclass
class TvCurve:
    """Monte Carlo total-variation bound on a grid of iteration counts."""

    t_grid: np.ndarray
    bound: np.ndarray

    def mixing_time(self, eps: float = 0.1) -> int | None:
        """First grid point where the bound drops below eps."""
        hits = np.flatnonzero(self.bound < eps)
        return int(self.t_grid[hits[0]]) if hits.size else None


def tv_bound_curve(meeting_times, lag: int, t_grid=None) -> TvCurve:
    """Average the lagged-meeting tail bound over replications.

    bound(t) = mean of max(0, ceil((tau - lag - t) / lag)); exact in integer
    arithmetic. The default grid runs from 0 to the point where the largest
    replication's contribution vanishes.
    """
    taus = list(meeting_times)
    if not taus:
        raise EmptyInputError("no meeting-time replications")
    if any(t is None for t in taus):
        raise DomainError("unmet replication has no meeting time")
    if lag < 1:
        raise DomainError("lag must be a positive integer")
    taus = np.asarray(taus, dtype=np.int64)
    if t_grid is None:
        t_grid = np.arange(max(int(taus.max()) - lag, 0) + 1, dtype=np.int64)
    else:
        t_grid = np.asarray(t_grid, dtype=np.int64)
    excess = taus[None, :] - lag - t_grid[:, None]
    ceils = -(-excess // lag)
    bound = np.maximum(ceils, 0).mean(axis=1)
    return TvCurve(t_grid=t_grid, bound=bound)
