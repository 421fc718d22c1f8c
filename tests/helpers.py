"""Problem instances and reference quantities shared by the test modules."""

from __future__ import annotations

import numpy as np
from scipy.special import expit

from stcca.covariance import GepPair, assemble_gep
from stcca.model import ChainState, log_tempered, selected_target
from stcca.sampler import _selected_block
from stcca.simdata import build_population_cov


def random_gep(rng, p_x, p_y, n=50) -> GepPair:
    """Well-conditioned random instance: PD B, generic cross block."""
    p = p_x + p_y
    G = rng.standard_normal((2 * p, p))
    S = G.T @ G / (2 * p)
    return assemble_gep(S[:p_x, :p_x], S[p_x:, p_x:], S[:p_x, p_x:], n=n)


def population_gep(p, n) -> GepPair:
    """The (A, B) pair of the population covariance at dimension p, with
    sample count n."""
    model = build_population_cov(p)
    px = model.p_x
    S = model.Sigma
    return assemble_gep(S[:px, :px], S[px:, px:], S[:px, px:], n=n)


def flip_prob(j, state, gep, prior, ladder) -> float:
    """Reference probability that a sweep leaves coordinate j on:
    sigmoid(log_tempered(j on) - log_tempered(j off)), each density evaluated
    from scratch. 1.0 when j is the last active coordinate."""
    on, off = state.copy(), state.copy()
    on.delta[j], off.delta[j] = 1, 0
    diff = log_tempered(on, gep, prior, ladder) - log_tempered(off, gep, prior, ladder)
    return float(expit(diff))


def selected_grad(u, k, delta, gep, prior, ladder) -> np.ndarray:
    """Gradient of the selected-block log target at loadings u on the support
    delta and rung k, from the block the MALA step builds."""
    theta = np.zeros(np.size(delta))
    theta[np.flatnonzero(delta)] = u
    state = ChainState(delta=delta, theta=theta, k=k)
    _, u, block, *_ = _selected_block(state, gep, prior, ladder)
    return selected_target(u, *block)[2]
