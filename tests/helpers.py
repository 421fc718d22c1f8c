"""Problem instances shared by the test modules."""

from __future__ import annotations

from stcca.covariance import GepPair, assemble_gep
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
