"""Posterior summaries from a recorded chain.

The first three quarters of a run are treated as burn-in, and within the
retained window only states at the coldest temperature count as draws. Those
draws are turned into per-draw unit loading estimates, a modal support, a
sign-aligned averaged point estimate, coordinatewise inclusion frequencies,
and, when a reference direction pair is available, accuracy metrics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateEstimateError,
    DimensionMismatchError,
    DomainError,
    EmptyInputError,
    EmptySampleError,
    UndefinedRateError,
)

__all__ = [
    "SampleEstimates",
    "EstimateReport",
    "extract_posterior_samples",
    "per_sample_estimates",
    "support_mode",
    "point_estimate",
    "mse",
    "tpr_tnr",
    "inclusion_probabilities",
    "build_report",
]


def extract_posterior_samples(trace) -> np.ndarray:
    """Row positions of the retained draws.

    With n_iters the last recorded iteration, a row recording iteration t is
    a draw when 3*n_iters/4 <= t <= n_iters and the chain sat at the coldest
    rung there. Row t records iteration t unless the trace's `iters` holds
    the row iterations, as a thinned trace read back from CSV does.

    Raises EmptySampleError when no row qualifies, which means the chain
    never reached the coldest temperature after burn-in.
    """
    k = np.asarray(trace.k)
    n_rows = k.shape[0]
    if n_rows == 0:
        raise EmptyInputError("trace has no recorded states")
    t = np.arange(n_rows) if trace.iters is None else np.asarray(trace.iters)
    n_iters = int(t[-1])
    # integer form of t >= 3*n_iters/4, exact for any n_iters
    keep = (t <= n_iters) & (4 * t >= 3 * n_iters) & (k == 1)
    idx = np.flatnonzero(keep)
    if idx.size == 0:
        raise EmptySampleError(
            "no draws at the coldest temperature in the retention window"
        )
    return idx


@dataclass
class SampleEstimates:
    """Per-draw unit loading estimates plus bookkeeping for skipped draws.

    v_x has one row per usable draw (likewise v_y). Draws whose masked
    loading vector vanished on either view carry no direction and are
    counted in n_skipped instead.
    """

    v_x: np.ndarray
    v_y: np.ndarray
    n_skipped: int


def per_sample_estimates(trace, samples, p_x: int) -> SampleEstimates:
    """Turn each retained draw into a unit vector per view.

    A draw's estimate is its loading vector gated by its own support, split
    into the two views at p_x, each part scaled to unit norm. A draw whose
    x- or y-part is identically zero is skipped, not fatal; skips are
    reported through the n_skipped counter.
    """
    delta = np.asarray(trace.delta)
    theta = np.asarray(trace.theta)
    samples = np.asarray(samples, dtype=np.int64)
    if samples.size == 0:
        raise EmptyInputError("no draw indices supplied")
    p = delta.shape[1]
    if not 0 < p_x < p:
        raise DomainError(f"p_x must split the {p} coordinates, got {p_x}")
    vx_rows: list[np.ndarray] = []
    vy_rows: list[np.ndarray] = []
    n_skipped = 0
    for t in samples:
        v = theta[t] * delta[t]
        nx = np.linalg.norm(v[:p_x])
        ny = np.linalg.norm(v[p_x:])
        if nx == 0.0 or ny == 0.0:
            n_skipped += 1
            continue
        vx_rows.append(v[:p_x] / nx)
        vy_rows.append(v[p_x:] / ny)
    if not vx_rows:
        raise EmptySampleError("every retained draw had a zero block on some view")
    return SampleEstimates(
        v_x=np.array(vx_rows),
        v_y=np.array(vy_rows),
        n_skipped=n_skipped,
    )


def support_mode(delta_samples) -> np.ndarray:
    """Most frequent exact support pattern among the draws.

    Ties are broken by whichever pattern appeared first, so the result is
    deterministic for a fixed trace.
    """
    arr = np.asarray(delta_samples)
    if arr.ndim != 2:
        raise DimensionMismatchError("delta samples must form a 2-D array")
    if arr.shape[0] == 0:
        raise EmptyInputError("no support samples")
    uniq, first, counts = np.unique(
        arr, axis=0, return_index=True, return_counts=True
    )
    best = counts == counts.max()
    winner = uniq[best][np.argmin(first[best])]
    return winner.astype(np.uint8)


def point_estimate(estimates: SampleEstimates, delta_bar):
    """Averaged loading estimate restricted to a fixed support.

    Each usable draw's unit estimate pair is concatenated, gated by
    delta_bar, and sign-aligned to the first usable draw before averaging:
    the target density is symmetric under a global sign flip, so a plain
    average of raw draws cancels to zero. The average is then split back
    into the two views and each part renormalized.

    Raises DegenerateEstimateError when either averaged part is zero.
    """
    delta_bar = np.asarray(delta_bar)
    p_x = estimates.v_x.shape[1]
    p = p_x + estimates.v_y.shape[1]
    if delta_bar.shape != (p,):
        raise DimensionMismatchError(f"delta_bar must have length {p}")
    w = np.hstack([estimates.v_x, estimates.v_y]) * delta_bar.astype(float)
    signs = np.sign(w @ w[0])
    signs[signs == 0.0] = 1.0
    mean = (w * signs[:, None]).mean(axis=0)
    vx, vy = mean[:p_x], mean[p_x:]
    nx, ny = np.linalg.norm(vx), np.linalg.norm(vy)
    if nx == 0.0 or ny == 0.0:
        raise DegenerateEstimateError(
            "masked average collapsed to zero on one view"
        )
    return vx / nx, vy / ny


def _checked_unit(v, name: str) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.ndim != 1:
        raise DimensionMismatchError(f"{name} must be a vector")
    if abs(np.linalg.norm(v) - 1.0) > 1e-6:
        raise DomainError(f"{name} must have unit norm")
    return v


def mse(v, v_star) -> float:
    """Squared distance to the nearer of the reference's two sign
    representatives: min(||v - v*||^2, ||v + v*||^2).

    Both arguments must be unit vectors; the value lies in [0, 2] and is
    unchanged when either argument is negated.
    """
    v = _checked_unit(v, "v")
    v_star = _checked_unit(v_star, "v_star")
    if v.shape != v_star.shape:
        raise DimensionMismatchError("v and v_star must have equal length")
    d_minus = v - v_star
    d_plus = v + v_star
    return float(min(d_minus @ d_minus, d_plus @ d_plus))


def tpr_tnr(v, v_star) -> tuple[float, float]:
    """Support recovery rates of v against a reference vector.

    A coordinate is selected iff its entry is exactly nonzero; gated-out
    coordinates are exact zeros by construction, so no tolerance is
    involved. The reference must have at least one zero and one nonzero
    entry or both rates are undefined.
    """
    v = np.asarray(v, dtype=float)
    v_star = np.asarray(v_star, dtype=float)
    if v.ndim != 1 or v.shape != v_star.shape:
        raise DimensionMismatchError("v and v_star must be vectors of equal length")
    pos = v_star != 0.0
    n_pos = int(pos.sum())
    n_neg = v_star.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedRateError("reference support is empty or full")
    sel = v != 0.0
    tpr = float((sel & pos).sum()) / n_pos
    tnr = float((~sel & ~pos).sum()) / n_neg
    return tpr, tnr


def inclusion_probabilities(delta_samples) -> np.ndarray:
    """Coordinatewise frequency of being in the support across the draws."""
    arr = np.asarray(delta_samples, dtype=float)
    if arr.ndim != 2:
        raise DimensionMismatchError("delta samples must form a 2-D array")
    if arr.shape[0] == 0:
        raise EmptyInputError("no support samples")
    return arr.mean(axis=0)


@dataclass
class EstimateReport:
    """Everything the output stage produces for one chain run.

    The metric fields stay None unless a reference pair was supplied.
    """

    delta_bar: np.ndarray
    v_bar_x: np.ndarray
    v_bar_y: np.ndarray
    inclusion_probs: np.ndarray
    p_x: int
    n_samples: int
    n_skipped: int
    mse_x: float | None = None
    mse_y: float | None = None
    tpr_x: float | None = None
    tpr_y: float | None = None
    tnr_x: float | None = None
    tnr_y: float | None = None

    def __post_init__(self) -> None:
        for name, v in (("v_bar_x", self.v_bar_x), ("v_bar_y", self.v_bar_y)):
            if abs(np.linalg.norm(v) - 1.0) > 1e-12:
                raise DomainError(f"{name} must have unit norm")
        probs = np.asarray(self.inclusion_probs, dtype=float)
        if probs.size and (probs.min() < 0.0 or probs.max() > 1.0):
            raise DomainError("inclusion probabilities must lie in [0, 1]")

    @property
    def delta_bar_x(self) -> np.ndarray:
        return self.delta_bar[: self.p_x]

    @property
    def delta_bar_y(self) -> np.ndarray:
        return self.delta_bar[self.p_x :]


def _unit_reference(v, name: str) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.ndim != 1:
        raise DimensionMismatchError(f"{name} must be a vector")
    norm = np.linalg.norm(v)
    if norm == 0.0:
        raise DomainError(f"{name} is identically zero")
    return v / norm


def build_report(
    trace,
    p_x: int,
    truth_x=None,
    truth_y=None,
) -> EstimateReport:
    """Run the whole output stage over a recorded chain.

    Retains the cold draws from the final quarter (extract_posterior_samples),
    forms the modal support, inclusion frequencies, and the sign-aligned
    averaged estimate. When both reference directions are given they are
    scaled to unit norm and the error and support-recovery metrics are
    filled in; their zero patterns are what the rates compare against.
    Supplying only one reference is an error.
    """
    if (truth_x is None) != (truth_y is None):
        raise DomainError("supply both reference directions or neither")
    samples = extract_posterior_samples(trace)
    delta = np.asarray(trace.delta)
    delta_bar = support_mode(delta[samples])
    estimates = per_sample_estimates(trace, samples, p_x)
    v_bar_x, v_bar_y = point_estimate(estimates, delta_bar)
    report = EstimateReport(
        delta_bar=delta_bar,
        v_bar_x=v_bar_x,
        v_bar_y=v_bar_y,
        inclusion_probs=inclusion_probabilities(delta[samples]),
        p_x=p_x,
        n_samples=int(samples.size),
        n_skipped=estimates.n_skipped,
    )
    if truth_x is not None:
        tx = _unit_reference(truth_x, "truth_x")
        ty = _unit_reference(truth_y, "truth_y")
        report.mse_x = mse(v_bar_x, tx)
        report.mse_y = mse(v_bar_y, ty)
        report.tpr_x, report.tnr_x = tpr_tnr(v_bar_x, tx)
        report.tpr_y, report.tnr_y = tpr_tnr(v_bar_y, ty)
    return report
