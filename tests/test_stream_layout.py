"""Golden record of the random-stream layout.

A seeded run's trajectory depends on the order in which an iteration draws
its random numbers. These digests were recorded before the kernels took
their draws as arguments; any change to the draw order, count or split
point moves them. A deliberate layout change must re-record them and say so
in CHANGES.md (see the README's "Determinism" section).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from stcca.covariance import assemble_gep
from stcca.coupling import replicate_meeting_times
from stcca.model import DEFAULT_TEMPERATURES, PriorConfig, TemperingLadder
from stcca.sampler import run_chain
from stcca.simdata import build_population_cov


def population_gep(p, n):
    model = build_population_cov(p)
    px = model.p_x
    S = model.Sigma
    return assemble_gep(S[:px, :px], S[px:, px:], S[:px, px:], n=n)


@pytest.mark.parametrize(
    "temperatures, subset_size, digest",
    [
        ([1.0], 5, "31179db5d9b4e1464f06cb5338fc2ec01ff00a85fb1e308c8f463c1150894e5e"),
        (
            DEFAULT_TEMPERATURES,
            5,
            "89faab27224df130aa062119e917017ae62ce98790d6101d5aa8348ddc498055",
        ),
        (
            DEFAULT_TEMPERATURES,
            25,
            "cfb07e4012e928b743d9a6564b7170f89fb6ea41e6186921d3e9936ccce5916e",
        ),
    ],
    ids=["K1", "default_ladder", "J_over_p"],
)
def test_run_chain_support_and_rung_digest(temperatures, subset_size, digest):
    gep = population_gep(20, 30)
    ladder = TemperingLadder.for_dimension(20, temperatures)
    tr = run_chain(
        gep, PriorConfig.defaults(20), ladder, n_iters=300,
        subset_size=subset_size, seed=2024,
    )
    assert tr.delta.dtype == np.uint8 and tr.k.dtype == np.int64
    got = hashlib.sha256(tr.delta.tobytes() + tr.k.tobytes()).hexdigest()
    assert got == digest


def test_meeting_times():
    # 933 of these 1,326 coupled steps take the mirrored (maximally coupled)
    # loading proposal, which draws the lazy coupling uniform
    gep = population_gep(10, 8)
    taus = replicate_meeting_times(
        gep, PriorConfig.defaults(10), 4, temperatures=[1.0, 1.25, 1.5],
        seed=31, lag=10,
    )
    assert taus == [26, 156, 1044, 140]
