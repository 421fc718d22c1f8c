from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from stcca.covariance import GepPair
from stcca.coupling import (
    CoupledState,
    coupled_gibbs_step,
    coupled_step,
    coupled_temperature_step,
    coupled_theta_step,
    lagged_meeting_time,
    mirrors,
    replicate_meeting_times,
    tv_bound_curve,
)
from stcca.errors import DomainError, EmptyInputError
from stcca.model import (
    ChainState,
    PriorConfig,
    QuadraticCache,
    TemperingLadder,
    log_quasi_posterior,
)
from stcca.sampler import (
    gibbs_update_delta,
    mala_update_theta,
    temperature_update,
)

from helpers import flip_prob, population_gep, random_gep


def make_state(rng, p, delta=None, k=1) -> ChainState:
    if delta is None:
        delta = (rng.random(p) < 0.5).astype(np.int64)
        if delta.sum() == 0:
            delta[int(rng.integers(p))] = 1
    return ChainState(
        delta=np.asarray(delta, dtype=np.int64),
        theta=rng.standard_normal(p),
        k=k,
    )


def theta_draws(pair, rng):
    """The coupled loading move's draws in coupled_step's order: p normals,
    the coupling uniform when the move mirrors, the acceptance uniform."""
    normals = rng.standard_normal(pair.chain1.p)
    u_couple = float(rng.random()) if mirrors(pair) else None
    return normals, u_couple, float(rng.random())


def make_pair(rng, p, k1=1, k2=1) -> CoupledState:
    return CoupledState(
        chain1=make_state(rng, p, k=k1),
        chain2=make_state(rng, p, k=k2),
    )


class TestCoupledState:
    def test_dimension_mismatch_rejected(self):
        rng = np.random.default_rng(1)
        with pytest.raises(DomainError):
            CoupledState(chain1=make_state(rng, 4), chain2=make_state(rng, 6))

    def test_is_identical_detects_equality_and_each_field(self):
        rng = np.random.default_rng(2)
        a = make_state(rng, 5)
        b = ChainState(delta=a.delta.copy(), theta=a.theta.copy(), k=a.k)
        pair = CoupledState(chain1=a, chain2=b)
        assert pair.is_identical()
        b.theta[0] = np.nextafter(b.theta[0], np.inf)
        assert not pair.is_identical()
        b.theta[0] = a.theta[0]
        b.k += 1
        assert not pair.is_identical()
        b.k = a.k
        b.delta[0] ^= 1
        assert not pair.is_identical()


class TestCoupledGibbs:
    def test_chain1_marginal_is_bitwise_the_single_kernel(self):
        # the shared uniform block drives chain1 exactly as the plain sweep
        rng = np.random.default_rng(3)
        for trial in range(10):
            gep = random_gep(rng, 3, 3, n=40)
            prior = PriorConfig.defaults(6)
            ladder = TemperingLadder.for_dimension(6, np.linspace(1.0, 1.5, 3))
            seed = 100 + trial
            pair = make_pair(np.random.default_rng(seed), 6, k1=2, k2=3)
            solo = ChainState(
                delta=pair.chain1.delta.copy(),
                theta=pair.chain1.theta.copy(),
                k=pair.chain1.k,
            )
            subset = np.arange(6)
            uniforms = np.random.default_rng(seed).random(6)
            coupled_gibbs_step(
                pair, gep, prior, ladder, subset, uniforms,
                QuadraticCache(gep, pair.chain1), QuadraticCache(gep, pair.chain2),
            )
            gibbs_update_delta(
                solo, gep, prior, ladder, subset, uniforms, QuadraticCache(gep, solo)
            )
            assert np.array_equal(pair.chain1.delta, solo.delta)

    def test_identical_chains_make_identical_sweeps(self):
        rng = np.random.default_rng(4)
        for trial in range(20):
            gep = random_gep(rng, 3, 2, n=30)
            prior = PriorConfig.defaults(5)
            ladder = TemperingLadder.for_dimension(5, np.linspace(1.0, 1.5, 2))
            a = make_state(rng, 5, k=2)
            b = ChainState(delta=a.delta.copy(), theta=a.theta.copy(), k=a.k)
            pair = CoupledState(chain1=a, chain2=b)
            coupled_gibbs_step(
                pair, gep, prior, ladder, np.arange(5), rng.random(5),
                QuadraticCache(gep, a), QuadraticCache(gep, b),
            )
            assert np.array_equal(a.delta, b.delta)

    def test_disagreement_frequency_matches_probability_gap(self):
        # single-coordinate sweep: the shared uniform disagrees exactly when
        # it falls between the two success probabilities
        rng = np.random.default_rng(5)
        gep = random_gep(rng, 2, 2, n=60)
        prior = PriorConfig.defaults(4)
        ladder = TemperingLadder.for_dimension(4, np.linspace(1.0, 1.5, 2))
        base1 = make_state(rng, 4, delta=[1, 0, 1, 0], k=1)
        base2 = make_state(rng, 4, delta=[1, 1, 0, 0], k=2)
        j = 3
        q1 = flip_prob(j, base1, gep, prior, ladder)
        q2 = flip_prob(j, base2, gep, prior, ladder)
        gap = abs(q1 - q2)
        reps = 20000
        mism = 0
        for _ in range(reps):
            c1 = ChainState(
                delta=base1.delta.copy(), theta=base1.theta.copy(), k=base1.k
            )
            c2 = ChainState(
                delta=base2.delta.copy(), theta=base2.theta.copy(), k=base2.k
            )
            pair = CoupledState(chain1=c1, chain2=c2)
            coupled_gibbs_step(
                pair, gep, prior, ladder, np.array([j]), rng.random(1),
                QuadraticCache(gep, c1), QuadraticCache(gep, c2),
            )
            mism += int(c1.delta[j] != c2.delta[j])
        se = math.sqrt(max(gap * (1 - gap), 1e-12) / reps)
        assert abs(mism / reps - gap) < 4 * se + 1e-3


class TestCoupledTheta:
    def test_identical_chains_stay_bit_identical(self):
        rng = np.random.default_rng(6)
        for trial in range(50):
            gep = random_gep(rng, 3, 3, n=40)
            prior = PriorConfig.defaults(6)
            ladder = TemperingLadder.for_dimension(6, np.linspace(1.0, 1.5, 3))
            a = make_state(rng, 6, k=int(rng.integers(1, 4)))
            b = ChainState(delta=a.delta.copy(), theta=a.theta.copy(), k=a.k)
            pair = CoupledState(chain1=a, chain2=b)
            coupled_theta_step(pair, gep, prior, ladder, *theta_draws(pair, rng))
            assert a.theta.tobytes() == b.theta.tobytes()

    def test_jointly_inactive_redraws_share_one_normal(self):
        # different temperatures: both chains scale the same draw, so the
        # redrawn values are exactly proportional with ratio sqrt(t1/t2)
        rng = np.random.default_rng(7)
        gep = random_gep(rng, 3, 3, n=40)
        prior = PriorConfig.defaults(6)
        ladder = TemperingLadder.for_dimension(6, np.linspace(1.0, 1.5, 3))
        a = make_state(rng, 6, delta=[1, 0, 0, 1, 0, 0], k=1)
        b = make_state(rng, 6, delta=[0, 1, 0, 1, 0, 0], k=3)
        pair = CoupledState(chain1=a, chain2=b)
        coupled_theta_step(pair, gep, prior, ladder, *theta_draws(pair, rng))
        t1 = ladder.temperatures[0]
        t2 = ladder.temperatures[2]
        ratio = math.sqrt(t1 / t2)
        for j in (2, 4, 5):
            assert a.theta[j] == pytest.approx(ratio * b.theta[j], rel=1e-12)

    def test_single_mismatch_coordinate_reuses_redraw_noise(self):
        # coordinate 0 is active only in chain1: chain2's redraw there and
        # chain1's proposal noise must come from the same standard normal
        rng = np.random.default_rng(8)
        gep = random_gep(rng, 2, 2, n=40)
        prior = PriorConfig.defaults(4)
        ladder = TemperingLadder.for_dimension(4, [1.0, 1.3])
        seed = 99
        a = make_state(np.random.default_rng(seed), 4, delta=[1, 0, 0, 1], k=1)
        b = ChainState(delta=np.array([0, 0, 0, 1]), theta=a.theta.copy(), k=1)
        pair = CoupledState(chain1=a, chain2=b)
        drv = np.random.default_rng(seed + 1)
        coupled_theta_step(pair, gep, prior, ladder, *theta_draws(pair, drv))
        # replay the draw layout: z over the complement of G11, then xi_base
        replay = np.random.default_rng(seed + 1)
        z = np.zeros(4)
        z[[0, 1, 2]] = replay.standard_normal(3)
        assert b.theta[0] == pytest.approx(
            math.sqrt(ladder.temperatures[0] / prior.rho0) * z[0], rel=1e-12
        )

    def test_marginals_match_single_kernel_ks(self):
        # one-coordinate selected blocks keep the comparison exact: each
        # chain's coupled update must be distributed as its own MALA kernel
        rng = np.random.default_rng(9)
        gep = random_gep(rng, 2, 2, n=60)
        prior = PriorConfig.defaults(4)
        ladder = TemperingLadder.for_dimension(4, np.linspace(1.0, 1.5, 2))
        d1 = np.array([1, 0, 0, 1])
        d2 = np.array([0, 1, 0, 1])
        theta0 = np.random.default_rng(11).standard_normal(4)
        reps = 10000
        coupled1 = np.empty(reps)
        coupled2 = np.empty(reps)
        solo1 = np.empty(reps)
        solo2 = np.empty(reps)
        for i in range(reps):
            a = ChainState(delta=d1.copy(), theta=theta0.copy(), k=2)
            b = ChainState(delta=d2.copy(), theta=theta0.copy(), k=2)
            pair = CoupledState(chain1=a, chain2=b)
            coupled_theta_step(pair, gep, prior, ladder, *theta_draws(pair, rng))
            coupled1[i] = a.theta[3]
            coupled2[i] = b.theta[1]
            s1 = ChainState(delta=d1.copy(), theta=theta0.copy(), k=2)
            s2 = ChainState(delta=d2.copy(), theta=theta0.copy(), k=2)
            mala_update_theta(s1, gep, prior, ladder, rng.standard_normal(4), rng.random())
            mala_update_theta(s2, gep, prior, ladder, rng.standard_normal(4), rng.random())
            solo1[i] = s1.theta[3]
            solo2[i] = s2.theta[1]
        crit = 1.628 * math.sqrt(2.0 / reps)  # 1% two-sample level
        assert stats.ks_2samp(coupled1, solo1).statistic < crit
        assert stats.ks_2samp(coupled2, solo2).statistic < crit

    def test_overlap_can_coalesce_exactly(self):
        # equal supports and temperatures from nearby positions: the maximal
        # branch must produce exact proposal coincidence within a few steps
        rng = np.random.default_rng(10)
        gep = random_gep(rng, 2, 2, n=10)
        prior = PriorConfig.defaults(4)
        temps = np.array([1.0, 1.2])
        ladder = TemperingLadder(
            temperatures=temps,
            log_weights=np.zeros(2),
            step_sizes=np.array([0.02, 0.024]),
        )
        hits = 0
        for trial in range(50):
            theta = rng.standard_normal(4)
            a = ChainState(delta=np.array([1, 0, 1, 0]), theta=theta.copy(), k=1)
            b = ChainState(
                delta=np.array([1, 0, 1, 0]),
                theta=theta + 0.05 * rng.standard_normal(4),
                k=1,
            )
            pair = CoupledState(chain1=a, chain2=b)
            for _ in range(5):
                coupled_theta_step(pair, gep, prior, ladder, *theta_draws(pair, rng))
                if np.array_equal(a.theta[[0, 2]], b.theta[[0, 2]]):
                    hits += 1
                    break
        assert hits >= 25


class TestCoupledTemperature:
    def test_chain1_is_bitwise_the_single_kernel(self):
        rng = np.random.default_rng(12)
        gep = random_gep(rng, 2, 2, n=30)
        prior = PriorConfig.defaults(4)
        ladder = TemperingLadder.for_dimension(4, np.linspace(1.0, 1.5, 4))
        for trial in range(30):
            lp1 = float(rng.normal())
            lp2 = float(rng.normal())
            w = float(rng.random())
            u = float(rng.random())
            k0 = int(rng.integers(1, 5))
            a = make_state(rng, 4, k=k0)
            b = make_state(rng, 4, k=int(rng.integers(1, 5)))
            pair = CoupledState(chain1=a, chain2=b)
            solo = ChainState(delta=a.delta.copy(), theta=a.theta.copy(), k=k0)
            coupled_temperature_step(pair, gep, prior, ladder, w, u, lp1, lp2)
            temperature_update(solo, gep, prior, ladder, w, u, lp1)
            assert a.k == solo.k

    def test_equal_states_move_together(self):
        rng = np.random.default_rng(13)
        gep = random_gep(rng, 2, 2, n=30)
        prior = PriorConfig.defaults(4)
        ladder = TemperingLadder.for_dimension(4, np.linspace(1.0, 1.5, 5))
        for trial in range(40):
            k0 = int(rng.integers(1, 6))
            lp = float(rng.normal())
            a = make_state(rng, 4, k=k0)
            b = ChainState(delta=a.delta.copy(), theta=a.theta.copy(), k=k0)
            pair = CoupledState(chain1=a, chain2=b)
            coupled_temperature_step(pair, gep, prior, ladder, *rng.random(2), lp, lp)
            assert a.k == b.k

    def test_adjacent_chains_can_coalesce(self):
        # K=3 with a low log post: the cold chain's inward move accepts while
        # the warmer chain's outward move can reject, landing both on rung 2.
        # (At K=2 both proposals are deterministic crossings, so adjacent
        # chains swap forever; merging needs an interior rung.)
        rng = np.random.default_rng(14)
        gep = random_gep(rng, 2, 2, n=30)
        prior = PriorConfig.defaults(4)
        ladder = TemperingLadder.for_dimension(4, np.linspace(1.0, 1.5, 3))
        merged = 0
        for trial in range(200):
            a = make_state(rng, 4, k=1)
            b = ChainState(delta=a.delta.copy(), theta=a.theta.copy(), k=2)
            pair = CoupledState(chain1=a, chain2=b)
            coupled_temperature_step(
                pair, gep, prior, ladder, *rng.random(2), -10.0, -10.0
            )
            merged += int(a.k == b.k)
        assert merged > 0


unit = st.floats(0.0, 1.0, exclude_max=True)


@st.composite
def met_pair_runs(draw):
    """(p, seed, k, iterations): a dimension, a seed for the GEP and the
    shared start state, its rung, and one to four iterations of draws. Each
    iteration holds a subset, one uniform per subset entry, p normals and
    the coupling, acceptance, direction and temperature uniforms. A uniform
    is 0.0, any value in [0, 1), or ("ulp", d): d ulps from the success
    probability of its coordinate before the sweep, kept in [0, 1)."""
    p = draw(st.integers(2, 8))
    seed = draw(st.integers(0, 2**32 - 1))
    k = draw(st.integers(1, 3))
    uniform = st.one_of(
        st.just(0.0), unit, st.sampled_from([-1, 0, 1]).map(lambda d: ("ulp", d))
    )
    iterations = []
    for _ in range(draw(st.integers(1, 4))):
        subset = draw(st.lists(st.integers(0, p - 1), unique=True, max_size=p))
        uniforms = [draw(uniform) for _ in subset]
        normals = draw(st.lists(st.floats(-6.0, 6.0), min_size=p, max_size=p))
        tail = draw(st.tuples(*[st.one_of(st.just(0.0), unit)] * 4))
        iterations.append((subset, uniforms, normals, tail))
    return p, seed, k, iterations


class TestCoupledStep:
    def test_identical_pair_absorbs_for_100_steps(self):
        rng = np.random.default_rng(15)
        gep = random_gep(rng, 3, 3, n=40)
        prior = PriorConfig.defaults(6)
        ladder = TemperingLadder.for_dimension(6, np.linspace(1.0, 1.5, 3))
        a = make_state(rng, 6, k=2)
        b = ChainState(delta=a.delta.copy(), theta=a.theta.copy(), k=a.k)
        pair = CoupledState(chain1=a, chain2=b)
        for _ in range(100):
            coupled_step(pair, gep, prior, ladder, 6, rng)
            assert a.k == b.k
            assert a.delta.tobytes() == b.delta.tobytes()
            assert a.theta.tobytes() == b.theta.tobytes()

    @given(met_pair_runs())
    def test_met_pair_stays_met_under_any_draws(self, run):
        # coupled_step's composition of the three kernels, driven by
        # arbitrary draws: a pair that has met stays met
        p, seed, k, iterations = run
        rng = np.random.default_rng(seed)
        gep = random_gep(rng, p // 2, p - p // 2, n=40)
        prior = PriorConfig.defaults(p)
        ladder = TemperingLadder.for_dimension(p, np.linspace(1.0, 1.5, 3))
        a = make_state(rng, p, k=k)
        b = ChainState(delta=a.delta.copy(), theta=a.theta.copy(), k=a.k)
        pair = CoupledState(chain1=a, chain2=b)
        for subset, raw, normals, (u_couple, accept_u, w, u) in iterations:
            uniforms = np.empty(len(subset))
            for i, (j, v) in enumerate(zip(subset, raw)):
                if isinstance(v, tuple):
                    v = flip_prob(j, a, gep, prior, ladder)
                    for _ in range(abs(raw[i][1])):
                        v = np.nextafter(v, math.copysign(np.inf, raw[i][1]))
                uniforms[i] = min(max(v, 0.0), np.nextafter(1.0, 0.0))
            coupled_gibbs_step(
                pair, gep, prior, ladder, np.array(subset, dtype=np.int64), uniforms,
                QuadraticCache(gep, a), QuadraticCache(gep, b),
            )
            assert mirrors(pair)
            alpha1, alpha2, r1, r2 = coupled_theta_step(
                pair, gep, prior, ladder, np.array(normals), u_couple, accept_u
            )
            lp1 = log_quasi_posterior(a, gep, prior, r1)
            lp2 = log_quasi_posterior(b, gep, prior, r2)
            coupled_temperature_step(pair, gep, prior, ladder, w, u, lp1, lp2)
            assert alpha1 == alpha2
            assert a.k == b.k
            assert a.delta.tobytes() == b.delta.tobytes()
            assert a.theta.tobytes() == b.theta.tobytes()

    def test_met_pair_stays_met_under_adaptation(self):
        from stcca.adapt import AdaptiveHook, AdaptState

        gep = population_gep(10, 8)
        prior = PriorConfig.defaults(10)
        temps = np.asarray([1.0, 1.25, 1.5])
        ladder = TemperingLadder(
            temperatures=temps,
            log_weights=np.zeros(3),
            step_sizes=0.5 * temps / 10.0,
        )
        adapt = AdaptState.for_ladder(ladder)
        hook = AdaptiveHook(adapt, ladder)
        rng = np.random.default_rng(16)
        pair = make_pair(rng, 10)
        met_at = None
        for t in range(400):
            coupled_step(pair, gep, prior, ladder, 10, rng, adapt=hook)
            if met_at is None and pair.is_identical():
                met_at = t
            elif met_at is not None:
                assert pair.is_identical()
        assert met_at is not None


class TestLaggedMeetingTime:
    def test_toy_replications_all_meet(self):
        gep = population_gep(10, 8)
        prior = PriorConfig.defaults(10)
        taus = replicate_meeting_times(
            gep, prior, 5, temperatures=[1.0, 1.25, 1.5], seed=17, lag=10
        )
        assert all(t is not None for t in taus)
        assert all(t > 10 for t in taus)

    def test_deterministic_given_seed(self):
        gep = population_gep(10, 8)
        prior = PriorConfig.defaults(10)
        kw = dict(temperatures=[1.0, 1.5], seed=18, lag=5, n_max=400)
        assert lagged_meeting_time(gep, prior, **kw) == lagged_meeting_time(
            gep, prior, **kw
        )

    def test_lag_zero_rejected(self):
        gep = population_gep(10, 8)
        prior = PriorConfig.defaults(10)
        with pytest.raises(DomainError):
            lagged_meeting_time(gep, prior, lag=0, seed=19)

    def test_n_max_not_exceeding_lag_rejected(self):
        gep = population_gep(10, 8)
        prior = PriorConfig.defaults(10)
        with pytest.raises(DomainError):
            lagged_meeting_time(gep, prior, lag=50, n_max=50, seed=20)

    def test_tiny_budget_returns_none(self):
        rng = np.random.default_rng(21)
        gep = random_gep(rng, 5, 5, n=5)
        prior = PriorConfig.defaults(10)
        tau = lagged_meeting_time(gep, prior, lag=2, n_max=4, seed=22)
        assert tau is None

    def test_missing_n_rejected(self):
        rng = np.random.default_rng(23)
        g = random_gep(rng, 3, 3, n=10)
        bare = GepPair(A=g.A, B=g.B, p_x=g.p_x, p_y=g.p_y, n=None)
        with pytest.raises(DomainError):
            lagged_meeting_time(bare, PriorConfig.defaults(6), seed=24)


class TestTvBoundCurve:
    def test_all_meet_right_after_lag(self):
        curve = tv_bound_curve([6, 6, 6], lag=5)
        assert curve.bound[0] == pytest.approx(1.0)
        assert curve.bound[1] == pytest.approx(0.0)

    def test_bound_may_exceed_one_for_slow_meetings(self):
        curve = tv_bound_curve([3], lag=1)
        assert curve.t_grid.tolist() == [0, 1, 2]
        assert curve.bound.tolist() == [2.0, 1.0, 0.0]

    def test_hand_computed_two_replication_curve(self):
        curve = tv_bound_curve([3, 6], lag=2)
        assert curve.t_grid.tolist() == [0, 1, 2, 3, 4]
        assert curve.bound.tolist() == [1.5, 1.0, 0.5, 0.5, 0.0]

    def test_nonnegative_and_nonincreasing(self):
        rng = np.random.default_rng(25)
        taus = (rng.integers(11, 200, size=40)).tolist()
        curve = tv_bound_curve(taus, lag=10)
        assert np.all(curve.bound >= 0)
        assert np.all(np.diff(curve.bound) <= 1e-12)

    def test_mixing_time_thresholds(self):
        curve = tv_bound_curve([3, 6], lag=2)
        assert curve.mixing_time(0.6) == 2
        assert curve.mixing_time(0.1) == 4

    def test_empty_input_rejected(self):
        with pytest.raises(EmptyInputError):
            tv_bound_curve([], lag=3)

    def test_unmet_replication_rejected(self):
        with pytest.raises(DomainError):
            tv_bound_curve([12, None], lag=3)

    def test_bad_lag_rejected(self):
        with pytest.raises(DomainError):
            tv_bound_curve([5], lag=0)
