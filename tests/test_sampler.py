from __future__ import annotations

import collections

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from stcca.covariance import GepPair, assemble_gep
from stcca.errors import DomainError, UndefinedQuotientError
from stcca.model import (
    ChainState,
    PriorConfig,
    QuadraticCache,
    TemperingLadder,
    log_quasi_posterior,
    rayleigh_selected,
)
from stcca.sampler import (
    advance_chain,
    draw_subset,
    gibbs_update_delta,
    initial_state,
    mala_update_theta,
    run_chain,
    temperature_update,
)

from helpers import flip_prob, random_gep, selected_grad


def planted_gep(n=200) -> GepPair:
    """p=4 toy with a dominant planted pair on coordinates (0, 2)."""
    Sx = np.eye(2)
    Sy = np.eye(2)
    Sxy = np.zeros((2, 2))
    Sxy[0, 0] = 0.9
    return assemble_gep(Sx, Sy, Sxy, n=n)


def scalar_fisher_yates(p, size, rng):
    """Reference: the partial Fisher-Yates loop with one scalar draw per
    position, which draw_subset must match value for value and leave the
    generator in the same state."""
    size = min(size, p)
    idx = np.arange(p)
    for i in range(size):
        j = i + int(rng.integers(p - i))
        idx[i], idx[j] = idx[j], idx[i]
    return idx[:size].copy()


class TestDrawSubset:
    @given(st.integers(1, 1200), st.data(), st.integers(0, 2**64 - 1))
    def test_equals_scalar_fisher_yates(self, p, data, seed):
        size = data.draw(st.integers(0, p + 5))
        rng = np.random.default_rng(seed)
        ref = np.random.default_rng(seed)
        got = draw_subset(p, size, rng)
        want = scalar_fisher_yates(p, size, ref)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_no_duplicates_and_range(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            s = draw_subset(20, 7, rng)
            assert len(set(s.tolist())) == 7
            assert s.min() >= 0 and s.max() < 20

    def test_size_zero(self):
        rng = np.random.default_rng(1)
        assert draw_subset(5, 0, rng).size == 0

    def test_oversize_clipped_to_permutation(self):
        rng = np.random.default_rng(2)
        s = draw_subset(6, 100, rng)
        assert sorted(s.tolist()) == list(range(6))

    def test_marginal_uniformity(self):
        # each coordinate should appear with frequency J/p
        rng = np.random.default_rng(3)
        p, J, reps = 12, 4, 6000
        counts = np.zeros(p)
        for _ in range(reps):
            counts[draw_subset(p, J, rng)] += 1
        freq = counts / reps
        expect = J / p
        se = np.sqrt(expect * (1 - expect) / reps)
        assert np.all(np.abs(freq - expect) < 4 * se)


def sweep_to(state, g, prior, lad, j, u) -> int:
    """Run a one-coordinate sweep of j at uniform u on a copy of state and
    return j's indicator afterwards."""
    s = state.copy()
    gibbs_update_delta(s, g, prior, lad, np.array([j]), np.array([u]), QuadraticCache(g, s))
    assert np.array_equal(np.delete(s.delta, j), np.delete(state.delta, j))
    return int(s.delta[j])


@st.composite
def sweep_cases(draw):
    """(gep, prior, ladder, state, j): a random problem with p <= 8, a ladder
    of up to five rungs with random log weights, a state on a random rung,
    and the coordinate to sweep."""
    p = draw(st.integers(2, 8))
    p_x = draw(st.integers(1, p - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = random_gep(rng, p_x, p - p_x, n=draw(st.integers(1, 40)))
    prior = PriorConfig(q=draw(st.floats(0.01, 0.99)))
    temps = np.cumsum([1.0] + draw(st.lists(st.floats(0.05, 1.0), max_size=4)))
    lad = TemperingLadder(
        temperatures=temps,
        log_weights=rng.uniform(-2.0, 2.0, temps.size),
        step_sizes=np.full(temps.size, 0.1),
    )
    delta = draw(st.lists(st.integers(0, 1), min_size=p, max_size=p))
    state = ChainState(
        delta=delta, theta=rng.standard_normal(p), k=draw(st.integers(1, temps.size))
    )
    return g, prior, lad, state, draw(st.integers(0, p - 1))


class TestGibbsSuccessProb:
    """The sweep's success probability q_j against the log_tempered
    reference of tests/helpers.py."""

    def test_single_active_coordinate_is_forced(self):
        rng = np.random.default_rng(5)
        g = random_gep(rng, 3, 3, n=40)
        state = ChainState(
            delta=np.array([0, 0, 1, 0, 0, 0]), theta=rng.standard_normal(6)
        )
        prior = PriorConfig.defaults(6)
        lad = TemperingLadder.for_dimension(6)
        assert flip_prob(2, state, g, prior, lad) == 1.0
        assert sweep_to(state, g, prior, lad, 2, np.nextafter(1.0, 0.0)) == 1

    def test_zero_quotient_difference_reduces_to_prior_odds(self):
        # A = 0 kills the quotient term; rho0 = rho1 kills the Gaussian term
        Sx = np.eye(2)
        g = assemble_gep(Sx, Sx, np.zeros((2, 2)), n=30)
        prior = PriorConfig(rho0=3.0, rho1=3.0, q=0.2)
        lad = TemperingLadder(
            temperatures=np.array([1.0, 2.0]),
            log_weights=np.zeros(2),
            step_sizes=np.array([0.1, 0.1]),
        )
        rng = np.random.default_rng(6)
        state = ChainState(
            delta=np.array([1, 1, 0, 1]), theta=rng.standard_normal(4), k=2
        )
        want = 1.0 / (1.0 + np.exp(-prior.a / 2.0))
        assert flip_prob(0, state, g, prior, lad) == pytest.approx(want, rel=1e-12)
        assert sweep_to(state, g, prior, lad, 0, want * (1 - 1e-9)) == 1
        assert sweep_to(state, g, prior, lad, 0, want * (1 + 1e-9)) == 0

    @given(sweep_cases())
    def test_matches_tempered_density_ratio(self, case):
        # two-point oracle: q_j = sigmoid(logpi(delta_on) - logpi(delta_off)),
        # away from the forced and zero-probability edges
        g, prior, lad, state, j = case
        q = flip_prob(j, state, g, prior, lad)
        assume(1e-4 < q < 1.0 - 1e-4)
        assert sweep_to(state, g, prior, lad, j, q * (1 - 1e-9)) == 1
        assert sweep_to(state, g, prior, lad, j, q * (1 + 1e-9)) == 0


class TestGibbsUpdateDelta:
    def test_empty_subset_is_identity(self):
        rng = np.random.default_rng(8)
        g = random_gep(rng, 3, 3, n=30)
        state = ChainState(delta=np.array([1, 0, 1, 0, 1, 0]), theta=rng.standard_normal(6))
        before = state.delta.copy()
        gibbs_update_delta(
            state, g, PriorConfig.defaults(6), TemperingLadder.for_dimension(6),
            np.array([], dtype=int), rng.random(0), QuadraticCache(g, state),
        )
        assert np.array_equal(state.delta, before)

    def test_coordinates_outside_subset_untouched(self):
        rng = np.random.default_rng(9)
        g = random_gep(rng, 4, 4, n=30)
        prior = PriorConfig.defaults(8)
        lad = TemperingLadder.for_dimension(8)
        state = ChainState(delta=np.ones(8), theta=rng.standard_normal(8))
        before = state.delta.copy()
        subset = np.array([1, 5])
        gibbs_update_delta(
            state, g, prior, lad, subset, rng.random(subset.size), QuadraticCache(g, state)
        )
        outside = [j for j in range(8) if j not in (1, 5)]
        assert np.array_equal(state.delta[outside], before[outside])

    def test_forced_coordinate_survives(self):
        rng = np.random.default_rng(10)
        g = random_gep(rng, 2, 2, n=30)
        prior = PriorConfig.defaults(4)
        lad = TemperingLadder.for_dimension(4)
        for seed in range(30):
            state = ChainState(
                delta=np.array([0, 1, 0, 0]), theta=np.random.default_rng(seed).standard_normal(4)
            )
            u = np.random.default_rng(seed + 100).random()
            assert sweep_to(state, g, prior, lad, 1, u) == 1

    def test_forced_coordinate_stays_on_at_uniform_one(self):
        # the last active coordinate has log-odds +inf: no uniform in [0, 1],
        # 1.0 included, may empty the support
        rng = np.random.default_rng(5)
        g = random_gep(rng, 3, 3, n=40)
        state = ChainState(
            delta=np.array([0, 0, 1, 0, 0, 0]), theta=rng.standard_normal(6)
        )
        prior = PriorConfig.defaults(6)
        lad = TemperingLadder.for_dimension(6)
        assert sweep_to(state, g, prior, lad, 2, 1.0) == 1

    def test_branch_without_quotient_has_probability_zero(self):
        # B indefinite, built directly: a branch with theta' B theta <= 0 has
        # no quotient and probability 0, whatever the uniform
        prior = PriorConfig.defaults(3)
        lad = TemperingLadder.for_dimension(3)
        ones = np.ones(3)
        g = GepPair(A=np.zeros((3, 3)), B=np.diag([1.0, -5.0, 1.0]), p_x=1, p_y=2, n=10)
        # switching 1 on gives theta' B theta = -4: it stays off even at u = 0.0
        assert sweep_to(ChainState(delta=[1, 0, 0], theta=ones), g, prior, lad, 1, 0.0) == 0
        # switching 0 off leaves -0.5: it stays on even at u = 1.0
        g = GepPair(A=np.zeros((3, 3)), B=np.diag([1.0, -0.5, 1.0]), p_x=1, p_y=2, n=10)
        assert sweep_to(ChainState(delta=[1, 1, 0], theta=ones), g, prior, lad, 0, 1.0) == 1

    @pytest.mark.parametrize("delta, j", [([0, 1, 0], 1), ([1, 1, 0], 0)], ids=["last", "both"])
    def test_both_branches_without_quotient_raise(self, delta, j):
        # "last": the off branch is the empty model and the on branch has
        # theta' B theta = -5; "both": the branches have -4 and -5
        g = GepPair(A=np.zeros((3, 3)), B=np.diag([1.0, -5.0, 1.0]), p_x=1, p_y=2, n=10)
        state = ChainState(delta=delta, theta=np.ones(3))
        with pytest.raises(UndefinedQuotientError):
            sweep_to(state, g, PriorConfig.defaults(3), TemperingLadder.for_dimension(3), j, 0.5)

    def test_injected_uniform_thresholds(self):
        rng = np.random.default_rng(11)
        g = random_gep(rng, 3, 3, n=30)
        prior = PriorConfig.defaults(6)
        lad = TemperingLadder.for_dimension(6)
        state = ChainState(delta=np.array([1, 1, 0, 0, 1, 0]), theta=rng.standard_normal(6))
        # u = 0 lies below every q_j > 0, so the coordinate switches on
        assert sweep_to(state, g, prior, lad, 3, 0.0) == 1
        state.delta[3] = 1
        # u = 1 exceeds every q_j < 1, switching a non-forced coordinate off
        assert sweep_to(state, g, prior, lad, 3, 1.0) == 0

    def test_zero_probability_stays_off_at_zero_uniform(self):
        # at n = 2000 switching coordinate 1 on costs the planted quotient
        # enough that the log-odds fall below -745, where the sigmoid
        # underflows to exactly 0.0; Bernoulli(0) must not fire even at the
        # uniform 0.0, a value Generator.random can return
        g = planted_gep(n=2000)
        prior = PriorConfig(rho0=1.0, rho1=1.0, q=0.2)
        lad = TemperingLadder.for_dimension(4)
        state = ChainState(delta=np.array([1, 0, 1, 0]), theta=np.array([1.0, 1.0, 1.0, 0.0]))
        assert flip_prob(1, state, g, prior, lad) == 0.0
        assert sweep_to(state, g, prior, lad, 1, 0.0) == 0

    def test_single_coordinate_frequency(self):
        # Monte Carlo frequency oracle at reduced scale
        rng = np.random.default_rng(12)
        g = random_gep(rng, 3, 3, n=35)
        prior = PriorConfig.defaults(6)
        lad = TemperingLadder.for_dimension(6)
        base = ChainState(delta=np.array([1, 0, 1, 0, 0, 1]), theta=rng.standard_normal(6))
        j = 3
        q = flip_prob(j, base, g, prior, lad)
        assert 0.0 < q < 1.0
        reps = 20_000
        hits = 0
        for _ in range(reps):
            hits += sweep_to(base, g, prior, lad, j, rng.random())
        freq = hits / reps
        se = np.sqrt(q * (1 - q) / reps)
        assert abs(freq - q) <= 3 * se


class TestMalaUpdateTheta:
    def test_vanishing_step_accepts(self):
        rng = np.random.default_rng(13)
        g = random_gep(rng, 3, 3, n=40)
        prior = PriorConfig.defaults(6)
        lad = TemperingLadder(
            temperatures=np.array([1.0, 1.5]),
            log_weights=np.zeros(2),
            step_sizes=np.array([1e-12, 1e-12]),
        )
        state = ChainState(delta=np.array([1, 1, 0, 1, 0, 0]), theta=rng.standard_normal(6))
        sel_size = 3
        normals = np.concatenate([rng.standard_normal(6 - sel_size), np.zeros(sel_size)])
        accepted, alpha, _ = mala_update_theta(state, g, prior, lad, normals, 0.999999)
        assert accepted
        assert alpha > 1 - 1e-6

    def test_unselected_redraw_variance(self):
        rng = np.random.default_rng(14)
        g = random_gep(rng, 2, 2, n=40)
        prior = PriorConfig.defaults(4)
        lad = TemperingLadder(
            temperatures=np.array([1.0, 2.0]),
            log_weights=np.zeros(2),
            step_sizes=np.array([0.05, 0.05]),
        )
        state = ChainState(
            delta=np.array([1, 0, 0, 1]), theta=rng.standard_normal(4), k=2
        )
        draws = []
        for _ in range(30_000):
            mala_update_theta(state, g, prior, lad, rng.standard_normal(4), rng.random())
            draws.append(state.theta[1])
        var = np.var(draws)
        want = lad.temperatures[1] / prior.rho0  # 0.2
        assert abs(var - want) / want < 0.02
        assert abs(np.mean(draws)) < 5 * np.sqrt(want / 30_000)

    def test_one_dim_block_samples_its_gaussian_target(self):
        # scale invariance makes the quotient constant on 1-dim blocks, so
        # the selected coordinate targets exactly Normal(0, t_k / rho1)
        rng = np.random.default_rng(15)
        g = random_gep(rng, 2, 2, n=40)
        prior = PriorConfig.defaults(4)
        lad = TemperingLadder(
            temperatures=np.array([1.0, 1.25]),
            log_weights=np.zeros(2),
            step_sizes=np.array([1.5, 1.5]),
        )
        state = ChainState(delta=np.array([0, 0, 1, 0]), theta=rng.standard_normal(4), k=2)
        xs = np.empty(25_000)
        for i in range(xs.size):
            mala_update_theta(state, g, prior, lad, rng.standard_normal(4), rng.random())
            xs[i] = state.theta[2]
        want = lad.temperatures[1] / prior.rho1  # 2.5
        assert abs(np.var(xs) - want) / want < 0.1

    def test_domain_violating_proposal_rejected(self):
        # indefinite B (an unrepaired rank-based estimate): steer the
        # proposal into the negative-curvature direction
        g = assemble_gep(
            np.array([[1.0]]), np.array([[-0.5]]), np.array([[0.3]]), n=20
        )
        prior = PriorConfig.defaults(2)
        lad = TemperingLadder(
            temperatures=np.array([1.0]), log_weights=np.zeros(1), step_sizes=np.array([0.01])
        )
        delta = np.array([1, 1])
        theta0 = np.array([1.0, 0.5])
        state = ChainState(delta=delta.copy(), theta=theta0.copy())
        eta = 0.01
        gvec = selected_grad(theta0, 1, delta, g, prior, lad)
        target = np.array([0.0, 1.0])  # theta' B theta = 0 there
        xi = (target - theta0 - eta * gvec) / np.sqrt(2 * eta)
        accepted, alpha, _ = mala_update_theta(state, g, prior, lad, xi, 0.0)
        assert not accepted
        assert alpha == 0.0
        assert np.array_equal(state.theta, theta0)

    def test_missing_n_rejected(self):
        g = assemble_gep(np.eye(1), np.eye(1), np.zeros((1, 1)))
        state = ChainState(delta=np.array([1, 0]), theta=np.zeros(2))
        with pytest.raises(DomainError):
            mala_update_theta(
                state, g, PriorConfig.defaults(2), TemperingLadder.for_dimension(2),
                np.zeros(2), 0.5,
            )


class TestTemperatureUpdate:
    def _setup(self, K, log_weights=None):
        rng = np.random.default_rng(16)
        g = random_gep(rng, 2, 2, n=30)
        prior = PriorConfig.defaults(4)
        temps = 1.0 + 0.5 * np.arange(K)
        lad = TemperingLadder(
            temperatures=temps,
            log_weights=np.zeros(K) if log_weights is None else log_weights,
            step_sizes=np.full(K, 0.1),
        )
        state = ChainState(delta=np.array([1, 0, 1, 0]), theta=rng.standard_normal(4))
        return state, g, prior, lad

    def test_single_level_is_identity_and_draws_nothing(self):
        state, g, prior, lad = self._setup(1)
        temperature_update(state, g, prior, lad, None, None, 0.0)
        assert state.k == 1
        # so an iteration at K=1 draws the subset, J uniforms, p normals and
        # the MALA acceptance uniform, and nothing for the temperature move
        rng = np.random.default_rng(99)
        probe = np.random.default_rng(99)
        advance_chain(state, g, prior, lad, 2, rng)
        draw_subset(4, 2, probe)
        probe.random(2)
        probe.standard_normal(4)
        probe.random()
        assert rng.bit_generator.state == probe.bit_generator.state

    def test_boundary_corrections_at_three_levels(self):
        # flat target (log_post = 0, equal weights) isolates the Hastings
        # correction: boundary -> interior accepts with probability 1/2,
        # interior -> boundary always accepts
        state, g, prior, lad = self._setup(3)
        state.k = 1
        temperature_update(state, g, prior, lad, 0.9, 0.499, 0.0)
        assert state.k == 2
        state.k = 1
        temperature_update(state, g, prior, lad, 0.1, 0.501, 0.0)
        assert state.k == 1
        state.k = 2
        temperature_update(state, g, prior, lad, 0.3, 0.999, 0.0)
        assert state.k == 1  # interior -> boundary, ratio 2, accepts
        state.k = 2
        temperature_update(state, g, prior, lad, 0.7, 0.999, 0.0)
        assert state.k == 3

    def test_direction_uniform_threshold(self):
        state, g, prior, lad = self._setup(5)
        state.k = 3
        temperature_update(state, g, prior, lad, 0.5, 0.49, 0.0)
        assert state.k == 2  # w = 0.5 goes left
        state.k = 3
        temperature_update(state, g, prior, lad, 0.51, 0.49, 0.0)
        assert state.k == 4

    def test_zero_acceptance_uniform_accepts(self):
        # Generator.random can return exactly 0.0, which has no logarithm;
        # it lies below every acceptance probability, so the move is taken
        state, g, prior, lad = self._setup(3)
        state.k = 1
        temperature_update(state, g, prior, lad, 0.9, 0.0, 0.0)
        assert state.k == 2

    def test_occupancy_matches_weights(self):
        # fixed state, k moves alone: stationary law known in closed form
        state, g, prior, lad = self._setup(3, log_weights=np.array([0.0, 0.7, -0.4]))
        L = log_quasi_posterior(state, g, prior, rayleigh_selected(state, g))
        log_w = -lad.log_weights + L / lad.temperatures
        pi = np.exp(log_w - log_w.max())
        pi /= pi.sum()
        rng = np.random.default_rng(17)
        steps = 200_000
        counts = np.zeros(3)
        for _ in range(steps):
            temperature_update(state, g, prior, lad, *rng.random(2), L)
            counts[state.k - 1] += 1
        occ = counts / steps
        assert np.max(np.abs(occ - pi)) < 0.01


class TestInitialState:
    def test_shapes_and_cold_start(self):
        rng = np.random.default_rng(18)
        s = initial_state(12, rng)
        assert s.k == 1
        assert s.delta.shape == (12,)
        assert s.theta.shape == (12,)
        assert s.n_active >= 1

    def test_support_is_fair_coin(self):
        rng = np.random.default_rng(19)
        means = np.mean([initial_state(10, rng).delta for _ in range(4000)], axis=0)
        assert np.all(np.abs(means - 0.5) < 0.035)


class TestRunChain:
    def _gep(self, rng):
        return random_gep(rng, 3, 3, n=40)

    def test_zero_iterations_keeps_initial_state_only(self):
        g = self._gep(np.random.default_rng(20))
        tr = run_chain(g, PriorConfig.defaults(6), TemperingLadder.for_dimension(6),
                       n_iters=0, seed=1)
        assert tr.delta.shape == (1, 6)
        assert tr.k.tolist() == [1]

    def test_same_seed_bit_identical(self):
        g = self._gep(np.random.default_rng(21))
        prior = PriorConfig.defaults(6)
        lad = TemperingLadder.for_dimension(6)
        a = run_chain(g, prior, lad, n_iters=200, seed=7)
        b = run_chain(g, prior, lad, n_iters=200, seed=7)
        assert np.array_equal(a.delta, b.delta)
        assert np.array_equal(a.theta, b.theta)
        assert np.array_equal(a.k, b.k)
        assert np.array_equal(a.rayleigh, b.rayleigh)

    def test_support_never_empty_and_k_in_range(self):
        g = self._gep(np.random.default_rng(22))
        tr = run_chain(g, PriorConfig.defaults(6), TemperingLadder.for_dimension(6),
                       n_iters=500, seed=3)
        assert tr.support_sizes().min() >= 1
        assert tr.k.min() >= 1 and tr.k.max() <= 5
        assert np.all(np.isfinite(tr.rayleigh))

    def test_planted_pair_identified(self):
        # dominant planted pair at p=4; the post burn-in mode of the support
        # should be exactly {0, 2} for nearly every seed
        g = planted_gep(n=200)
        prior = PriorConfig.defaults(4)
        hits = 0
        n_seeds = 20
        for seed in range(n_seeds):
            lad = TemperingLadder.for_dimension(4)
            tr = run_chain(g, prior, lad, n_iters=2000, seed=seed)
            burn = 3 * tr.n_iters // 4
            rows = [tuple(row) for row in tr.delta[burn:]]
            mode = collections.Counter(rows).most_common(1)[0][0]
            if mode == (1, 0, 1, 0):
                hits += 1
        assert hits >= int(0.95 * n_seeds)

    def test_subset_size_clipped(self):
        g = self._gep(np.random.default_rng(23))
        tr = run_chain(g, PriorConfig.defaults(6), TemperingLadder.for_dimension(6),
                       n_iters=50, subset_size=1000, seed=5)
        assert tr.n_iters == 50
