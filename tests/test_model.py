from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st

from stcca.covariance import GepPair, assemble_gep
from stcca.errors import DomainError, UndefinedQuotientError
from stcca.model import (
    ChainState,
    PriorConfig,
    QuadraticCache,
    TemperingLadder,
    log_quasi_posterior,
    log_tempered,
    rayleigh,
    rayleigh_selected,
)

from helpers import random_gep, selected_grad


def toy_gep(n=None) -> GepPair:
    return assemble_gep(np.array([[1.0]]), np.array([[1.0]]), np.array([[0.5]]), n=n)


class TestPriorConfig:
    def test_defaults_follow_dimension(self):
        prior = PriorConfig.defaults(100)
        assert prior.rho0 == 10.0
        assert prior.rho1 == 0.5
        assert prior.sigma == 1.0
        assert prior.q == pytest.approx(100.0**-1.5)
        assert prior.a == pytest.approx(np.log(prior.q / (1 - prior.q)))

    def test_equal_precisions_allowed(self):
        prior = PriorConfig(rho0=2.0, rho1=2.0, q=0.5)
        assert prior.a == 0.0

    def test_invalid_rejected(self):
        with pytest.raises(DomainError):
            PriorConfig(rho0=1.0, rho1=2.0, q=0.5)
        with pytest.raises(DomainError):
            PriorConfig(q=0.0)
        with pytest.raises(DomainError):
            PriorConfig(q=1.0)
        with pytest.raises(DomainError):
            PriorConfig(sigma=-1.0)


class TestTemperingLadder:
    def test_default_ladder(self):
        lad = TemperingLadder.for_dimension(50)
        assert lad.K == 5
        assert lad.temperatures[0] == 1.0
        assert np.allclose(lad.temperatures, [1, 1 / 0.9, 1 / 0.8, 1 / 0.7, 1 / 0.6])
        assert np.allclose(lad.step_sizes, 0.5 * lad.temperatures / 50)
        assert np.all(lad.log_weights == 0.0)

    def test_validation(self):
        for t in ([2.0, 3.0], [1.0, 1.0]):
            t = np.array(t)
            with pytest.raises(DomainError):
                TemperingLadder(temperatures=t, log_weights=np.zeros(2), step_sizes=0.1 * t)
        with pytest.raises(DomainError):
            TemperingLadder(
                temperatures=np.array([1.0, 2.0]),
                log_weights=np.zeros(2),
                step_sizes=np.array([0.1, 0.0]),
            )

    def test_copy_is_independent(self):
        lad = TemperingLadder.for_dimension(10)
        cp = lad.copy()
        cp.log_weights[2] = 5.0
        assert lad.log_weights[2] == 0.0


class TestRayleigh:
    def test_symmetric_two_dim(self):
        gep = toy_gep()
        assert rayleigh(np.array([1.0, 1.0]), gep) == pytest.approx(0.5)

    def test_scale_invariance(self):
        gep = toy_gep()
        assert rayleigh(np.array([3.0, 3.0]), gep) == pytest.approx(0.5)
        rng = np.random.default_rng(2)
        g = random_gep(rng, 3, 4)
        th = rng.standard_normal(7)
        assert rayleigh(2.7 * th, g) == pytest.approx(rayleigh(th, g))

    def test_sign_symmetry(self):
        rng = np.random.default_rng(4)
        g = random_gep(rng, 3, 3)
        th = rng.standard_normal(6)
        assert rayleigh(-th, g) == pytest.approx(rayleigh(th, g))

    def test_population_truth_value(self):
        from stcca.simdata import build_population_cov

        model = build_population_cov(20)
        m = model.p_x
        S = model.Sigma
        gep = assemble_gep(S[:m, :m], S[m:, m:], S[:m, m:])
        truth = np.concatenate([model.v_x_star, model.v_y_star])
        assert rayleigh(truth, gep) == pytest.approx(0.9, abs=1e-10)

    def test_zero_vector_rejected(self):
        with pytest.raises(UndefinedQuotientError):
            rayleigh(np.zeros(2), toy_gep())


class TestRayleighSelected:
    def test_empty_is_minus_inf(self):
        state = ChainState(delta=np.zeros(2), theta=np.ones(2))
        assert rayleigh_selected(state, toy_gep()) == -np.inf

    def test_full_mask_matches_plain(self):
        rng = np.random.default_rng(6)
        g = random_gep(rng, 2, 3)
        th = rng.standard_normal(5)
        state = ChainState(delta=np.ones(5), theta=th)
        assert rayleigh_selected(state, g) == pytest.approx(rayleigh(th, g))

    def test_matches_masked_oracle(self):
        rng = np.random.default_rng(8)
        g = random_gep(rng, 4, 4)
        for _ in range(10):
            delta = rng.integers(0, 2, size=8)
            if delta.sum() == 0:
                delta[rng.integers(8)] = 1
            th = rng.standard_normal(8)
            state = ChainState(delta=delta, theta=th)
            masked = th * delta
            want = (masked @ g.A @ masked) / (masked @ g.B @ masked)
            assert rayleigh_selected(state, g) == pytest.approx(want, rel=1e-12)


class TestLogQuasiPosterior:
    def test_equal_precisions_collapse(self):
        # rho0 = rho1 = rho makes the Gaussian part -(rho/2)|theta|^2
        rng = np.random.default_rng(10)
        g = random_gep(rng, 3, 3, n=40)
        prior = PriorConfig(rho0=2.0, rho1=2.0, q=0.3)
        delta = np.array([1, 0, 1, 0, 1, 0])
        th = rng.standard_normal(6)
        state = ChainState(delta=delta, theta=th)
        got = log_quasi_posterior(state, g, prior, rayleigh_selected(state, g))
        want = (
            prior.a * 3
            - 1.0 * th @ th
            + (2 * 40 / 1.0) * rayleigh_selected(state, g)
        )
        assert got == pytest.approx(want, rel=1e-12)

    def test_linear_in_n(self):
        rng = np.random.default_rng(12)
        prior = PriorConfig.defaults(6)
        delta = np.array([1, 1, 0, 0, 1, 0])
        th = rng.standard_normal(6)
        g1 = random_gep(rng, 3, 3, n=25)
        g2 = GepPair(A=g1.A, B=g1.B, p_x=3, p_y=3, n=50)
        s = ChainState(delta=delta, theta=th)
        g0 = GepPair(A=g1.A, B=g1.B, p_x=3, p_y=3, n=0)
        r = rayleigh_selected(s, g1)  # A and B are shared, only n differs
        gauss = log_quasi_posterior(s, g0, prior, r)
        assert log_quasi_posterior(s, g2, prior, r) - gauss == pytest.approx(
            2 * (log_quasi_posterior(s, g1, prior, r) - gauss), rel=1e-12
        )

    def test_term_by_term_oracle(self):
        rng = np.random.default_rng(14)
        g = random_gep(rng, 3, 3, n=33)
        prior = PriorConfig(rho0=7.0, rho1=0.9, q=0.2, sigma=1.3)
        delta = np.array([0, 1, 1, 0, 0, 1])
        th = rng.standard_normal(6)
        state = ChainState(delta=delta, theta=th)
        sel = delta.astype(bool)
        want = (
            np.log(0.2 / 0.8) * sel.sum()
            - 0.45 * np.sum(th[sel] ** 2)
            - 3.5 * np.sum(th[~sel] ** 2)
            + (2 * 33 / 1.3**2) * rayleigh(th * delta, g)
        )
        got = log_quasi_posterior(state, g, prior, rayleigh_selected(state, g))
        assert got == pytest.approx(want, abs=1e-10)

    def test_sign_flip_invariance(self):
        rng = np.random.default_rng(16)
        g = random_gep(rng, 2, 2, n=20)
        prior = PriorConfig.defaults(4)
        delta = np.array([1, 0, 1, 0])
        th = rng.standard_normal(4)
        pos = ChainState(delta=delta, theta=th)
        neg = ChainState(delta=delta, theta=-th)
        a = log_quasi_posterior(pos, g, prior, rayleigh_selected(pos, g))
        b = log_quasi_posterior(neg, g, prior, rayleigh_selected(neg, g))
        assert a == pytest.approx(b, rel=1e-14)

    def test_missing_n_rejected(self):
        g = toy_gep(n=None)
        state = ChainState(delta=np.ones(2), theta=np.ones(2))
        with pytest.raises(DomainError):
            log_quasi_posterior(state, g, PriorConfig.defaults(2), rayleigh_selected(state, g))


class TestLogTempered:
    def test_cold_level_matches_base(self):
        rng = np.random.default_rng(18)
        g = random_gep(rng, 3, 2, n=30)
        prior = PriorConfig.defaults(5)
        lad = TemperingLadder.for_dimension(5)
        state = ChainState(delta=np.array([1, 0, 0, 1, 0]), theta=rng.standard_normal(5), k=1)
        assert log_tempered(state, g, prior, lad) == pytest.approx(
            log_quasi_posterior(state, g, prior, rayleigh_selected(state, g))
        )

    def test_high_temperature_flattens_to_weight(self):
        rng = np.random.default_rng(20)
        g = random_gep(rng, 2, 2, n=30)
        prior = PriorConfig.defaults(4)
        lad = TemperingLadder(
            temperatures=np.array([1.0, 1e12]),
            log_weights=np.array([0.0, 3.7]),
            step_sizes=np.array([0.1, 0.1]),
        )
        state = ChainState(delta=np.array([1, 0, 1, 0]), theta=rng.standard_normal(4), k=2)
        assert log_tempered(state, g, prior, lad) == pytest.approx(-3.7, abs=1e-9)

    def test_term_wise_oracle_k3(self):
        rng = np.random.default_rng(22)
        g = random_gep(rng, 3, 3, n=44)
        prior = PriorConfig.defaults(6)
        lad = TemperingLadder(
            temperatures=np.array([1.0, 1.5, 2.5]),
            log_weights=np.array([0.2, -0.4, 1.1]),
            step_sizes=np.array([0.1, 0.1, 0.1]),
        )
        th = rng.standard_normal(6)
        state = ChainState(delta=np.array([1, 1, 0, 0, 1, 0]), theta=th, k=3)
        want = -1.1 + log_quasi_posterior(state, g, prior, rayleigh_selected(state, g)) / 2.5
        assert log_tempered(state, g, prior, lad) == pytest.approx(want, rel=1e-12)

    def test_bad_index_rejected(self):
        g = toy_gep(n=5)
        prior = PriorConfig.defaults(2)
        lad = TemperingLadder.for_dimension(2)
        state = ChainState(delta=np.ones(2), theta=np.ones(2), k=6)
        with pytest.raises(IndexError):
            log_tempered(state, g, prior, lad)


class TestGradSelected:
    """The MALA gradient: selected_target on the block the sampler builds."""

    def _logw(self, u, sel, k, gep, prior, lad):
        """Selected-block log target recomputed from scratch."""
        A_ss = gep.A[np.ix_(sel, sel)]
        B_ss = gep.B[np.ix_(sel, sel)]
        r = (u @ A_ss @ u) / (u @ B_ss @ u)
        t = lad.temperatures[k - 1]
        return (-0.5 * prior.rho1 * u @ u + (2 * gep.n / prior.sigma**2) * r) / t

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(24)
        prior = PriorConfig.defaults(10)
        lad = TemperingLadder.for_dimension(10)
        h = 1e-6
        worst = 0.0
        for trial in range(20):
            g = random_gep(rng, 5, 5, n=60)
            delta = rng.integers(0, 2, size=10)
            if delta.sum() == 0:
                delta[0] = 1
            sel = np.flatnonzero(delta)
            u = rng.standard_normal(sel.size)
            k = int(rng.integers(1, 6))
            grad = selected_grad(u, k, delta, g, prior, lad)
            fd = np.zeros_like(u)
            for i in range(u.size):
                up = u.copy()
                um = u.copy()
                up[i] += h
                um[i] -= h
                fd[i] = (
                    self._logw(up, sel, k, g, prior, lad)
                    - self._logw(um, sel, k, g, prior, lad)
                ) / (2 * h)
            rel = np.max(np.abs(grad - fd)) / max(np.max(np.abs(fd)), 1e-12)
            worst = max(worst, rel)
        assert worst <= 1e-5

    def test_zero_at_eigenvector_up_to_prior(self):
        # at a generalized eigenvector the quotient gradient vanishes
        rng = np.random.default_rng(26)
        g = random_gep(rng, 4, 4, n=50)
        delta = np.array([1, 1, 0, 1, 0, 0, 1, 0])
        sel = np.flatnonzero(delta)
        A_ss = g.A[np.ix_(sel, sel)]
        B_ss = g.B[np.ix_(sel, sel)]
        w, V = scipy.linalg.eigh(A_ss, B_ss)
        u = V[:, -1]
        prior = PriorConfig.defaults(8)
        lad = TemperingLadder.for_dimension(8)
        grad = selected_grad(u, 2, delta, g, prior, lad)
        t2 = lad.temperatures[1]
        assert np.allclose(grad, -prior.rho1 * u / t2, atol=1e-9)

    def test_quotient_gradient_degree_minus_one(self):
        # grad R(cu) = grad R(u) / c; isolate by differencing two priors
        rng = np.random.default_rng(28)
        g = random_gep(rng, 3, 3, n=70)
        delta = np.array([1, 0, 1, 1, 0, 1])
        u = rng.standard_normal(4)
        lad = TemperingLadder.for_dimension(6)
        prior = PriorConfig(rho0=5.0, rho1=1e-12, q=0.5)
        c = 3.0
        g1 = selected_grad(u, 1, delta, g, prior, lad)
        g2 = selected_grad(c * u, 1, delta, g, prior, lad)
        assert np.allclose(g2, g1 / c, rtol=1e-6, atol=1e-12)


@st.composite
def flip_runs(draw):
    """(p, seed, flips): a dimension, a seed for the GEP and start state, and
    up to 2p coordinate flips."""
    p = draw(st.integers(2, 60))
    seed = draw(st.integers(0, 2**32 - 1))
    flips = draw(st.lists(st.integers(0, p - 1), max_size=2 * p))
    return p, seed, flips


class TestQuadraticCache:
    @given(flip_runs())
    def test_tracks_random_flip_sequence(self, run):
        p, seed, flips = run
        rng = np.random.default_rng(seed)
        g = random_gep(rng, p // 2, p - p // 2, n=30)
        delta = rng.integers(0, 2, size=p).astype(np.uint8)
        delta[rng.integers(p)] = 1
        state = ChainState(delta=delta, theta=rng.standard_normal(p))
        cache = QuadraticCache(g, state)
        for j in flips:
            now = not bool(state.delta[j])
            if not now and state.n_active == 1:
                continue  # kernel steps never empty the support
            state.delta[j] = 1 if now else 0
            cache.commit_flip(j, float(state.theta[j]), now)
        masked = state.theta * state.delta
        rebuilt = {
            "qa": masked @ g.A @ masked,
            "qb": masked @ g.B @ masked,
            "a_dot": g.A @ masked,
            "b_dot": g.B @ masked,
        }
        for name, want in rebuilt.items():
            tol = 1e-9 * np.maximum(1.0, np.abs(want))
            assert np.all(np.abs(getattr(cache, name) - want) <= tol), name
        assert cache.n_active == state.n_active

    def test_branch_forms_match_direct_evaluation(self):
        rng = np.random.default_rng(32)
        g = random_gep(rng, 4, 4, n=30)
        delta = np.array([1, 0, 1, 1, 0, 0, 1, 0], dtype=np.uint8)
        th = rng.standard_normal(8)
        state = ChainState(delta=delta, theta=th)
        cache = QuadraticCache(g, state)
        for j in range(8):
            qa0, qb0, qa1, qb1 = cache.branch_forms(j, float(th[j]), bool(delta[j]))
            d_off = delta.copy()
            d_off[j] = 0
            d_on = delta.copy()
            d_on[j] = 1
            m_off = th * d_off
            m_on = th * d_on
            assert qa0 == pytest.approx(m_off @ g.A @ m_off, abs=1e-10)
            assert qb0 == pytest.approx(m_off @ g.B @ m_off, abs=1e-10)
            assert qa1 == pytest.approx(m_on @ g.A @ m_on, abs=1e-10)
            assert qb1 == pytest.approx(m_on @ g.B @ m_on, abs=1e-10)

    def test_single_active_off_branch_convention(self):
        rng = np.random.default_rng(34)
        g = random_gep(rng, 2, 2, n=30)
        state = ChainState(
            delta=np.array([0, 1, 0, 0], dtype=np.uint8),
            theta=rng.standard_normal(4),
        )
        cache = QuadraticCache(g, state)
        r_off, r_on = cache.branch_rayleigh(1, float(state.theta[1]), True)
        assert r_off == -np.inf
        assert np.isfinite(r_on)
