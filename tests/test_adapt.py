from __future__ import annotations

import numpy as np
import pytest

from stcca.adapt import (
    AdaptiveHook,
    AdaptState,
    adapt_step_size,
    flatness_check,
    run_adaptive_chain,
    wang_landau_update,
)
from stcca.covariance import estimate_gep
from stcca.errors import DomainError
from stcca.model import (
    ChainState,
    PriorConfig,
    TemperingLadder,
    log_quasi_posterior,
    rayleigh_selected,
)
from stcca.sampler import advance_chain, draw_subset, initial_state, temperature_update
from stcca.simdata import build_population_cov, sample_gaussian_pairs

TEMPS5 = (1.0, 1 / 0.9, 1 / 0.8, 1 / 0.7, 1 / 0.6)


def fresh_adapt(K=3, a_wl=10.0, w=0.2) -> AdaptState:
    return AdaptState(
        tau=np.full(K, -2.0), log_c=np.zeros(K), v=np.zeros(K, dtype=np.int64),
        a_wl=a_wl, w=w,
    )


class TestAdaptStepSize:
    def test_on_target_alpha_is_neutral(self):
        a = fresh_adapt()
        before = a.tau.copy()
        adapt_step_size(a, 2, 0.3)
        assert np.array_equal(a.tau, before)

    def test_first_visit_full_step(self):
        a = fresh_adapt()
        a.v[0] = 1
        adapt_step_size(a, 1, 1.0)
        assert a.tau[0] == pytest.approx(-2.0 + 0.7)
        assert np.array_equal(a.tau[1:], [-2.0, -2.0])

    def test_decay_with_visits(self):
        a = fresh_adapt()
        a.v[1] = 32
        adapt_step_size(a, 2, 0.0)
        assert a.tau[1] == pytest.approx(-2.0 + 32**-0.6 * (-0.3))

    def test_zero_visits_floored(self):
        a = fresh_adapt()
        adapt_step_size(a, 1, 1.0)  # v = 0 must not blow up
        assert a.tau[0] == pytest.approx(-1.3)

    def test_clamp_under_alternating_extremes(self):
        a = fresh_adapt()
        for i in range(10_000):
            adapt_step_size(a, 1, float(i % 2))
        assert -20.0 <= a.tau[0] <= 5.0

    def test_bad_alpha_rejected(self):
        with pytest.raises(DomainError):
            adapt_step_size(fresh_adapt(), 1, 1.5)


class TestWangLandauUpdate:
    def test_single_visit(self):
        a = fresh_adapt()
        wang_landau_update(a, 2)
        assert a.log_c.tolist() == [0.0, 10.0, 0.0]
        assert a.v.tolist() == [0, 1, 0]

    def test_round_robin_symmetry(self):
        a = fresh_adapt()
        for k in (1, 2, 3, 1, 2, 3):
            wang_landau_update(a, k)
        assert np.all(a.log_c == a.log_c[0])
        assert a.v.tolist() == [2, 2, 2]

    def test_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            wang_landau_update(fresh_adapt(), 4)


class TestFlatnessCheck:
    def test_balanced_counts_fire(self):
        a = fresh_adapt(K=2)
        a.v[:] = [5, 5]
        assert flatness_check(a)
        assert a.a_wl == 5.0
        assert a.v.tolist() == [0, 0]

    def test_skewed_counts_do_not_fire(self):
        a = fresh_adapt(K=2)
        a.v[:] = [9, 1]
        assert not flatness_check(a)
        assert a.a_wl == 10.0
        assert a.v.tolist() == [9, 1]

    def test_no_visits_is_noop(self):
        a = fresh_adapt()
        assert not flatness_check(a)
        assert a.a_wl == 10.0

    def test_increment_halves_per_stage(self):
        a = fresh_adapt(K=2)
        for m in range(1, 6):
            a.v[:] = [7, 7]
            assert flatness_check(a)
            assert a.a_wl == pytest.approx(10.0 * 2.0**-m)
        assert a.n_resets == 5


def small_problem(p=20, n=100, seed=0):
    model = build_population_cov(p)
    data = sample_gaussian_pairs(model, n, seed=seed)
    return estimate_gep(data, method="sample")


class TestRunAdaptiveChain:
    def test_returns_trace_and_state(self):
        gep = small_problem()
        prior = PriorConfig.defaults(20)
        trace, adapt = run_adaptive_chain(gep, prior, TEMPS5, 300, seed=2)
        assert trace.delta.shape == (301, 20)
        assert adapt.K == 5
        assert len(trace.diagnostics["a_wl"]) == 300
        assert trace.diagnostics["final_step_sizes"].shape == (5,)

    def test_single_temperature_halves_every_iteration(self):
        # K=1 occupancy is always exactly flat, so each check fires
        gep = small_problem()
        prior = PriorConfig.defaults(20)
        n = 30
        trace, adapt = run_adaptive_chain(gep, prior, [1.0], n, seed=3)
        assert adapt.n_resets == n
        assert adapt.a_wl == pytest.approx(10.0 * 2.0**-n)
        assert np.all(trace.k == 1)

    @pytest.mark.parametrize("temps", [(1.0,), TEMPS5], ids=["K1", "K5"])
    def test_hook_draws_nothing(self, temps):
        # one iteration with the hook attached leaves the generator where its
        # draw record does: the subset, J uniforms, p normals, the MALA
        # acceptance uniform and, at K > 1, the temperature move's two
        gep = small_problem()
        prior = PriorConfig.defaults(20)
        ladder = TemperingLadder.for_dimension(20, temps)
        hook = AdaptiveHook(AdaptState.for_ladder(ladder), ladder)
        rng = np.random.default_rng(11)
        probe = np.random.default_rng(11)
        state = initial_state(20, rng)
        initial_state(20, probe)
        advance_chain(state, gep, prior, ladder, 10, rng, adapt=hook)
        draw_subset(20, 10, probe)
        probe.random(10)
        probe.standard_normal(20)
        probe.random()
        if len(temps) > 1:
            probe.random(2)
        assert rng.bit_generator.state == probe.bit_generator.state
        assert hook.a_wl_path == [hook.adapt.a_wl]

    def test_determinism(self):
        gep = small_problem()
        prior = PriorConfig.defaults(20)
        a, _ = run_adaptive_chain(gep, prior, TEMPS5, 150, seed=13)
        b, _ = run_adaptive_chain(gep, prior, TEMPS5, 150, seed=13)
        assert np.array_equal(a.theta, b.theta)
        assert np.array_equal(a.k, b.k)

    def test_acceptance_settles_near_target(self):
        # after adaptation, per-temperature MALA acceptance over the last
        # quarter should sit in the 30% neighborhood
        gep = small_problem(seed=4)
        prior = PriorConfig.defaults(20)
        trace, _ = run_adaptive_chain(gep, prior, TEMPS5, 6000, seed=5)
        alpha = trace.diagnostics["alpha"]
        k_mala = trace.diagnostics["k_mala"]
        last = slice(4500, 6000)
        for k in range(1, 6):
            sel = k_mala[last] == k
            if sel.sum() < 50:
                continue
            rate = float(alpha[last][sel].mean())
            assert 0.2 <= rate <= 0.4, f"temperature {k}: rate {rate:.3f}"

    def test_occupancy_flattens(self):
        gep = small_problem(seed=6)
        prior = PriorConfig.defaults(20)
        trace, adapt = run_adaptive_chain(gep, prior, (1.0, 1.2, 1.5, 2.0), 8000, seed=7)
        occ = np.bincount(trace.k[4000:] - 1, minlength=4) / 4001
        assert adapt.n_resets >= 1
        assert occ.max() - occ.min() < 0.1

    def test_weight_shift_leaves_temperature_kernel_invariant(self):
        # Eq-style ratio: adding a constant to every log weight cancels
        gep = small_problem(seed=8)
        prior = PriorConfig.defaults(20)
        lad1 = TemperingLadder.for_dimension(20, TEMPS5)
        lad2 = lad1.copy()
        lad2.log_weights += 7.3
        state1 = ChainState(
            delta=np.zeros(20, dtype=np.uint8), theta=np.zeros(20), k=3
        )
        state1.delta[[0, 5]] = 1
        state1.theta[:] = np.random.default_rng(20).standard_normal(20)
        state2 = state1.copy()
        r1 = np.random.default_rng(21)
        r2 = np.random.default_rng(21)
        ks1 = []
        ks2 = []
        # k does not enter it
        lp = log_quasi_posterior(state1, gep, prior, rayleigh_selected(state1, gep))
        for _ in range(300):
            temperature_update(state1, gep, prior, lad1, *r1.random(2), lp)
            temperature_update(state2, gep, prior, lad2, *r2.random(2), lp)
            ks1.append(state1.k)
            ks2.append(state2.k)
        assert ks1 == ks2
