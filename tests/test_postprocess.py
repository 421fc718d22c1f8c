from __future__ import annotations

import numpy as np
import pytest

from stcca.adapt import run_adaptive_chain
from stcca.covariance import assemble_gep
from stcca.errors import (
    DegenerateEstimateError,
    DimensionMismatchError,
    DomainError,
    EmptyInputError,
    EmptySampleError,
    UndefinedRateError,
)
from stcca.model import PriorConfig
from stcca.postprocess import (
    EstimateReport,
    build_report,
    extract_posterior_samples,
    inclusion_probabilities,
    mse,
    per_sample_estimates,
    point_estimate,
    support_mode,
    tpr_tnr,
)
from stcca.sampler import ChainTrace
from stcca.simdata import build_population_cov


def toy_trace(delta, theta, k) -> ChainTrace:
    delta = np.atleast_2d(np.asarray(delta, dtype=np.uint8))
    theta = np.atleast_2d(np.asarray(theta, dtype=float))
    k = np.asarray(k, dtype=np.int64)
    return ChainTrace(
        delta=delta,
        theta=theta,
        k=k,
        rayleigh=np.zeros(k.shape[0]),
        n_iters=k.shape[0] - 1,
    )


def constant_trace(n_iters, delta_row, theta_row, k_value=1) -> ChainTrace:
    rows = n_iters + 1
    return toy_trace(
        np.tile(np.asarray(delta_row, dtype=np.uint8), (rows, 1)),
        np.tile(np.asarray(theta_row, dtype=float), (rows, 1)),
        np.full(rows, k_value, dtype=np.int64),
    )


class TestExtractPosteriorSamples:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 8, 16, 99, 100])
    def test_all_cold_count(self, n):
        tr = constant_trace(n, [1, 0], [1.0, 0.0])
        idx = extract_posterior_samples(tr)
        assert idx.size == n // 4 + 1
        assert idx[-1] == n

    def test_no_cold_after_burnin_errors(self):
        k = np.ones(21, dtype=np.int64)
        k[15:] = 2
        tr = toy_trace(np.ones((21, 2)), np.ones((21, 2)), k)
        with pytest.raises(EmptySampleError):
            extract_posterior_samples(tr)

    def test_alternating_matches_direct_filter(self):
        # oracle: filter the window by hand with the real-valued cutoff
        for n in [8, 9, 10, 11, 40, 41]:
            k = np.array([1 if t % 2 == 0 else 2 for t in range(n + 1)])
            tr = toy_trace(np.ones((n + 1, 2)), np.ones((n + 1, 2)), k)
            expected = [t for t in range(n + 1) if t >= 3 * n / 4 and k[t] == 1]
            assert extract_posterior_samples(tr).tolist() == expected

    def test_single_row(self):
        tr = constant_trace(0, [1, 0], [1.0, 0.0], k_value=1)
        assert extract_posterior_samples(tr).tolist() == [0]
        cold_less = constant_trace(0, [1, 0], [1.0, 0.0], k_value=3)
        with pytest.raises(EmptySampleError):
            extract_posterior_samples(cold_less)


class TestPerSampleEstimates:
    def test_all_ones_gives_uniform_parts(self):
        tr = constant_trace(4, [1, 1, 1, 1], [1.0, 1.0, 1.0, 1.0])
        est = per_sample_estimates(tr, np.arange(5), p_x=2)
        r = 1.0 / np.sqrt(2.0)
        assert np.allclose(est.v_x, r)
        assert np.allclose(est.v_y, r)
        assert est.n_skipped == 0
        assert est.v_x.shape == est.v_y.shape == (5, 2)

    def test_sign_flip_flips_estimate(self):
        theta = np.array([0.3, -1.2, 0.7, 2.0])
        delta = np.array([1, 1, 0, 1], dtype=np.uint8)
        a = per_sample_estimates(toy_trace([delta], [theta], [1]), [0], p_x=2)
        b = per_sample_estimates(toy_trace([delta], [-theta], [1]), [0], p_x=2)
        assert np.allclose(a.v_x, -b.v_x)
        assert np.allclose(a.v_y, -b.v_y)

    def test_unit_norm_parts(self):
        rng = np.random.default_rng(7)
        rows = 40
        delta = rng.integers(0, 2, size=(rows, 10)).astype(np.uint8)
        delta[:, 0] = 1
        delta[:, 5] = 1
        theta = rng.standard_normal((rows, 10))
        tr = toy_trace(delta, theta, np.ones(rows, dtype=np.int64))
        est = per_sample_estimates(tr, np.arange(rows), p_x=5)
        assert np.allclose(np.linalg.norm(est.v_x, axis=1), 1.0, atol=1e-12)
        assert np.allclose(np.linalg.norm(est.v_y, axis=1), 1.0, atol=1e-12)

    def test_zero_block_skipped_and_counted(self):
        delta = np.array(
            [[1, 0, 1, 0], [0, 0, 1, 1], [1, 1, 1, 1]], dtype=np.uint8
        )
        theta = np.ones((3, 4))
        tr = toy_trace(delta, theta, np.ones(3, dtype=np.int64))
        est = per_sample_estimates(tr, np.arange(3), p_x=2)
        assert est.n_skipped == 1
        assert np.allclose(est.v_x, [[1.0, 0.0], [np.sqrt(0.5), np.sqrt(0.5)]])

    def test_all_skipped_errors(self):
        delta = np.array([[1, 1, 0, 0], [1, 0, 0, 0]], dtype=np.uint8)
        tr = toy_trace(delta, np.ones((2, 4)), np.ones(2, dtype=np.int64))
        with pytest.raises(EmptySampleError):
            per_sample_estimates(tr, np.arange(2), p_x=2)

    def test_empty_samples_errors(self):
        tr = constant_trace(2, [1, 1], [1.0, 1.0])
        with pytest.raises(EmptyInputError):
            per_sample_estimates(tr, np.array([], dtype=np.int64), p_x=1)

    def test_bad_split_errors(self):
        tr = constant_trace(2, [1, 1], [1.0, 1.0])
        with pytest.raises(DomainError):
            per_sample_estimates(tr, [0], p_x=0)
        with pytest.raises(DomainError):
            per_sample_estimates(tr, [0], p_x=2)


class TestSupportMode:
    def test_unanimous(self):
        pattern = np.array([1, 0, 1, 1], dtype=np.uint8)
        assert np.array_equal(support_mode(np.tile(pattern, (6, 1))), pattern)

    def test_majority_wins(self):
        a = np.array([1, 0, 0], dtype=np.uint8)
        b = np.array([0, 1, 1], dtype=np.uint8)
        rows = np.vstack([np.tile(b, (4, 1)), np.tile(a, (6, 1))])
        assert np.array_equal(support_mode(rows), a)

    def test_tie_goes_to_first_seen(self):
        a = np.array([1, 1, 0], dtype=np.uint8)
        b = np.array([0, 0, 1], dtype=np.uint8)
        rows = np.vstack([b, a, a, b])
        assert np.array_equal(support_mode(rows), b)

    def test_mode_is_a_sampled_pattern(self):
        rng = np.random.default_rng(11)
        rows = rng.integers(0, 2, size=(30, 6)).astype(np.uint8)
        mode = support_mode(rows)
        assert any(np.array_equal(mode, row) for row in rows)

    def test_empty_errors(self):
        with pytest.raises(EmptyInputError):
            support_mode(np.zeros((0, 3), dtype=np.uint8))
        with pytest.raises(DimensionMismatchError):
            support_mode(np.zeros(3, dtype=np.uint8))


class TestPointEstimate:
    def test_unanimous_samples_return_the_vector(self):
        theta = np.array([3.0, 4.0, 0.5, 0.5])
        delta = np.array([1, 1, 1, 1], dtype=np.uint8)
        tr = constant_trace(4, delta, theta)
        samples = np.arange(5)
        vx, vy = point_estimate(per_sample_estimates(tr, samples, p_x=2), delta)
        assert np.allclose(vx, [0.6, 0.8])
        assert np.allclose(vy, [np.sqrt(0.5), np.sqrt(0.5)])

    def test_sign_alignment_rescues_mirrored_pair(self):
        theta = np.array([3.0, 4.0, 0.0, 5.0])
        delta = np.ones((2, 4), dtype=np.uint8)
        tr = toy_trace(np.vstack([delta]), np.vstack([theta, -theta]),
                       np.ones(2, dtype=np.int64))
        vx, vy = point_estimate(per_sample_estimates(tr, [0, 1], p_x=2), np.array([1, 1, 1, 1]))
        assert np.allclose(vx, [0.6, 0.8])
        assert np.allclose(vy, [0.0, 1.0])

    def test_three_sample_hand_computation(self):
        # unit draws: (.6,.8|0,1), (.8,.6|0,1), (-.6,-.8|0,-1); gate (1,1,0,1)
        # zeroes nothing here on x and kills y's first slot; the third draw
        # flips (inner product -2 with the first), so the mean is
        # (2/3, 11/15 | 0, 1) and the parts renormalize to
        # (10, 11)/sqrt(221) and (0, 1).
        theta = np.array(
            [
                [3.0, 4.0, 0.0, 5.0],
                [4.0, 3.0, 0.0, 5.0],
                [-3.0, -4.0, 0.0, -5.0],
            ]
        )
        delta = np.ones((3, 4), dtype=np.uint8)
        tr = toy_trace(delta, theta, np.ones(3, dtype=np.int64))
        vx, vy = point_estimate(per_sample_estimates(tr, [0, 1, 2], p_x=2), np.array([1, 1, 0, 1]))
        assert np.allclose(vx, np.array([10.0, 11.0]) / np.sqrt(221.0))
        assert np.allclose(vy, [0.0, 1.0])

    def test_gate_zeroes_coordinates(self):
        theta = np.array([3.0, 4.0, 1.0, 1.0])
        tr = constant_trace(2, [1, 1, 1, 1], theta)
        vx, vy = point_estimate(per_sample_estimates(tr, [0, 1, 2], p_x=2), np.array([1, 0, 1, 1]))
        assert vx[1] == 0.0
        assert np.allclose(vx, [1.0, 0.0])

    def test_degenerate_gate_errors(self):
        tr = constant_trace(2, [1, 1, 1, 1], [1.0, 1.0, 1.0, 1.0])
        with pytest.raises(DegenerateEstimateError):
            point_estimate(per_sample_estimates(tr, [0, 1], p_x=2), np.array([1, 1, 0, 0]))
        with pytest.raises(DegenerateEstimateError):
            point_estimate(per_sample_estimates(tr, [0, 1], p_x=2), np.zeros(4, dtype=np.uint8))

    def test_gate_length_checked(self):
        tr = constant_trace(2, [1, 1, 1, 1], [1.0, 1.0, 1.0, 1.0])
        with pytest.raises(DimensionMismatchError):
            point_estimate(per_sample_estimates(tr, [0], p_x=2), np.array([1, 1, 1]))


class TestMse:
    def test_equal_vectors(self):
        v = np.array([0.6, 0.8])
        assert mse(v, v) == 0.0

    def test_negated_reference(self):
        v = np.array([0.6, 0.8])
        assert mse(v, -v) == pytest.approx(0.0, abs=1e-15)

    def test_orthogonal_unit_vectors(self):
        assert mse(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(2.0)

    def test_range_and_sign_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a = rng.standard_normal(6)
            b = rng.standard_normal(6)
            a /= np.linalg.norm(a)
            b /= np.linalg.norm(b)
            m = mse(a, b)
            assert 0.0 <= m <= 2.0
            assert mse(-a, b) == pytest.approx(m)
            assert mse(a, -b) == pytest.approx(m)

    def test_rejects_non_unit(self):
        with pytest.raises(DomainError):
            mse(np.array([1.0, 1.0]), np.array([1.0, 0.0]))


class TestTprTnr:
    def test_exact_support(self):
        truth = np.array([0.7, 0.0, 0.7, 0.0])
        assert tpr_tnr(np.array([1.0, 0.0, -2.0, 0.0]), truth) == (1.0, 1.0)

    def test_all_nonzero_estimate(self):
        truth = np.array([0.7, 0.0, 0.7, 0.0])
        assert tpr_tnr(np.ones(4), truth) == (1.0, 0.0)

    def test_three_of_ten_counting(self):
        truth = np.zeros(10)
        truth[[0, 1, 2]] = 1 / np.sqrt(3)
        v = np.zeros(10)
        v[[0, 1, 5]] = 0.5
        tpr, tnr = tpr_tnr(v, truth)
        assert tpr == pytest.approx(2.0 / 3.0)
        assert tnr == pytest.approx(6.0 / 7.0)

    def test_degenerate_truth_errors(self):
        with pytest.raises(UndefinedRateError):
            tpr_tnr(np.ones(3), np.zeros(3))
        with pytest.raises(UndefinedRateError):
            tpr_tnr(np.ones(3), np.ones(3))


class TestInclusionProbabilities:
    def test_constant_columns(self):
        rows = np.tile(np.array([1, 0, 1], dtype=np.uint8), (8, 1))
        assert np.array_equal(inclusion_probabilities(rows), [1.0, 0.0, 1.0])

    def test_alternating_column(self):
        rows = np.array([[1, 0], [0, 0], [1, 0], [0, 0]], dtype=np.uint8)
        assert np.array_equal(inclusion_probabilities(rows), [0.5, 0.0])

    def test_five_sample_hand_count(self):
        rows = np.array(
            [
                [1, 1, 0, 0],
                [1, 0, 0, 1],
                [1, 1, 0, 0],
                [1, 0, 0, 1],
                [1, 1, 0, 0],
            ],
            dtype=np.uint8,
        )
        assert np.allclose(inclusion_probabilities(rows), [1.0, 0.6, 0.0, 0.4])

    def test_empty_errors(self):
        with pytest.raises(EmptyInputError):
            inclusion_probabilities(np.zeros((0, 2), dtype=np.uint8))


class TestBuildReport:
    def consensus_trace(self, n_iters=19):
        delta = np.array([1, 1, 0, 0, 1, 0], dtype=np.uint8)
        base = np.array([0.8, 0.6, 5.0, 5.0, 1.0, 5.0])
        rows = n_iters + 1
        rng = np.random.default_rng(0)
        theta = base + 0.01 * rng.standard_normal((rows, 6))
        return toy_trace(
            np.tile(delta, (rows, 1)), theta, np.ones(rows, dtype=np.int64)
        )

    def test_consensus_fields(self):
        tr = self.consensus_trace()
        rep = build_report(tr, p_x=3)
        assert np.array_equal(rep.delta_bar, [1, 1, 0, 0, 1, 0])
        assert np.array_equal(rep.delta_bar_x, [1, 1, 0])
        assert np.array_equal(rep.delta_bar_y, [0, 1, 0])
        # consensus case: inclusion frequencies equal the modal pattern
        assert np.array_equal(rep.inclusion_probs, rep.delta_bar.astype(float))
        assert np.linalg.norm(rep.v_bar_x) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(rep.v_bar_y) == pytest.approx(1.0, abs=1e-12)
        assert rep.n_samples == 19 // 4 + 1
        assert rep.n_skipped == 0
        assert rep.mse_x is None

    def test_consensus_metrics_against_truth(self):
        tr = self.consensus_trace()
        truth_x = np.array([0.8, 0.6, 0.0])
        truth_y = np.array([0.0, 1.0, 0.0])
        rep = build_report(tr, p_x=3, truth_x=truth_x, truth_y=truth_y)
        assert rep.mse_x == pytest.approx(0.0, abs=1e-3)
        assert rep.mse_y == pytest.approx(0.0, abs=1e-3)
        assert rep.tpr_x == 1.0 and rep.tnr_x == 1.0
        assert rep.tpr_y == 1.0 and rep.tnr_y == 1.0

    def test_truth_scale_is_irrelevant(self):
        tr = self.consensus_trace()
        a = build_report(
            tr, p_x=3,
            truth_x=np.array([0.8, 0.6, 0.0]), truth_y=np.array([0.0, 1.0, 0.0]),
        )
        b = build_report(
            tr, p_x=3,
            truth_x=np.array([8.0, 6.0, 0.0]), truth_y=np.array([0.0, 7.0, 0.0]),
        )
        assert a.mse_x == pytest.approx(b.mse_x)
        assert a.mse_y == pytest.approx(b.mse_y)

    def test_one_sided_truth_rejected(self):
        tr = self.consensus_trace()
        with pytest.raises(DomainError):
            build_report(tr, p_x=3, truth_x=np.array([1.0, 0.0, 0.0]))

    def test_report_invariants_enforced(self):
        with pytest.raises(DomainError):
            EstimateReport(
                delta_bar=np.array([1, 0]),
                v_bar_x=np.array([2.0]),
                v_bar_y=np.array([1.0]),
                inclusion_probs=np.array([0.5, 0.5]),
                p_x=1,
                n_samples=1,
                n_skipped=0,
            )
        with pytest.raises(DomainError):
            EstimateReport(
                delta_bar=np.array([1, 0]),
                v_bar_x=np.array([1.0]),
                v_bar_y=np.array([1.0]),
                inclusion_probs=np.array([0.5, 1.5]),
                p_x=1,
                n_samples=1,
                n_skipped=0,
            )

    def test_real_chain_smoke(self):
        model = build_population_cov(10)
        px = model.p_x
        S = model.Sigma
        gep = assemble_gep(S[:px, :px], S[px:, px:], S[:px, px:], n=40)
        prior = PriorConfig.defaults(gep.p)
        trace, _ = run_adaptive_chain(gep, prior, [1.0], 400, seed=5)
        rep = build_report(
            trace, p_x=px,
            truth_x=model.v_x_star, truth_y=model.v_y_star,
        )
        assert rep.delta_bar.shape == (gep.p,)
        assert rep.n_samples >= 1
        assert 0.0 <= rep.tpr_x <= 1.0 and 0.0 <= rep.tnr_y <= 1.0
        assert 0.0 <= rep.mse_x <= 2.0 and 0.0 <= rep.mse_y <= 2.0
