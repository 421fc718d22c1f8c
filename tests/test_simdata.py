from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg
from scipy.stats import norm

from stcca.covariance import Dataset, assemble_gep
from stcca.errors import DomainError
from stcca.simdata import (
    PopulationModel,
    TruncationSpec,
    build_population_cov,
    sample_gaussian_pairs,
    truncate_copula,
)


def population_gep(model: PopulationModel):
    m = model.p_x
    S = model.Sigma
    return assemble_gep(S[:m, :m], S[m:, m:], S[:m, m:])


class TestBuildPopulationCov:
    def test_within_block_decay(self):
        model = build_population_cov(20)
        Sx = model.Sigma[:10, :10]
        assert Sx[0, 1] == pytest.approx(0.8)
        assert Sx[0, 0] == 1.0
        assert Sx[1, 0] == Sx[0, 1]

    def test_cross_block_zeros_between_blocks(self):
        # coordinates 1 and 11 (1-based) sit in different diagonal blocks
        model = build_population_cov(100)
        Sx = model.Sigma[:50, :50]
        assert Sx[0, 10] == 0.0
        assert Sx[9, 10] == 0.0

    def test_symmetric_positive_definite(self):
        model = build_population_cov(40)
        assert np.array_equal(model.Sigma, model.Sigma.T)
        w = scipy.linalg.eigvalsh(model.Sigma)
        assert w.min() > 0

    def test_top_generalized_eigenpair_small(self):
        # dense eigensolver oracle on the induced (A, B)
        model = build_population_cov(20)
        gep = population_gep(model)
        w, V = scipy.linalg.eigh(gep.A, gep.B)
        assert abs(w[-1] - 0.9) < 1e-8
        top = V[:, -1]
        truth = np.concatenate([model.v_x_star, model.v_y_star])
        cosine = abs(top @ truth) / (np.linalg.norm(top) * np.linalg.norm(truth))
        assert cosine > 1 - 1e-8

    def test_top_generalized_eigenpair_p100(self):
        model = build_population_cov(100)
        gep = population_gep(model)
        w, V = scipy.linalg.eigh(gep.A, gep.B)
        assert abs(w[-1] - 0.9) < 1e-8
        top = V[:, -1]
        truth = np.concatenate([model.v_x_star, model.v_y_star])
        cosine = abs(top @ truth) / (np.linalg.norm(top) * np.linalg.norm(truth))
        assert cosine > 1 - 1e-8

    def test_support_values(self):
        model = build_population_cov(100)
        v = model.v_x_star
        assert np.flatnonzero(v).tolist() == [0, 5, 10]
        assert np.allclose(v[[0, 5, 10]], 1 / np.sqrt(3))
        assert np.array_equal(model.v_x_star, model.v_y_star)

    def test_indivisible_p_rejected(self):
        with pytest.raises(DomainError):
            build_population_cov(15)
        with pytest.raises(DomainError):
            build_population_cov(0)

    def test_bad_lambda_rejected(self):
        with pytest.raises(DomainError):
            build_population_cov(20, lambda1=1.0)


class TestSampleGaussianPairs:
    def test_seed_determinism(self):
        model = build_population_cov(20)
        a = sample_gaussian_pairs(model, 50, seed=123)
        b = sample_gaussian_pairs(model, 50, seed=123)
        assert np.array_equal(a.X, b.X)
        assert np.array_equal(a.Y, b.Y)
        c = sample_gaussian_pairs(model, 50, seed=124)
        assert not np.array_equal(a.X, c.X)

    def test_sample_covariance_converges(self):
        model = build_population_cov(20)
        ds = sample_gaussian_pairs(model, 100_000, seed=9)
        emp = np.cov(ds.combined().T, bias=True)
        assert np.max(np.abs(emp - model.Sigma)) < 0.05

    def test_mean_near_zero(self):
        model = build_population_cov(20)
        n = 100_000
        ds = sample_gaussian_pairs(model, n, seed=17)
        mean = ds.combined().mean(axis=0)
        band = 3.0 * np.sqrt(np.diag(model.Sigma) / n)
        assert np.all(np.abs(mean) < band * 1.5)


class TestTruncateCopula:
    def test_very_negative_threshold_keeps_everything(self):
        model = build_population_cov(20)
        latent = sample_gaussian_pairs(model, 200, seed=5)
        obs = truncate_copula(latent, TruncationSpec(C=-50.0))
        assert np.array_equal(obs.Y, latent.Y)
        assert np.array_equal(obs.X, latent.X)

    @pytest.mark.parametrize("c,level", [(0.0, 0.5), (-1.0, norm.cdf(-1.0))])
    def test_zero_fraction_matches_gaussian_cdf(self, c, level):
        model = build_population_cov(20)
        latent = sample_gaussian_pairs(model, 10_000, seed=29)
        obs = truncate_copula(latent, TruncationSpec(C=c))
        frac = (obs.Y == 0.0).mean(axis=0)
        assert np.all(np.abs(frac - level) < 0.03)

    def test_idempotent(self):
        model = build_population_cov(20)
        latent = sample_gaussian_pairs(model, 500, seed=41)
        spec = TruncationSpec(C=np.full(10, -1.0))
        once = truncate_copula(latent, spec)
        twice = truncate_copula(once, spec)
        assert np.array_equal(once.Y, twice.Y)
        assert np.array_equal(once.X, twice.X)

    def test_per_coordinate_thresholds(self):
        model = build_population_cov(20)
        latent = sample_gaussian_pairs(model, 2_000, seed=43)
        C = np.concatenate([np.full(5, -50.0), np.full(5, 50.0)])
        obs = truncate_copula(latent, TruncationSpec(C=C))
        assert not np.any(obs.Y[:, :5] == 0.0)
        assert np.all(obs.Y[:, 5:] == 0.0)
