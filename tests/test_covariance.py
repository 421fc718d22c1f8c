from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st

from stcca import covariance
from stcca.covariance import (
    DEFAULT_PSD_FLOOR,
    Dataset,
    assemble_gep,
    estimate_gep,
    kendall_tau_matrix,
    psd_repair,
    sample_covariance,
    sine_bridge,
)
from stcca.errors import (
    DimensionMismatchError,
    DomainError,
    EmptyInputError,
    InsufficientDataError,
)


def brute_force_covariance(Z: np.ndarray) -> np.ndarray:
    """Double-loop oracle: sum_i (z_i - zbar)(z_i - zbar)^T / n."""
    n, p = Z.shape
    zbar = Z.mean(axis=0)
    out = np.zeros((p, p))
    for i in range(n):
        d = Z[i] - zbar
        for a in range(p):
            for b in range(p):
                out[a, b] += d[a] * d[b]
    return out / n


def brute_force_kendall(x: np.ndarray, y: np.ndarray) -> float:
    """Tau-a by enumerating every pair."""
    n = len(x)
    s = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            s += np.sign(x[i] - x[j]) * np.sign(y[i] - y[j])
    return s / (n * (n - 1) / 2)


def sign_product_kendall(Z: np.ndarray) -> np.ndarray:
    """Float64 oracle: one unchunked product of every pair's difference signs."""
    rows, cols = np.triu_indices(Z.shape[0], k=1)
    signs = np.sign(Z[rows] - Z[cols])
    tau = signs.T @ signs / rows.size
    np.fill_diagonal(tau, 1.0)
    return (tau + tau.T) / 2.0


def tie_heavy_data(kind: str, n: int, d: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if kind == "integers":
        return rng.integers(-3, 4, size=(n, d)).astype(float)
    z = rng.standard_normal((n, d))
    if kind == "truncated":
        return np.where(z > 0.0, z, 0.0)
    # mixed signed zeros among a few repeated values
    zeros = np.copysign(0.0, z)
    return np.where(rng.random((n, d)) < 0.5, zeros, np.round(z))


class TestDataset:
    def test_row_count_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            Dataset(np.zeros((3, 2)), np.zeros((4, 2)))

    def test_single_row_rejected(self):
        with pytest.raises(InsufficientDataError):
            Dataset(np.zeros((1, 2)), np.zeros((1, 2)))

    def test_combined_stacks_views(self):
        ds = Dataset(np.ones((3, 2)), np.zeros((3, 1)))
        assert ds.combined().shape == (3, 3)
        assert ds.n == 3 and ds.p_x == 2 and ds.p_y == 1


class TestSampleCovariance:
    def test_two_point_antithetic(self):
        # centering leaves rows at +-(1,0); second moment 1 in coordinate 0
        cov = sample_covariance(np.array([[1.0, 0.0], [-1.0, 0.0]]))
        assert np.allclose(cov, [[1.0, 0.0], [0.0, 0.0]])

    def test_constant_rows_give_zero(self):
        cov = sample_covariance(np.tile([2.0, 3.0, -1.0], (6, 1)))
        assert np.allclose(cov, 0.0)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(42)
        Z = rng.standard_normal((5, 3))
        got = sample_covariance(Z)
        want = brute_force_covariance(Z)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_symmetry_is_exact(self):
        rng = np.random.default_rng(7)
        cov = sample_covariance(rng.standard_normal((20, 7)))
        assert np.array_equal(cov, cov.T)

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            sample_covariance(np.empty((0, 2)))


class TestKendallTau:
    def test_monotone_transform_gives_one(self):
        x = np.array([0.3, 1.2, 2.0, 5.5, 9.0])
        tau = kendall_tau_matrix(np.column_stack([x, np.exp(x)]))
        assert np.allclose(tau, 1.0)

    def test_decreasing_transform_gives_minus_one(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        tau = kendall_tau_matrix(np.column_stack([x, -(x**3)]))
        assert tau[0, 1] == pytest.approx(-1.0)

    def test_pair_enumeration_value(self):
        # 6 pairs, 4 concordant minus 2 discordant -> tau = 1/3
        a = np.array([1.0, 2.0, 3.0, 4.0])
        b = np.array([2.0, 1.0, 4.0, 3.0])
        tau = kendall_tau_matrix(np.column_stack([a, b]))
        assert tau[0, 1] == pytest.approx(1.0 / 3.0)

    def test_matches_brute_force_on_random_data(self):
        rng = np.random.default_rng(3)
        Z = rng.standard_normal((30, 4))
        tau = kendall_tau_matrix(Z)
        for a in range(4):
            for b in range(4):
                assert tau[a, b] == pytest.approx(
                    brute_force_kendall(Z[:, a], Z[:, b]), abs=1e-12
                )

    def test_single_row_rejected(self):
        with pytest.raises(InsufficientDataError):
            kendall_tau_matrix(np.array([[1.0, 2.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        Z = np.arange(12.0).reshape(4, 3)
        Z[2, 1] = bad
        with pytest.raises(DomainError):
            kendall_tau_matrix(Z)

    @given(
        st.integers(2, 60),
        st.integers(1, 12),
        st.sampled_from(["integers", "truncated", "signed_zeros"]),
        st.sampled_from([1, 3, covariance._KENDALL_CHUNK]),
        st.integers(0, 2**32 - 1),
    )
    def test_equals_sign_product_oracle(self, n, d, kind, chunk, seed):
        Z = tie_heavy_data(kind, n, d, seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(covariance, "_KENDALL_CHUNK", chunk)
            tau = kendall_tau_matrix(Z)
        assert np.array_equal(tau, sign_product_kendall(Z))


class TestSineBridge:
    def test_endpoints_and_midpoint(self):
        assert sine_bridge(0.0) == 0.0
        assert sine_bridge(1.0) == pytest.approx(1.0)
        assert sine_bridge(0.5) == pytest.approx(np.sin(np.pi / 4))

    def test_odd_function(self):
        taus = np.linspace(-1, 1, 21)
        assert np.allclose(sine_bridge(taus), -sine_bridge(-taus))

    def test_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            sine_bridge(1.5)


class TestPsdRepair:
    def test_identity_unchanged(self):
        assert np.allclose(psd_repair(np.eye(3)), np.eye(3))

    def test_negative_eigenvalue_clipped(self):
        out = psd_repair(np.diag([1.0, -0.5]))
        assert np.allclose(out, np.diag([1.0, 1e-8]))

    def test_min_eigenvalue_at_least_floor(self):
        rng = np.random.default_rng(11)
        M = rng.standard_normal((6, 6))
        M = (M + M.T) / 2
        out = psd_repair(M)
        w = scipy.linalg.eigvalsh(out)
        assert w.min() >= 1e-8 - 1e-15

    def test_pd_input_passes_through(self):
        rng = np.random.default_rng(12)
        G = rng.standard_normal((5, 5))
        P = G @ G.T + np.eye(5)
        assert np.array_equal(psd_repair(P), P)

    def test_asymmetric_rejected(self):
        with pytest.raises(DomainError):
            psd_repair(np.array([[1.0, 0.5], [0.0, 1.0]]))


class TestAssembleGep:
    def test_scalar_blocks(self):
        gep = assemble_gep(np.array([[1.0]]), np.array([[1.0]]), np.array([[0.5]]))
        assert np.allclose(gep.A, [[0.0, 0.5], [0.5, 0.0]])
        assert np.allclose(gep.B, np.eye(2))

    def test_zero_diagonal_blocks_of_A(self):
        Sx = np.eye(2)
        Sy = np.eye(1)
        Sxy = np.array([[0.2], [0.1]])
        gep = assemble_gep(Sx, Sy, Sxy)
        assert np.allclose(gep.A[:2, :2], 0.0)
        assert np.allclose(gep.A[2:, 2:], 0.0)
        assert np.allclose(gep.A[:2, 2:], Sxy)
        assert gep.p == 3 and gep.p_x == 2 and gep.p_y == 1

    def test_blocks_roundtrip(self):
        rng = np.random.default_rng(5)
        Sx = np.eye(3) + 0.1
        Sy = np.eye(2)
        Sxy = rng.standard_normal((3, 2))
        gep = assemble_gep(Sx, Sy, Sxy, n=17)
        assert np.array_equal(gep.B[:3, :3], Sx)
        assert np.array_equal(gep.B[3:, 3:], Sy)
        assert np.array_equal(gep.A[:3, 3:], Sxy)
        assert np.array_equal(gep.A[3:, :3], Sxy.T)
        assert gep.n == 17

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            assemble_gep(np.eye(2), np.eye(2), np.zeros((3, 2)))

    def test_rank_based_repairs_each_block(self):
        # n < p makes the Kendall-sine matrix indefinite in both blocks
        rng = np.random.default_rng(29)
        p, px = 60, 30
        S = sine_bridge(kendall_tau_matrix(rng.standard_normal((20, p))))
        Sx, Sy, Sxy = S[:px, :px], S[px:, px:], S[:px, px:]
        assert scipy.linalg.eigvalsh(Sx)[0] < 0 and scipy.linalg.eigvalsh(Sy)[0] < 0
        plain = assemble_gep(Sx, Sy, Sxy)
        gep = assemble_gep(Sx, Sy, Sxy, rank_based=True)
        assert np.array_equal(gep.A, plain.A)
        assert not gep.B[:px, px:].any() and not gep.B[px:, :px].any()
        assert np.array_equal(gep.B[:px, :px], psd_repair(Sx))
        assert np.array_equal(gep.B[px:, px:], psd_repair(Sy))
        slack = 64 * np.finfo(float).eps * p * np.abs(gep.B).max()
        assert scipy.linalg.eigvalsh(gep.B)[0] >= DEFAULT_PSD_FLOOR - slack
        assert np.abs(gep.B - psd_repair(plain.B)).max() <= 1e-12


class TestEstimateGep:
    def test_sample_route_matches_manual_assembly(self):
        rng = np.random.default_rng(19)
        ds = Dataset(rng.standard_normal((40, 3)), rng.standard_normal((40, 2)))
        gep = estimate_gep(ds, method="sample")
        full = sample_covariance(ds.combined())
        assert np.allclose(gep.A[:3, 3:], full[:3, 3:])
        assert np.allclose(gep.B[:3, :3], full[:3, :3])
        assert np.allclose(gep.B[3:, 3:], full[3:, 3:])
        assert gep.n == 40

    def test_kendall_route_is_psd(self):
        rng = np.random.default_rng(23)
        ds = Dataset(rng.standard_normal((25, 4)), rng.standard_normal((25, 3)))
        gep = estimate_gep(ds, method="kendall-sine")
        w = scipy.linalg.eigvalsh(gep.B)
        assert w.min() >= 1e-8 - 1e-15

    def test_kendall_route_recovers_strong_correlation(self):
        # latent rho=0.9 pair; sin(pi tau / 2) should land near 0.9
        rng = np.random.default_rng(31)
        n = 4000
        z = rng.standard_normal((n, 2))
        x = z[:, 0]
        y = 0.9 * z[:, 0] + np.sqrt(1 - 0.81) * z[:, 1]
        ds = Dataset(x[:, None], y[:, None])
        gep = estimate_gep(ds, method="kendall-sine")
        assert gep.A[0, 1] == pytest.approx(0.9, abs=0.05)

    def test_unknown_method_rejected(self):
        ds = Dataset(np.zeros((3, 1)) + [[1.0], [2.0], [0.0]], np.ones((3, 1)))
        with pytest.raises(DomainError):
            estimate_gep(ds, method="spearman")
