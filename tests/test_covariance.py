import numpy as np
import pytest

import subspace_glr as sg
from subspace_glr.covariance import cholesky_pd, householder
from _reference import alpha_sr, cross_capon_beta, eta_rr, eta_sr, unitary_completion
from _utils import make_instance, rand_pd, rand_unit


class TestCholeskyPd:
    def test_nan_pivot_named(self):
        # the OpenBLAS potrf numpy ships lets a NaN pivot pass; the factor's
        # diagonal shows it
        a = np.eye(3)
        a[1, 1] = np.nan
        with pytest.raises(ValueError, match="^s_ss is not positive definite$"):
            cholesky_pd(a, "s_ss")

    def test_nan_in_one_matrix_of_a_stack(self):
        a = np.stack([np.eye(3)] * 4).astype(complex)
        a[2, 2, 0] = np.nan
        with pytest.raises(ValueError, match="s_rr is not positive definite"):
            cholesky_pd(a, "s_rr")
        assert np.array_equal(cholesky_pd(a[:2], "s_rr"), a[:2])


class TestSampleCov:
    def test_single_column_rank_one(self):
        rng = np.random.default_rng(0)
        y_s = rng.standard_normal((3, 1)) + 1j * rng.standard_normal((3, 1))
        y_r = rng.standard_normal((3, 1)) + 1j * rng.standard_normal((3, 1))
        s = sg.block_sample_cov(y_s, y_r)
        assert np.allclose(s.s_ss, np.outer(y_s[:, 0], y_s[:, 0].conj()))
        assert np.linalg.matrix_rank(s.full()) == 1
        assert s.maybe_singular

    def test_orthogonal_columns_identity(self):
        L = 2
        y = np.eye(2 * L, dtype=complex) * np.sqrt(2 * L)
        s = sg.block_sample_cov(y[:L], y[L:])
        assert np.allclose(s.full(), np.eye(2 * L), atol=1e-13)

    def test_matches_naive_column_sum(self):
        rng = np.random.default_rng(1)
        y_s = rng.standard_normal((3, 10)) + 1j * rng.standard_normal((3, 10))
        y_r = rng.standard_normal((3, 10)) + 1j * rng.standard_normal((3, 10))
        s = sg.block_sample_cov(y_s, y_r)
        stacked = np.vstack([y_s, y_r])
        naive = sum(np.outer(stacked[:, k], stacked[:, k].conj()) for k in range(10)) / 10
        assert np.max(np.abs(s.full() - naive)) < 1e-13

    def test_hermitian_blocks(self):
        s, _, _ = make_instance(seed=10, L=4)
        assert np.allclose(s.s_ss, s.s_ss.conj().T)
        assert np.allclose(s.s_rr, s.s_rr.conj().T)
        assert not s.maybe_singular


class TestUnitaryCompletion:
    def test_first_basis_vector(self):
        v = unitary_completion(np.array([1.0, 0.0, 0.0], dtype=complex))
        assert v.shape == (3, 2)
        assert np.allclose(v.conj().T @ v, np.eye(2), atol=1e-13)
        assert np.allclose(v.conj().T @ np.array([1, 0, 0]), 0, atol=1e-13)

    def test_scalar_degenerate(self):
        v = unitary_completion(np.array([np.exp(0.3j)]))
        assert v.shape == (1, 0)

    def test_random_vector_unitary(self):
        rng = np.random.default_rng(2)
        u = rand_unit(rng, 6)
        v = unitary_completion(u)
        full = np.column_stack([u, v])
        assert np.linalg.norm(full.conj().T @ full - np.eye(6)) <= 1e-12

    def test_deterministic(self):
        u = rand_unit(np.random.default_rng(3), 4)
        assert np.array_equal(unitary_completion(u), unitary_completion(u))

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError, match="unit"):
            unitary_completion(np.array([2.0, 0.0]))

    def test_stacked_reflectors(self):
        # each reflector of a stack is unitary with first column a unit
        # phase times its vector, including a vector whose first entry is 0
        rng = np.random.default_rng(4)
        u = np.stack([rand_unit(rng, 4) for _ in range(5)])
        u[2, 0] = 0.0
        u[2] /= np.linalg.norm(u[2])
        p = householder(u)
        for k in range(5):
            assert np.linalg.norm(p[k].conj().T @ p[k] - np.eye(4)) <= 1e-13
            phase = np.vdot(u[k], p[k][:, 0])
            assert abs(phase) == pytest.approx(1.0, abs=1e-13)
            assert np.allclose(p[k][:, 0], phase * u[k], atol=1e-13)
            assert np.array_equal(p[k][:, 1:], unitary_completion(u[k]))


class TestEtaAlpha:
    def test_zero_cross_block(self):
        s, steer, _ = make_instance(seed=11, L=3)
        s0 = sg.BlockSampleCov(s.s_ss, np.zeros_like(s.s_sr), s.s_rr, s.n)
        assert eta_sr(s0, steer.u_s, steer.u_r) == 0
        assert alpha_sr(s0, steer.u_s, steer.u_r) == 0

    def test_scalar_arithmetic(self):
        # L=1 blocks (2, 1+j, 4), unit steering, r_rr = s_rr:
        # eta_sr = (1/2) * (1+j) * (1/4) = (1+j)/8
        s = sg.BlockSampleCov(
            np.array([[2.0]]), np.array([[1.0 + 1.0j]]), np.array([[4.0]]), n=2
        )
        val = eta_sr(s, np.array([1.0]), np.array([1.0]))
        assert val == pytest.approx((1 + 1j) / 8, abs=1e-15)

    def test_conjugation_symmetry(self):
        s, steer, _ = make_instance(seed=12, L=3)
        swapped = sg.BlockSampleCov(s.s_rr, s.s_sr.conj().T, s.s_ss, s.n)
        fwd = eta_sr(s, steer.u_s, steer.u_r)
        rev = eta_sr(swapped, steer.u_r, steer.u_s)
        assert rev == pytest.approx(np.conj(fwd), rel=1e-12)

    def test_eta_rr_cancellation_at_sample(self):
        s, steer, _ = make_instance(seed=13, L=4)
        beta_r = cross_capon_beta(s.s_rr, steer.u_r)
        assert eta_rr(s, steer.u_r) == pytest.approx(beta_r, rel=1e-12)

    def test_schur_gap_positive(self):
        for seed in range(6):
            s, steer, _ = make_instance(seed=100 + seed, L=3)
            gap = cross_capon_beta(s.s_rr, steer.u_r) - alpha_sr(s, steer.u_s, steer.u_r)
            assert gap > 0

    def test_custom_reference_matrix(self):
        s, steer, _ = make_instance(seed=14, L=3)
        rng = np.random.default_rng(99)
        r = rand_pd(rng, 3)
        # direct dense evaluation
        want = steer.u_s.conj() @ np.linalg.solve(s.s_ss, s.s_sr) @ np.linalg.solve(r, steer.u_r)
        assert eta_sr(s, steer.u_s, steer.u_r, r) == pytest.approx(complex(want), rel=1e-10)


def beamformed_forms(s, u_s, u_r):
    """The exact cost's forms (psi, gamma_m) of one covariance."""
    return sg.cost_forms(sg.coherence_matrix(s), sg.capon_pair(s, u_s, u_r))


class TestCostForms:
    def test_zero_cross_block_collapses(self):
        s, steer, _ = make_instance(seed=15, L=3)
        s0 = sg.BlockSampleCov(s.s_ss, np.zeros_like(s.s_sr), s.s_rr, s.n)
        psi, gamma_m = beamformed_forms(s0, steer.u_s, steer.u_r)
        assert np.allclose(gamma_m, np.eye(3), atol=1e-12)
        assert np.allclose(psi, np.eye(3), atol=1e-12)

    def test_identity_covariance(self):
        L = 3
        u = np.zeros(L, dtype=complex)
        u[1] = 1.0
        s = sg.BlockSampleCov(np.eye(L, dtype=complex), np.zeros((L, L), complex), np.eye(L, dtype=complex), n=2 * L)
        psi, gamma_m = beamformed_forms(s, u, u)
        assert np.allclose(gamma_m, np.eye(L), atol=1e-13)
        assert np.allclose(psi, np.eye(L), atol=1e-13)

    def test_positive_definite(self):
        for seed in range(5):
            s, steer, _ = make_instance(seed=200 + seed, L=4)
            for m in beamformed_forms(s, steer.u_s, steer.u_r):
                assert np.linalg.eigvalsh(m)[0] > 0

    def test_quadratic_forms_real_positive(self):
        s, steer, _ = make_instance(seed=16, L=4)
        forms = beamformed_forms(s, steer.u_s, steer.u_r)
        rng = np.random.default_rng(5)
        for _ in range(10):
            x = rand_unit(rng, 4)
            for m in forms:
                q = np.vdot(x, m @ x)
                assert abs(q.imag) < 1e-12 * abs(q.real)
                assert q.real > 0

    def test_reference_scaling_covariant(self):
        # Y_r -> c Y_r scales beta_r by 1 / c^2 and leaves C and the
        # directions w_s, w_r alone, so neither psi nor gamma_m moves.
        s, steer, data = make_instance(seed=17, L=3)
        c = 2.7
        scaled = sg.block_sample_cov(data.y_s, c * data.y_r)
        f1 = beamformed_forms(s, steer.u_s, steer.u_r)
        f2 = beamformed_forms(scaled, steer.u_s, steer.u_r)
        for a, b in zip(f1, f2):
            assert np.allclose(a, b, rtol=1e-10)

    def test_rejects_undersampled(self):
        s, steer, _ = make_instance(seed=18, L=3)
        short = sg.BlockSampleCov(s.s_ss, s.s_sr, s.s_rr, n=5)
        with pytest.raises(ValueError, match="2L"):
            sg.glr_exact(short, steer.u_s, steer.u_r)


class TestCaponPair:
    def test_identity_covariance(self):
        L = 3
        rng = np.random.default_rng(6)
        u_s, u_r = rand_unit(rng, L), rand_unit(rng, L)
        s = sg.BlockSampleCov(np.eye(L, dtype=complex), np.zeros((L, L), complex), np.eye(L, dtype=complex), n=2 * L)
        pair = sg.capon_pair(s, u_s, u_r)
        assert np.allclose(pair.w_r, u_r, atol=1e-12)

    def test_whitened_unit_norm(self):
        s, steer, _ = make_instance(seed=19, L=5)
        pair = sg.capon_pair(s, steer.u_s, steer.u_r)
        assert np.linalg.norm(pair.w_s) == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.norm(pair.w_r) == pytest.approx(1.0, abs=1e-10)


class TestCoherenceMatrix:
    def test_zero_cross_block(self):
        s, _, _ = make_instance(seed=20, L=3)
        s0 = sg.BlockSampleCov(s.s_ss, np.zeros_like(s.s_sr), s.s_rr, s.n)
        assert np.allclose(sg.coherence_matrix(s0), 0)

    def test_scalar_correlation_coefficient(self):
        s = sg.BlockSampleCov(
            np.array([[2.0]]), np.array([[0.6 + 0.2j]]), np.array([[3.0]]), n=2
        )
        c = sg.coherence_matrix(s)
        assert c[0, 0] == pytest.approx((0.6 + 0.2j) / np.sqrt(6.0), rel=1e-12)

    def test_strict_contraction(self):
        for seed in range(8):
            s, _, _ = make_instance(seed=400 + seed, L=3)
            assert sg.sigma_max_coherence(s) < 1.0


class TestDeterminantIdentity:
    def test_capon_denominator_form(self):
        # det(S_rr) / det(V^H S_rr V) = 1 / (u_r^H S_rr^{-1} u_r)
        for seed in range(10):
            s, steer, _ = make_instance(seed=500 + seed, L=4)
            v = unitary_completion(steer.u_r)
            ratio = np.linalg.det(s.s_rr).real / np.linalg.det(v.conj().T @ s.s_rr @ v).real
            beta_r = cross_capon_beta(s.s_rr, steer.u_r)
            assert ratio * beta_r == pytest.approx(1.0, rel=1e-8)
