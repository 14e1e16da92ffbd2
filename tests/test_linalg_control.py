import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_discrete_are

import lqshield as lq
from lqshield.errors import IndexRange, NonStabilizable
from lqshield.linalg_control import dare_residual_norm

from conftest import random_stabilizable

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0


class TestSolveDare:
    def test_zero_A_gives_Q(self):
        rng = np.random.default_rng(0)
        M = rng.standard_normal((3, 3))
        Q = M @ M.T + np.eye(3)
        model = lq.LinearModel(A=np.zeros((3, 3)), B=np.eye(3), Q=Q, R=np.eye(3))
        assert np.allclose(lq.solve_dare(model), Q, atol=1e-12)

    def test_scalar_golden_ratio(self, scalar_model):
        P = lq.solve_dare(scalar_model)
        assert abs(P[0, 0] - GOLDEN) < 1e-10

    def test_random_systems_match_scipy(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            model = random_stabilizable(rng, int(rng.integers(2, 5)))
            P = lq.solve_dare(model)
            P_ref = solve_discrete_are(model.A, model.B, model.Q, model.R)
            assert np.allclose(P, P_ref, rtol=1e-8, atol=1e-8)
            assert dare_residual_norm(model, P) <= 1e-9 * (1 + np.linalg.norm(P, 2))

    def test_psd_and_symmetric(self):
        rng = np.random.default_rng(3)
        model = random_stabilizable(rng, 4)
        P = lq.solve_dare(model)
        assert np.allclose(P, P.T)
        assert np.min(np.linalg.eigvalsh(P)) >= -1e-12

    def test_nonstabilizable_raises(self):
        # unstable mode with no control authority on it
        A = np.array([[2.0, 0.0], [0.0, 0.5]])
        B = np.array([[0.0], [1.0]])
        model = lq.LinearModel(A=A, B=B, Q=np.eye(2), R=np.eye(1))
        with pytest.raises(NonStabilizable):
            lq.solve_dare(model)


class TestSynthesize:
    def test_identity_case(self):
        model = lq.LinearModel(A=np.zeros((2, 2)), B=np.eye(2), Q=np.eye(2), R=np.eye(2))
        syn = lq.synthesize(model)
        assert np.allclose(syn.P, np.eye(2), atol=1e-12)
        assert np.allclose(syn.K, 0.0, atol=1e-12)
        assert np.allclose(syn.F, 0.0, atol=1e-12)
        assert np.allclose(syn.H, 2 * np.eye(2), atol=1e-12)
        assert syn.rho_F == 0.0
        assert syn.rho == 0.5

    def test_scalar_gains(self, scalar_syn):
        assert abs(scalar_syn.K[0, 0] - GOLDEN / (1 + GOLDEN)) < 1e-10
        assert abs(scalar_syn.F[0, 0] - (1 - GOLDEN / (1 + GOLDEN))) < 1e-10

    def test_closed_loop_contracts(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            syn = lq.synthesize(random_stabilizable(rng, int(rng.integers(2, 7))))
            assert syn.rho_F < 1.0

    def test_envelope_constant(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            syn = lq.synthesize(random_stabilizable(rng, n), T_check=300)
            assert syn.C_F >= 1.0
            Ft = np.eye(n)
            for t in range(1, 301):
                Ft = syn.F @ Ft
                assert np.linalg.norm(Ft, 2) <= syn.C_F * syn.rho**t * (1 + 1e-12)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(0, 10_000), st.integers(0, 500))
    def test_envelope_constant_equals_per_power_loop(self, seed, T_check):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 6))
        model = random_stabilizable(rng, n, int(rng.integers(1, n + 1)))
        syn = lq.synthesize(model, T_check=T_check)
        # the one-SVD-per-power loop the batched norm must reproduce exactly
        C_F = 1.0
        Ft = np.eye(n)
        for t in range(1, T_check + 1):
            Ft = syn.F @ Ft
            ratio = np.linalg.norm(Ft, 2) / syn.rho**t
            if ratio > C_F:
                C_F = ratio
        assert syn.C_F == float(C_F)
        assert np.array_equal(lq.solve_dare(model), syn.P)

    def test_sigma_and_kappa(self):
        model = lq.LinearModel(
            A=3.0 * np.eye(2) * 0.1, B=np.eye(2), Q=2 * np.eye(2), R=0.5 * np.eye(2)
        )
        syn = lq.synthesize(model)
        assert syn.sigma == 0.5
        assert syn.kappa == 2.0  # max{2, 0.3, 1}


class TestSpectralRadius:
    def test_identity(self):
        assert lq.spectral_radius(np.eye(3)) == pytest.approx(1.0, abs=1e-12)

    def test_nilpotent(self):
        assert lq.spectral_radius([[0, 1], [0, 0]]) == pytest.approx(0.0, abs=1e-12)

    def test_two_by_two_hand_roots(self):
        # char poly x^2 - 1.2 x + 0.32 = (x - 0.8)(x - 0.4)
        assert lq.spectral_radius([[0.5, 0.3], [0.1, 0.7]]) == pytest.approx(0.8, abs=1e-8)


class TestMatrixPowerSeries:
    def test_single_term(self):
        rng = np.random.default_rng(0)
        F, P = rng.standard_normal((3, 3)), rng.standard_normal((3, 3))
        seq = [rng.standard_normal(3) for _ in range(5)]
        assert np.allclose(lq.matrix_power_series(F, P, seq, 2, 2), P @ seq[2])

    def test_zero_F_keeps_first_term(self):
        rng = np.random.default_rng(1)
        P = rng.standard_normal((3, 3))
        seq = [rng.standard_normal(3) for _ in range(4)]
        out = lq.matrix_power_series(np.zeros((3, 3)), P, seq, 0, 3)
        assert np.allclose(out, P @ seq[0])

    def test_hand_sum(self):
        e1 = np.array([1.0, 0.0])
        out = lq.matrix_power_series(0.5 * np.eye(2), np.eye(2), [e1, e1], 0, 1)
        assert np.allclose(out, 1.5 * e1)

    def test_rejects_bad_range(self):
        with pytest.raises(IndexRange):
            lq.matrix_power_series(np.eye(2), np.eye(2), [np.zeros(2)], 1, 0)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(st.integers(0, 10_000))
    def test_matches_explicit_powers(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 5))
        F = 0.8 * rng.standard_normal((n, n))
        P = rng.standard_normal((n, n))
        L = int(rng.integers(1, 21))
        seq = [rng.standard_normal(n) for _ in range(L)]
        s = int(rng.integers(0, L))
        t = int(rng.integers(s, L))
        naive = sum(
            np.linalg.matrix_power(F.T, tau - s) @ P @ seq[tau] for tau in range(s, t + 1)
        )
        fast = lq.matrix_power_series(F, P, seq, s, t)
        assert np.allclose(fast, naive, rtol=1e-9, atol=1e-9)


class TestPseudoInverse:
    def test_identity(self):
        assert np.allclose(lq.pseudo_inverse(np.eye(3)), np.eye(3))

    def test_singular_diagonal(self):
        assert np.allclose(lq.pseudo_inverse(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]))

    def test_column_vector(self):
        out = lq.pseudo_inverse(np.array([[1.0], [1.0]]))
        assert np.allclose(out, [[0.5, 0.5]])

    def test_penrose_conditions(self):
        rng = np.random.default_rng(5)
        for shape in [(3, 3), (4, 2), (2, 5)]:
            M = rng.standard_normal(shape)
            Mp = lq.pseudo_inverse(M)
            assert np.allclose(M @ Mp @ M, M, atol=1e-8)
            assert np.allclose(Mp @ M @ Mp, Mp, atol=1e-8)
            assert np.allclose((M @ Mp).T, M @ Mp, atol=1e-8)
            assert np.allclose((Mp @ M).T, Mp @ M, atol=1e-8)


class TestLinearModelValidation:
    def test_rejects_asymmetric_Q(self):
        Q = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(ValueError):
            lq.LinearModel(A=np.eye(2), B=np.eye(2), Q=Q, R=np.eye(2))

    def test_rejects_indefinite_R(self):
        with pytest.raises(ValueError):
            lq.LinearModel(A=np.eye(2), B=np.eye(2), Q=np.eye(2), R=-np.eye(2))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            lq.LinearModel(A=np.eye(2), B=np.ones((3, 1)), Q=np.eye(2), R=np.eye(1))
