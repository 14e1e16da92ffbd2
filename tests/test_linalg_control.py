import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_discrete_are

import lqshield as lq
from lqshield.errors import NonStabilizable
import lqshield.linalg_control as linalg_control
from lqshield.environments import (
    CartPoleParams,
    ChargingConfig,
    cartpole_linearization,
    ev_environment,
)
from lqshield.linalg_control import (
    _dare_fixed_point,
    _envelope_constant,
    _eta_series,
    dare_residual_norm,
)

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

    def test_non_convergence_reports_update_and_residual(self, bench2_model):
        with pytest.raises(NonStabilizable, match="within 3 iterations") as info:
            lq.synthesize(bench2_model, max_iter=3)
        message = str(info.value)
        update = float(message.split("last sup-norm update ")[1].split(",")[0])
        residual = float(message.split("DARE residual ")[1])
        assert update > 1e-12 and residual > 1e-12


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
            syn = lq.synthesize(random_stabilizable(rng, n))
            assert syn.C_F >= 1.0
            assert syn.T_check == 500
            Ft = np.eye(n)
            for t in range(1, 501):
                Ft = syn.F @ Ft
                assert np.linalg.norm(Ft, 2) <= syn.C_F * syn.rho**t * (1 + 1e-12)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(0, 10_000), st.integers(0, 500))
    def test_envelope_constant_equals_per_power_loop(self, seed, T_check):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 6))
        model = random_stabilizable(rng, n, int(rng.integers(1, n + 1)))
        syn = lq.synthesize(model)
        C_F = _envelope_constant(syn.F, syn.rho, T_check)
        assert C_F == _per_power_envelope(syn, T_check)[0]
        assert syn.C_F == _per_power_envelope(syn, 500)[0]
        assert np.array_equal(lq.solve_dare(model), syn.P)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(0, 10_000), st.integers(0, 500))
    @example(seed=0, T_check=0)
    @example(seed=1, T_check=1)
    def test_envelope_screen_on_non_normal_loops(self, seed, T_check):
        """Closed loops of two Jordan-type blocks with large off-diagonals:
        ||F^t|| / rho^t peaks after t = 1, many powers' Frobenius ratios
        sit near the max, and where the blocks' transients cross a power
        has two equal singular values, so the largest Frobenius ratio need
        not belong to the power that sets C_F.  The screened SVDs still
        give the max over every power bit for bit."""
        rng = np.random.default_rng(seed)
        A = np.zeros((4, 4))
        for i in (0, 2):
            lam = rng.uniform(0.7, 0.95)
            A[i : i + 2, i : i + 2] = [[lam, rng.uniform(2.0, 6.0)], [0.0, lam]]
        B = 1e-3 * rng.standard_normal((4, 1))
        syn = lq.synthesize(lq.LinearModel(A=A, B=B, Q=np.eye(4), R=np.eye(1)))
        C_F, peak = _per_power_envelope(syn, T_check)
        assert _envelope_constant(syn.F, syn.rho, T_check) == C_F
        if T_check >= 2:
            assert peak > 1

    def test_sigma_and_kappa(self):
        model = lq.LinearModel(
            A=3.0 * np.eye(2) * 0.1, B=np.eye(2), Q=2 * np.eye(2), R=0.5 * np.eye(2)
        )
        syn = lq.synthesize(model)
        assert syn.sigma == 0.5
        assert syn.kappa == 2.0  # max{2, 0.3, 1}


def _per_power_envelope(syn, T_check):
    """C_F from one SVD per power F^1..F^T_check, the loop
    ``_envelope_constant`` must reproduce exactly, and the power that
    sets it (0 for the t = 0 term)."""
    C_F, peak = 1.0, 0
    Ft = np.eye(syn.n)
    for t in range(1, T_check + 1):
        Ft = syn.F @ Ft
        ratio = np.linalg.norm(Ft, 2) / syn.rho**t
        if ratio > C_F:
            C_F, peak = ratio, t
    return float(C_F), peak


def _eager_synthesis(model):
    """Every synthesis value computed right after the Riccati loop, in
    the order of the eager body that ``synthesize`` had before its
    record derived them; the derived values must equal these bit for
    bit."""
    P, iterations = _dare_fixed_point(model, 20_000)
    A, B, Q, R = model.A, model.B, model.Q, model.R
    H = R + B.T @ P @ B
    H = 0.5 * (H + H.T)
    K = np.linalg.solve(H, B.T @ P @ A)
    F = A - B @ K
    rho_F = lq.spectral_radius(F)
    C_F = _envelope_constant(F, 0.5 * (1.0 + rho_F), 500)
    kappa = max(2.0, np.linalg.norm(A, 2), np.linalg.norm(B, 2))
    sigma = float(min(np.min(np.linalg.eigvalsh(Q)), np.min(np.linalg.eigvalsh(R))))
    residual = dare_residual_norm(model, P)
    return {
        "P": P,
        "K": K,
        "F": F,
        "H": H,
        "C_F": C_F,
        "rho_F": float(rho_F),
        "rho": 0.5 * (1.0 + float(rho_F)),
        "kappa": float(kappa),
        "sigma": sigma,
        "dare_residual": residual,
        "iterations": iterations,
    }


def _assert_same_bits(syn, expected):
    for name, want in expected.items():
        got = getattr(syn, name)
        assert type(got) is type(want), name
        if isinstance(want, np.ndarray):
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), name
        else:
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), name


# the systems the shipped ``dare`` runs synthesize: the default [system],
# adversarial.cfg's, the cart-pole model and the EV fleet
SHIPPED_SYSTEMS = {
    "default": lq.LinearModel(
        A=[[0.55, 0.25], [0.0, 0.45]], B=np.eye(2), Q=np.eye(2), R=np.eye(2)
    ),
    "adversarial-cfg": lq.LinearModel(
        A=[[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.2, 0.1, 0.3]],
        B=np.eye(3),
        Q=np.eye(3),
        R=np.eye(3),
    ),
    "cartpole": cartpole_linearization(CartPoleParams()),
    "ev": ev_environment(ChargingConfig(), []).model,
}


class TestDerivedSynthesis:
    """A Synthesis stores P and its iteration count; the rest derives."""

    @pytest.mark.parametrize("name", list(SHIPPED_SYSTEMS))
    def test_shipped_systems_match_eager_synthesis(self, name):
        model = SHIPPED_SYSTEMS[name]
        _assert_same_bits(lq.synthesize(model), _eager_synthesis(model))

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(st.integers(0, 10_000), st.booleans())
    def test_random_systems_match_eager_synthesis(self, seed, c_f_first):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 6))
        model = random_stabilizable(rng, n, int(rng.integers(1, n + 1)))
        try:
            expected = _eager_synthesis(model)
            syn = lq.synthesize(model)
        except NonStabilizable:
            return
        if c_f_first:
            # a derived value does not depend on what was read before it
            assert syn.C_F == expected["C_F"]
        _assert_same_bits(syn, expected)

    def test_envelope_constant_computed_on_first_read(self, bench2_model, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return _envelope_constant(*args)

        monkeypatch.setattr(linalg_control, "_envelope_constant", counted)
        syn = lq.synthesize(bench2_model)
        assert calls == []
        assert syn.C_F == syn.C_F
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "A, P, message",
        [
            (0.5 * np.eye(2), -10.0 * np.eye(2), "R \\+ B'PB is not positive definite"),
            (1.5 * np.eye(2), np.zeros((2, 2)), "spectral radius 1.500000 >= 1"),
            (0.5 * np.eye(2), np.eye(2), "DARE residual .* above tolerance"),
        ],
        ids=["H-indefinite", "not-contracting", "residual"],
    )
    def test_checks_on_the_fixed_point(self, monkeypatch, A, P, message):
        """synthesize checks H, then rho_F, then the DARE residual of the
        fixed point it is handed."""
        model = lq.LinearModel(A=A, B=np.eye(2), Q=np.eye(2), R=np.eye(2))
        monkeypatch.setattr(linalg_control, "_dare_fixed_point", lambda model, it: (P, 1))
        with pytest.raises(NonStabilizable, match=message):
            lq.synthesize(model)


class TestSpectralRadius:
    def test_identity(self):
        assert lq.spectral_radius(np.eye(3)) == pytest.approx(1.0, abs=1e-12)

    def test_nilpotent(self):
        assert lq.spectral_radius([[0, 1], [0, 0]]) == pytest.approx(0.0, abs=1e-12)

    def test_two_by_two_hand_roots(self):
        # char poly x^2 - 1.2 x + 0.32 = (x - 0.8)(x - 0.4)
        assert lq.spectral_radius([[0.5, 0.3], [0.1, 0.7]]) == pytest.approx(0.8, abs=1e-8)


def _matrix_power_series(F, P, seq, s, t):
    """sum_{tau=s}^{t} (F^T)^(tau-s) P seq[tau], through the eta-series pass."""
    return _eta_series(F, P, seq[s : t + 1])[0]


class TestMatrixPowerSeries:
    def test_single_term(self):
        rng = np.random.default_rng(0)
        F, P = rng.standard_normal((3, 3)), rng.standard_normal((3, 3))
        seq = [rng.standard_normal(3) for _ in range(5)]
        assert np.allclose(_matrix_power_series(F, P, seq, 2, 2), P @ seq[2])

    def test_zero_F_keeps_first_term(self):
        rng = np.random.default_rng(1)
        P = rng.standard_normal((3, 3))
        seq = [rng.standard_normal(3) for _ in range(4)]
        out = _matrix_power_series(np.zeros((3, 3)), P, seq, 0, 3)
        assert np.allclose(out, P @ seq[0])

    def test_hand_sum(self):
        e1 = np.array([1.0, 0.0])
        out = _matrix_power_series(0.5 * np.eye(2), np.eye(2), [e1, e1], 0, 1)
        assert np.allclose(out, 1.5 * e1)

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
        fast = _matrix_power_series(F, P, seq, s, t)
        assert np.allclose(fast, naive, rtol=1e-9, atol=1e-9)


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


class TestRecordsCompareByIdentity:
    """Records that hold arrays compare and hash by identity, so ``==``
    between two equal but distinct ones neither raises nor compares the
    arrays."""

    def _twice(self, build):
        a, b = build(), build()
        assert a == a and not a != a
        assert a != b and not a == b
        assert len({a, b, a}) == 2

    def test_linear_models(self):
        self._twice(lambda: lq.LinearModel(A=np.eye(2), B=np.eye(2), Q=np.eye(2), R=np.eye(2)))

    def test_syntheses_of_one_model(self, bench2_model):
        self._twice(lambda: lq.synthesize(bench2_model))

    def test_trajectories_certificates_and_ev_records(self, bench2_model):
        syn = lq.synthesize(bench2_model)
        self._twice(
            lambda: lq.simulate(bench2_model, lq.zero_residual(2), lq.lqr_policy(syn), [1.0, 0.0], 3)
        )
        self._twice(lambda: lq.construct_adversarial_K2(bench2_model, syn.K, 0.5))
        self._twice(ChargingConfig)
        config = ChargingConfig()
        self._twice(lambda: ev_environment(config, []))
