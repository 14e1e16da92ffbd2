import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lqshield as lq
from lqshield.errors import DegenerateOPT, PreconditionViolated
from lqshield.guarantees import (
    admissible_lipschitz_cap,
    default_c2,
    predicted_envelope_prefactor,
)

from conftest import random_stabilizable

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0


class TestTheoremConstants:
    def test_zero_lipschitz(self, bench2_syn):
        c = lq.theorem_constants(bench2_syn, 0.0, 0.03)
        assert c.gamma == pytest.approx(bench2_syn.rho, abs=0)
        assert c.mu == pytest.approx(bench2_syn.C_F * 0.03 * c.norm_B, rel=1e-12)
        assert c.applicable

    def test_reads_its_synthesis(self, bench2_syn):
        """Two evaluations compare equal, and the synthesis they read is
        neither compared nor printed."""
        a = lq.theorem_constants(bench2_syn, 0.01, 0.02)
        b = lq.theorem_constants(bench2_syn, 0.01, 0.02)
        assert a == b and a.syn is bench2_syn
        assert "syn" not in repr(a) and "C_ell=0.01" in repr(a)
        other = lq.theorem_constants(bench2_syn, 0.01, 0.03)
        assert a != other
        assert list(a.as_dict())[-8:] == [
            "C_F", "rho", "sigma", "kappa", "norm_H", "norm_B", "norm_K", "norm_P"
        ]

    def test_zero_both_gives_zero_mu(self, bench2_syn):
        c = lq.theorem_constants(bench2_syn, 0.0, 0.0)
        assert c.mu == 0.0

    def test_scalar_closed_forms(self, scalar_syn):
        """Independent scalar evaluation of every constant."""
        c = lq.theorem_constants(scalar_syn, 0.01, 0.01)
        p = GOLDEN
        k = p / (1 + p)
        f = 1 - k
        rho = (1 + f) / 2
        C_F = 1.0
        H = 1 + p
        cbar = 0.01 * (1 + k)
        C_b = (
            2 * C_F**2 * p * (rho + cbar) * (rho + 1 + k)
            / (1 - (rho + cbar) ** 2)
            * math.sqrt(1 + k**2)
        )
        C_a = H / (2 * C_F * (p * f + (1 + k) * (p + p) + 0.5 * C_b * 2.0 * (1 + f + k)))
        C_c = H / (4 * p + 2 * p + C_b * 2.0 * 1.0)
        gamma = rho + C_F * cbar
        mu = C_F * (0.01 * (0.01 + 1.0) + C_a * 0.01)
        cr_bar = 2 * 2 * (C_F * p / (1 - rho)) ** 2 / 1.0
        assert c.C_b_sys == pytest.approx(C_b, rel=1e-10)
        assert c.C_a_sys == pytest.approx(C_a, rel=1e-10)
        assert c.C_c_sys == pytest.approx(C_c, rel=1e-10)
        assert c.gamma == pytest.approx(gamma, rel=1e-12)
        assert c.mu == pytest.approx(mu, rel=1e-10)
        assert c.CR_model_bar == pytest.approx(cr_bar, rel=1e-10)
        assert c.eps_max_stability == pytest.approx(
            min(1.0 / (2 * H), (1.0 - C_a * 0.01) / 1.01), rel=1e-10
        )
        assert c.C_ell_max == pytest.approx(
            min(1.0, C_a, C_c, (1 - rho) / (1 + k)), rel=1e-10
        )
        assert c.gamma < 1

    def test_not_applicable_when_series_diverges(self, bench2_syn):
        # C_ell large enough that rho + C_ell (1 + ||K||) >= 1
        big = (1.0 - bench2_syn.rho) / (1.0 + np.linalg.norm(bench2_syn.K, 2)) + 0.5
        c = lq.theorem_constants(bench2_syn, big, 0.0)
        assert not c.applicable
        assert c.C_b_sys == math.inf
        assert c.gamma >= 1.0

    def test_monotone_in_inputs(self, bench2_syn):
        gammas = [lq.theorem_constants(bench2_syn, cl, 0.0).gamma for cl in (0, 0.01, 0.02, 0.04)]
        assert all(b > a for a, b in zip(gammas, gammas[1:]))
        mus_eps = [lq.theorem_constants(bench2_syn, 0.01, e).mu for e in (0, 0.01, 0.02, 0.04)]
        assert all(b > a for a, b in zip(mus_eps, mus_eps[1:]))
        mus_cl = [lq.theorem_constants(bench2_syn, cl, 0.01).mu for cl in (0, 0.005, 0.01)]
        assert all(b > a for a, b in zip(mus_cl, mus_cl[1:]))

    def test_rejects_negative_inputs(self, bench2_syn):
        with pytest.raises(ValueError):
            lq.theorem_constants(bench2_syn, -0.1, 0.0)

    def test_rejects_nan_inputs(self, bench2_syn):
        # infinite inputs too: they would give gamma = inf and mu = nan
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                lq.theorem_constants(bench2_syn, bad, 0.0)
            with pytest.raises(ValueError):
                lq.theorem_constants(bench2_syn, 0.0, bad)


def _manual_trajectory(norm_seq, step_costs=None):
    states = np.asarray(norm_seq, dtype=float).reshape(-1, 1)
    T = states.shape[0] - 1
    return lq.Trajectory(
        states=states,
        actions=np.zeros((T, 1)),
        residuals=np.zeros((T, 1)),
        step_costs=np.zeros(T) if step_costs is None else np.asarray(step_costs, dtype=float),
    )


class TestFitStabilityEnvelope:
    def test_exact_geometric(self, bench2_syn):
        consts = lq.theorem_constants(bench2_syn, 0.0, 0.0)
        traj = _manual_trajectory([0.5**t for t in range(40)])
        # 0.5 decays faster than gamma = rho >= 1/2, from the same start
        assert lq.fit_stability_envelope(traj, consts) is True

    def test_geometric_with_prefactor(self, bench2_syn):
        consts = lq.theorem_constants(bench2_syn, 0.0, 0.0)
        traj = _manual_trajectory([3.0 * 0.8**t for t in range(40)])
        # the envelope is relative to ||x_0||, so only the decay 0.8 counts,
        # and it is slower than gamma = rho (about 0.62 here)
        assert consts.gamma < 0.8
        assert lq.fit_stability_envelope(traj, consts) is False

    def test_constant_trajectory_fails_predicted(self, bench2_syn):
        consts = lq.theorem_constants(bench2_syn, 0.001, 0.001)
        traj = _manual_trajectory([1.0] * 30)
        assert lq.fit_stability_envelope(traj, consts) is False

    def test_degenerate_below_threshold(self, bench2_syn):
        consts = lq.theorem_constants(bench2_syn, 0.0, 0.0)
        traj = _manual_trajectory([1e-13] * 20)
        assert lq.fit_stability_envelope(traj, consts) is True

    def test_degenerate_without_prediction_is_unknown(self, bench2_syn):
        consts = lq.theorem_constants(bench2_syn, 0.0, 0.9)
        assert consts.mu >= consts.gamma
        assert lq.fit_stability_envelope(_manual_trajectory([1e-13] * 20), consts) is None

    def test_predicted_prefactor_unavailable_when_mu_exceeds_gamma(self, bench2_syn):
        consts = lq.theorem_constants(bench2_syn, 0.0, 0.9)  # huge eps -> mu > gamma
        if consts.mu >= consts.gamma:
            assert predicted_envelope_prefactor(consts) is None
            traj = _manual_trajectory([0.5**t for t in range(20)])
            assert lq.fit_stability_envelope(traj, consts) is None

    @pytest.mark.parametrize("x0_norm", [0.0, np.nan, np.inf])
    def test_start_must_be_positive_and_finite(self, bench2_syn, x0_norm):
        consts = lq.theorem_constants(bench2_syn, 0.0, 0.0)
        traj = _manual_trajectory([x0_norm, 0.5])
        with pytest.raises(ValueError, match="positive and finite"):
            lq.fit_stability_envelope(traj, consts)

    def test_short_trajectory_gets_a_verdict(self, bench2_syn):
        consts = lq.theorem_constants(bench2_syn, 0.0, 0.0)
        assert lq.fit_stability_envelope(_manual_trajectory([1.0, 0.5]), consts) is True
        assert lq.fit_stability_envelope(_manual_trajectory([1.0, 0.9]), consts) is False


def _random_cell(seed):
    """A random system and one verify-bounds-style cell on it: C_ell at
    half the admissible cap, epsilon at 0.9 of eps_max, the black box's
    declared error eps_tilde = eps - C_a_sys C_ell, and a unit x0.

    n is 2-4 and m is 1..n; A is Gaussian rescaled to a spectral radius
    drawn from U(0.2, 0.8), B is Gaussian, and Q = I, R = I.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    m = int(rng.integers(1, n + 1))
    A = rng.standard_normal((n, n))
    A *= rng.uniform(0.2, 0.8) / lq.spectral_radius(A)
    model = lq.LinearModel(A=A, B=rng.standard_normal((n, m)), Q=np.eye(n), R=np.eye(m))
    syn = lq.synthesize(model)
    C_ell = 0.5 * admissible_lipschitz_cap(syn)
    eps = 0.9 * lq.theorem_constants(syn, C_ell, 0.0).eps_max_stability
    consts = lq.theorem_constants(syn, C_ell, eps)
    x0 = rng.standard_normal(n)
    return syn, consts, max(eps - consts.C_a_sys * C_ell, 0.0), x0 / np.linalg.norm(x0)


def _greedy_blackbox(syn, eps):
    """The LQR action moved by eps ||x|| along B'(Ax + Bu), the direction
    that pushes the next state outward."""
    A, B, K = syn.model.A, syn.model.B, syn.K

    def act(t, x):
        u = -K @ x
        d = B.T @ (A @ x + B @ u)
        nd = np.linalg.norm(d)
        return u if nd == 0.0 else u + eps * np.linalg.norm(x) * d / nd

    return lq.Policy(act=act)


def _envelope_holds(syn, consts, blackbox, x0, seed):
    """fit_stability_envelope of the learned rule at alpha 0.01 over 150
    steps of the plant with a lipschitz_residual at the cell's C_ell."""
    residual = lq.lipschitz_residual(syn.n, syn.m, consts.C_ell, seed=seed)
    policy = lq.AdaptivePolicy(syn, blackbox, lq.lqr_policy(syn), 0.01, "learned")
    traj = lq.simulate(syn.model, residual, policy, x0, 150)
    return lq.fit_stability_envelope(traj, consts)


class TestStabilityTheoremOnRandomSystems:
    """The stability envelope as a property of random systems, and a
    negative control showing that the check can fail."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1))
    def test_envelope_holds_within_the_hypotheses(self, seed):
        syn, consts, eps_tilde, x0 = _random_cell(seed)
        assert consts.violations() == [] and consts.mu < consts.gamma
        rotation = lq.epsilon_consistent_blackbox(lq.lqr_policy(syn), eps_tilde, "rotation", seed)
        assert _envelope_holds(syn, consts, rotation, x0, seed) is True
        greedy = _greedy_blackbox(syn, eps_tilde)
        assert _envelope_holds(syn, consts, greedy, x0, seed) is True

    def test_envelope_fails_at_ten_times_the_declared_error(self):
        failures = 0
        for seed in range(40):
            syn, consts, eps_tilde, x0 = _random_cell(seed)
            greedy = _greedy_blackbox(syn, 10.0 * eps_tilde)
            failures += _envelope_holds(syn, consts, greedy, x0, seed) is False
        assert failures >= 1


class TestOptCostTimeOnly:
    def test_zero_disturbance_is_value_function(self, bench2_syn):
        rng = np.random.default_rng(0)
        x0 = rng.standard_normal(2)
        w = [np.zeros(2)] * 10
        cost = lq.opt_cost_time_only(bench2_syn, w, x0)
        assert cost == pytest.approx(float(x0 @ bench2_syn.P @ x0), rel=1e-10)

    def test_scalar_hand_value(self, scalar_syn):
        # x0 = 0, w = (1, 0, ...): cost = r p / h = p / (1 + p)
        w = [np.array([1.0])] + [np.zeros(1)] * 5
        cost = lq.opt_cost_time_only(scalar_syn, w, [0.0])
        assert cost == pytest.approx(GOLDEN / (1 + GOLDEN), rel=1e-10)

    def test_closed_form_matches_simulation(self):
        rng = np.random.default_rng(17)
        for _ in range(8):
            model = random_stabilizable(rng, int(rng.integers(1, 5)))
            syn = lq.synthesize(model)
            T = 60
            w = [rng.uniform(-1, 1, size=model.n) for _ in range(T)]
            w = [v / max(1.0, np.linalg.norm(v)) for v in w]
            x0 = rng.standard_normal(model.n)
            # the simulated side of opt_cost_time_only, without its own cross-check
            optimal = lq.auxiliary_optimal_policy(syn, w)
            sim = lq.total_cost_with_tail(
                lq.simulate(model, lq.disturbance_residual(w), optimal, x0, T), syn
            )
            closed = lq.auxiliary_cost_closed_form(syn, w, x0)
            assert sim == pytest.approx(closed, rel=1e-8)

    def test_internal_cross_check_runs(self, bench2_syn):
        rng = np.random.default_rng(3)
        w = [rng.standard_normal(2) for _ in range(20)]
        lq.opt_cost_time_only(bench2_syn, w, rng.standard_normal(2))

    def test_rolls_out_past_the_simulate_blowup_bound(self, bench2_syn):
        # the state passes simulate's default bound of 1e9 at the first step
        w = [[1e10, 0.0], [1e10, 0.0]]
        cost = lq.opt_cost_time_only(bench2_syn, w, [0.0, 0.0])
        closed = lq.auxiliary_cost_closed_form(bench2_syn, w, [0.0, 0.0])
        assert cost == pytest.approx(closed, rel=1e-8)

    @pytest.mark.parametrize(
        "w, x0",
        [([[np.nan, 0.0]], [1.0, 0.0]), ([[np.inf, 0.0]], [1.0, 0.0]), ([], [np.nan, 0.0])],
        ids=["w-nan", "w-inf", "x0-nan"],
    )
    def test_cross_check_rejects_a_non_finite_cost(self, bench2_syn, w, x0):
        with pytest.raises(ValueError, match="must be finite"):
            lq.opt_cost_time_only(bench2_syn, w, x0)

    def test_cross_check_rejects_an_overflowing_cost(self, bench2_syn):
        # finite inputs whose costs overflow reach the cross-check itself
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            RuntimeError, match="cross-check failed"
        ):
            lq.opt_cost_time_only(bench2_syn, [[1e200, 0.0]], [0.0, 0.0])


def _reference_theorem_constants(syn, C_ell, epsilon):
    """The per-call norm computation that ``theorem_constants`` and
    ``admissible_lipschitz_cap`` must reproduce bit for bit."""
    opnorm = lambda M: float(np.linalg.norm(M, 2))  # noqa: E731
    P, K, F, H = syn.P, syn.K, syn.F, syn.H
    B = syn.model.B
    Q, R = syn.model.Q, syn.model.R
    rho, C_F, sigma, kappa = syn.rho, syn.C_F, syn.sigma, syn.kappa
    nP, nK, nB, nF, nH = opnorm(P), opnorm(K), opnorm(B), opnorm(F), opnorm(H)
    nPB, nPF = opnorm(P @ B), opnorm(P @ F)
    nQKRK = opnorm(Q + K.T @ R @ K)
    C_bar = C_ell * (1.0 + nK)
    gamma = rho + C_F * C_bar
    if B.shape[0] == B.shape[1]:
        nBI = opnorm(B + np.eye(B.shape[0]))
    else:
        nBI = nB + 1.0
    applicable = (rho + C_bar) < 1.0
    if applicable:
        C_b = (
            2.0 * C_F**2 * nP * (rho + C_bar) * (rho + 1.0 + nK)
            / (1.0 - (rho + C_bar) ** 2)
            * math.sqrt(nQKRK / sigma)
        )
        C_a = nH / (
            2.0 * C_F * (nPF + (1.0 + nK) * (nPB + nP) + 0.5 * C_b * nBI * (1.0 + nF + nK))
        )
        C_c = nH / (4.0 * nPB + 2.0 * nP + C_b * (nB + 1.0) * nB)
    else:
        C_b = math.inf
        C_a = 0.0
        C_c = 0.0
    mu = C_F * (epsilon * (C_ell + nB) + C_a * C_ell)
    CR_model_bar = 2.0 * kappa * (C_F * nP / (1.0 - rho)) ** 2 / sigma
    eps_max = min(sigma / (2.0 * nH), (1.0 / C_F - C_a * C_ell) / (C_ell + nB))
    C_ell_max = min(1.0, C_a, C_c, (1.0 - rho) / (C_F * (1.0 + nK)))
    return {
        "C_ell": float(C_ell),
        "epsilon": float(epsilon),
        "gamma": float(gamma),
        "mu": float(mu),
        "C_a_sys": float(C_a),
        "C_b_sys": float(C_b),
        "C_c_sys": float(C_c),
        "CR_model_bar": float(CR_model_bar),
        "eps_max_stability": float(eps_max),
        "C_ell_max": float(C_ell_max),
        "applicable": applicable,
        "C_F": C_F,
        "rho": rho,
        "sigma": sigma,
        "kappa": kappa,
        "norm_H": nH,
        "norm_B": nB,
        "norm_K": nK,
        "norm_P": nP,
    }


def _reference_cap(syn, tol=1e-10):
    lo, hi = 0.0, _reference_theorem_constants(syn, 0.0, 0.0)["C_ell_max"]
    if hi <= 0:
        return 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid < _reference_theorem_constants(syn, mid, 0.0)["C_ell_max"]:
            lo = mid
        else:
            hi = mid
        if hi - lo <= tol * max(1.0, hi):
            break
    return lo


class TestHoistedNorms:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.integers(0, 10_000))
    def test_bit_identical_to_per_call_norms(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 5))
        m = n if rng.random() < 0.5 else int(rng.integers(1, n + 1))
        try:
            syn = lq.synthesize(random_stabilizable(rng, n, m))
        except lq.NonStabilizable:
            return
        cap = admissible_lipschitz_cap(syn)
        assert cap == _reference_cap(syn)
        for C_ell in (0.0, 0.5 * cap, cap, 2.0 * cap + 0.01):
            eps = float(rng.uniform(0.0, 0.1))
            got = lq.theorem_constants(syn, C_ell, eps).as_dict()
            assert got == _reference_theorem_constants(syn, C_ell, eps)

    def test_interleaved_syntheses(self, bench2_syn):
        """Constants taken alternately on two syntheses use each one's own
        norms."""
        other = lq.synthesize(random_stabilizable(np.random.default_rng(8), 3, 1))
        for syn in (bench2_syn, other, other, bench2_syn, other, bench2_syn):
            for C_ell, eps in ((0.0, 0.0), (0.01, 0.02)):
                got = lq.theorem_constants(syn, C_ell, eps).as_dict()
                assert got == _reference_theorem_constants(syn, C_ell, eps)
            assert admissible_lipschitz_cap(syn) == _reference_cap(syn)


def _reference_trajopt(model, residual, x0, T, iterations, syn, fd_step=1e-6):
    """The scalar finite-difference shooting loop that ``opt_cost_trajopt``
    reproduces up to the rounding of its batched objective."""
    x0 = np.asarray(x0, dtype=float)
    A, B, Q, R, P = model.A, model.B, model.Q, model.R, syn.P
    m = model.m

    def rollout_cost(u_flat):
        us = u_flat.reshape(T, m)
        x = x0.copy()
        cost = 0.0
        for t in range(T):
            u = us[t]
            cost += float(x @ Q @ x + u @ R @ u)
            x = A @ x + B @ u + np.asarray(residual.eval(t, x, u), dtype=float)
            if not np.all(np.isfinite(x)):
                return float("inf")
        return cost + float(x @ P @ x)

    traj = lq.simulate(model, residual, lq.lqr_policy(syn), x0, T)
    u = traj.actions.reshape(-1).copy()
    if u.shape[0] != T * m:
        u = np.resize(u, T * m)
    best = rollout_cost(u)
    history = [best]
    for _ in range(iterations):
        grad = np.zeros_like(u)
        for j in range(u.shape[0]):
            h = fd_step * max(1.0, abs(u[j]))
            up, um = u.copy(), u.copy()
            up[j] += h
            um[j] -= h
            grad[j] = (rollout_cost(up) - rollout_cost(um)) / (2.0 * h)
        gnorm = np.linalg.norm(grad)
        if gnorm < 1e-14:
            break
        step = 1.0 / (1.0 + gnorm)
        improved_this_iter = False
        for _ in range(40):
            cand = u - step * grad
            c = rollout_cost(cand)
            if c < best - 1e-12 * max(1.0, abs(best)):
                u, best = cand, c
                improved_this_iter = True
                break
            step *= 0.5
        history.append(best)
        if not improved_this_iter:
            break
    return lq.TrajOptResult(cost_history=history)


def _trajopt_cases(bench2_model, bench2_syn):
    from lqshield.environments import (
        CartPoleParams,
        cartpole_linearization,
        cartpole_residual,
    )

    params = CartPoleParams()
    cp_model = cartpole_linearization(params)
    cp_syn = lq.synthesize(cp_model)
    cp_resid = cartpole_residual(params, params)
    cases = {
        f"cartpole-{angle}": (cp_model, cp_resid, [0.0, 0.0, angle, 0.0], 12, 40, cp_syn)
        for angle in (0.05, 0.17, 0.3)
    }
    rng = np.random.default_rng(4)
    cases["bench2-tanh"] = (
        bench2_model,
        lq.lipschitz_residual(2, 2, 0.05, seed=5),
        rng.standard_normal(2),
        20,
        10,
        bench2_syn,
    )
    w = [0.3 * rng.standard_normal(2) for _ in range(25)]
    cases["bench2-time-only"] = (
        bench2_model,
        lq.disturbance_residual(w),
        rng.standard_normal(2),
        25,
        60,
        bench2_syn,
    )
    return cases


def _overflowing_residual(batch_form):
    """A constant disturbance plus a term that is negligible while
    |u_t|^2 < 0.1 (the LQR actions on bench2 stay below 0.02) and
    overflows once |u_t|^2 exceeds about 0.171."""
    w = np.array([0.4, -0.3])

    def f(t, x, u):
        return w + np.exp(1e4 * (u @ u - 0.1))

    def f_batch(t, X, U):
        return w + np.exp(1e4 * (np.sum(U * U, axis=1) - 0.1))[:, None]

    return lq.ResidualModel(eval=f, eval_batch=f_batch if batch_form else None)


class TestOptCostTrajopt:
    @pytest.mark.parametrize(
        "case",
        ["cartpole-0.05", "cartpole-0.17", "cartpole-0.3", "bench2-tanh", "bench2-time-only"],
    )
    def test_matches_scalar_reference(self, bench2_model, bench2_syn, case):
        model, resid, x0, T, iterations, syn = _trajopt_cases(bench2_model, bench2_syn)[case]
        res = lq.opt_cost_trajopt(model, resid, x0, T, iterations=iterations, syn=syn)
        ref = _reference_trajopt(model, resid, x0, T, iterations=iterations, syn=syn)
        assert res.cost == pytest.approx(ref.cost, rel=1e-9)
        assert res.initial_cost == pytest.approx(ref.initial_cost, rel=1e-9)
        assert res.iterations_run == ref.iterations_run
        assert res.improved == ref.improved

    def test_candidate_and_probes_share_a_batch(self, bench2_model, bench2_syn):
        """Each accepted first candidate is evaluated with its own probes:
        one objective batch per iteration plus the initial one."""
        model, resid, x0, T, iterations, syn = _trajopt_cases(bench2_model, bench2_syn)[
            "cartpole-0.17"
        ]
        calls = []

        def counting(t, X, U):
            calls.append((t, X.shape[0]))
            return resid.eval_batch(t, X, U)

        counted = lq.ResidualModel(eval=resid.eval, eval_batch=counting)
        res = lq.opt_cost_trajopt(model, counted, x0, T, iterations=iterations, syn=syn)
        D = T * model.m
        # every iteration accepts its first candidate, the last one included
        assert res.iterations_run == iterations
        assert len(calls) == (res.iterations_run + 1) * T
        assert [N for t, N in calls if t == 0] == [2 * D + 1] * (iterations + 1)

    def test_point_accepted_after_backtracking_brings_its_probes(
        self, bench2_model, bench2_syn
    ):
        """A candidate accepted after backtracking was evaluated with its
        probes, so no batch evaluates an accepted point a second time."""
        inner = _overflowing_residual(batch_form=True)
        firsts, sizes = [], []

        def recording(t, X, U):
            if t == 0:
                firsts.append([])
                sizes.append(X.shape[0])
            firsts[-1].append(U[0].copy())
            return inner.eval_batch(t, X, U)

        resid = lq.ResidualModel(eval=inner.eval, eval_batch=recording)
        T = 10
        res = lq.opt_cost_trajopt(
            bench2_model, resid, np.array([0.3, -0.2]), T=T, iterations=15, syn=bench2_syn
        )
        # every iteration accepted a point, and some only after backtracking
        assert all(b < a for a, b in zip(res.cost_history, res.cost_history[1:]))
        assert len(sizes) > res.iterations_run + 1
        assert sizes == [2 * T * bench2_model.m + 1] * len(sizes)
        points = [np.concatenate(rows) for rows in firsts]
        assert len({p.tobytes() for p in points}) == len(points)

    @pytest.mark.parametrize("batch_form", [False, True])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_rows_cost_inf_quietly(self, bench2_model, bench2_syn, batch_form):
        """A residual that overflows for large actions makes some line-search
        rows non-finite; they cost inf, with no warning, and the descent
        keeps its invariants."""
        resid = _overflowing_residual(batch_form)
        x0 = np.array([0.3, -0.2])
        with np.errstate(all="ignore"):
            assert resid.batch(0, np.zeros((1, 2)), np.ones((1, 2)))[0, 0] == math.inf
        res = lq.opt_cost_trajopt(bench2_model, resid, x0, T=10, iterations=15, syn=bench2_syn)
        assert math.isfinite(res.cost)
        assert res.cost <= res.initial_cost
        assert all(b <= a for a, b in zip(res.cost_history, res.cost_history[1:]))
        # the scalar loop meets the same overflows, and warns
        with pytest.warns(RuntimeWarning):
            ref = _reference_trajopt(bench2_model, resid, x0, T=10, iterations=15, syn=bench2_syn)
        # the residual's slope (up to 1e4 |u| e^...) amplifies last-bit
        # differences of the batched objective beyond the 1e-9 of the
        # smooth cases
        assert res.cost == pytest.approx(ref.cost, rel=1e-6)
        assert res.iterations_run == ref.iterations_run

    def test_linear_plant_matches_exact(self, bench2_model, bench2_syn):
        rng = np.random.default_rng(1)
        x0 = rng.standard_normal(2)
        exact = lq.opt_cost_time_only(bench2_syn, [], x0)
        res = lq.opt_cost_trajopt(
            bench2_model, lq.zero_residual(2), x0, T=30, iterations=5, syn=bench2_syn
        )
        assert res.cost == pytest.approx(exact, rel=1e-6)
        assert res.cost <= res.initial_cost

    def test_time_only_matches_exact_oracle(self, bench2_model, bench2_syn):
        rng = np.random.default_rng(2)
        T = 25
        w = [0.3 * rng.standard_normal(2) for _ in range(T)]
        x0 = rng.standard_normal(2)
        exact = lq.opt_cost_time_only(bench2_syn, w, x0)
        res = lq.opt_cost_trajopt(
            bench2_model, lq.disturbance_residual(w), x0, T=T, iterations=60, syn=bench2_syn
        )
        assert res.cost == pytest.approx(exact, rel=1e-4)
        assert res.improved

    def test_never_exceeds_lqr_rollout(self, bench2_model, bench2_syn):
        rng = np.random.default_rng(4)
        resid = lq.lipschitz_residual(2, 2, 0.05, seed=5)
        res = lq.opt_cost_trajopt(
            bench2_model, resid, rng.standard_normal(2), T=20, iterations=10, syn=bench2_syn
        )
        assert res.cost <= res.initial_cost
        assert all(b <= a + 1e-12 for a, b in zip(res.cost_history, res.cost_history[1:]))


class TestCompetitiveRatio:
    def test_optimal_policy_has_ratio_one(self, bench2_model, bench2_syn):
        rng = np.random.default_rng(6)
        w = [0.5 * rng.standard_normal(2) for _ in range(30)]
        x0 = rng.standard_normal(2)
        opt = lq.opt_cost_time_only(bench2_syn, w, x0)
        traj = lq.simulate(
            bench2_model,
            lq.disturbance_residual(w),
            lq.auxiliary_optimal_policy(bench2_syn, w),
            x0,
            230,
        )
        ratio = lq.competitive_ratio(traj, opt, syn=bench2_syn)
        assert ratio == pytest.approx(1.0, abs=1e-9)

    def test_plain_division(self, scalar_syn):
        # a zero terminal state has no LQR tail: the ratio is cost over OPT
        traj = _manual_trajectory([1.0, 0.0], step_costs=[2.0])
        assert lq.competitive_ratio(traj, 1.0, scalar_syn) == 2.0

    def test_counts_lqr_tail(self, scalar_syn):
        traj = _manual_trajectory([1.0, 0.5], step_costs=[2.0])
        ratio = lq.competitive_ratio(traj, 4.0, scalar_syn)
        assert ratio == pytest.approx((2.0 + 0.25 * GOLDEN) / 4.0, rel=1e-12)

    def test_degenerate_opt_raises(self, scalar_syn):
        with pytest.raises(DegenerateOPT):
            lq.competitive_ratio(_manual_trajectory([1.0, 0.0]), 0.0, scalar_syn)

    @pytest.mark.parametrize("opt_cost", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_opt_raises(self, scalar_syn, opt_cost):
        with pytest.raises(DegenerateOPT, match="not finite"):
            lq.competitive_ratio(_manual_trajectory([1.0, 0.0]), opt_cost, scalar_syn)


class TestVerifyBounds:
    def test_reduces_to_c2_term(self, bench2_syn):
        consts = lq.theorem_constants(bench2_syn, 0.0, 0.0)
        check = lq.verify_bounds(consts, 1.0, lambda_limit=1.0, c2=1.0)
        assert check.bound == pytest.approx(1.0)
        assert check.model_term == 0.0
        assert check.nonlinear_term == 0.0
        assert check.satisfied

    def test_precondition_violation_on_eps(self, bench2_syn):
        consts = lq.theorem_constants(bench2_syn, 0.0, 0.0)
        sigma_over_2H = consts.sigma / (2 * consts.norm_H)
        bad = lq.theorem_constants(bench2_syn, 0.0, sigma_over_2H * 1.01)
        with pytest.raises(PreconditionViolated):
            lq.verify_bounds(bad, 1.0, lambda_limit=1.0)

    def test_monotone_in_eps_and_cl(self, bench2_syn):
        base = lq.theorem_constants(bench2_syn, 0.0, 0.0)
        eps_grid = [0.0, 0.25, 0.5, 0.75]
        bounds = []
        for frac in eps_grid:
            c = lq.theorem_constants(bench2_syn, 0.001, frac * base.eps_max_stability * 0.9)
            bounds.append(lq.verify_bounds(c, 1.0, 0.5, x0_norm=1.0).bound)
        assert all(b > a for a, b in zip(bounds, bounds[1:]))
        cl_bounds = []
        for cl in (0.0, 0.002, 0.004):
            c = lq.theorem_constants(bench2_syn, cl, 0.01)
            cl_bounds.append(lq.verify_bounds(c, 1.0, 0.5, x0_norm=1.0).bound)
        assert all(b > a for a, b in zip(cl_bounds, cl_bounds[1:]))

    def test_default_c2_positive(self, bench2_syn):
        consts = lq.theorem_constants(bench2_syn, 0.0, 0.0)
        assert default_c2(consts) > 1.0
