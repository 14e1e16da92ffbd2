import numpy as np
import pytest

import lqshield as lq
from lqshield.errors import NotRun

from conftest import random_stabilizable
from test_eta_series import _ref_learn_lambda_prime


@pytest.fixture(scope="module")
def syn3():
    rng = np.random.default_rng(23)
    return lq.synthesize(random_stabilizable(rng, 3))


def learned_run(syn, model, residual, blackbox, x0, T):
    """The raw coefficients and trajectory of a learned-mode run."""
    pol = lq.AdaptivePolicy(syn, blackbox, lq.lqr_policy(syn), 1e-6, "learned")
    traj = lq.simulate(model, residual, pol, x0, T)
    return pol.trace().lambda_prime_raw, traj


class TestOptimalLambda:
    def test_identical_sequences_give_one(self, syn3):
        rng = np.random.default_rng(0)
        f = [rng.standard_normal(3) for _ in range(30)]
        assert lq.optimal_lambda(syn3, f, f, 25) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("c", [0.5, 2.0, 10.0])
    def test_scaling_law(self, syn3, c):
        rng = np.random.default_rng(1)
        f = [rng.standard_normal(3) for _ in range(30)]
        fh = [c * v for v in f]
        assert lq.optimal_lambda(syn3, f, fh, 25) == pytest.approx(1.0 / c, abs=1e-9)

    def test_orthogonal_gives_zero(self):
        # F = 0 makes eta(f; s, t) = P f_s, so pointwise H-orthogonality
        # of the sequences zeroes every numerator term
        model = lq.LinearModel(A=np.zeros((2, 2)), B=np.eye(2), Q=np.eye(2), R=np.eye(2))
        syn = lq.synthesize(model)  # P = I, H = 2I
        f_star = [np.array([1.0, 0.0])] * 5
        f_hat = [np.array([0.0, 1.0])] * 5
        assert lq.optimal_lambda(syn, f_star, f_hat, 4) == pytest.approx(0.0, abs=1e-15)

    def test_zero_estimates_return_zero(self, syn3):
        f = [np.ones(3)] * 5
        z = [np.zeros(3)] * 5
        assert lq.optimal_lambda(syn3, f, z, 4) == 0.0

    @pytest.mark.parametrize("n,m", [(2, 2), (3, 1), (4, 2)])
    def test_equals_symmetric_learned_rule(self, n, m):
        """On a disturbance-only plant driven by the parameterized black
        box, the learned rule's observed residuals are -w and its offsets
        uhat + K x are the feedforward terms -H^-1 B' eta(fhat), so the
        symmetric learned coefficient is the hindsight weight."""
        rng = np.random.default_rng(10 * n + m)
        syn = lq.synthesize(random_stabilizable(rng, n, m))
        T = 25
        w = [rng.standard_normal(n) for _ in range(T)]
        f_hat = [0.7 * v + 0.5 * rng.standard_normal(n) for v in w]
        bb = lq.parameterized_blackbox(syn, f_hat)
        traj = lq.simulate(syn.model, lq.disturbance_residual(w), bb, rng.standard_normal(n), T)
        # the black box drove the plant, so its suggestions are the actions
        learned = _ref_learn_lambda_prime(
            syn, traj.states, traj.actions, traj.actions, numerator_start=0
        )
        assert learned == pytest.approx(lq.optimal_lambda(syn, w, f_hat, T - 1), rel=1e-12)


class TestLearnLambdaPrime:
    """The learned coefficient lambda', read from the policy's trace.

    A coefficient of 0 cuts lambda to 0 at its step, and no later step
    computes one, so the no-signal runs end their coefficients at t = 2."""

    def test_blackbox_equal_lqr_no_signal(self, bench2_model, bench2_syn):
        syn = bench2_syn
        rng = np.random.default_rng(2)
        raws, _ = learned_run(
            syn, bench2_model, lq.zero_residual(2), lq.lqr_policy(syn), rng.standard_normal(2), 20
        )
        assert raws[2] == 0.0
        assert np.isnan(raws[3:]).all()

    def test_zero_residual_observations_no_signal(self, bench2_model, bench2_syn):
        # linear plant, black box with nonzero estimates: numerator vanishes
        syn = bench2_syn
        rng = np.random.default_rng(3)
        fh = [rng.standard_normal(2) for _ in range(10)]
        bb = lq.parameterized_blackbox(syn, fh)
        raws, _ = learned_run(
            syn, bench2_model, lq.zero_residual(2), bb, rng.standard_normal(2), 21
        )
        assert raws[2] == pytest.approx(0.0, abs=1e-10)
        assert np.isnan(raws[3:]).all()

    def test_matches_naive_double_loop(self, bench2_model, bench2_syn):
        """Spelled-out evaluation with explicit matrix powers is the oracle."""
        syn = bench2_syn
        rng = np.random.default_rng(4)
        w = [0.5 * rng.standard_normal(2) for _ in range(15)]
        bb = lq.parameterized_blackbox(syn, w)
        t = 18
        raws, traj = learned_run(
            syn, bench2_model, lq.disturbance_residual(w), bb, rng.standard_normal(2), t + 1
        )
        A, B, P, K, F, H = (
            bench2_model.A,
            bench2_model.B,
            syn.P,
            syn.K,
            syn.F,
            syn.H,
        )
        states, actions = traj.states, traj.actions
        # the black box is deterministic in (t, x): recompute its suggestions
        uhat = [bb.act(s, states[s]) for s in range(t)]
        M = np.linalg.pinv(B @ np.linalg.inv(H)) @ B
        num = 0.0
        for s in range(1, t):
            eta = np.zeros(2)
            for tau in range(s, t):
                r = A @ states[tau] + B @ actions[tau] - states[tau + 1]
                eta += np.linalg.matrix_power(F.T, tau - s) @ (P @ r)
            num += eta @ (B @ (uhat[s] + K @ states[s]))
        den = 0.0
        for s in range(t):
            v = uhat[s] + K @ states[s]
            den += v @ (M @ v)
        assert raws[t] == pytest.approx(num / den, rel=1e-10)

    def test_converges_to_optimal_by_T100(self, bench2_model, bench2_syn):
        syn = bench2_syn
        for c, seed in [(1.0, 5), (1.25, 6), (2.0, 7)]:
            rng = np.random.default_rng(seed)
            w = [0.5 * rng.standard_normal(2) for _ in range(60)]
            bb = lq.parameterized_blackbox(syn, [c * v for v in w])
            raws, _ = learned_run(
                syn, bench2_model, lq.disturbance_residual(w), bb, rng.standard_normal(2), 101
            )
            assert abs(raws[100] - 1.0 / c) < 0.05

    def test_incremental_matches_direct(self, bench2_model, bench2_syn):
        syn = bench2_syn
        rng = np.random.default_rng(8)
        w = [0.5 * rng.standard_normal(2) for _ in range(40)]
        resid = lq.disturbance_residual(w)
        bb = lq.parameterized_blackbox(syn, w)
        # a step size small enough that lambda stays positive past the
        # last check, so every checked step computes its coefficient
        pol = lq.AdaptivePolicy(syn, bb, lq.lqr_policy(syn), 1e-3, "learned")
        traj = lq.simulate(bench2_model, resid, pol, rng.standard_normal(2), 60)
        assert pol.trace().t0 is None
        raws = pol.trace().lambda_prime_raw
        # replay the batch rule at a few times on prefixes of the run; the
        # black box is deterministic in (t, x), so its suggestions are recomputed
        for t_check in (5, 17, 42):
            states, actions = traj.states[: t_check + 1], traj.actions[:t_check]
            uhat = [bb.act(s, states[s]) for s in range(t_check)]
            direct = _ref_learn_lambda_prime(syn, states, actions, uhat)
            assert raws[t_check] == pytest.approx(direct, rel=1e-8, abs=1e-10)


class TestAdaptivePolicyBranches:
    def test_lambda_starts_at_one(self, syn3):
        pol = lq.AdaptivePolicy(syn3, lq.lqr_policy(syn3), lq.lqr_policy(syn3), 0.2, lambda t: 0.9)
        pol.act(0, np.ones(3))
        assert pol.lambdas == [1.0]

    def test_decrease_branch(self, syn3):
        pol = lq.AdaptivePolicy(syn3, lq.lqr_policy(syn3), lq.lqr_policy(syn3), 0.2, lambda t: 0.9)
        pol.act(0, np.ones(3))
        pol.act(1, np.ones(3))
        assert pol.lambdas[1] == pytest.approx(min(0.9, 1.0 - 0.2), abs=0)

    def test_cutoff_when_lambda_small(self, syn3):
        # after enough forced decreases lambda_{t-1} <= alpha, so the
        # branch condition fails and lambda drops to exactly 0
        # (alpha = 0.25 keeps the arithmetic exact in binary)
        pol = lq.AdaptivePolicy(syn3, lq.lqr_policy(syn3), lq.lqr_policy(syn3), 0.25, lambda t: 0.9)
        x = np.ones(3)
        for t in range(6):
            pol.act(t, x)
        assert pol.lambdas == [1.0, 0.75, 0.5, 0.25, 0.0, 0.0]

    def test_nonpositive_lambda_prime_cuts_to_zero(self, syn3):
        pol = lq.AdaptivePolicy(syn3, lq.lqr_policy(syn3), lq.lqr_policy(syn3), 0.1, lambda t: -0.5)
        pol.act(0, np.ones(3))
        pol.act(1, np.ones(3))
        assert pol.lambdas[1] == 0.0

    def test_zero_state_holds_lambda(self, syn3):
        pol = lq.AdaptivePolicy(syn3, lq.lqr_policy(syn3), lq.lqr_policy(syn3), 0.1, lambda t: 0.9)
        pol.act(0, np.ones(3))
        pol.act(1, np.zeros(3))
        assert pol.lambdas[1] == 1.0
        state = pol.trace()
        assert state.branches[1] == "zero_state"
        assert state.t0 == 1

    def test_learned_mode_holds_at_t1(self, bench2_model, bench2_syn):
        syn = bench2_syn
        bb = lq.epsilon_consistent_blackbox(lq.lqr_policy(syn), 0.1, "rotation", 0)
        pol = lq.AdaptivePolicy(syn, bb, lq.lqr_policy(syn), 0.01, "learned")
        lq.simulate(bench2_model, lq.zero_residual(2), pol, np.ones(2), 3)
        assert pol.lambdas[1] == 1.0
        assert pol.trace().branches[1] == "hold"
        assert np.isnan(pol.trace().lambda_prime_raw[1])

    def test_external_zeros_give_pure_lqr(self, bench2_model, bench2_syn):
        syn = bench2_syn
        rng = np.random.default_rng(10)
        bad = lq.gain_policy(rng.standard_normal((2, 2)))
        pol = lq.AdaptivePolicy(syn, bad, lq.lqr_policy(syn), 0.1, lambda t: 0.0)
        traj = lq.simulate(bench2_model, lq.zero_residual(2), pol, np.ones(2), 30)
        lqr_traj = lq.simulate(
            bench2_model, lq.zero_residual(2), lq.lqr_policy(syn), traj.states[1], 29
        )
        assert np.allclose(traj.states[1:], lqr_traj.states, atol=1e-12)

    def test_cutoff_action_is_the_advice_when_blackbox_turns_nan(
        self, bench2_model, bench2_syn
    ):
        """At lambda = 0 the black box's output does not enter the action,
        so a black box that returns NaN after the cutoff (0 * NaN is NaN)
        leaves the rollout on the LQR path."""
        syn = bench2_syn
        inner = lq.gain_policy(-syn.K)
        nan_u = np.full(2, np.nan)
        bb = lq.Policy(act=lambda t, x: inner.act(t, x) if t < 20 else nan_u)
        pol = lq.AdaptivePolicy(syn, bb, lq.lqr_policy(syn), 0.01, "learned")
        traj = lq.simulate(bench2_model, lq.zero_residual(2), pol, [1.0, -0.5], 60)
        assert pol.trace().t0 == 2
        assert not traj.diverged
        lqr = lq.simulate(
            bench2_model, lq.zero_residual(2), lq.lqr_policy(syn), traj.states[2], 58
        )
        assert np.array_equal(traj.states[2:], lqr.states)

    @pytest.mark.parametrize("case", ["cartpole-adaptive-destabilizing", "external-zero"])
    def test_no_blackbox_query_or_learned_update_after_cutoff(
        self, bench2_model, bench2_syn, case
    ):
        """Lambda = 0 is absorbing: from the first step with lambda = 0 on,
        a black box that raises on any query and a learned rule that raises
        on any update leave the run as it was."""
        if case == "cartpole-adaptive-destabilizing":
            from lqshield.environments import (
                CartPoleParams,
                cartpole_linearization,
                cartpole_residual,
            )

            params = CartPoleParams()
            model = cartpole_linearization(params)
            syn = lq.synthesize(model)
            resid = cartpole_residual(params, params)
            inner, source = lq.gain_policy(-syn.K), "learned"
            x0, T = [0.0, 0.0, 0.4, 0.0], 1200
        else:
            model, syn, resid = bench2_model, bench2_syn, lq.zero_residual(2)
            inner, source = lq.gain_policy(-bench2_syn.K), lambda t: 0.0
            x0, T = [1.0, -0.5], 40

        pol = lq.AdaptivePolicy(syn, inner, lq.lqr_policy(syn), 0.01, source)
        traj = lq.simulate(model, resid, pol, x0, T, blowup=50.0)
        t0 = pol.trace().t0
        assert t0 is not None and pol.lambdas[t0] == 0.0
        assert t0 < T - 1

        def guarded(t, x):
            if t >= t0:
                raise AssertionError(f"black box queried at t={t} >= t0={t0}")
            return inner.act(t, x)

        pol2 = lq.AdaptivePolicy(syn, lq.Policy(act=guarded), lq.lqr_policy(syn), 0.01, source)
        learned_raw = pol2._learned_raw

        def frozen(t, x):
            if t > t0:
                raise AssertionError(f"learned sums advanced at t={t} > t0={t0}")
            return learned_raw(t, x)

        pol2._learned_raw = frozen
        traj2 = lq.simulate(model, resid, pol2, x0, T, blowup=50.0)
        assert traj2.states.tobytes() == traj.states.tobytes()
        state, state2 = pol.trace(), pol2.trace()
        assert (state2.lambdas, state2.branches) == (state.lambdas, state.branches)
        assert np.array_equal(state2.lambda_prime_raw, state.lambda_prime_raw, equal_nan=True)

    def test_rejects_blackbox_of_wrong_size(self):
        # a one-entry black box would otherwise broadcast onto both inputs
        model = lq.LinearModel(A=0.5 * np.eye(2), B=np.eye(2), Q=np.eye(2), R=np.eye(2))
        syn = lq.synthesize(model)
        bb = lq.Policy(act=lambda t, x: np.array([0.3]))
        pol = lq.AdaptivePolicy(syn, bb, lq.lqr_policy(syn), 0.01)
        with pytest.raises(ValueError, match="black box returned dimension 1, expected 2"):
            pol.act(0, np.zeros(2))

    def test_requires_time_order(self, syn3):
        pol = lq.AdaptivePolicy(syn3, lq.lqr_policy(syn3), lq.lqr_policy(syn3), 0.1, lambda t: 1.0)
        pol.act(0, np.ones(3))
        with pytest.raises(ValueError):
            pol.act(2, np.ones(3))

    @pytest.mark.parametrize("alpha", [0.0, float("nan")])
    def test_rejects_nonpositive_or_nan_alpha(self, syn3, alpha):
        with pytest.raises(ValueError, match="alpha"):
            lq.AdaptivePolicy(syn3, lq.lqr_policy(syn3), lq.lqr_policy(syn3), alpha)

    def test_trace_before_run_raises(self, syn3):
        pol = lq.AdaptivePolicy(syn3, lq.lqr_policy(syn3), lq.lqr_policy(syn3), 0.1, lambda t: 1.0)
        with pytest.raises(NotRun):
            pol.trace()


class TestAdaptiveInvariants:
    def test_property_suite_over_random_runs(self):
        """Monotone lambda in [0, 1] from 1, and exact convex-combination
        replay, over many randomized runs."""
        rng = np.random.default_rng(99)
        runs = 0
        while runs < 120:
            model = random_stabilizable(rng, int(rng.integers(2, 4)))
            try:
                syn = lq.synthesize(model)
            except lq.NonStabilizable:
                continue
            runs += 1
            if rng.uniform() < 0.5:
                source = "learned"
            else:
                source = list(rng.uniform(-0.2, 1.2, size=30)).__getitem__
            bb = lq.epsilon_consistent_blackbox(
                lq.lqr_policy(syn), rng.uniform(0, 0.3), "rotation", int(rng.integers(1e6))
            )
            advice = lq.lqr_policy(syn)
            pol = lq.AdaptivePolicy(syn, bb, advice, float(rng.uniform(0.005, 0.3)), source)
            resid = lq.lipschitz_residual(model.n, model.m, float(rng.uniform(0, 0.05)), seed=runs)
            x0 = rng.standard_normal(model.n)
            traj = lq.simulate(model, resid, pol, x0, 30)
            lams = pol.lambdas
            assert lams[0] == 1.0
            assert all(0.0 <= l <= 1.0 for l in lams)
            assert all(b <= a for a, b in zip(lams, lams[1:]))
            # lambda = 0 is absorbing: no coefficient after the cutoff, the
            # branch says why lambda is 0, and the action is the advice
            state = pol.trace()
            cut = lams.index(0.0) if 0.0 in lams else traj.horizon
            for t in range(cut + 1, traj.horizon):
                assert np.isnan(state.lambda_prime_raw[t])
                assert state.branches[t] in ("cutoff", "zero_state")
                u_bar = advice.act(t, traj.states[t])
                assert traj.actions[t].tobytes() == u_bar.tobytes()
            # exact convex-combination replay at every step
            for t in range(traj.horizon):
                u_hat = np.asarray(bb.act(t, traj.states[t]))
                u_bar = np.asarray(advice.act(t, traj.states[t]))
                expect = lams[t] * u_hat + (1 - lams[t]) * u_bar
                assert np.array_equal(traj.actions[t], expect)

    def test_t0_records_first_zero(self, bench2_model, bench2_syn):
        syn = bench2_syn
        seq = [1.0, 0.9, 0.8, 0.0, 0.0, 0.0]
        pol = lq.AdaptivePolicy(syn, lq.lqr_policy(syn), lq.lqr_policy(syn), 0.01, lambda t: seq[t])
        lq.simulate(bench2_model, lq.zero_residual(2), pol, np.ones(2), 6)
        state = pol.trace()
        assert state.t0 == 3
        assert state.lambdas[-1] == 0.0


class _ReferenceAdaptivePolicy:
    """The adaptive policy as it was when it logged every step: a copy of
    the pre-change class (at its default numerator start and without a
    decrease cap), kept as the oracle for the log-free step, with lambda = 0
    absorbing and answered by the advice alone."""

    def __init__(self, syn, blackbox, advice, alpha, lambda_source="learned"):
        self.blackbox = blackbox
        self.advice = advice
        self.alpha = float(alpha)
        if isinstance(lambda_source, str):
            self._external = None
        elif callable(lambda_source):
            self._external = lambda_source
        self.states, self.actions = [], []
        self._lambdas, self._raw, self._branches = [], [], []
        self._t0 = None
        self._A, self._B = syn.model.A, syn.model.B
        self._P, self._F, self._K = syn.P, syn.F, syn.K
        self._M = np.linalg.pinv(self._B @ np.linalg.inv(syn.H)) @ self._B
        self._c = np.zeros(syn.n)
        self._num = 0.0
        self._den = 0.0
        self._prev_v = None
        self._prev_b = None

    def _learned_raw(self, t, x):
        r_prev = self._A.dot(self.states[t - 1]) + self._B.dot(self.actions[t - 1]) - x
        include = (t - 1) >= 1
        self._c = self._F.dot(self._c) + (self._prev_b if include else 0.0)
        self._num += float(r_prev.dot(self._P.dot(self._c)))
        v = self._prev_v
        self._den += float(v.dot(self._M.dot(v)))
        if t < 2:
            return None
        if abs(self._den) < 1e-12:
            return 0.0
        return self._num / self._den

    def act(self, t, x):
        assert t == len(self.actions)
        x = np.asarray(x, dtype=float).reshape(-1)
        self.states.append(x.copy())
        raw = float("nan")
        zero_state = np.linalg.norm(x) <= 0.0
        if t == 0:
            lam, branch = 1.0, "init"
        elif self._lambdas[-1] == 0.0:
            lam, branch = 0.0, "zero_state" if zero_state else "cutoff"
        elif zero_state:
            lam, branch = self._lambdas[-1], "zero_state"
            if self._external is None:
                raw_opt = self._learned_raw(t, x)
                raw = float("nan") if raw_opt is None else raw_opt
        else:
            prev = self._lambdas[-1]
            if self._external is None:
                raw_opt = self._learned_raw(t, x)
            else:
                raw_opt = float(self._external(t))
            if raw_opt is None:
                lam, branch = prev, "hold"
            else:
                raw = float(raw_opt)
                clipped = min(max(raw, 0.0), 1.0)
                if clipped > 0.0 and prev > self.alpha:
                    lam, branch = min(clipped, prev - self.alpha), "decrease"
                else:
                    lam, branch = 0.0, "cutoff"
        self._lambdas.append(lam)
        self._raw.append(raw)
        self._branches.append(branch)
        if self._t0 is None and (lam == 0.0 or zero_state):
            self._t0 = t
        u_bar = np.asarray(self.advice.act(t, x), dtype=float).reshape(-1)
        if lam == 0.0:
            self.actions.append(u_bar.copy())
            return u_bar
        u_hat = np.asarray(self.blackbox.act(t, x), dtype=float).reshape(-1)
        u = lam * u_hat + (1.0 - lam) * u_bar
        self.actions.append(u.copy())
        self._prev_v = u_hat + self._K.dot(x)
        self._prev_b = self._B.dot(self._prev_v)
        return u


@pytest.fixture(scope="module")
def adaptive_cases(bench2_model, bench2_syn):
    """name -> (model, residual, syn, black box, advice, alpha, source, x0, T)."""
    from lqshield.environments import (
        CartPoleParams,
        ChargingConfig,
        cartpole_linearization,
        cartpole_residual,
        ev_environment,
        fit_demand_schedule,
        generate_sessions,
        line_limited,
    )

    params = CartPoleParams()
    cp_model = cartpole_linearization(params)
    cp_syn = lq.synthesize(cp_model)
    cp_true = lq.synthesize(
        cartpole_linearization(params.with_true_masses_as_model())
    )
    cp_bb = lq.epsilon_consistent_blackbox(lq.lqr_policy(cp_true), 0.1, "rotation", 3)
    cp_resid = cartpole_residual(params, params)

    syn = bench2_syn
    rotation = lq.epsilon_consistent_blackbox(lq.lqr_policy(syn), 0.3, "rotation", 7)
    rng = np.random.default_rng(31)
    w = [0.5 * rng.standard_normal(2) for _ in range(40)]
    A, B = bench2_model.A, bench2_model.B

    def cancel_at_10(t, x, u):
        # the step from t = 10 lands exactly on x = 0; a disturbance otherwise
        if t == 10:
            return -(A.dot(x) + B.dot(u))
        return w[t]

    cancelling = lq.ResidualModel(eval=cancel_at_10)

    ev_cfg = ChargingConfig()
    n, T = ev_cfg.n_chargers, ev_cfg.horizon
    env = ev_environment(ev_cfg, generate_sessions(1004, "post_covid", n, T))
    ev_syn = lq.synthesize(env.model)
    f_hat = fit_demand_schedule(
        [generate_sessions(k, "pre_covid", n, T) for k in range(3)], T, n
    )
    ev_bb = line_limited(lq.parameterized_blackbox(ev_syn, f_hat), ev_cfg.line_limit)
    ev_advice = line_limited(lq.lqr_policy(ev_syn), ev_cfg.line_limit)

    return {
        "cartpole-theta-0.4": (
            cp_model, cp_resid, cp_syn, cp_bb, lq.lqr_policy(cp_syn), 0.01, "learned",
            [0.0, 0.0, 0.4, 0.0], 600,
        ),
        "bench2-rotation": (
            bench2_model, lq.disturbance_residual(w), syn, rotation, lq.lqr_policy(syn),
            0.01, "learned", rng.standard_normal(2), 80,
        ),
        "ev-day": (env.model, env.residual, ev_syn, ev_bb, ev_advice, 1e-3, "learned", np.zeros(n), T),
        "external": (
            bench2_model, lq.disturbance_residual(w), syn, rotation, lq.lqr_policy(syn),
            0.05, lambda t: 0.9 - 0.01 * t, rng.standard_normal(2), 60,
        ),
        "zero-state": (
            bench2_model, cancelling, syn, lq.parameterized_blackbox(syn, w),
            lq.lqr_policy(syn), 0.01, "learned", rng.standard_normal(2), 30,
        ),
    }


@pytest.mark.parametrize(
    "case", ["cartpole-theta-0.4", "bench2-rotation", "ev-day", "external", "zero-state"]
)
def test_log_free_step_matches_reference_policy(adaptive_cases, case):
    model, resid, syn, bb, advice, alpha, source, x0, T = adaptive_cases[case]
    pol = lq.AdaptivePolicy(syn, bb, advice, alpha, source)
    ref = _ReferenceAdaptivePolicy(syn, bb, advice, alpha, source)
    traj = lq.simulate(model, resid, pol, x0, T)
    ref_traj = lq.simulate(model, resid, ref, x0, T)
    assert traj.states.tobytes() == ref_traj.states.tobytes()
    assert traj.actions.tobytes() == ref_traj.actions.tobytes()
    state = pol.trace()
    assert state.lambdas == tuple(ref._lambdas)
    assert np.array(state.lambda_prime_raw).tobytes() == np.array(ref._raw).tobytes()
    assert state.branches == tuple(ref._branches)
    assert state.t0 == ref._t0
    # every case steps past the t = 1 hold into the rule itself
    assert set(state.branches) & {"decrease", "cutoff"}
    if case in ("ev-day", "zero-state"):
        assert "zero_state" in state.branches
