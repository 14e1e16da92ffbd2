"""Per-trajectory stacked passes against the per-step forms they replaced.

What does not feed back into the dynamics is computed once per
trajectory: the stage costs of ``simulate``, the EV rewards, the
feedforward terms of the parameterized black box and the terms of the
offline-OPT closed form.  Each stacked pass runs one NumPy call whose
rows go through the same BLAS (and LAPACK) routine as the per-step
form, so every value must be bit-identical (``tobytes`` equal) to the
per-step form kept below as the reference.  Those identities rest on the
BLAS kernel, so CI also runs this module under a second OpenBLAS kernel.
"""

import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import lqshield as lq
from lqshield.environments import (
    ChargingConfig,
    ev_environment,
    fit_demand_schedule,
    generate_sessions,
    line_limited,
)
from lqshield.linalg_control import _eta_series
from lqshield.policies import _feedforward_terms

from conftest import random_stabilizable
from test_ev_charging import _reference_closures


def _bits(value):
    return np.asarray(value, dtype=float).tobytes()


# -- reference copies of the per-step forms ----------------------------------


def _ref_step_costs(traj, Q, R):
    return [
        float(x.dot(Q).dot(x) + u.dot(R).dot(u))
        for x, u in zip(traj.states[:-1], traj.actions)
    ]


def _ref_feedforward_terms(syn, seq):
    B, H = syn.model.B, syn.H
    return [-np.linalg.solve(H, B.T @ eta) for eta in _eta_series(syn.F, syn.P, seq)]


def _ref_closed_form(syn, disturbances, x0):
    w = [np.asarray(v, dtype=float) for v in disturbances]
    x0 = np.asarray(x0, dtype=float)
    P, F, B = syn.P, syn.F, syn.model.B
    BHB = B @ np.linalg.solve(syn.H, B.T)
    V = _eta_series(F, P, w) + [np.zeros(syn.n)]
    cost = float(x0 @ P @ x0 + 2.0 * x0 @ (F.T @ V[0]))
    for t in range(len(w)):
        cost += float(w[t] @ P @ w[t] + 2.0 * w[t] @ (F.T @ V[t + 1]) - V[t] @ BHB @ V[t])
    return cost


# -- systems -----------------------------------------------------------------


def _spd(rng, k, dense):
    if not dense:
        return np.diag(rng.uniform(0.05, 20.0, k))
    G = rng.standard_normal((k, k))
    S = G @ G.T + 0.1 * np.eye(k)
    return 0.5 * (S + S.T)


@st.composite
def _systems(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, n))
    rng = np.random.default_rng(seed)
    base = random_stabilizable(rng, n, m)
    Q = _spd(rng, n, draw(st.booleans()))
    R = _spd(rng, m, draw(st.booleans()))
    return lq.LinearModel(A=base.A, B=base.B, Q=Q, R=R), rng


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_systems(), st.sampled_from(["lqr", "unstable", "rotation"]), st.integers(1, 60))
def test_step_costs_match_per_step_form(system, kind, T):
    model, rng = system
    syn = lq.synthesize(model)
    resid = lq.lipschitz_residual(model.n, model.m, 0.05, seed=int(rng.integers(100)))
    x0 = rng.standard_normal(model.n) * 10.0 ** rng.integers(-3, 3)
    if kind == "unstable":
        # a diverging gain with a low bound: the rollout stops and is trimmed
        policy, blowup = lq.gain_policy(-(3.0 + rng.uniform()) * syn.K - 2.0), 50.0
    elif kind == "rotation":
        policy = lq.epsilon_consistent_blackbox(lq.lqr_policy(syn), 0.3, "rotation", 1)
        blowup = 1e9
    else:
        policy, blowup = lq.lqr_policy(syn), 1e9
    traj = lq.simulate(model, resid, policy, x0, T, blowup=blowup)
    assert traj.step_costs.shape == (traj.horizon,)
    assert _bits(traj.step_costs) == _bits(_ref_step_costs(traj, model.Q, model.R))


def test_step_costs_of_a_diverged_rollout_are_trimmed():
    rng = np.random.default_rng(3)
    model = lq.LinearModel(
        A=[[1.5, 0.2], [0.0, 1.3]], B=[[1.0], [0.5]], Q=_spd(rng, 2, True), R=[[0.7]]
    )
    traj = lq.simulate(model, lq.zero_residual(2), lq.gain_policy([[-0.4, 0.1]]), [1.0, -1.0], 400)
    assert traj.diverged and traj.horizon < 400
    assert traj.step_costs.shape == (traj.horizon,)
    assert _bits(traj.step_costs) == _bits(_ref_step_costs(traj, model.Q, model.R))


def _warnings_of(fn):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = fn()
    return result, sorted({(w.category, str(w.message).split(" in ")[0]) for w in caught})


def test_overflowing_stage_cost_warns_as_the_per_step_form():
    """A finite rollout whose x'Qx (or u'Ru) overflows: the stacked pass
    warns where the per-step ``ndarray.dot`` form warned, and only there."""
    push = lq.Policy(act=lambda t, x: np.array([1e5]))
    for Q, R, x0, overflows in [
        ([[1e100]], [[1.0]], [1e150], True),
        ([[1.0]], [[1e300]], [1.0], True),
        ([[1e100]], [[1.0]], [1e100], False),
    ]:
        model = lq.LinearModel(A=[[0.5]], B=[[1.0]], Q=Q, R=R)
        traj, got = _warnings_of(
            lambda: lq.simulate(model, lq.zero_residual(1), push, x0, 5, blowup=float("inf"))
        )
        ref, want = _warnings_of(lambda: _ref_step_costs(traj, model.Q, model.R))
        assert not traj.diverged and traj.horizon == 5
        assert _bits(traj.step_costs) == _bits(ref)
        assert got == want == ([(RuntimeWarning, "overflow encountered")] if overflows else [])


def test_stacked_rewards_match_reference_per_step():
    config = ChargingConfig()
    n, T, gamma = config.n_chargers, config.horizon, config.line_limit
    sessions = generate_sessions(1005, "post_covid", n, T)
    env = ev_environment(config, sessions)
    _, ref_reward, _ = _reference_closures(config, sessions)
    syn = lq.synthesize(env.model)
    f_hat = fit_demand_schedule([generate_sessions(k, "pre_covid", n, T) for k in range(3)], T, n)
    policy = line_limited(lq.parameterized_blackbox(syn, f_hat), gamma)
    traj = lq.simulate(env.model, env.residual, policy, np.zeros(n), T)
    want = [ref_reward(t, traj.states[t], traj.actions[t]) for t in range(T)]
    assert _bits(env.rewards_for_trajectory(traj)) == _bits(want)

    # probe rows: every departure step and steps past the price series,
    # with actions of both signs and states of several scales
    rng = np.random.default_rng(11)
    departures = sorted({s.departure for s in sessions})
    steps = np.array(departures + [T - 1, T, T + 1, T + 7] + list(rng.integers(0, T, 20)))
    N = steps.shape[0]
    X = rng.uniform(0.0, 8.0, (N, n)) * rng.choice([1e-3, 1.0, 1e3], (N, 1))
    U = rng.uniform(-1.0, 3.0, (N, n))
    got = env.reward(steps, X, U)
    want = [ref_reward(int(t), x, u) for t, x, u in zip(steps, X, U)]
    assert got.shape == steps.shape
    assert _bits(got) == _bits(want)
    # the one-step form returns a float with the same bits
    for t, x, u in zip(steps.tolist(), X, U):
        r = env.reward(t, x, u)
        assert type(r) is float
        assert _bits(r) == _bits(ref_reward(t, x, u))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_systems(), st.integers(0, 40), st.sampled_from(["normal", "sparse", "huge"]))
def test_feedforward_terms_match_per_eta_solve(system, L, kind):
    model, rng = system
    syn = lq.synthesize(model)
    seq = [rng.standard_normal(model.n) for _ in range(L)]
    if kind == "sparse":
        seq = [v * (rng.uniform() < 0.3) for v in seq]
    elif kind == "huge":
        seq = [v * 1e150 for v in seq]
    got, want = _feedforward_terms(syn, seq), _ref_feedforward_terms(syn, seq)
    assert len(got) == len(want) == L
    for a, b in zip(got, want):
        assert a.shape == b.shape == (model.m,)
        assert a.tobytes() == b.tobytes()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_systems(), st.integers(0, 40))
def test_closed_form_matches_per_step_terms(system, L):
    model, rng = system
    syn = lq.synthesize(model)
    seq = [rng.standard_normal(model.n) for _ in range(L)]
    x0 = rng.standard_normal(model.n)
    assert _bits(lq.auxiliary_cost_closed_form(syn, seq, x0)) == _bits(
        _ref_closed_form(syn, seq, x0)
    )
