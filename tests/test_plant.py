import numpy as np
import pytest

import lqshield as lq
from lqshield.plant import write_csv

from conftest import random_stabilizable

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0


def _replay_errors(traj, model):
    """Max-norm defect of x_{t+1} = A x_t + B u_t + f_t per step.

    Recomputed with the same per-step expression ``simulate`` uses, so an
    untampered trajectory replays exactly.
    """
    out = np.empty(traj.horizon)
    for t in range(traj.horizon):
        pred = model.A @ traj.states[t] + model.B @ traj.actions[t] + traj.residuals[t]
        out[t] = np.max(np.abs(pred - traj.states[t + 1]))
    return out


def _cost_of(traj, Q, R):
    """Sum of x'Qx + u'Ru over the recorded steps (terminal state uncosted)."""
    xs = traj.states[:-1]
    us = traj.actions
    return float(np.einsum("ti,ij,tj->", xs, Q, xs) + np.einsum("ti,ij,tj->", us, R, us))


def test_zero_A_two_steps():
    model = lq.LinearModel(A=np.zeros((2, 2)), B=np.eye(2), Q=np.eye(2), R=np.eye(2))
    syn = lq.synthesize(model)
    traj = lq.simulate(model, lq.zero_residual(2), lq.lqr_policy(syn), [1.0, 0.0], 2)
    assert np.allclose(traj.states[0], [1.0, 0.0])
    assert np.allclose(traj.states[1], 0.0)
    assert np.allclose(traj.states[2], 0.0)
    assert traj.total_cost == pytest.approx(1.0, abs=1e-14)


def test_scalar_long_horizon_cost_is_value_function(scalar_model, scalar_syn):
    traj = lq.simulate(scalar_model, lq.zero_residual(1), lq.lqr_policy(scalar_syn), [1.0], 2000)
    assert traj.total_cost == pytest.approx(GOLDEN, rel=1e-9)


def test_long_horizon_cost_matches_value_function_random():
    rng = np.random.default_rng(9)
    found = 0
    while found < 5:
        model = random_stabilizable(rng, int(rng.integers(2, 5)))
        syn = lq.synthesize(model)
        if syn.rho_F > 0.95:
            continue
        found += 1
        x0 = rng.standard_normal(model.n)
        traj = lq.simulate(model, lq.zero_residual(model.n), lq.lqr_policy(syn), x0, 2000)
        assert traj.total_cost == pytest.approx(float(x0 @ syn.P @ x0), rel=1e-6)


def test_trajectory_derives_cost_and_divergence_step():
    model = lq.LinearModel(A=[[2.0]], B=[[1.0]], Q=[[1.0]], R=[[1.0]])
    still = lq.Policy(act=lambda t, x: np.zeros(1))
    finished = lq.simulate(model, lq.zero_residual(1), still, [1.0], 5)
    diverged = lq.simulate(model, lq.zero_residual(1), still, [1.0], 200, blowup=1e6)
    for traj in (finished, diverged):
        assert traj.total_cost == float(np.sum(traj.step_costs))
        with pytest.raises(AttributeError):
            traj.total_cost = 2.0
        assert (traj.diverged_at == traj.horizon) == traj.diverged
    assert not finished.diverged and finished.diverged_at is None
    # 2**20 is the first power of two above the bound
    assert diverged.diverged and diverged.diverged_at == diverged.horizon == 20


@pytest.mark.parametrize("x0", [[np.nan, 0.0], [np.inf, 0.0], [0.0, -np.inf]])
def test_non_finite_start_is_rejected(x0):
    model = lq.LinearModel(A=np.eye(2), B=np.eye(2), Q=np.eye(2), R=np.eye(2))
    still = lq.Policy(act=lambda t, x: np.zeros(2))
    with pytest.raises(ValueError, match="x0 must be finite"):
        lq.simulate(model, lq.zero_residual(2), still, x0, 5)


def test_residual_of_wrong_size_is_rejected():
    # a one-entry residual would otherwise broadcast onto every coordinate
    model = lq.LinearModel(A=0.5 * np.eye(2), B=np.eye(2), Q=np.eye(2), R=np.eye(2))
    resid = lq.ResidualModel(eval=lambda t, x, u: [1.0])
    still = lq.Policy(act=lambda t, x: np.zeros(2))
    with pytest.raises(ValueError, match="residual returned dimension 1, expected 2"):
        lq.simulate(model, resid, still, np.zeros(2), 3)
    with pytest.raises(ValueError, match="residual returned dimension 1, expected 2"):
        resid.batch(0, np.zeros((3, 2)), np.zeros((3, 2)))


def test_divergence_flag():
    model = lq.LinearModel(A=[[2.0]], B=[[1.0]], Q=[[1.0]], R=[[1.0]])
    zero_policy = lq.Policy(act=lambda t, x: np.zeros(1))
    traj = lq.simulate(model, lq.zero_residual(1), zero_policy, [1.0], 200, blowup=1e6)
    assert traj.diverged
    assert traj.diverged_at is not None
    # partial trajectory still consistent
    assert traj.states.shape[0] == traj.actions.shape[0] + 1
    assert np.max(_replay_errors(traj, model)) == 0.0


def test_replay_invariant_and_lengths():
    rng = np.random.default_rng(1)
    model = random_stabilizable(rng, 3)
    syn = lq.synthesize(model)
    resid = lq.lipschitz_residual(3, 3, 0.05, seed=2)
    traj = lq.simulate(model, resid, lq.lqr_policy(syn), rng.standard_normal(3), 50)
    assert traj.states.shape == (51, 3)
    assert traj.actions.shape == (50, 3)
    assert np.max(_replay_errors(traj, model)) == 0.0
    assert traj.total_cost == pytest.approx(np.sum(traj.step_costs), abs=0)


def test_determinism_bit_identical():
    rng = np.random.default_rng(4)
    model = random_stabilizable(rng, 3)
    syn = lq.synthesize(model)
    resid = lq.lipschitz_residual(3, 3, 0.1, seed=11)
    bb = lq.epsilon_consistent_blackbox(lq.lqr_policy(syn), 0.05, "rotation", 7)
    x0 = rng.standard_normal(3)
    t1 = lq.simulate(model, resid, bb, x0, 40)
    t2 = lq.simulate(model, resid, bb, x0, 40)
    assert np.array_equal(t1.states, t2.states)
    assert np.array_equal(t1.actions, t2.actions)
    assert t1.total_cost == t2.total_cost


def test_cost_of_matches_recorded():
    rng = np.random.default_rng(6)
    model = random_stabilizable(rng, 2)
    syn = lq.synthesize(model)
    traj = lq.simulate(model, lq.zero_residual(2), lq.lqr_policy(syn), [1.0, -1.0], 30)
    assert _cost_of(traj, model.Q, model.R) == pytest.approx(traj.total_cost, rel=1e-12)


def test_cost_of_trivial_cases():
    model = lq.LinearModel(A=np.zeros((2, 2)), B=np.eye(2), Q=np.eye(2), R=np.eye(2))
    still = lq.Policy(act=lambda t, x: np.zeros(2))
    zero = lq.simulate(model, lq.zero_residual(2), still, [0.0, 0.0], 3)
    assert _cost_of(zero, model.Q, model.R) == 0.0
    one = lq.Trajectory(
        states=np.array([[1.0, 0.0], [0.0, 0.0]]),
        actions=np.array([[1.0, 0.0]]),
        residuals=np.zeros((1, 2)),
        step_costs=np.array([2.0]),
    )
    assert _cost_of(one, np.eye(2), np.eye(2)) == pytest.approx(2.0)


class TestEstimateLipschitz:
    def test_zero_residual(self):
        resid = lq.zero_residual(2)
        assert lq.estimate_lipschitz(resid, 100, 1.0, 0, n=2, m=2) == 0.0

    def test_linear_map(self):
        resid = lq.ResidualModel(eval=lambda t, x, u: 0.1 * np.asarray(x))
        est = lq.estimate_lipschitz(resid, 500, 1.0, 1, n=3, m=1)
        assert est == pytest.approx(0.1, abs=1e-9)

    def test_sine_residual_bounded(self):
        resid = lq.ResidualModel(eval=lambda t, x, u: 0.05 * np.sin(np.asarray(x)))
        est = lq.estimate_lipschitz(resid, 4000, 0.3, 2, n=2, m=1)
        assert est <= 0.05 * (1 + 1e-9)
        assert est > 0.045  # near-origin samples approach the bound

    def test_declared_constant_respected_by_synthetic_family(self):
        for seed in range(5):
            resid = lq.lipschitz_residual(3, 2, 0.2, seed=seed)
            est = lq.estimate_lipschitz(resid, 2000, 2.0, seed, n=3, m=2)
            assert est <= 0.2 * (1 + 1e-6)

    def test_state_action_residual_vanishes_at_origin(self):
        resid = lq.lipschitz_residual(3, 2, 0.3, seed=1)
        for t in (0, 5, 100):
            assert np.allclose(resid.eval(t, np.zeros(3), np.zeros(2)), 0.0)


@pytest.mark.parametrize("constant", [-0.1, float("nan"), float("inf")])
def test_residual_rejects_negative_or_nan_lipschitz(constant):
    with pytest.raises(ValueError, match="Lipschitz"):
        lq.lipschitz_residual(3, 2, constant)


def test_trajectory_csv_contract(tmp_path):
    rng = np.random.default_rng(2)
    model = random_stabilizable(rng, 2)
    syn = lq.synthesize(model)
    traj = lq.simulate(model, lq.zero_residual(2), lq.lqr_policy(syn), [1.0, 2.0], 5)
    path = tmp_path / "traj.csv"
    lq.write_trajectory_csv(traj, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,x_0,x_1,u_0,u_1,step_cost"
    assert len(lines) == 1 + 5 + 1
    final = lines[-1].split(",")
    assert final[0] == "5"
    assert final[3] == "" and final[4] == "" and final[5] == ""
    # data rows round-trip through repr
    row1 = lines[1].split(",")
    assert float(row1[1]) == traj.states[0][0]


def _reference_write_trajectory_csv(traj, path):
    """The per-writer CSV code that ``write_trajectory_csv`` must
    reproduce byte for byte through the shared writer."""
    import csv

    n = traj.states.shape[1]
    m = traj.actions.shape[1] if traj.actions.size else 0
    header = (
        ["t"]
        + [f"x_{i}" for i in range(n)]
        + [f"u_{j}" for j in range(m)]
        + ["step_cost"]
    )
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for t in range(traj.horizon):
            row = (
                [t]
                + [repr(float(v)) for v in traj.states[t]]
                + [repr(float(v)) for v in traj.actions[t]]
                + [repr(float(traj.step_costs[t]))]
            )
            writer.writerow(row)
        writer.writerow(
            [traj.horizon]
            + [repr(float(v)) for v in traj.states[-1]]
            + [""] * m
            + [""]
        )


def _csv_trajectories():
    rng = np.random.default_rng(31)
    model = random_stabilizable(rng, 3)
    syn = lq.synthesize(model)
    model_m2 = random_stabilizable(rng, 3, 2)
    syn_m2 = lq.synthesize(model_m2)
    x0 = rng.standard_normal(3)
    return {
        "finished": lq.simulate(model, lq.zero_residual(3), lq.lqr_policy(syn), x0, 40),
        "diverged": lq.simulate(
            model, lq.zero_residual(3), lq.gain_policy(-4.0 * np.eye(3)), x0, 200
        ),
        "m2": lq.simulate(
            model_m2, lq.lipschitz_residual(3, 2, 0.1, seed=2), lq.lqr_policy(syn_m2), x0, 40
        ),
    }


@pytest.mark.parametrize("case", ["finished", "diverged", "m2"])
def test_trajectory_csv_matches_reference_writer(tmp_path, case):
    traj = _csv_trajectories()[case]
    assert traj.diverged == (case == "diverged")
    lq.write_trajectory_csv(traj, tmp_path / "new.csv")
    _reference_write_trajectory_csv(traj, tmp_path / "ref.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_policy_queried_once_per_step_in_order():
    model = lq.LinearModel(A=np.zeros((2, 2)), B=np.eye(2), Q=np.eye(2), R=np.eye(2))
    calls = []

    def act(t, x):
        calls.append(t)
        return np.zeros(2)

    lq.simulate(model, lq.zero_residual(2), lq.Policy(act=act), [1.0, 0.0], 7)
    assert calls == list(range(7))


def _reference_simulate(model, residual, policy, x0, T, blowup=1e9):
    """The list-based rollout loop that ``simulate`` must reproduce bit for bit."""
    x = np.asarray(x0, dtype=float).reshape(-1)
    A, B, Q, R = model.A, model.B, model.Q, model.R
    states = [x.copy()]
    actions, residuals, step_costs = [], [], []
    diverged, diverged_at = False, None
    for t in range(T):
        u = np.asarray(policy.act(t, x), dtype=float).reshape(-1)
        f = np.asarray(residual.eval(t, x, u), dtype=float).reshape(-1)
        x_next = A @ x + B @ u + f
        actions.append(u)
        residuals.append(f)
        step_costs.append(float(x @ Q @ x + u @ R @ u))
        states.append(x_next.copy())
        x = x_next
        nx = np.linalg.norm(x)
        if not np.isfinite(nx) or nx > blowup:
            diverged, diverged_at = True, t + 1
            break
    return (
        np.asarray(states),
        np.asarray(actions),
        np.asarray(residuals),
        np.asarray(step_costs),
        float(np.sum(step_costs)),
        diverged,
        diverged_at,
    )


def _oracle_cases():
    from lqshield.environments import (
        CartPoleParams,
        cartpole_linearization,
        cartpole_residual,
    )

    params = CartPoleParams()
    cp_model = cartpole_linearization(params)
    cp_syn = lq.synthesize(cp_model)
    cp_true = lq.synthesize(
        cartpole_linearization(params.with_true_masses_as_model())
    )
    cp_resid = cartpole_residual(params, params)
    advice = lq.lqr_policy(cp_syn)
    bad = lq.gain_policy(-cp_syn.K)
    x_cp = [0.0, 0.0, 0.4, 0.0]

    rng = np.random.default_rng(21)
    model3 = random_stabilizable(rng, 3)
    syn3 = lq.synthesize(model3)
    tanh = lq.lipschitz_residual(3, 3, 0.1, seed=4)
    x3 = rng.standard_normal(3)
    neg_K3 = -syn3.K

    # each case builds a fresh policy: the adaptive one is stateful
    return {
        "cartpole-lqr": (cp_model, cp_resid, lambda: advice, x_cp, 600, 50.0),
        "cartpole-naive": (
            cp_model,
            cp_resid,
            lambda: lq.naive_convex_policy(bad, advice, 0.8),
            x_cp,
            600,
            50.0,
        ),
        "cartpole-adaptive": (
            cp_model,
            cp_resid,
            lambda: lq.AdaptivePolicy(cp_syn, lq.lqr_policy(cp_true), advice, 0.01),
            x_cp,
            600,
            50.0,
        ),
        "tanh-rotation": (
            model3,
            tanh,
            lambda: lq.epsilon_consistent_blackbox(lq.lqr_policy(syn3), 0.2, "rotation", 3),
            x3,
            80,
            1e9,
        ),
        "diverging-gain": (
            model3,
            tanh,
            lambda: lq.gain_policy(-5.0 * syn3.K),
            x3,
            200,
            1e9,
        ),
        "list-policy": (
            model3,
            tanh,
            lambda: lq.Policy(act=lambda t, x: (neg_K3 @ x).tolist()),
            x3,
            30,
            1e9,
        ),
        "column-policy": (
            model3,
            tanh,
            lambda: lq.Policy(act=lambda t, x: (neg_K3 @ x).reshape(-1, 1)),
            x3,
            30,
            1e9,
        ),
        "no-residual": (model3, lq.zero_residual(3), lambda: lq.lqr_policy(syn3), x3, 30, 1e9),
        "infinite-blowup": (
            lq.LinearModel(A=[[1e200]], B=[[1.0]], Q=[[1.0]], R=[[1.0]]),
            lq.zero_residual(1),
            lambda: lq.Policy(act=lambda t, x: np.zeros(1)),
            [1e200],
            10,
            float("inf"),
        ),
    }


@pytest.fixture(scope="module")
def oracle_cases():
    return _oracle_cases()


@pytest.mark.parametrize(
    "case",
    [
        "cartpole-lqr",
        "cartpole-naive",
        "cartpole-adaptive",
        "tanh-rotation",
        "diverging-gain",
        "list-policy",
        "column-policy",
        "no-residual",
        "infinite-blowup",
    ],
)
def test_simulate_matches_reference_loop(oracle_cases, case):
    model, resid, make_policy, x0, T, blowup = oracle_cases[case]
    with np.errstate(over="ignore"):
        traj = lq.simulate(model, resid, make_policy(), x0, T, blowup=blowup)
        states, actions, residuals, costs, total, diverged, diverged_at = (
            _reference_simulate(model, resid, make_policy(), x0, T, blowup=blowup)
        )
    assert np.array_equal(traj.states, states)
    assert np.array_equal(traj.actions, actions)
    assert np.array_equal(traj.residuals, residuals)
    assert np.array_equal(traj.step_costs, costs)
    assert traj.total_cost == total
    assert traj.diverged == diverged
    assert traj.diverged_at == diverged_at


def test_reference_cases_cover_divergence(oracle_cases):
    for case in ("cartpole-naive", "diverging-gain", "infinite-blowup"):
        model, resid, make_policy, x0, T, blowup = oracle_cases[case]
        with np.errstate(over="ignore"):
            traj = lq.simulate(model, resid, make_policy(), x0, T, blowup=blowup)
        assert traj.diverged and traj.horizon < T


def _batch_cases():
    from lqshield.environments import CartPoleParams, cartpole_residual

    rng = np.random.default_rng(5)
    w = [rng.standard_normal(3) for _ in range(4)]
    params = CartPoleParams()
    return {
        "zero": (lq.zero_residual(3), 3, 2, 0),
        "disturbance": (lq.disturbance_residual(w), 3, 2, 2),
        "disturbance-past-end": (lq.disturbance_residual(w), 3, 2, 9),
        "tanh": (lq.lipschitz_residual(3, 2, 0.3, seed=1), 3, 2, 0),
        "cartpole": (cartpole_residual(params, params), 4, 1, 0),
        "cartpole-mismatch": (
            cartpole_residual(params, params.with_true_masses_as_model()),
            4,
            1,
            0,
        ),
        "no-batch-form": (
            lq.ResidualModel(eval=lambda t, x, u: 0.1 * np.sin(x) + t * u.sum()),
            3,
            2,
            3,
        ),
    }


@pytest.mark.parametrize("case", list(_batch_cases()))
def test_residual_batch_matches_rowwise_eval(case):
    resid, n, m, t = _batch_cases()[case]
    assert (resid.eval_batch is None) == (case == "no-batch-form")
    rng = np.random.default_rng(17)
    X = rng.uniform(-1.0, 1.0, size=(64, n))
    U = rng.uniform(-1.0, 1.0, size=(64, m))
    rows = np.array([resid.eval(t, x, u) for x, u in zip(X, U)], dtype=float)
    out = resid.batch(t, X, U)
    assert out.shape == (64, n)
    assert np.linalg.norm(out - rows) <= 1e-12 * max(np.linalg.norm(rows), 1e-300)
    if case in ("zero", "disturbance-past-end"):
        assert not out.any()


def test_residual_batch_of_wrong_shape_is_rejected():
    """A batch form must return [N, n], as the row-wise fallback must return
    n entries per row; a batch cut to one column is refused by name."""
    import dataclasses

    resid = lq.lipschitz_residual(2, 2, 0.5, seed=1)
    cut = dataclasses.replace(resid, eval_batch=lambda t, X, U: resid.eval_batch(t, X, U)[:, :1])
    X, U = np.ones((3, 2)), np.ones((3, 2))
    assert resid.batch(0, X, U).shape == (3, 2)
    expected = r"residual batch returned shape \(3, 1\), expected \(3, 2\)"
    with pytest.raises(ValueError, match=expected):
        cut.batch(0, X, U)
    with pytest.raises(ValueError, match="residual batch returned shape"):
        lq.estimate_lipschitz(cut, 200, 1.0, 0, 2, 2)


@pytest.mark.parametrize("case", list(_batch_cases()))
def test_residual_batch_of_no_rows_has_the_state_width(case):
    resid, n, m, t = _batch_cases()[case]
    assert resid.batch(t, np.zeros((0, n)), np.zeros((0, m))).shape == (0, n)


def test_estimate_lipschitz_matches_pairwise_loop():
    """The batched estimate reproduces a per-pair loop on the same draws."""
    resid = lq.lipschitz_residual(3, 2, 0.2, seed=3)
    rng = np.random.default_rng(8)
    best = 0.0
    for k in range(300):
        z1 = rng.uniform(-2.0, 2.0, size=5)
        if k % 2 == 0:
            z2 = rng.uniform(-2.0, 2.0, size=5)
        else:
            z2 = z1.copy()
            j = int(rng.integers(0, 5))
            z2[j] += rng.uniform(1e-4, 1e-2) * 2.0
        ratio = np.linalg.norm(resid.eval(0, z1[:3], z1[3:]) - resid.eval(0, z2[:3], z2[3:]))
        best = max(best, ratio / np.linalg.norm(z1 - z2))
    est = lq.estimate_lipschitz(resid, 300, 2.0, 8, n=3, m=2)
    assert est == pytest.approx(best, rel=1e-12)
    assert lq.estimate_lipschitz(resid, 10, 0.0, 8, n=3, m=2) == 0.0


def test_write_csv_writes_numpy_scalars_as_python_values(tmp_path):
    path = tmp_path / "rows.csv"
    write_csv(path, ["a", "b", "c"], [(np.float64(5.25), np.int64(3), np.bool_(True))])
    assert path.read_text() == "a,b,c\n5.25,3,True\n"
