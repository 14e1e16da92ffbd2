import math

import numpy as np
import pytest

import lqshield as lq
from lqshield.environments import (
    CartPoleParams,
    cartpole_linearization,
    cartpole_residual,
)
from lqshield.environments.cartpole import _euler_stepper


def _cartpole_true_step(params, state, u):
    """One explicit-Euler step of the frictionless nonlinear plant."""
    state = np.asarray(state, dtype=float).reshape(4)
    u = float(np.asarray(u, dtype=float).reshape(-1)[0])
    return np.array(_euler_stepper(params, math.sin, math.cos)(*state.tolist(), u))


@pytest.fixture(scope="module")
def params():
    return CartPoleParams()


def test_upright_equilibrium(params):
    state = np.zeros(4)
    assert np.allclose(_cartpole_true_step(params, state, 0.0), 0.0)


def test_horizontal_pole_acceleration(params):
    # cos(pi/2) = 0 kills the coupling: theta_acc = g / (l * 4/3) = 3.675
    nxt = _cartpole_true_step(params, [0.0, 0.0, np.pi / 2, 0.0], 0.0)
    assert nxt[3] == pytest.approx(params.tau * 3.675, rel=1e-12)


def test_linearization_matrix_entries(params):
    model = cartpole_linearization(params)
    m, M, l, g, tau = params.model_m, params.model_M, params.l, params.g, params.tau
    eta = (4.0 / 3.0) * l - m * l / (m + M)
    assert model.A[2, 3] == 0.02
    assert model.A[3, 2] == pytest.approx(0.0788780487804878, abs=1e-12)
    assert model.A[1, 2] == pytest.approx(-m * l * g * tau / (eta * (m + M)), rel=1e-14)
    assert model.B[1, 0] == pytest.approx(
        ((m + M) * eta + m * l) * tau / ((m + M) ** 2 * eta), rel=1e-14
    )
    assert model.B[3, 0] == pytest.approx(-tau / ((m + M) * eta), rel=1e-14)
    assert np.allclose(model.Q, np.eye(4))
    assert model.R[0, 0] == 1e-4


def test_linearization_random_parameter_sets():
    rng = np.random.default_rng(8)
    for _ in range(10):
        p = CartPoleParams(
            g=float(rng.uniform(5, 15)),
            m=float(rng.uniform(0.05, 0.5)),
            M=float(rng.uniform(0.5, 3.0)),
            l=float(rng.uniform(0.5, 3.0)),
            tau=float(rng.uniform(0.005, 0.05)),
            model_m=float(rng.uniform(0.05, 0.5)),
            model_M=float(rng.uniform(0.5, 3.0)),
        )
        model = cartpole_linearization(p)
        m, M, l, g, tau = p.model_m, p.model_M, p.l, p.g, p.tau
        eta = (4.0 / 3.0) * l - m * l / (m + M)
        expected_A = np.array(
            [
                [1, tau, 0, 0],
                [0, 1, -m * l * g * tau / (eta * (m + M)), 0],
                [0, 0, 1, tau],
                [0, 0, g * tau / eta, 1],
            ]
        )
        expected_B = np.array(
            [
                [0.0],
                [((m + M) * eta + m * l) * tau / ((m + M) ** 2 * eta)],
                [0.0],
                [-tau / ((m + M) * eta)],
            ]
        )
        assert np.allclose(model.A, expected_A, atol=1e-14)
        assert np.allclose(model.B, expected_B, atol=1e-14)


def test_linearization_agrees_with_true_step_in_linear_regime(params):
    # with matching masses, one Euler step of the true plant at a tiny
    # state equals the linear model up to higher-order terms
    p = params.with_true_masses_as_model()
    model = cartpole_linearization(p)
    x = np.array([0.0, 0.0, 1e-6, 0.0])
    u = 1e-6
    true_next = _cartpole_true_step(p, x, u)
    lin_next = model.A @ x + model.B @ np.array([u])
    assert np.max(np.abs(true_next - lin_next)) < 1e-15


def test_residual_zero_at_origin(params):
    resid = cartpole_residual(params, params)
    assert np.allclose(resid.eval(0, np.zeros(4), np.zeros(1)), 0.0)


def test_residual_nonzero_with_mass_mismatch(params):
    resid = cartpole_residual(params, params)
    x = np.array([0.0, 0.0, 0.05, 0.0])
    assert np.linalg.norm(resid.eval(0, x, np.zeros(1))) > 0


def test_residual_grows_with_angle(params):
    p = params.with_true_masses_as_model()
    resid = cartpole_residual(p, p)
    norms = [
        np.linalg.norm(resid.eval(0, np.array([0, 0, th, 0.0]), np.zeros(1)))
        for th in (0.05, 0.1, 0.2, 0.3, 0.4)
    ]
    assert all(b > a for a, b in zip(norms, norms[1:]))


def test_linearization_error_is_cubic_in_angle(params):
    """Richardson check: halving theta divides the one-step linearization
    error by ~8 (pure-angle states, matching masses)."""
    p = params.with_true_masses_as_model()
    model = cartpole_linearization(p)

    def err(theta):
        x = np.array([0.0, 0.0, theta, 0.0])
        true_next = _cartpole_true_step(p, x, 0.0)
        lin_next = model.A @ x
        return np.linalg.norm(true_next - lin_next)

    ratios = [err(th) / err(th / 2) for th in (0.2, 0.1)]
    assert all(6.0 < r < 10.0 for r in ratios)


def test_sampled_lipschitz_constant_reproducible(params):
    # the cart-pole's sampled C_ell on the box |x_i|, |u| <= 1; no residual
    # stores it, so this pins the value the docs quote
    resid = cartpole_residual(params, params)
    est = lq.estimate_lipschitz(resid, 2000, 1.0, 0, 4, 1)
    assert est == pytest.approx(0.050975159193132336, rel=1e-12)


def test_rejects_bad_parameters():
    with pytest.raises(ValueError):
        CartPoleParams(m=-0.1)
    with pytest.raises(ValueError):
        CartPoleParams(tau=0.0)


def test_crude_lqr_stabilizes_true_plant(params):
    model = cartpole_linearization(params)
    syn = lq.synthesize(model)
    assert syn.rho_F < 1.0
    resid = cartpole_residual(params, params)
    traj = lq.simulate(model, resid, lq.lqr_policy(syn), [0, 0, 0.3, 0], 800, blowup=50.0)
    assert not traj.diverged
    assert np.linalg.norm(traj.states[-1]) < 1e-6


def _numpy_scalar_true_step(p, state, u):
    """The plant step evaluated on NumPy scalars with np.sin/np.cos: the
    reference that the Python-float step must match bit for bit."""
    y, yd, th, thd = np.asarray(state, dtype=float)
    sin, cos = np.sin(th), np.cos(th)
    total = p.m + p.M
    th_acc = (p.g * sin + cos * ((-u - p.m * p.l * thd**2 * sin) / total)) / (
        p.l * (4.0 / 3.0 - p.m * cos**2 / total)
    )
    y_acc = (u + p.m * p.l * (thd**2 * sin - th_acc * cos)) / total
    tau = p.tau
    return np.array([y + tau * yd, yd + tau * y_acc, th + tau * thd, thd + tau * th_acc])


def test_residual_bit_identical_to_true_step_minus_model(params):
    resid = cartpole_residual(params, params)
    model = cartpole_linearization(params)
    rng = np.random.default_rng(17)
    for _ in range(5000):
        x = rng.uniform(-1.5, 1.5, 4) * rng.choice([1e-3, 1.0, 10.0])
        u = rng.uniform(-20.0, 20.0, 1)
        reference = _numpy_scalar_true_step(params, x, float(u[0]))
        assert np.array_equal(_cartpole_true_step(params, x, u), reference)
        assert np.array_equal(
            resid.eval(0, x, u), reference - (model.A @ x + model.B @ u)
        )


def _reference_batch_stepper(p):
    """The pre-change batch step on the columns of X [N, 4] and U [N, 1]."""
    g, m, l, tau = p.g, p.m, p.l, p.tau
    total = m + p.M
    ml = m * l

    def step(X, U):
        y, yd, th, thd = X.T
        u = U[:, 0]
        sin, cos = np.sin(th), np.cos(th)
        thd_sq = thd * thd
        th_acc = (g * sin + cos * ((-u - ml * thd_sq * sin) / total)) / (
            l * (4.0 / 3.0 - m * (cos * cos) / total)
        )
        y_acc = (u + ml * (thd_sq * sin - th_acc * cos)) / total
        return np.column_stack(
            [y + tau * yd, yd + tau * y_acc, th + tau * thd, thd + tau * th_acc]
        )

    return step


@pytest.mark.parametrize("mass_error", [False, True])
def test_batch_residual_bit_identical_to_reference_batch_step(params, mass_error):
    model_params = params if mass_error else params.with_true_masses_as_model()
    resid = cartpole_residual(params, model_params)
    model = cartpole_linearization(model_params)
    rng = np.random.default_rng(29)
    X = rng.uniform(-1.5, 1.5, (200, 4)) * rng.choice([1e-3, 1.0, 10.0], (200, 1))
    U = rng.uniform(-20.0, 20.0, (200, 1))
    reference = _reference_batch_stepper(params)(X, U)
    assert np.array_equal(resid.batch(0, X, U), reference - (X @ model.A.T + U @ model.B.T))
