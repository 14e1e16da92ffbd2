"""Cart-pole balancing about the upright equilibrium.

State is (y, y_dot, theta, theta_dot); the input is a horizontal force
on the cart.  The true plant integrates the frictionless nonlinear
equations with an explicit Euler step, and the crude model is the
small-angle linearization built from (possibly wrong) mass estimates --
both on the same step size, so their difference isolates model error
rather than integrator mismatch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ..linalg_control import LinearModel
from ..plant import ResidualModel, estimate_lipschitz

__all__ = [
    "CartPoleParams",
    "cartpole_linearization",
    "cartpole_residual",
]


@dataclass(frozen=True)
class CartPoleParams:
    """Physical parameters plus the mass estimates used for synthesis.

    Defaults are the benchmark values: the true plant carries pole mass
    0.1 and cart mass 1.0, while the model (used for the LQR) assumes
    0.2 and 2.0 -- a deliberate 2x error.
    """

    g: float = 9.8
    m: float = 0.1
    M: float = 1.0
    l: float = 2.0
    tau: float = 0.02
    model_m: float = 0.2
    model_M: float = 2.0

    def __post_init__(self):
        # written as `not 0 < v < inf` so that NaN fails too
        for name in ("g", "m", "M", "l", "tau", "model_m", "model_M"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if not (self.eta(self.m, self.M) > 0 and self.eta(self.model_m, self.model_M) > 0):
            raise ValueError("effective length (4/3) l - m l / (m + M) must be positive")

    def eta(self, m: float, M: float) -> float:
        return (4.0 / 3.0) * self.l - m * self.l / (m + M)

    def with_true_masses_as_model(self) -> "CartPoleParams":
        return replace(self, model_m=self.m, model_M=self.M)


def _euler_stepper(p: CartPoleParams, sin, cos):
    """One explicit-Euler step of ``p``'s plant, with the parameters read
    once: on Python floats with ``math.sin``/``math.cos``, or on the
    columns of a batch of states with ``np.sin``/``np.cos``.  Returns the
    four next-state components as a list.

    On floats ``a * a`` rounds like ``a**2``, and ``math.sin``/``math.cos``
    give the bits of ``np.sin``/``np.cos`` on NumPy scalars wherever NumPy
    calls the C library for them, so the float step matches its
    NumPy-scalar form there (``tests/test_cartpole.py``)."""
    g, m, l, tau = p.g, p.m, p.l, p.tau
    total = m + p.M
    ml = m * l

    def step(y, yd, th, thd, u) -> list:
        s, c = sin(th), cos(th)
        thd_sq = thd * thd
        th_acc = (g * s + c * ((-u - ml * thd_sq * s) / total)) / (
            l * (4.0 / 3.0 - m * (c * c) / total)
        )
        y_acc = (u + ml * (thd_sq * s - th_acc * c)) / total
        return [y + tau * yd, yd + tau * y_acc, th + tau * thd, thd + tau * th_acc]

    return step


def cartpole_linearization(params: CartPoleParams) -> LinearModel:
    """Small-angle discrete model built from the model masses.

    With eta = (4/3) l - m l / (m + M):

        A = [[1, tau, 0, 0],
             [0, 1, -m l g tau / (eta (m + M)), 0],
             [0, 0, 1, tau],
             [0, 0, g tau / eta, 1]]
        B = [0, ((m + M) eta + m l) tau / ((m + M)^2 eta), 0,
             -tau / ((m + M) eta)]

    Cost weights: Q = I, R = [1e-4].
    """
    m, M, l, g, tau = params.model_m, params.model_M, params.l, params.g, params.tau
    eta = params.eta(m, M)
    total = m + M
    A = np.array(
        [
            [1.0, tau, 0.0, 0.0],
            [0.0, 1.0, -m * l * g * tau / (eta * total), 0.0],
            [0.0, 0.0, 1.0, tau],
            [0.0, 0.0, g * tau / eta, 1.0],
        ]
    )
    B = np.array(
        [
            [0.0],
            [(total * eta + m * l) * tau / (total**2 * eta)],
            [0.0],
            [-tau / (total * eta)],
        ]
    )
    return LinearModel(A=A, B=B, Q=np.eye(4), R=np.array([[1e-4]]))


def cartpole_residual(
    params_true: CartPoleParams,
    params_model: CartPoleParams,
) -> ResidualModel:
    """Model error f(t, x, u) = true_step(x, u) - (A x + B u).

    The declared Lipschitz constant is a sampled lower bound: the largest
    difference ratio of 2000 sampled pairs in the operating box
    |x_i|, |u| <= 1, so the true constant there may be larger.  The
    batch form applies the same Euler formulas to columns of stacked
    states and actions.
    """
    model = cartpole_linearization(params_model)
    A, B = model.A, model.B
    true_step = _euler_stepper(params_true, math.sin, math.cos)
    true_step_batch = _euler_stepper(params_true, np.sin, np.cos)

    def f(t, x, u):
        x = np.asarray(x, dtype=float).reshape(4)
        uv = np.asarray(u, dtype=float).reshape(-1)
        true_next = true_step(*x.tolist(), float(uv[0]))
        return np.array(true_next) - (A.dot(x) + B.dot(uv))

    def f_batch(t, X, U):
        true_next = np.empty_like(X)
        true_next[:, 0], true_next[:, 1], true_next[:, 2], true_next[:, 3] = true_step_batch(
            *X.T, U[:, 0]
        )
        true_next -= X @ A.T + U @ B.T
        return true_next

    probe = ResidualModel(eval=f, lipschitz=0.0, eval_batch=f_batch)
    c_hat = estimate_lipschitz(probe, samples=2000, radius=1.0, rng_seed=0, n=4, m=1)
    return ResidualModel(eval=f, lipschitz=float(c_hat), eval_batch=f_batch)
