"""Guarantee constants, stability envelopes, and competitive ratios.

The constants are closed-form functions of the synthesized model
(operator norms of P, K, F, H and the decay envelope), the declared
residual Lipschitz bound and the black box's consistency error.  The
envelope and ratio checks compare measured trajectories against the
predicted bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DegenerateOPT, PreconditionViolated
from .linalg_control import LinearModel, Synthesis, _eta_series, _hindsight_weight
from .plant import ResidualModel, Trajectory, disturbance_residual, simulate, zero_residual
from .policies import auxiliary_optimal_policy, lqr_policy

__all__ = [
    "TheoremConstants",
    "StabilityReport",
    "TrajOptResult",
    "theorem_constants",
    "fit_stability_envelope",
    "opt_cost_time_only",
    "auxiliary_cost_closed_form",
    "opt_cost_trajopt",
    "competitive_ratio",
    "total_cost_with_tail",
    "verify_bounds",
    "BoundCheck",
]


def _opnorm(M) -> float:
    return float(np.linalg.norm(M, 2))


@dataclass(frozen=True)
class TheoremConstants:
    """System constants entering the stability and ratio guarantees.

    ``applicable`` is False when rho + C_ell (1 + ||K||) >= 1, where the
    geometric series behind C_b_sys diverges; C_b_sys is then infinite
    and the derived constants are zeroed.
    """

    C_ell: float
    epsilon: float
    gamma: float
    mu: float
    C_a_sys: float
    C_b_sys: float
    C_c_sys: float
    CR_model_bar: float
    eps_max_stability: float
    C_ell_max: float
    applicable: bool
    # carried system quantities
    C_F: float
    rho: float
    sigma: float
    kappa: float
    norm_H: float
    norm_B: float
    norm_K: float
    norm_P: float

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}

    def violations(self) -> list[str]:
        """The guarantee's hypotheses these constants break, one message
        each; empty when all hold."""
        found = []
        if not self.applicable:
            found.append("rho + C_ell(1+||K||) >= 1: envelope constants not applicable")
        if self.epsilon >= self.eps_max_stability:
            found.append(f"epsilon {self.epsilon:g} >= eps_max {self.eps_max_stability:g}")
        if self.C_ell >= self.C_ell_max:
            found.append(f"C_ell {self.C_ell:g} >= C_ell_max {self.C_ell_max:g}")
        return found


@dataclass(frozen=True)
class _SystemNorms:
    """The operator norms behind the guarantee constants that do not
    depend on (C_ell, epsilon)."""

    P: float
    K: float
    B: float
    F: float
    H: float
    PB: float
    PF: float
    QKRK: float  # ||Q + K'RK||
    BI: float  # ||B + I||, or ||B|| + 1 for a non-square B


# the last synthesis whose norms were taken, and its norms: callers
# evaluate the constants many times on one synthesis before the next, and
# a Synthesis is not changed once built, so matching it by identity is enough
_last_norms: tuple = (None, None)


def _system_norms(syn: Synthesis) -> _SystemNorms:
    global _last_norms
    seen, norms = _last_norms
    if seen is syn:
        return norms
    P, K, F, H = syn.P, syn.K, syn.F, syn.H
    B = syn.model.B
    Q, R = syn.model.Q, syn.model.R
    nB = _opnorm(B)
    if B.shape[0] == B.shape[1]:
        nBI = _opnorm(B + np.eye(B.shape[0]))
    else:
        nBI = nB + 1.0
    norms = _SystemNorms(
        P=_opnorm(P),
        K=_opnorm(K),
        B=nB,
        F=_opnorm(F),
        H=_opnorm(H),
        PB=_opnorm(P @ B),
        PF=_opnorm(P @ F),
        QKRK=_opnorm(Q + K.T @ R @ K),
        BI=nBI,
    )
    _last_norms = (syn, norms)
    return norms


def theorem_constants(syn: Synthesis, C_ell: float, epsilon: float) -> TheoremConstants:
    """Evaluate the guarantee constants for given (C_ell, epsilon).

    gamma        = rho + C_F C_ell (1 + ||K||)
    mu           = C_F (eps (C_ell + ||B||) + C_a_sys C_ell)
    CR_model_bar = 2 kappa (C_F ||P|| / (1 - rho))^2 / sigma

    C_b_sys is the value-function gradient constant (finite only while
    rho + C_ell(1+||K||) < 1), C_a_sys the optimal-vs-LQR policy gap
    constant, and C_c_sys the admissible-Lipschitz constant.  For a
    non-square B the term ||B + I|| is replaced by its bound
    ||B|| + 1.
    """
    if not (C_ell >= 0 and epsilon >= 0):
        raise ValueError("C_ell and epsilon must be nonnegative")
    return _theorem_constants(syn, _system_norms(syn), C_ell, epsilon)


def _theorem_constants(
    syn: Synthesis, norms: _SystemNorms, C_ell: float, epsilon: float
) -> TheoremConstants:
    """:func:`theorem_constants` from precomputed system norms."""
    rho, C_F, sigma, kappa = syn.rho, syn.C_F, syn.sigma, syn.kappa
    nP, nK, nB, nF, nH = norms.P, norms.K, norms.B, norms.F, norms.H
    nPB, nPF, nQKRK, nBI = norms.PB, norms.PF, norms.QKRK, norms.BI
    C_bar = C_ell * (1.0 + nK)
    gamma = rho + C_F * C_bar
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
    return TheoremConstants(
        C_ell=float(C_ell),
        epsilon=float(epsilon),
        gamma=float(gamma),
        mu=float(mu),
        C_a_sys=float(C_a),
        C_b_sys=float(C_b),
        C_c_sys=float(C_c),
        CR_model_bar=float(CR_model_bar),
        eps_max_stability=float(eps_max),
        C_ell_max=float(C_ell_max),
        applicable=applicable,
        C_F=C_F,
        rho=rho,
        sigma=sigma,
        kappa=kappa,
        norm_H=nH,
        norm_B=nB,
        norm_K=nK,
        norm_P=nP,
    )


def admissible_lipschitz_cap(syn: Synthesis) -> float:
    """Largest self-consistent Lipschitz bound: the cap c* solving
    c = C_ell_max(c).

    C_ell_max is evaluated at the residual bound it constrains (the
    constants behind it depend on C_ell), so admissibility means
    C_ell < C_ell_max(C_ell); the map is decreasing, making the
    feasible set an interval [0, c*).  The system norms are taken once
    for the whole bisection.
    """
    norms = _system_norms(syn)
    lo, hi = 0.0, _theorem_constants(syn, norms, 0.0, 0.0).C_ell_max
    if hi <= 0:
        return 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid < _theorem_constants(syn, norms, mid, 0.0).C_ell_max:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-10 * max(1.0, hi):
            break
    return lo


@dataclass(frozen=True)
class StabilityReport:
    """Fitted decay of a trajectory against a predicted envelope.

    ``decay_gamma_hat`` is exp(least-squares slope of log||x_t||),
    ``envelope_C_hat`` the smallest prefactor making the fitted envelope
    hold, and ``satisfied`` whether ||x_t|| <= C_pred gamma_pred^t ||x_0||
    held at every step with C_pred = (C_F + mu/gamma) / (1 - mu/gamma);
    None when the prediction is unavailable (mu >= gamma).
    """

    decay_gamma_hat: float
    envelope_C_hat: float
    satisfied: Optional[bool]
    degenerate: bool = False


def predicted_envelope_prefactor(constants: TheoremConstants) -> Optional[float]:
    """(C_F + mu/gamma) / (1 - mu/gamma), or None when mu >= gamma."""
    if constants.mu >= constants.gamma:
        return None
    r = constants.mu / constants.gamma
    return (constants.C_F + r) / (1.0 - r)


def fit_stability_envelope(traj: Trajectory, predicted: TheoremConstants) -> StabilityReport:
    """Fit a per-step decay to ||x_t|| and check the predicted envelope."""
    norms = traj.state_norms()
    if norms.shape[0] < 10:
        raise ValueError("need at least 10 recorded steps to fit a decay")
    x0n = norms[0]
    if x0n <= 0.0:
        raise ValueError("||x_0|| must be positive")
    pred_C = predicted_envelope_prefactor(predicted)
    mask = norms > 1e-12
    if mask.sum() < 2:
        return StabilityReport(
            decay_gamma_hat=0.0,
            envelope_C_hat=1.0,
            satisfied=None if pred_C is None else True,
            degenerate=True,
        )
    ts = np.nonzero(mask)[0].astype(float)
    slope = np.polyfit(ts, np.log(norms[mask]), 1)[0]
    decay = float(np.exp(slope))
    ratios = norms[mask] / (decay ** ts * x0n)
    envelope_C = float(np.max(ratios))
    satisfied: Optional[bool] = None
    if pred_C is not None:
        bound = pred_C * predicted.gamma ** np.arange(norms.shape[0]) * x0n
        satisfied = bool(np.all(norms <= bound * (1.0 + 1e-9)))
    return StabilityReport(
        decay_gamma_hat=decay,
        envelope_C_hat=envelope_C,
        satisfied=satisfied,
    )


def auxiliary_cost_closed_form(syn: Synthesis, disturbances, x0) -> float:
    """Infinite-horizon cost of the disturbance-aware optimal policy.

    x0'P x0 + 2 x0'F'V_0 + sum_t (w_t'P w_t + 2 w_t'F'V_{t+1}
    - V_t' B H^-1 B' V_t) with V_t = sum_{tau>=t} (F')^(tau-t) P w_tau.
    """
    w = [np.asarray(v, dtype=float) for v in disturbances]
    x0 = np.asarray(x0, dtype=float)
    P, F = syn.P, syn.F
    T = len(w)
    BHB = _hindsight_weight(syn)
    V = _eta_series(F, P, w) + [np.zeros(syn.n)]
    cost = float(x0 @ P @ x0 + 2.0 * x0 @ (F.T @ V[0]))
    for t in range(T):
        cost += float(w[t] @ P @ w[t] + 2.0 * w[t] @ (F.T @ V[t + 1]) - V[t] @ BHB @ V[t])
    return cost


def total_cost_with_tail(traj: Trajectory, syn: Synthesis) -> float:
    """Recorded cost plus the exact LQR tail value at the terminal state.

    Valid when the plant is disturbance-free past the recorded horizon
    and the policy coincides with the LQR there.
    """
    xT = traj.states[-1]
    return traj.total_cost + float(xT @ syn.P @ xT)


def opt_cost_time_only(syn: Synthesis, disturbances, x0) -> float:
    """Exact offline-optimal cost under known additive disturbances.

    Simulates the disturbance-aware optimal policy over the disturbance
    support and adds the exact LQR tail value; the result is verified
    against the independent closed form.
    """
    w = [np.asarray(v, dtype=float) for v in disturbances]
    T = len(w)
    policy = auxiliary_optimal_policy(syn, w)
    residual = disturbance_residual(w) if T else zero_residual(syn.n)
    traj = simulate(syn.model, residual, policy, x0, max(T, 1))
    cost = total_cost_with_tail(traj, syn)
    closed = auxiliary_cost_closed_form(syn, w, x0)
    if abs(cost - closed) > 1e-8 * max(1.0, abs(closed)):
        raise RuntimeError(
            f"optimal-cost cross-check failed: simulated {cost!r} vs closed form {closed!r}"
        )
    return cost


@dataclass
class TrajOptResult:
    """Best cost found by shooting, with convergence diagnostics."""

    cost: float
    initial_cost: float
    improved: bool
    iterations_run: int
    cost_history: list


def opt_cost_trajopt(
    model: LinearModel,
    residual: ResidualModel,
    x0,
    T: int,
    iterations: int = 40,
    *,
    syn: Synthesis,
) -> TrajOptResult:
    """Approximate offline-optimal cost by shooting on u_0..u_{T-1}.

    Finite-difference gradient descent with backtracking line search,
    initialized from the rollout of the LQR of ``syn`` (the synthesis of
    ``model``); the objective adds its value x_T'P x_T as terminal cost.
    The returned best cost is monotone non-increasing across iterations
    and never exceeds the initial (LQR rollout) cost.

    The objective rolls a batch of action sequences at once, with the
    residual evaluated through :meth:`ResidualModel.batch`.  Every point
    (the initial one and each line-search candidate) is evaluated
    together with its 2·T·m central-difference probes
    (u ± h_j e_j, h_j = 1e-6 max(1, |u_j|)) as one batch, and the probes
    are differenced into the next gradient only once the point is
    accepted.  A sequence whose state goes non-finite costs inf.
    """
    x0 = np.asarray(x0, dtype=float)
    A, B, Q, R, P = model.A, model.B, model.Q, model.R, syn.P
    n, m = model.n, model.m
    At, Bt = A.T, B.T

    def batch_cost(u_rows: np.ndarray) -> np.ndarray:
        """Shooting cost of every row of u_rows [N, T*m]."""
        N = u_rows.shape[0]
        us = u_rows.reshape(N, T, m)
        # the states x_0..x_T of every row
        X = np.empty((T + 1, N, n))
        X[0] = x0
        dead = np.zeros(N, dtype=bool)
        with np.errstate(all="ignore"):
            for t in range(T):
                U = us[:, t]
                X[t + 1] = X[t] @ At + U @ Bt + residual.batch(t, X[t], U)
                Xn = X[t + 1]
                if not np.isfinite(Xn).all():
                    # a dead row rolls on from 0 so the residual never sees
                    # a non-finite state
                    bad = ~np.isfinite(Xn).all(axis=1)
                    dead |= bad
                    Xn[bad] = 0.0
            cost = (
                np.einsum("tki,ij,tkj->k", X[:T], Q, X[:T])
                + np.einsum("kti,ij,ktj->k", us, R, us)
                + np.einsum("ki,ij,kj->k", X[T], P, X[T])
            )
        cost[dead | ~np.isfinite(cost)] = math.inf
        return cost

    traj = simulate(model, residual, lqr_policy(syn), x0, T)
    u = traj.actions.reshape(-1).copy()
    if u.shape[0] != T * m:
        u = np.resize(u, T * m)
    D = u.shape[0]
    rows = np.arange(D)

    def with_probes(v: np.ndarray) -> tuple[float, tuple]:
        """The cost of v, and its probes' costs and steps, from one batch."""
        h = 1e-6 * np.maximum(1.0, np.abs(v))
        batch = np.tile(v, (2 * D + 1, 1))
        batch[1 + rows, rows] += h
        batch[1 + D + rows, rows] -= h
        costs = batch_cost(batch)
        return float(costs[0]), (costs[1:], h)

    best, probed = with_probes(u)
    initial = best
    history = [best]
    for _ in range(iterations):
        costs, h = probed
        grad = (costs[:D] - costs[D:]) / (2.0 * h)
        gnorm = np.linalg.norm(grad)
        if gnorm < 1e-14:
            break
        step = 1.0 / (1.0 + gnorm)
        improved_this_iter = False
        for _ in range(40):
            cand = u - step * grad
            c, cand_probed = with_probes(cand)
            if c < best - 1e-12 * max(1.0, abs(best)):
                u, best, probed = cand, c, cand_probed
                improved_this_iter = True
                break
            step *= 0.5
        history.append(best)
        if not improved_this_iter:
            break
    return TrajOptResult(
        cost=best,
        initial_cost=initial,
        improved=best < initial,
        iterations_run=len(history) - 1,
        cost_history=history,
    )


def competitive_ratio(alg_traj: Trajectory, opt_cost: float, syn: Synthesis) -> float:
    """ALG / OPT: the algorithm's cost over an offline-optimal reference cost.

    The algorithm cost includes the exact LQR tail value at the terminal
    state, matching how the exact OPT is accounted.  Raises
    :class:`DegenerateOPT` for opt_cost <= 1e-15.
    """
    if opt_cost <= 1e-15:
        raise DegenerateOPT(f"optimal cost {opt_cost!r} is numerically zero")
    return float(total_cost_with_tail(alg_traj, syn) / opt_cost)


@dataclass(frozen=True)
class BoundCheck:
    satisfied: bool
    bound: float
    model_term: float
    error_term: float
    nonlinear_term: float


def default_c2(constants: TheoremConstants) -> float:
    """Calibration default for the model-free error coefficient."""
    return 2.0 * constants.norm_H * max(
        2.0 / constants.sigma,
        constants.C_F**2 * constants.norm_P**2 * constants.kappa
        / (constants.sigma * (1.0 - constants.rho) ** 2),
    )


def verify_bounds(
    constants: TheoremConstants,
    ratio: float,
    lambda_limit: float,
    x0_norm: float = 0.0,
    c2: Optional[float] = None,
    c3: float = 1.0,
) -> BoundCheck:
    """Check the measured competitive ratio against the structural guarantee bound

        (1 - lambda) CR_model_bar + c2 / (1 - (2||H||/sigma) eps)
        + c3 C_ell ||x0||.

    The absorbed proportionality constants are calibration inputs: c2
    defaults to :func:`default_c2`, c3 to 1 (set from a calibration
    run).  Raises :class:`PreconditionViolated` outside the guarantee's
    hypotheses.
    """
    violations = constants.violations()
    if violations:
        raise PreconditionViolated(violations)
    if c2 is None:
        c2 = default_c2(constants)
    model_term = (1.0 - lambda_limit) * constants.CR_model_bar
    denom = 1.0 - (2.0 * constants.norm_H / constants.sigma) * constants.epsilon
    error_term = c2 / denom
    nonlinear_term = c3 * constants.C_ell * x0_norm
    bound = model_term + error_term + nonlinear_term
    return BoundCheck(
        satisfied=ratio <= bound,
        bound=float(bound),
        model_term=float(model_term),
        error_term=float(error_term),
        nonlinear_term=float(nonlinear_term),
    )
