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
from .linalg_control import LinearModel, Synthesis, _eta_series
from .plant import ResidualModel, Trajectory, disturbance_residual, simulate
from .policies import auxiliary_optimal_policy, lqr_policy

__all__ = [
    "TheoremConstants",
    "StabilityReport",
    "CompetitiveReport",
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


def _system_norms(syn: Synthesis) -> _SystemNorms:
    P, K, F, H = syn.P, syn.K, syn.F, syn.H
    B = syn.model.B
    Q, R = syn.model.Q, syn.model.R
    nB = _opnorm(B)
    if B.shape[0] == B.shape[1]:
        nBI = _opnorm(B + np.eye(B.shape[0]))
    else:
        nBI = nB + 1.0
    return _SystemNorms(
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
    if C_ell < 0 or epsilon < 0:
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


def admissible_lipschitz_cap(syn: Synthesis, tol: float = 1e-10) -> float:
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
        if hi - lo <= tol * max(1.0, hi):
            break
    return lo


@dataclass(frozen=True)
class StabilityReport:
    """Fitted decay of a trajectory against a predicted envelope.

    ``decay_gamma_hat`` is exp(least-squares slope of log||x_t||),
    ``envelope_C_hat`` the smallest prefactor making the fitted envelope
    hold, and ``satisfied`` (when predicted constants were supplied)
    whether ||x_t|| <= C_pred gamma_pred^t ||x_0|| held at every step
    with C_pred = (C_F + mu/gamma) / (1 - mu/gamma); None when the
    prediction is unavailable (mu >= gamma) or no prediction was given.
    """

    decay_gamma_hat: float
    envelope_C_hat: float
    satisfied: Optional[bool]
    t0: Optional[int] = None
    degenerate: bool = False
    predicted_gamma: Optional[float] = None
    predicted_C: Optional[float] = None

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}

    def summary_text(self) -> str:
        lines = [
            f"fitted decay     : {self.decay_gamma_hat:.10g}",
            f"fitted prefactor : {self.envelope_C_hat:.10g}",
        ]
        if self.predicted_gamma is not None:
            lines.append(
                f"predicted bound  : {self.predicted_C!r} * {self.predicted_gamma:.10g}^t"
            )
            lines.append(f"satisfied        : {self.satisfied}")
        if self.degenerate:
            lines.append("(degenerate: all states below threshold)")
        return "\n".join(lines)


def predicted_envelope_prefactor(constants: TheoremConstants) -> Optional[float]:
    """(C_F + mu/gamma) / (1 - mu/gamma), or None when mu >= gamma."""
    if constants.mu >= constants.gamma:
        return None
    r = constants.mu / constants.gamma
    return (constants.C_F + r) / (1.0 - r)


def fit_stability_envelope(
    traj: Trajectory,
    predicted: Optional[TheoremConstants] = None,
    threshold: float = 1e-12,
    t0: Optional[int] = None,
) -> StabilityReport:
    """Fit a per-step decay to ||x_t|| and check the predicted envelope."""
    norms = traj.state_norms()
    if norms.shape[0] < 10:
        raise ValueError("need at least 10 recorded steps to fit a decay")
    x0n = norms[0]
    if x0n <= 0.0:
        raise ValueError("||x_0|| must be positive")
    mask = norms > threshold
    pred_gamma = predicted.gamma if predicted is not None else None
    pred_C = predicted_envelope_prefactor(predicted) if predicted is not None else None
    if mask.sum() < 2:
        return StabilityReport(
            decay_gamma_hat=0.0,
            envelope_C_hat=1.0,
            satisfied=True if predicted is not None else None,
            t0=t0,
            degenerate=True,
            predicted_gamma=pred_gamma,
            predicted_C=pred_C,
        )
    ts = np.nonzero(mask)[0].astype(float)
    slope = np.polyfit(ts, np.log(norms[mask]), 1)[0]
    decay = float(np.exp(slope))
    ratios = norms[mask] / (decay ** ts * x0n)
    envelope_C = float(np.max(ratios))
    satisfied: Optional[bool] = None
    if predicted is not None and pred_C is not None:
        bound = pred_C * pred_gamma ** np.arange(norms.shape[0]) * x0n
        satisfied = bool(np.all(norms <= bound * (1.0 + 1e-9)))
    return StabilityReport(
        decay_gamma_hat=decay,
        envelope_C_hat=envelope_C,
        satisfied=satisfied,
        t0=t0,
        degenerate=False,
        predicted_gamma=pred_gamma,
        predicted_C=pred_C,
    )


def auxiliary_cost_closed_form(syn: Synthesis, disturbances, x0) -> float:
    """Infinite-horizon cost of the disturbance-aware optimal policy.

    x0'P x0 + 2 x0'F'V_0 + sum_t (w_t'P w_t + 2 w_t'F'V_{t+1}
    - V_t' B H^-1 B' V_t) with V_t = sum_{tau>=t} (F')^(tau-t) P w_tau.
    """
    w = [np.asarray(v, dtype=float) for v in disturbances]
    x0 = np.asarray(x0, dtype=float)
    P, F, H = syn.P, syn.F, syn.H
    B = syn.model.B
    T = len(w)
    BHB = B @ np.linalg.solve(H, B.T)
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


def truncation_tail_bound(traj: Trajectory, syn: Synthesis, gamma: float) -> float:
    """Bound on the cost ignored by truncating at the recorded horizon.

    For a policy decaying as ||x_t|| <= C_F gamma^(t-T) ||x_T|| past the
    horizon, the remaining quadratic cost is at most

        ||x_T||^2 ||Q + K'RK|| C_F^2 gamma^2 / (1 - gamma^2).

    Returns inf when gamma >= 1 (no decay certificate).
    """
    if gamma >= 1.0:
        return math.inf
    xT = traj.states[-1]
    Q, R, K = syn.model.Q, syn.model.R, syn.K
    stage = _opnorm(Q + K.T @ R @ K)
    return float(
        np.dot(xT, xT) * stage * syn.C_F**2 * gamma**2 / (1.0 - gamma**2)
    )


def opt_cost_time_only(
    syn: Synthesis,
    disturbances,
    x0,
    check: bool = True,
    rtol: float = 1e-8,
) -> float:
    """Exact offline-optimal cost under known additive disturbances.

    Simulates the disturbance-aware optimal policy over the disturbance
    support and adds the exact LQR tail value; when ``check`` is on the
    result is verified against the independent closed form.
    """
    w = [np.asarray(v, dtype=float) for v in disturbances]
    T = len(w)
    policy = auxiliary_optimal_policy(syn, w)
    residual = disturbance_residual(w) if T else None
    traj = simulate(syn.model, residual, policy, x0, max(T, 1))
    cost = total_cost_with_tail(traj, syn)
    if check:
        closed = auxiliary_cost_closed_form(syn, w, x0)
        if abs(cost - closed) > rtol * max(1.0, abs(closed)):
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

    def __float__(self) -> float:
        return self.cost


def opt_cost_trajopt(
    model: LinearModel,
    residual: ResidualModel,
    x0,
    T: int,
    iterations: int = 40,
    syn: Optional[Synthesis] = None,
    fd_step: float = 1e-6,
) -> TrajOptResult:
    """Approximate offline-optimal cost by shooting on u_0..u_{T-1}.

    Finite-difference gradient descent with backtracking line search,
    initialized from the LQR rollout; the objective adds the LQR value
    x_T'P x_T as terminal cost.  The returned best cost is monotone
    non-increasing across iterations and never exceeds the initial
    (LQR rollout) cost.

    The objective rolls a batch of action sequences at once, with the
    residual evaluated through :meth:`ResidualModel.batch`: each descent
    iteration evaluates its 2·T·m central-difference probes (u ± h_j e_j,
    h_j = fd_step max(1, |u_j|)) as one batch, and the initial cost and
    each line-search candidate as a batch of one.  A sequence whose state
    goes non-finite costs inf.
    """
    from .linalg_control import synthesize

    if syn is None:
        syn = synthesize(model)
    x0 = np.asarray(x0, dtype=float)
    A, B, Q, R, P = model.A, model.B, model.Q, model.R, syn.P
    m = model.m
    At, Bt = A.T, B.T

    def batch_cost(u_rows: np.ndarray) -> np.ndarray:
        """Shooting cost of every row of u_rows [N, T*m]."""
        N = u_rows.shape[0]
        us = u_rows.reshape(N, T, m)
        X = np.tile(x0, (N, 1))
        cost = np.zeros(N)
        dead = np.zeros(N, dtype=bool)
        with np.errstate(all="ignore"):
            for t in range(T):
                U = us[:, t]
                cost += np.einsum("ki,ij,kj->k", X, Q, X) + np.einsum("ki,ij,kj->k", U, R, U)
                X = X @ At + U @ Bt + residual.batch(t, X, U)
                bad = ~np.isfinite(X).all(axis=1)
                if bad.any():
                    # a dead row rolls on from 0 so the residual never sees
                    # a non-finite state
                    dead |= bad
                    X[bad] = 0.0
            cost += np.einsum("ki,ij,kj->k", X, P, X)
        cost[dead | ~np.isfinite(cost)] = math.inf
        return cost

    def rollout_cost(u_flat: np.ndarray) -> float:
        return float(batch_cost(u_flat[None])[0])

    traj = simulate(model, residual, lqr_policy(syn), x0, T)
    u = traj.actions.reshape(-1).copy()
    if u.shape[0] != T * m:
        u = np.resize(u, T * m)
    best = rollout_cost(u)
    initial = best
    history = [best]
    D = u.shape[0]
    rows = np.arange(D)
    for _ in range(iterations):
        h = fd_step * np.maximum(1.0, np.abs(u))
        probes = np.tile(u, (2 * D, 1))
        probes[rows, rows] += h
        probes[D + rows, rows] -= h
        costs = batch_cost(probes)
        grad = (costs[:D] - costs[D:]) / (2.0 * h)
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
    return TrajOptResult(
        cost=best,
        initial_cost=initial,
        improved=best < initial,
        iterations_run=len(history) - 1,
        cost_history=history,
    )


@dataclass(frozen=True)
class CompetitiveReport:
    """Measured cost ratio against an offline-optimal reference."""

    alg_cost: float
    opt_cost: float
    ratio: float
    opt_method: str
    bound_value: Optional[float] = None

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}

    def summary_text(self) -> str:
        lines = [
            f"ALG cost : {self.alg_cost:.10g}",
            f"OPT cost : {self.opt_cost:.10g} ({self.opt_method})",
            f"ratio    : {self.ratio:.10g}",
        ]
        if self.bound_value is not None:
            lines.append(f"bound    : {self.bound_value:.10g}")
        return "\n".join(lines)


def competitive_ratio(
    alg_traj: Trajectory,
    opt_cost: float,
    opt_method: str = "exact_time_only",
    syn: Optional[Synthesis] = None,
    bound_value: Optional[float] = None,
) -> CompetitiveReport:
    """ALG / OPT with method metadata.

    When ``syn`` is supplied the algorithm cost includes the exact LQR
    tail value at the terminal state (matching how the exact OPT is
    accounted).  Raises :class:`DegenerateOPT` for opt_cost <= 1e-15.
    """
    if opt_cost <= 1e-15:
        raise DegenerateOPT(f"optimal cost {opt_cost!r} is numerically zero")
    if opt_method not in ("exact_time_only", "trajopt_approx"):
        raise ValueError(f"unknown opt_method {opt_method!r}")
    alg_cost = (
        total_cost_with_tail(alg_traj, syn) if syn is not None else alg_traj.total_cost
    )
    return CompetitiveReport(
        alg_cost=float(alg_cost),
        opt_cost=float(opt_cost),
        ratio=float(alg_cost / opt_cost),
        opt_method=opt_method,
        bound_value=bound_value,
    )


@dataclass(frozen=True)
class BoundCheck:
    satisfied: bool
    bound: float
    margin: float
    model_term: float
    error_term: float
    nonlinear_term: float

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


def default_c2(constants: TheoremConstants) -> float:
    """Calibration default for the model-free error coefficient."""
    return 2.0 * constants.norm_H * max(
        2.0 / constants.sigma,
        constants.C_F**2 * constants.norm_P**2 * constants.kappa
        / (constants.sigma * (1.0 - constants.rho) ** 2),
    )


def verify_bounds(
    constants: TheoremConstants,
    report: CompetitiveReport,
    lambda_limit: float,
    x0_norm: float = 0.0,
    c2: Optional[float] = None,
    c3: float = 1.0,
) -> BoundCheck:
    """Check the measured ratio against the structural guarantee bound

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
        satisfied=report.ratio <= bound,
        bound=float(bound),
        margin=float(bound - report.ratio),
        model_term=float(model_term),
        error_term=float(error_term),
        nonlinear_term=float(nonlinear_term),
    )
