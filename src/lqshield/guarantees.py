"""Guarantee constants, stability envelopes, and competitive ratios.

The constants are closed-form functions of the synthesized model
(operator norms of P, K, F, H and the decay envelope), the declared
residual Lipschitz bound and the black box's consistency error.  The
envelope and ratio checks compare measured trajectories against the
predicted bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from .errors import DegenerateOPT, PreconditionViolated
from .linalg_control import LinearModel, Synthesis, _eta_series
from .plant import ResidualModel, Trajectory, disturbance_residual, simulate, zero_residual
from .policies import auxiliary_optimal_policy, lqr_policy

__all__ = [
    "TheoremConstants",
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


@dataclass(frozen=True)
class TheoremConstants:
    """System constants entering the stability and ratio guarantees.

    ``applicable`` is False when rho + C_ell (1 + ||K||) >= 1, where the
    geometric series behind C_b_sys diverges; C_b_sys is then infinite
    and the derived constants are zeroed.  The system quantities (C_F,
    rho, sigma, kappa and the norms of H, B, K and P) are read from
    ``syn``, the synthesis the constants were evaluated on.
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
    syn: Synthesis = field(repr=False, compare=False)

    @property
    def C_F(self) -> float:
        return self.syn.C_F

    @property
    def rho(self) -> float:
        return self.syn.rho

    @property
    def sigma(self) -> float:
        return self.syn.sigma

    @property
    def kappa(self) -> float:
        return self.syn.kappa

    @property
    def norm_H(self) -> float:
        return self.syn._norms["H"]

    @property
    def norm_B(self) -> float:
        return self.syn._norms["B"]

    @property
    def norm_K(self) -> float:
        return self.syn._norms["K"]

    @property
    def norm_P(self) -> float:
        return self.syn._norms["P"]

    def as_dict(self) -> dict:
        """The evaluated constants, then the system quantities, by name."""
        names = [f.name for f in fields(self) if f.name != "syn"] + list(_SYSTEM_QUANTITIES)
        return {k: getattr(self, k) for k in names}

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


# the synthesis quantities TheoremConstants reads from its ``syn``, in
# the order that as_dict lists them
_SYSTEM_QUANTITIES = ("C_F", "rho", "sigma", "kappa", "norm_H", "norm_B", "norm_K", "norm_P")


def theorem_constants(syn: Synthesis, C_ell: float, epsilon: float) -> TheoremConstants:
    """Evaluate the guarantee constants for given (C_ell, epsilon).

    gamma        = rho + C_F C_ell (1 + ||K||)
    mu           = C_F (eps (C_ell + ||B||) + C_a_sys C_ell)
    CR_model_bar = 2 kappa (C_F ||P|| / (1 - rho))^2 / sigma

    C_b_sys is the value-function gradient constant (finite only while
    rho + C_ell(1+||K||) < 1), C_a_sys the optimal-vs-LQR policy gap
    constant, and C_c_sys the admissible-Lipschitz constant.  For a
    non-square B the term ||B + I|| is replaced by its bound
    ||B|| + 1.  C_ell and epsilon must be finite and nonnegative.
    """
    if not (0 <= C_ell < math.inf and 0 <= epsilon < math.inf):
        raise ValueError(
            f"C_ell and epsilon must be finite and nonnegative, got {C_ell!r} and {epsilon!r}"
        )
    norms = syn._norms
    rho, C_F, sigma, kappa = syn.rho, syn.C_F, syn.sigma, syn.kappa
    nP, nK, nB, nF, nH = norms["P"], norms["K"], norms["B"], norms["F"], norms["H"]
    nPB, nPF, nQKRK, nBI = norms["PB"], norms["PF"], norms["QKRK"], norms["BI"]
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
        syn=syn,
    )


def admissible_lipschitz_cap(syn: Synthesis) -> float:
    """Largest self-consistent Lipschitz bound: the cap c* solving
    c = C_ell_max(c).

    C_ell_max is evaluated at the residual bound it constrains (the
    constants behind it depend on C_ell), so admissibility means
    C_ell < C_ell_max(C_ell); the map is decreasing, making the
    feasible set an interval [0, c*).
    """
    lo, hi = 0.0, theorem_constants(syn, 0.0, 0.0).C_ell_max
    if hi <= 0:
        return 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid < theorem_constants(syn, mid, 0.0).C_ell_max:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-10 * max(1.0, hi):
            break
    return lo


def predicted_envelope_prefactor(constants: TheoremConstants) -> Optional[float]:
    """(C_F + mu/gamma) / (1 - mu/gamma), or None when mu >= gamma."""
    if constants.mu >= constants.gamma:
        return None
    r = constants.mu / constants.gamma
    return (constants.C_F + r) / (1.0 - r)


def fit_stability_envelope(traj: Trajectory, predicted: TheoremConstants) -> Optional[bool]:
    """Whether ||x_t|| <= C_pred gamma^t ||x_0|| held at every recorded
    step, with C_pred = (C_F + mu/gamma) / (1 - mu/gamma).

    None when the prediction is unavailable (mu >= gamma).  A trajectory
    with fewer than two norms above 1e-12 sits at the origin to working
    precision and passes.  Raises ValueError unless ||x_0|| is positive
    and finite.
    """
    norms = traj.state_norms()
    x0n = norms[0]
    if not 0.0 < x0n < math.inf:
        raise ValueError(f"||x_0|| must be positive and finite, got {float(x0n)!r}")
    pred_C = predicted_envelope_prefactor(predicted)
    if pred_C is None:
        return None
    if np.count_nonzero(norms > 1e-12) < 2:
        return True
    bound = pred_C * predicted.gamma ** np.arange(norms.shape[0]) * x0n
    return bool(np.all(norms <= bound * (1.0 + 1e-9)))


def auxiliary_cost_closed_form(syn: Synthesis, disturbances, x0) -> float:
    """Infinite-horizon cost of the disturbance-aware optimal policy.

    x0'P x0 + 2 x0'F'V_0 + sum_t (w_t'P w_t + 2 w_t'F'V_{t+1}
    - V_t' B H^-1 B' V_t) with V_t = sum_{tau>=t} (F')^(tau-t) P w_tau.

    The per-step terms come from stacked ``np.matmul`` calls whose rows go
    through the BLAS routines of the one-step products, and are added in
    step order as Python floats.
    """
    w = [np.asarray(v, dtype=float) for v in disturbances]
    x0 = np.asarray(x0, dtype=float)
    P, F = syn.P, syn.F
    BHB = syn._hindsight_weight
    V = np.array(_eta_series(F, P, w) + [np.zeros(syn.n)])
    cost = float(x0 @ P @ x0 + 2.0 * x0 @ (F.T @ V[0]))
    if not w:
        return cost
    # rows as (1, n) and (n, 1) matrices: (1, n) @ (n, n) is the gemv and
    # (1, n) @ (n, 1) the ddot of the one-step ``w @ P @ w``
    W, Vt = np.array(w), V[:-1]
    FV = np.matmul(F.T, V[1:, :, None])
    terms = (
        np.matmul(np.matmul(W[:, None, :], P), W[:, :, None])
        + 2.0 * np.matmul(W[:, None, :], FV)
        - np.matmul(np.matmul(Vt[:, None, :], BHB), Vt[:, :, None])
    )
    for term in terms.reshape(-1).tolist():
        cost += term
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
    support, with no blow-up bound, and adds the exact LQR tail value;
    the result is verified against the independent closed form.  Raises ValueError, before any
    rollout, for a non-finite disturbance or ``x0`` entry.
    """
    w = [np.asarray(v, dtype=float) for v in disturbances]
    x0 = np.asarray(x0, dtype=float)
    if not (np.isfinite(x0).all() and all(np.isfinite(v).all() for v in w)):
        raise ValueError("disturbances and x0 must be finite")
    T = len(w)
    policy = auxiliary_optimal_policy(syn, w)
    residual = disturbance_residual(w) if T else zero_residual(syn.n)
    # no blow-up bound: only a non-finite state stops the rollout early
    traj = simulate(syn.model, residual, policy, x0, max(T, 1), blowup=math.inf)
    cost = total_cost_with_tail(traj, syn)
    closed = auxiliary_cost_closed_form(syn, w, x0)
    # written as `not ... <=` so that a NaN cost or closed form fails too
    if not abs(cost - closed) <= 1e-8 * max(1.0, abs(closed)):
        raise RuntimeError(
            f"optimal-cost cross-check failed: simulated {cost!r} vs closed form {closed!r}"
        )
    return cost


@dataclass
class TrajOptResult:
    """Shooting's best cost after each iteration, from the initial (LQR
    rollout) cost on; the other diagnostics derive from it."""

    cost_history: list

    @property
    def cost(self) -> float:
        """The best cost found."""
        return self.cost_history[-1]

    @property
    def initial_cost(self) -> float:
        """The cost of the LQR rollout that shooting starts from."""
        return self.cost_history[0]

    @property
    def improved(self) -> bool:
        return self.cost < self.initial_cost

    @property
    def iterations_run(self) -> int:
        return len(self.cost_history) - 1


# the fixed descent budget of opt_cost_trajopt
_TRAJOPT_ITERATIONS = 40


def opt_cost_trajopt(
    model: LinearModel,
    residual: ResidualModel,
    x0,
    T: int,
    *,
    syn: Synthesis,
) -> TrajOptResult:
    """Approximate offline-optimal cost by shooting on u_0..u_{T-1}.

    Finite-difference gradient descent with backtracking line search, for
    at most 40 iterations, from the T-step rollout of the LQR of ``syn``,
    run with no blow-up bound; the objective adds its value x_T'P x_T as
    terminal cost.  The returned best cost is monotone non-increasing
    across iterations and never exceeds the initial (LQR rollout) cost.
    Raises ValueError unless ``syn`` is the synthesis of ``model`` (equal
    A, B, Q and R), and :class:`DegenerateOPT` when the LQR rollout goes
    non-finite, since there is then no start to shoot from.

    The objective rolls a batch of action sequences at once, with the
    residual evaluated through :meth:`ResidualModel.batch`.  Every point
    (the initial one and each line-search candidate) is evaluated
    together with its 2·T·m central-difference probes
    (u ± h_j e_j, h_j = 1e-6 max(1, |u_j|)) as one batch, and the probes
    are differenced into the next gradient only once the point is
    accepted.  A sequence whose state goes non-finite costs inf.
    """
    if not all(np.array_equal(getattr(syn.model, k), getattr(model, k)) for k in "ABQR"):
        raise ValueError("syn must be the synthesis of model: their A, B, Q or R differ")
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

    traj = simulate(model, residual, lqr_policy(syn), x0, T, blowup=math.inf)
    if traj.diverged:
        raise DegenerateOPT(f"the LQR start rollout went non-finite at step {traj.horizon} of {T}")
    u = traj.actions.reshape(-1)
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
    history = [best]
    for _ in range(_TRAJOPT_ITERATIONS):
        costs, h = probed
        grad = (costs[:D] - costs[D:]) / (2.0 * h)
        gnorm = np.linalg.norm(grad)
        if gnorm < 1e-14:
            break
        step = 1.0 / (1.0 + gnorm)
        for _ in range(40):
            cand = u - step * grad
            c, cand_probed = with_probes(cand)
            if c < best - 1e-12 * max(1.0, abs(best)):
                u, best, probed = cand, c, cand_probed
                history.append(best)
                break
            step *= 0.5
        else:  # 40 halvings found no decrease
            history.append(best)
            break
    return TrajOptResult(cost_history=history)


def competitive_ratio(alg_traj: Trajectory, opt_cost: float, syn: Synthesis) -> float:
    """ALG / OPT: the algorithm's cost over an offline-optimal reference cost.

    The algorithm cost includes the exact LQR tail value at the terminal
    state, matching how the exact OPT is accounted.  Raises
    :class:`DegenerateOPT` unless 1e-15 < opt_cost < inf.
    """
    if not 1e-15 < opt_cost < math.inf:
        raise DegenerateOPT(f"optimal cost {opt_cost!r} is numerically zero or not finite")
    return float(total_cost_with_tail(alg_traj, syn) / opt_cost)


@dataclass(frozen=True)
class BoundCheck:
    """A measured competitive ratio and the three terms of its bound."""

    ratio: float
    model_term: float
    error_term: float
    nonlinear_term: float

    @property
    def bound(self) -> float:
        return self.model_term + self.error_term + self.nonlinear_term

    @property
    def satisfied(self) -> bool:
        return self.ratio <= self.bound


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
) -> BoundCheck:
    """Check the measured competitive ratio against the structural guarantee bound

        (1 - lambda) CR_model_bar + c2 / (1 - (2||H||/sigma) eps)
        + c3 C_ell ||x0||

    at the absorbed constants c2 = :func:`default_c2` and c3 = 1.  They
    are fixed until a calibration run computes them and passes them in.
    Raises :class:`PreconditionViolated` outside the guarantee's
    hypotheses.
    """
    violations = constants.violations()
    if violations:
        raise PreconditionViolated(violations)
    model_term = (1.0 - lambda_limit) * constants.CR_model_bar
    denom = 1.0 - (2.0 * constants.norm_H / constants.sigma) * constants.epsilon
    error_term = default_c2(constants) / denom
    nonlinear_term = constants.C_ell * x0_norm
    return BoundCheck(
        ratio=float(ratio),
        model_term=float(model_term),
        error_term=float(error_term),
        nonlinear_term=float(nonlinear_term),
    )
