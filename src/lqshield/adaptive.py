"""The adaptive confidence-weighted blend of a black box with LQR advice.

At every step the policy emits u_t = lambda_t * blackbox(x_t) +
(1 - lambda_t) * advice(x_t) with a confidence weight lambda_t that
starts at 1, never increases, and drops to 0 once the learned (or
externally supplied) coefficient stops supporting the black box.  Zero
is absorbing: from then on the action is the advice alone, and neither
the black box nor the coefficient is computed again.

The learned coefficient is a ratio of inner products between the
residual series observed on the crude model and the black box's offset
from the LQR action; :class:`AdaptivePolicy` maintains it incrementally
in O(n^2) per step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .errors import NotRun
from .linalg_control import Synthesis, _eta_series, _hindsight_weight
from .plant import _vector
from .policies import Policy

__all__ = [
    "ConfidenceState",
    "optimal_lambda",
    "AdaptivePolicy",
]

_DENOM_FLOOR = 1e-12


@dataclass(frozen=True)
class ConfidenceState:
    """Recorded lambda trajectory of one adaptive-policy run."""

    lambdas: tuple
    t0: Optional[int]
    lambda_prime_raw: tuple = ()
    branches: tuple = ()


def _learned_weight(syn: Synthesis) -> np.ndarray:
    """(B H^-1)^+ B, the m x m weight of the learned rule's denominator."""
    B = syn.model.B
    return np.linalg.pinv(B @ np.linalg.inv(syn.H)) @ B


def optimal_lambda(
    syn: Synthesis,
    f_star: Sequence[np.ndarray],
    f_hat: Sequence[np.ndarray],
    t: int,
) -> float:
    """Hindsight-optimal confidence weight from known residual sequences.

    With eta(f; s, t) = sum_{tau=s}^{t} (F')^(tau-s) P f_tau:

        sum_s eta(f*; s, t)' B H^-1 B' eta(fhat; s, t)
        ----------------------------------------------
        sum_s eta(fhat; s, t)' B H^-1 B' eta(fhat; s, t)

    Returns 0 when the denominator is numerically zero.
    """
    if t < 0 or len(f_star) < t + 1 or len(f_hat) < t + 1:
        raise ValueError("residual sequences must cover indices 0..t")
    F, P = syn.F, syn.P
    W = _hindsight_weight(syn)
    num = 0.0
    den = 0.0
    for eta_star, eta_hat in zip(
        _eta_series(F, P, f_star[: t + 1]), _eta_series(F, P, f_hat[: t + 1])
    ):
        num += float(eta_star @ (W @ eta_hat))
        den += float(eta_hat @ (W @ eta_hat))
    if abs(den) < _DENOM_FLOOR:
        return 0.0
    return num / den


class AdaptivePolicy:
    """Stateful policy implementing the confidence-decay rule.

    lambda_0 = 1.  At t >= 1, when ||x_t|| is zero the previous weight
    is kept; otherwise a coefficient lambda' is obtained (learned from
    the states and actions seen so far, or read from an external
    function of t), clamped to [0, 1], and

        lambda_t = min(lambda', lambda_{t-1} - alpha)   if lambda' > 0
                                                        and lambda_{t-1} > alpha
        lambda_t = 0                                    otherwise.

    The action is lambda_t uhat_t + (1 - lambda_t) ubar_t, and the advice
    ubar_t alone once lambda_t = 0: the black box is not queried.  Zero
    is absorbing, so after the first step with lambda_t = 0 no coefficient
    is computed (``lambda_prime_raw`` is NaN) and the branch is
    ``zero_state`` at a zero state, else ``cutoff``.

    In learned mode, with states x_0..x_t, applied actions u_s and the
    black box's suggestions uhat_s, lambda' at t >= 2 is num / den with

        num = sum_{s=1}^{t-1} (sum_{tau=s}^{t-1} (F')^(tau-s) P
              (A x_tau + B u_tau - x_{tau+1}))' B (uhat_s + K x_s)
        den = sum_{s=0}^{t-1} (uhat_s + K x_s)' (B H^-1)^+ B
              (uhat_s + K x_s)

    or 0 when den is numerically zero (the black box agrees with the LQR
    everywhere, so there is no signal).  The asymmetric index start
    (numerator from s = 1, denominator from s = 0) is deliberate.  The
    first update is held until two steps have been seen.  The policy
    keeps only the running sums and the previous step's terms; the
    unclamped coefficient of step t is ``trace().lambda_prime_raw[t]``.
    One instance drives one simulation.
    """

    def __init__(
        self,
        syn: Synthesis,
        blackbox: Policy,
        advice: Policy,
        alpha: float,
        lambda_source: Union[str, Callable[[int], float]] = "learned",
    ):
        if not alpha > 0:
            raise ValueError("step size alpha must be positive")
        self.syn = syn
        self.blackbox = blackbox
        self.advice = advice
        self.alpha = float(alpha)
        self._m = syn.m
        if callable(lambda_source):
            self._external = lambda_source
        elif lambda_source == "learned":
            self._external = None
        else:
            raise ValueError("lambda_source must be 'learned' or a callable")
        self._lambdas: list[float] = []
        self._raw: list[float] = []
        self._branches: list[str] = []
        self._t0: Optional[int] = None
        # incremental learned-rule state
        self._A, self._B = syn.model.A, syn.model.B
        self._P, self._F, self._K = syn.P, syn.F, syn.K
        self._M = _learned_weight(syn)
        self._c = np.zeros(syn.n)
        self._num = 0.0
        self._den = 0.0
        # of the previous step: the model's prediction A x + B u, v = u_hat + K x, and B v
        self._prev_pred: Optional[np.ndarray] = None
        self._prev_v: Optional[np.ndarray] = None
        self._prev_b: Optional[np.ndarray] = None

    def _learned_raw(self, t: int, x: np.ndarray) -> Optional[float]:
        """Advance the incremental sums with the newly observed x_t and
        return the current coefficient (None while history is too short)."""
        r_prev = self._prev_pred - x
        # the numerator sums from s = 1, the denominator from s = 0
        self._c = self._F.dot(self._c) + (self._prev_b if t >= 2 else 0.0)
        self._num += float(r_prev.dot(self._P.dot(self._c)))
        v = self._prev_v
        self._den += float(v.dot(self._M.dot(v)))
        if t < 2:
            return None
        if abs(self._den) < _DENOM_FLOOR:
            return 0.0
        return self._num / self._den

    def act(self, t: int, x: np.ndarray) -> np.ndarray:
        if t != len(self._lambdas):
            raise ValueError(
                f"adaptive policy must be stepped in order; expected t={len(self._lambdas)}, got {t}"
            )
        learned = self._external is None
        raw = float("nan")
        zero_state = math.sqrt(x.dot(x)) <= 0.0  # == np.linalg.norm(x)
        if t == 0:
            lam = 1.0
            branch = "init"
        elif self._lambdas[-1] == 0.0:
            lam = 0.0
            branch = "zero_state" if zero_state else "cutoff"
        else:
            # the learned sums advance at a zero state too, so later
            # updates see all data; the external rule is not asked there
            if learned:
                coeff = self._learned_raw(t, x)
            else:
                coeff = None if zero_state else float(self._external(t))
            if coeff is not None:
                raw = coeff
            prev = self._lambdas[-1]
            if zero_state or coeff is None:
                lam = prev
                branch = "zero_state" if zero_state else "hold"
            else:
                clipped = min(max(raw, 0.0), 1.0)
                if clipped > 0.0 and prev > self.alpha:
                    lam = min(clipped, prev - self.alpha)
                    branch = "decrease"
                else:
                    lam = 0.0
                    branch = "cutoff"
        self._lambdas.append(lam)
        self._raw.append(raw)
        self._branches.append(branch)
        if self._t0 is None and (lam == 0.0 or zero_state):
            self._t0 = t
        u_bar = _vector(self.advice.act(t, x), self._m, "advice")
        if lam == 0.0:
            return u_bar
        u_hat = _vector(self.blackbox.act(t, x), self._m, "black box")
        u = lam * u_hat + (1.0 - lam) * u_bar
        if learned:
            self._prev_pred = self._A.dot(x) + self._B.dot(u)
            self._prev_v = u_hat + self._K.dot(x)
            self._prev_b = self._B.dot(self._prev_v)
        return u

    @property
    def lambdas(self) -> list[float]:
        return list(self._lambdas)

    def trace(self) -> ConfidenceState:
        if not self._lambdas:
            raise NotRun("adaptive policy has not been stepped yet")
        return ConfidenceState(
            lambdas=tuple(self._lambdas),
            t0=self._t0,
            lambda_prime_raw=tuple(self._raw),
            branches=tuple(self._branches),
        )

