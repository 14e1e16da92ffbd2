"""Rollouts of x_{t+1} = A x_t + B u_t + f_t(x_t, u_t) with quadratic cost.

The residual f_t is a pluggable callable.  Simulation is deterministic,
records everything needed to replay the recursion exactly, and flags
blow-ups instead of raising (instability is a measured outcome in
several experiments).
"""

from __future__ import annotations

import csv
import math
import sys
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .linalg_control import LinearModel

__all__ = [
    "ResidualModel",
    "Trajectory",
    "simulate",
    "estimate_lipschitz",
    "zero_residual",
    "disturbance_residual",
    "lipschitz_residual",
    "write_trajectory_csv",
]


_F64 = np.dtype(np.float64)


def _vector(v, size: Optional[int], what: str) -> np.ndarray:
    """``v``, a vector that a caller's policy or residual returned, as a
    float64 1-d array; ValueError naming ``what`` unless it has ``size``
    entries (any number when ``size`` is None)."""
    # the native float64 dtype is a singleton; any other dtype is coerced
    if type(v) is not np.ndarray or v.dtype is not _F64 or v.ndim != 1:
        v = np.asarray(v, dtype=float).reshape(-1)
    if size is not None and v.shape[0] != size:
        raise ValueError(f"{what} returned dimension {v.shape[0]}, expected {size}")
    return v


@dataclass(frozen=True)
class ResidualModel:
    """The unknown nonlinearity, evaluated as f(t, x, u) -> state vector.

    ``eval`` gets x and u as float64 1-d arrays of sizes n and m, as
    :func:`simulate` passes them; it may return any array-like of n
    entries, which its readers coerce and size-check.

    Its Lipschitz bound C_ell is a hypothesis of the guarantees, passed to
    them explicitly; :func:`estimate_lipschitz` measures a residual's
    constant by sampling.

    ``eval_batch(t, X, U)`` is an optional row-wise form of ``eval`` on
    stacked states X [N, n] and actions U [N, m], returning [N, n].
    :meth:`batch` uses it when present and otherwise stacks row-wise
    ``eval`` calls, so every residual works through ``batch``.
    """

    eval: Callable[[int, np.ndarray, np.ndarray], np.ndarray]
    eval_batch: Optional[Callable[[int, np.ndarray, np.ndarray], np.ndarray]] = None

    def batch(self, t: int, X: np.ndarray, U: np.ndarray) -> np.ndarray:
        """f(t, X[k], U[k]) for every row k, as an [N, n] array; ValueError
        naming the residual for a result of any other shape."""
        n = X.shape[1]
        if self.eval_batch is None:
            rows = [_vector(self.eval(t, x, u), n, "residual") for x, u in zip(X, U)]
            return np.array(rows, dtype=float).reshape(X.shape)
        F = np.asarray(self.eval_batch(t, X, U), dtype=float)
        if F.shape != X.shape:
            raise ValueError(f"residual batch returned shape {F.shape}, expected {X.shape}")
        return F


def zero_residual(n: int) -> ResidualModel:
    z = np.zeros(n)

    def f(t, x, u):
        return z

    def f_batch(t, X, U):
        return np.zeros((X.shape[0], n))

    return ResidualModel(eval=f, eval_batch=f_batch)


def disturbance_residual(w: Sequence[np.ndarray]) -> ResidualModel:
    """Time-only residual returning w_t while t < len(w) and 0 after."""
    w = [np.asarray(v, dtype=float) for v in w]
    n = w[0].shape[0] if w else 0
    z = np.zeros(n)

    def f(t, x, u):
        return w[t] if 0 <= t < len(w) else z

    def f_batch(t, X, U):
        return np.tile(w[t] if 0 <= t < len(w) else z, (X.shape[0], 1))

    return ResidualModel(eval=f, eval_batch=f_batch)


def lipschitz_residual(
    n: int,
    m: int,
    constant: float,
    seed: int = 0,
) -> ResidualModel:
    """Smooth synthetic state-action residual with a known Lipschitz bound.

    f(x, u) = constant * G tanh(J [x; u]) with
    ||G||_2 = ||J||_2 = 1, so the Jacobian norm never exceeds ``constant``
    and f(0, 0) = 0.  ``constant`` must be finite and nonnegative.
    """
    if not 0 <= constant < math.inf:
        raise ValueError(f"Lipschitz constant must be finite and nonnegative, got {constant!r}")
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((n, n))
    G /= np.linalg.norm(G, 2)
    J = rng.standard_normal((n, n + m))
    J /= np.linalg.norm(J, 2)

    def f(t, x, u):
        z = np.concatenate([x, u])
        return constant * (G @ np.tanh(J @ z))

    def f_batch(t, X, U):
        Z = np.concatenate([X, U], axis=1)
        return constant * (np.tanh(Z @ J.T) @ G.T)

    return ResidualModel(eval=f, eval_batch=f_batch)


@dataclass(eq=False)
class Trajectory:
    """Recorded rollout: states x_0..x_T, actions u_0..u_{T-1}, realized
    residuals and per-step quadratic costs.

    ``diverged`` marks a rollout that exceeded the blow-up bound at its
    last recorded step; the recorded prefix is still valid and replayable.
    """

    states: np.ndarray
    actions: np.ndarray
    residuals: np.ndarray
    step_costs: np.ndarray
    diverged: bool = False

    @property
    def horizon(self) -> int:
        return self.actions.shape[0]

    @property
    def total_cost(self) -> float:
        """The sum of the per-step costs."""
        return float(np.sum(self.step_costs))

    @property
    def diverged_at(self) -> Optional[int]:
        """The step whose state crossed the blow-up bound, or None."""
        return self.horizon if self.diverged else None

    def state_norms(self) -> np.ndarray:
        return np.linalg.norm(self.states, axis=1)


def _stage_costs(X: np.ndarray, U: np.ndarray, Q: np.ndarray, R: np.ndarray) -> np.ndarray:
    """x'Q x + u'R u for every row pair of X [N, n] and U [N, m], each row
    with the bits of ``float(x.dot(Q).dot(x) + u.dot(R).dot(u))``.

    Rows as (1, n) and (n, 1) matrices: (1, n) @ (n, n) is the gemv and
    (1, n) @ (n, 1) the ddot of the one-step form, and an overflow warns
    as it does there."""
    xQx = np.matmul(np.matmul(X[:, None, :], Q), X[:, :, None])
    uRu = np.matmul(np.matmul(U[:, None, :], R), U[:, :, None])
    return (xQx + uRu).reshape(-1)


def simulate(
    model: LinearModel,
    residual: ResidualModel,
    policy,
    x0,
    T: int,
    blowup: float = 1e9,
) -> Trajectory:
    """Roll the plant forward T steps under ``policy``.

    The bare linear plant takes :func:`zero_residual`.  The policy is
    queried exactly once per step in time order.  If some ||x_t||
    exceeds ``blowup`` (or goes non-finite) the rollout stops and the
    partial trajectory is returned with ``diverged`` set.  A non-finite
    ``x0`` raises ValueError, as does a policy action without m entries
    or a residual without n.

    The per-step loop holds only what feeds back into the dynamics: the
    action, the residual, x_{t+1} = A x_t + B u_t + f_t (with the
    operations of the replay check in ``tests/test_plant.py``, in the
    same order, so a rollout replays without defect; ``ndarray.dot``
    stands in for ``@`` only for its lower call overhead) and the
    blow-up test.  The stage costs x_t'Q x_t + u_t'R u_t do not feed
    back, so they are computed once, after the loop, for all recorded
    steps in one stacked ``np.matmul``: per row a (1, n) @ (n, n)
    product is the same BLAS gemv and a (1, n) @ (n, 1) product the same
    ddot as ``x.dot(Q).dot(x)``, so every cost has the bits of the
    per-step form.  The records are preallocated for the full horizon
    and trimmed when the rollout stops early.
    """
    if T < 1:
        raise ValueError("horizon T must be >= 1")
    x = np.asarray(x0, dtype=float).reshape(-1)
    n, m = model.n, model.m
    if x.shape[0] != n:
        raise ValueError(f"x0 has dimension {x.shape[0]}, expected {n}")
    if not np.isfinite(x).all():
        raise ValueError(f"x0 must be finite, got {x}")
    A, B, Q, R = model.A, model.B, model.Q, model.R
    act = policy.act
    f_eval = residual.eval
    # an infinite (or NaN) bound still stops the rollout on non-finite states
    limit = blowup if blowup < math.inf else sys.float_info.max
    states = np.empty((T + 1, n))
    actions = np.empty((T, m))
    residuals = np.empty((T, n))
    states[0] = x
    steps = T
    diverged = False
    ndarray = np.ndarray
    for t in range(T):
        # _vector's check inline: a float64 vector of the right size passes as is
        u = act(t, x)
        if type(u) is not ndarray or u.dtype is not _F64 or u.shape != (m,):
            u = _vector(u, m, "policy")
        f = f_eval(t, x, u)
        if type(f) is not ndarray or f.dtype is not _F64 or f.shape != (n,):
            f = _vector(f, n, "residual")
        x = A.dot(x) + B.dot(u) + f
        actions[t] = u
        residuals[t] = f
        states[t + 1] = x
        # the same value as np.linalg.norm(x)
        if not (math.sqrt(x.dot(x)) <= limit):
            diverged = True
            steps = t + 1
            break
    if steps < T:
        states = states[: steps + 1].copy()
        actions = actions[:steps].copy()
        residuals = residuals[:steps].copy()
    return Trajectory(
        states=states,
        actions=actions,
        residuals=residuals,
        step_costs=_stage_costs(states[:-1], actions, Q, R),
        diverged=diverged,
    )


def estimate_lipschitz(
    residual: ResidualModel,
    samples: int,
    radius: float,
    rng_seed: int,
    n: int,
    m: int,
) -> float:
    """Sampled lower bound of the Lipschitz constant of f(0, ., .).

    Draws ``samples`` pairs (z1, z2) of joint (x, u) points in the box
    |z_i| <= radius (whose corners reach 2-norm radius * sqrt(n + m)) and
    returns the largest difference ratio.  Every pair is evaluated in one
    :meth:`ResidualModel.batch` call.  Deterministic given the seed.
    """
    if samples < 2:
        raise ValueError("need at least 2 samples")
    rng = np.random.default_rng(rng_seed)
    Z1 = np.empty((samples, n + m))
    Z2 = np.empty((samples, n + m))
    for k in range(samples):
        Z1[k] = rng.uniform(-radius, radius, size=n + m)
        if k % 2 == 0:
            Z2[k] = rng.uniform(-radius, radius, size=n + m)
        else:
            # coordinate-aligned probe: exact difference ratios for maps
            # that depend on a subset of coordinates
            Z2[k] = Z1[k]
            j = int(rng.integers(0, n + m))
            Z2[k, j] += rng.uniform(1e-4, 1e-2) * radius
    dz = np.linalg.norm(Z1 - Z2, axis=1)
    keep = dz >= 1e-12
    if not keep.any():
        return 0.0
    # both points of every kept pair in one batch: first points, then second
    Z = np.concatenate([Z1[keep], Z2[keep]])
    F = residual.batch(0, Z[:, :n], Z[:, n:])
    half = F.shape[0] // 2
    ratios = np.linalg.norm(F[:half] - F[half:], axis=1) / dz[keep]
    # fmax skips NaN ratios, as the comparison of a per-pair loop would
    return float(np.fmax.reduce(ratios, initial=0.0))


def _fmt(v) -> str:
    """One CSV field: floats at full precision (``repr``), bools as
    True/False, NumPy scalars as the Python values they hold."""
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, (bool, np.bool_)):
        return str(bool(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return str(v)


def write_csv(path, header, rows) -> None:
    """Write ``header`` and ``rows`` as CSV, each field through :func:`_fmt`."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Write a trajectory as CSV: t, x_0..x_{n-1}, u_0..u_{m-1}, step_cost.

    One row per step; the final row carries the terminal state with
    empty action and cost fields.
    """
    n = traj.states.shape[1]
    m = traj.actions.shape[1] if traj.actions.size else 0
    header = (
        ["t"]
        + [f"x_{i}" for i in range(n)]
        + [f"u_{j}" for j in range(m)]
        + ["step_cost"]
    )
    rows = [
        [t, *traj.states[t], *traj.actions[t], traj.step_costs[t]]
        for t in range(traj.horizon)
    ]
    rows.append([traj.horizon, *traj.states[-1]] + [""] * (m + 1))
    write_csv(path, header, rows)
