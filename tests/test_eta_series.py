"""The one eta-series pass against the per-call forms it replaced.

eta(f; s) = sum_{tau>=s} (F')^(tau-s) P f_tau feeds the optimal
feedforward, the offline-OPT closed form and the hindsight lambda*, and
the learned lambda' sums the same series.  Each used to compute it on its
own; the learned and hindsight rules re-summed the whole tail for every s.
The pre-change code is copied below as the reference, and every consumer
must return exactly (``==``) what its copy returns.  The adaptive policy
keeps lambda' as running sums, so its trace is held to the batch copy of
the learned rule within a tolerance instead.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lqshield as lq
from lqshield.environments import ChargingConfig, ev_environment
from lqshield.linalg_control import _eta_series
from lqshield.policies import _feedforward_terms

from conftest import random_stabilizable

_DENOM_FLOOR = 1e-12


# -- reference copies of the pre-change code ---------------------------------


def _ref_matrix_power_series(F, P, seq, s, t):
    Ft = np.asarray(F, dtype=float).T
    P = np.asarray(P, dtype=float)
    acc = P @ np.asarray(seq[t], dtype=float)
    for tau in range(t - 1, s - 1, -1):
        acc = P @ np.asarray(seq[tau], dtype=float) + Ft @ acc
    return acc


def _ref_feedforward_terms(syn, seq):
    P, F, B, H = syn.P, syn.F, syn.model.B, syn.H
    L = len(seq)
    g = [np.zeros(syn.m)] * L
    eta = np.zeros(syn.n)
    for t in range(L - 1, -1, -1):
        eta = P @ np.asarray(seq[t], dtype=float) + F.T @ eta
        g[t] = -np.linalg.solve(H, B.T @ eta)
    return g


def _ref_closed_form(syn, disturbances, x0):
    w = [np.asarray(v, dtype=float) for v in disturbances]
    x0 = np.asarray(x0, dtype=float)
    P, F, H = syn.P, syn.F, syn.H
    B = syn.model.B
    T = len(w)
    BHB = B @ np.linalg.solve(H, B.T)
    V = [np.zeros(syn.n)] * (T + 1)
    for t in range(T - 1, -1, -1):
        V[t] = P @ w[t] + F.T @ V[t + 1]
    cost = float(x0 @ P @ x0 + 2.0 * x0 @ (F.T @ V[0]))
    for t in range(T):
        cost += float(w[t] @ P @ w[t] + 2.0 * w[t] @ (F.T @ V[t + 1]) - V[t] @ BHB @ V[t])
    return cost


def _ref_learn_lambda_prime(syn, states, actions, blackbox_actions, numerator_start=1):
    """The learned rule in batch form on states x_0..x_t, actions
    u_0..u_{t-1} and the black box's suggestions at x_0..x_{t-1}."""
    t = len(actions)
    A, B = syn.model.A, syn.model.B
    P, K, F, H = syn.P, syn.K, syn.F, syn.H
    M = np.linalg.pinv(B @ np.linalg.inv(H)) @ B
    resid = [A @ states[tau] + B @ actions[tau] - states[tau + 1] for tau in range(t)]
    num = 0.0
    for s in range(numerator_start, t):
        eta = _ref_matrix_power_series(F, P, resid, s, t - 1)
        v = blackbox_actions[s] + K @ states[s]
        num += float(eta @ (B @ v))
    den = 0.0
    for s in range(t):
        v = blackbox_actions[s] + K @ states[s]
        den += float(v @ (M @ v))
    if abs(den) < _DENOM_FLOOR:
        return 0.0
    return num / den


def _ref_optimal_lambda(syn, f_star, f_hat, t):
    F, P, B = syn.F, syn.P, syn.model.B
    W = B @ np.linalg.solve(syn.H, B.T)
    num = 0.0
    den = 0.0
    for s in range(t + 1):
        eta_star = _ref_matrix_power_series(F, P, f_star, s, t)
        eta_hat = _ref_matrix_power_series(F, P, f_hat, s, t)
        num += float(eta_star @ (W @ eta_hat))
        den += float(eta_hat @ (W @ eta_hat))
    if abs(den) < _DENOM_FLOOR:
        return 0.0
    return num / den


# -- inputs ------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _fixed_syn(name):
    if name == "ev":  # the 5-station charging model, 5x5
        return lq.synthesize(ev_environment(ChargingConfig(), []).model)
    A = np.array([[0.55, 0.25], [0.0, 0.45]])
    return lq.synthesize(lq.LinearModel(A=A, B=np.eye(2), Q=np.eye(2), R=np.eye(2)))


def _syn(system, rng):
    if system == "random":
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, n + 1))
        return lq.synthesize(random_stabilizable(rng, n, m))
    return _fixed_syn(system)


def _sequence(kind, rng, dim, low=1):
    """A vector sequence: "random" of length low..20, "L1" of the shortest
    length allowed, "zeros" of signed zeros."""
    L = low if kind == "L1" else int(rng.integers(low, 21))
    if kind == "zeros":
        return [np.zeros(dim) * rng.choice([-1.0, 1.0], dim) for _ in range(L)]
    return [rng.standard_normal(dim) * rng.choice([1e-3, 1.0, 1e3]) for _ in range(L)]


SEEDS = st.integers(0, 2**32 - 1)
SYSTEMS = st.sampled_from(["random", "bench2", "ev"])
KINDS = st.sampled_from(["random", "L1", "zeros"])


# -- the consumers against their copies --------------------------------------


@settings(max_examples=60, deadline=None, derandomize=True)
@given(SEEDS, st.sampled_from(["raw", "random", "bench2", "ev"]), KINDS)
def test_matrix_power_series_matches_per_call_form(seed, system, kind):
    rng = np.random.default_rng(seed)
    if system == "raw":
        n = int(rng.integers(1, 6))
        F, P = 0.8 * rng.standard_normal((n, n)), rng.standard_normal((n, n))
    else:
        syn = _syn(system, rng)
        F, P = syn.F, syn.P
    seq = _sequence(kind, rng, F.shape[0])
    for t in range(len(seq)):
        for s in range(t + 1):
            assert np.array_equal(
                _eta_series(F, P, seq[s : t + 1])[0],
                _ref_matrix_power_series(F, P, seq, s, t),
            )


@settings(max_examples=40, deadline=None, derandomize=True)
@given(SEEDS, SYSTEMS, st.sampled_from(["random", "L1", "zeros", "empty"]))
def test_feedforward_and_closed_form_match_backward_loops(seed, system, kind):
    rng = np.random.default_rng(seed)
    syn = _syn(system, rng)
    seq = [] if kind == "empty" else _sequence(kind, rng, syn.n)
    g, ref = _feedforward_terms(syn, seq), _ref_feedforward_terms(syn, seq)
    assert len(g) == len(ref)
    assert all(np.array_equal(a, b) for a, b in zip(g, ref))
    x0 = rng.standard_normal(syn.n)
    assert lq.auxiliary_cost_closed_form(syn, seq, x0) == _ref_closed_form(syn, seq, x0)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(SEEDS, SYSTEMS, KINDS)
def test_learn_lambda_prime_matches_per_s_series(seed, system, kind):
    rng = np.random.default_rng(seed)
    syn = _syn(system, rng)
    # "zeros" lands every state on the model's prediction: zero residuals
    w = _sequence(kind, rng, syn.n, low=3)
    suggestions = [rng.standard_normal(syn.m) for _ in w]
    bb = lq.Policy(lambda t, x: suggestions[t])
    pol = lq.AdaptivePolicy(syn, bb, lq.lqr_policy(syn), 0.01, "learned")
    x0 = rng.standard_normal(syn.n)
    traj = lq.simulate(syn.model, lq.disturbance_residual(w), pol, x0, len(w))
    raws = pol.trace().lambda_prime_raw
    for t in range(2, len(raws)):
        states, actions = traj.states[: t + 1], traj.actions[:t]
        direct = _ref_learn_lambda_prime(syn, states, actions, suggestions[:t])
        assert raws[t] == pytest.approx(direct, rel=1e-8, abs=1e-10)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(SEEDS, SYSTEMS, KINDS, KINDS)
def test_optimal_lambda_matches_per_s_series(seed, system, kind_star, kind_hat):
    rng = np.random.default_rng(seed)
    syn = _syn(system, rng)
    f_star = _sequence(kind_star, rng, syn.n)
    f_hat = _sequence(kind_hat, rng, syn.n)
    # both sequences cover 0..t and may run past it
    t = int(rng.integers(0, min(len(f_star), len(f_hat))))
    assert lq.optimal_lambda(syn, f_star, f_hat, t) == _ref_optimal_lambda(
        syn, f_star, f_hat, t
    )
