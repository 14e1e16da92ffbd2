"""Concrete controllers: LQR advice, synthetic black boxes, and blends.

A policy is anything with ``act(t, x) -> u``.  Stateless policies are
plain closures wrapped in :class:`Policy`; the stateful adaptive policy
lives in :mod:`lqshield.adaptive`.

The synthetic black-box families stand in for pre-trained agents:

- consistency-bounded perturbations of a reference policy (the error
  never exceeds ``epsilon * ||x||`` by construction),
- linearly parameterized feedforward policies built from residual
  estimates,
- plain (possibly destabilizing) state-feedback gains.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .linalg_control import Synthesis, _eta_series

__all__ = [
    "Policy",
    "lqr_policy",
    "gain_policy",
    "auxiliary_optimal_policy",
    "parameterized_blackbox",
    "epsilon_consistent_blackbox",
    "naive_convex_policy",
    "measure_epsilon",
    "saturated",
    "nonnegative",
    "gaussian_state_sampler",
]


@dataclass
class Policy:
    act: Callable[[int, np.ndarray], np.ndarray]


def lqr_policy(syn: Synthesis) -> Policy:
    """The model-based advice u = -K x."""
    return gain_policy(syn.K)


def gain_policy(K: np.ndarray) -> Policy:
    """Plain state feedback u = -K x for an arbitrary gain."""
    neg_K = -np.asarray(K, dtype=float)

    def act(t, x):
        return neg_K.dot(x)

    return Policy(act=act)


def _feedforward_terms(syn: Synthesis, seq: Sequence[np.ndarray]) -> list[np.ndarray]:
    """g_t = -H^-1 B' sum_{tau=t} (F')^(tau-t) P seq_tau."""
    B, H = syn.model.B, syn.H
    return [-np.linalg.solve(H, B.T @ eta) for eta in _eta_series(syn.F, syn.P, seq)]


def parameterized_blackbox(syn: Synthesis, f_hat: Sequence[np.ndarray]) -> Policy:
    """Linearly parameterized policy from residual estimates f_hat.

    u_t = -K x - H^-1 B' sum_{tau>=t} (F')^(tau-t) P f_hat_tau, with the
    estimate sequence treated as zero past its end.  With estimates equal
    to the realized time-only disturbances this is the exact offline
    optimum (see :func:`auxiliary_optimal_policy`).
    """
    neg_K = -syn.K
    g = _feedforward_terms(syn, f_hat)
    L = len(g)
    zero = np.zeros(syn.m)

    def act(t, x):
        ff = g[t] if 0 <= t < L else zero
        return neg_K.dot(x) + ff

    return Policy(act=act)


def auxiliary_optimal_policy(syn: Synthesis, disturbances: Sequence[np.ndarray]) -> Policy:
    """Exact optimal policy for the plant with known additive disturbances.

    u_t = -H^-1 B' (P A x_t + sum_{tau=t}^{T} (F')^(tau-t) P w_tau); the
    tail past the sequence end is treated as zero.
    """
    return parameterized_blackbox(syn, disturbances)


def naive_convex_policy(black: Policy, advice: Policy, lambda_fixed: float) -> Policy:
    """Pointwise convex combination lambda * black + (1 - lambda) * advice."""
    if not 0.0 <= lambda_fixed <= 1.0:
        raise ValueError("lambda_fixed must lie in [0, 1]")
    lam = float(lambda_fixed)

    def act(t, x):
        return lam * np.asarray(black.act(t, x), float) + (1.0 - lam) * np.asarray(
            advice.act(t, x), float
        )

    return Policy(act=act)


def _hashed_unit_vector(seed: int, x: np.ndarray, m: int) -> np.ndarray:
    """Deterministic unit vector from a seeded hash of quantized coordinates.

    Same (seed, x-up-to-1e-9) always yields the same direction, so the
    perturbed policy is a function of the state, not a random process.
    Raises ValueError for a state whose quantized coordinates do not fit
    in int64 (non-finite, or any |x_i| >= 2**63 / 1e9, about 9.2e9).
    """
    x = np.asarray(x, float)
    vals = (x * 1e9).tolist()
    if not all(abs(v) < 2.0**63 for v in vals):
        raise ValueError(
            f"cannot hash state with max |x_i| = {float(np.max(np.abs(x)))!r}: "
            "coordinates must be finite and below 2**63 / 1e9 in magnitude"
        )
    # round() is round-half-even, as np.round is; "<q" is little-endian int64
    q = struct.pack(f"<{len(vals)}q", *map(round, vals))
    digest = hashlib.blake2b(
        q + int(seed).to_bytes(8, "little", signed=True), digest_size=16
    ).digest()
    # the PCG64 state and draws of default_rng(int.from_bytes(digest, "little")):
    # SeedSequence pads short integer entropy with zero words.  numpy.random
    # is looked up here, not imported with the package, which would raise
    # the peak memory of every run by about 0.5 MB.
    rnd = np.random
    sub = rnd.Generator(rnd.PCG64(rnd.SeedSequence(np.frombuffer(digest, "<u4"))))
    d = sub.standard_normal(m)
    norm = math.sqrt(d.dot(d))  # == np.linalg.norm(d)
    if norm < 1e-12:
        d = np.zeros(m)
        d[0] = 1.0
        return d
    return d / norm


def epsilon_consistent_blackbox(
    optimal: Policy,
    epsilon: float,
    bias_mode: str = "rotation",
    rng_seed: int = 0,
) -> Policy:
    """A black box within consistency error ``epsilon`` of ``optimal``.

    Returns x -> optimal(x) + e(x) with e(x) = epsilon ||x|| d(x), where
    d(x) is a state-dependent hashed unit vector; ``bias_mode`` must be
    "rotation", the one such family.

    Deterministic given the seed; the perturbation vanishes at x = 0.
    """
    if not epsilon >= 0:
        raise ValueError("epsilon must be nonnegative")
    if bias_mode != "rotation":
        raise ValueError(f"unknown bias_mode {bias_mode!r}")
    eps = float(epsilon)

    def act(t, x):
        x = np.asarray(x, dtype=float)
        base = np.asarray(optimal.act(t, x), dtype=float)
        if eps == 0.0:
            return base
        nx = math.sqrt(x.dot(x))  # == np.linalg.norm(x)
        if nx == 0.0:
            return base
        return base + eps * nx * _hashed_unit_vector(rng_seed, x, base.shape[0])

    return Policy(act=act)


def gaussian_state_sampler(n: int):
    """Sampler drawing states from N(0, I_n)."""

    def sample(rng: np.random.Generator) -> np.ndarray:
        return rng.standard_normal(n)

    return sample


def measure_epsilon(
    blackbox: Policy,
    optimal: Policy,
    sampler,
    samples: int,
    rng_seed: int,
) -> float:
    """Empirical consistency error: sup of ||blackbox(x) - optimal(x)|| / ||x||
    over samples, with both policies queried at t = 0.

    The reference should be the best available stand-in for the
    hindsight-optimal policy: :func:`auxiliary_optimal_policy` is exact
    for disturbance-only plants; for state/action-dependent residuals
    only approximate references exist (e.g. built from trajectory
    optimization), so treat the resulting estimate accordingly.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(rng_seed)
    worst = 0.0
    for _ in range(samples):
        x = np.asarray(sampler(rng), dtype=float)
        nx = np.linalg.norm(x)
        if nx < 1e-12:
            continue
        diff = np.asarray(blackbox.act(0, x), float) - np.asarray(optimal.act(0, x), float)
        ratio = np.linalg.norm(diff) / nx
        if ratio > worst:
            worst = float(ratio)
    return worst


def saturated(policy: Policy, limit: float) -> Policy:
    """Clamp every action component to [-limit, limit]."""

    def act(t, x):
        return np.clip(np.asarray(policy.act(t, x), float), -limit, limit)

    return Policy(act=act)


def nonnegative(policy: Policy) -> Policy:
    """Project every action component onto u >= 0 (charging allocations)."""

    def act(t, x):
        return np.maximum(np.asarray(policy.act(t, x), float), 0.0)

    return Policy(act=act)
