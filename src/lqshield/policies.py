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
from .plant import _vector

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
    """``act(t, x) -> u`` gets x as a float64 1-d array of the state size,
    as :func:`~lqshield.plant.simulate` passes it; it may return any
    array-like of the action size, which its readers coerce and size-check."""

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
        u_hat = black.act(t, x)
        u_bar = _vector(advice.act(t, x), None, "advice")
        return lam * _vector(u_hat, u_bar.shape[0], "black box") + (1.0 - lam) * u_bar

    return Policy(act=act)


# a bound on |x_i| below which every state coordinate quantizes into
# int64: 2**63 / 1e9 is about 9.22e9
_HASH_RANGE = 9.2e9


def _quantized(x: np.ndarray) -> bytes:
    """The state quantized to 1e-9, as little-endian int64 bytes.

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
    return struct.pack(f"<{len(vals)}q", *map(round, vals))


def _direction(seed: int, q: bytes, m: int) -> np.ndarray:
    """Unit m-vector drawn from a generator seeded by a hash of ``q`` and ``seed``.

    The seed enters the hash as 8 little-endian bytes of ``seed % 2**64``,
    its two's-complement int64 encoding for seeds in [-2**63, 2**63); any
    other integer seed wraps onto that range.
    """
    digest = hashlib.blake2b(
        q + (int(seed) % 2**64).to_bytes(8, "little"), digest_size=16
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
    d(x) is a unit vector that is a pure function of (``rng_seed``, x
    quantized to 1e-9); ``bias_mode`` must be "rotation", the one such
    family.  ``epsilon`` must be finite and nonnegative; at epsilon = 0
    the black box is ``optimal`` itself.

    Deterministic given the seed; the perturbation vanishes at x = 0.
    Drawing d costs a fresh generator seeding, so each black box keeps the
    direction of its last query and draws again only when the quantized
    state changes (decayed rollouts repeat the all-zero grid point).
    """
    if not 0 <= epsilon < math.inf:
        raise ValueError(f"epsilon must be finite and nonnegative, got {epsilon!r}")
    if bias_mode != "rotation":
        raise ValueError(f"unknown bias_mode {bias_mode!r}")
    if epsilon == 0:
        return optimal
    eps = float(epsilon)
    last = (None, 0, None)  # (quantized state, m, direction) of the last draw

    def act(t, x):
        nonlocal last
        base = _vector(optimal.act(t, x), None, "reference")
        nx = math.sqrt(x.dot(x))  # == np.linalg.norm(x)
        if nx == 0.0:
            return base
        q, m = _quantized(x), base.shape[0]
        hit = last  # read once, so a concurrent caller cannot swap it mid-query
        if q != hit[0] or m != hit[1]:
            hit = last = (q, m, _direction(rng_seed, q, m))
        return base + eps * nx * hit[2]

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
        x = _vector(sampler(rng), None, "sampler")
        nx = np.linalg.norm(x)
        if nx < 1e-12:
            continue
        u_hat = blackbox.act(0, x)
        u_ref = _vector(optimal.act(0, x), None, "reference")
        diff = _vector(u_hat, u_ref.shape[0], "black box") - u_ref
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
