"""Worst-case second controller for fixed-weight policy blending.

Given any stabilizing gain K1 and a blend weight in (0, 1), this builds
a second gain K2 that is stabilizing on its own while the blended gain
lambda K2 + (1 - lambda) K1 is unstable.  Certificates are
self-checking: construction fails unless rho(A - B K1) < 1,
rho(A - B K2) < 1 and rho(combined closed loop) > 1 all hold.

Two construction cases, depending on the closed loop F1 = A - B K1:

- off-diagonal: F2 has a constant diagonal beta, a strictly lower
  triangle cancelling F1's in the blend, and one extra entry sized so
  the blended closed loop has |det| = 2^n, forcing spectral radius
  >= 2.  (F1 is transposed first when no entry above its diagonal can
  size that extra entry.)
- diagonal (F1 diagonal with two distinct entries): a nilpotent 2x2
  block is embedded in two coordinates with distinct diagonal values,
  scaled so the blended block has an eigenvalue beyond 1.

A diagonal F1 that is a multiple of the identity admits neither case
and raises :class:`NotApplicable`, as do an F1 none of whose
off-diagonal entries can size the extra entry and a one-state plant.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import NotApplicable, SingularB
from .linalg_control import LinearModel, spectral_radius
from .plant import Trajectory, simulate, zero_residual
from .policies import gain_policy

__all__ = [
    "AdversarialCertificate",
    "construct_adversarial_K2",
    "demonstrate_instability",
]


@dataclass(frozen=True)
class AdversarialCertificate:
    """The partner gain K2 of K1 at blend weight ``lam``, with the closed
    loop F2 = A - B K2 and the determinant of the blended closed loop as
    constructed.  The spectral radii rho_F1, rho_F2 and rho_combined (of
    A - B K1, F2 and A - B combined_gain) are computed on first read."""

    model: LinearModel
    K1: np.ndarray
    K2: np.ndarray
    lam: float
    beta: float
    F2: np.ndarray
    construction_case: str
    det_combined: float

    @property
    def combined_gain(self) -> np.ndarray:
        """The blended gain lam K2 + (1 - lam) K1."""
        return self.lam * self.K2 + (1.0 - self.lam) * self.K1

    @cached_property
    def rho_F1(self) -> float:
        return spectral_radius(self.model.A - self.model.B @ self.K1)

    @cached_property
    def rho_F2(self) -> float:
        return spectral_radius(self.F2)

    @cached_property
    def rho_combined(self) -> float:
        return spectral_radius(self.model.A - self.model.B @ self.combined_gain)

    def self_check(self) -> None:
        if not (self.rho_F1 < 1.0):
            raise ValueError(f"certificate invalid: rho(F1) = {self.rho_F1:.6f} >= 1")
        if not (self.rho_F2 < 1.0):
            raise ValueError(f"certificate invalid: rho(F2) = {self.rho_F2:.6f} >= 1")
        if not (self.rho_combined > 1.0):
            raise ValueError(
                f"certificate invalid: rho(combined) = {self.rho_combined:.6f} <= 1"
            )

    def summary_text(self) -> str:
        def fmt(M):
            return np.array2string(np.asarray(M), precision=6, suppress_small=True)

        return "\n".join(
            [
                f"construction case : {self.construction_case}",
                f"lambda            : {self.lam:g}",
                f"beta              : {self.beta:g}",
                f"rho(A - B K1)     : {self.rho_F1:.9f}",
                f"rho(A - B K2)     : {self.rho_F2:.9f}",
                f"rho(combined)     : {self.rho_combined:.9f}",
                f"det(combined)     : {self.det_combined:.9g}",
                "K1:",
                fmt(self.K1),
                "K2:",
                fmt(self.K2),
                "combined gain:",
                fmt(self.combined_gain),
            ]
        )


def _upper_entries(M: np.ndarray, tol: float):
    """The strictly-upper entries (i, i+k) above ``tol`` in magnitude, as
    (i, k), scanning offset k outer and row i inner (row index increases
    first)."""
    n = M.shape[0]
    for k in range(1, n):
        for i in range(0, n - k):
            if abs(M[i, i + k]) > tol:
                yield i, k


def _offdiagonal_F2(
    M1: np.ndarray, lam: float, beta: float
) -> Optional[tuple[np.ndarray, float, float]]:
    """F2 for the first strictly-upper entry of M1 that sizes the singleton;
    returns (F2, det of the blend, beta actually used), or None when no
    entry does.

    The blend T = lam beta I + (1-lam) (diag + upper of M1) is upper
    triangular; adding the single entry S at (i+k, i) contributes
    -lam (1-lam) S M1[i, i+k] prod_{j not in {i, i+k}} d_j to the
    determinant, so S is solved to place |det| exactly at 2^n.  beta is
    nudged through a fixed candidate list if the requested value makes
    that product degenerate; an entry too small to size S at any of them
    passes the search on to the next entry.
    """
    n = M1.shape[0]
    scale = max(1.0, float(np.max(np.abs(M1))))
    target = -(2.0**n)
    candidates = [beta] + [b for b in (0.5, 0.73, 0.31, 0.91, 0.17, 0.59) if b != beta]
    for i, k in _upper_entries(M1, 1e-12 * scale):
        others = [j for j in range(n) if j not in (i, i + k)]
        for b in candidates:
            d = lam * b + (1.0 - lam) * np.diag(M1)
            prod_others = float(np.prod(d[others])) if others else 1.0
            denom = lam * (1.0 - lam) * M1[i, i + k] * prod_others
            if abs(denom) < 1e-9 * scale:
                continue
            det_T = float(np.prod(d))
            S = (det_T - target) / denom
            F2 = b * np.eye(n) - ((1.0 - lam) / lam) * np.tril(M1, -1)
            F2[i + k, i] += S
            combined = lam * F2 + (1.0 - lam) * M1
            det = float(np.linalg.det(combined))
            if abs(abs(det) - 2.0**n) <= 1e-6 * 2.0**n:
                return F2, det, b
    return None


def _diagonal_F2(F1: np.ndarray, lam: float, tol: float) -> np.ndarray:
    """Nilpotent 2x2 block embedded at the coordinate pair with the
    largest gap between diagonal entries; sign-flipped when needed so
    the blended block's leading entry is positive."""
    d = np.diag(F1)
    n = d.shape[0]
    best: Optional[tuple[int, int]] = None
    best_gap = tol
    for p in range(n):
        for q in range(p + 1, n):
            gap = abs(d[p] - d[q])
            if gap > best_gap:
                best_gap = gap
                best = (p, q)
    if best is None:
        raise NotApplicable(
            "closed loop A - B K1 is a multiple of the identity; no distinct "
            "diagonal pair exists for the embedded construction"
        )
    p, q = best
    x, y = float(d[p]), float(d[q])
    if abs(y) > abs(x) or (abs(x) == abs(y) and y > x):
        x, y = y, x
        p, q = q, p
    s = 1.0 if x > 0 else -1.0
    a, b = s * x, s * y
    assert a > 0 and a > b
    block = (4.0 / (lam * (1.0 - lam) * (a - b))) * np.array([[1.0, 1.0], [-1.0, -1.0]])
    F2 = np.zeros_like(F1)
    F2[np.ix_([p, q], [p, q])] = s * block
    return F2


def construct_adversarial_K2(
    model: LinearModel,
    K1: np.ndarray,
    lam: float,
    beta: float = 0.5,
) -> AdversarialCertificate:
    """Build the destabilizing partner gain for (K1, lambda).

    Requires a square invertible B, lambda and beta in (0, 1), and a
    stabilizing K1 with A - B K1 != 0.  Raises :class:`NotApplicable` for
    state dimension n < 2, when A - B K1 is a multiple of the identity, or
    when none of its off-diagonal entries can size the extra entry.
    """
    A, B = model.A, model.B
    n = model.n
    if B.shape[0] != B.shape[1]:
        raise SingularB(f"B must be square, got {B.shape}")
    if n < 2:
        raise NotApplicable("the construction needs state dimension n > 1")
    if not (0.0 < lam < 1.0):
        raise ValueError("lambda must lie strictly inside (0, 1)")
    if not (0.0 < beta < 1.0):
        raise ValueError("beta must lie strictly inside (0, 1)")
    try:
        Binv = np.linalg.inv(B)
    except np.linalg.LinAlgError as exc:
        raise SingularB("B is singular") from exc
    if np.linalg.cond(B) > 1e12:
        raise SingularB("B is numerically singular")
    K1 = np.asarray(K1, dtype=float)
    F1 = A - B @ K1
    rho_F1 = spectral_radius(F1)
    if rho_F1 >= 1.0:
        raise ValueError(f"K1 must stabilize the plant; rho(A - B K1) = {rho_F1:.6f}")
    scale = float(np.max(np.abs(F1)))
    if scale == 0.0:
        raise NotApplicable("A - B K1 = 0: excluded by hypothesis")
    tol = 1e-12 * max(1.0, scale)
    case = "off_diagonal"
    if (sized := _offdiagonal_F2(F1, lam, beta)) is not None:
        F2, det, used_beta = sized
    elif (sized := _offdiagonal_F2(F1.T, lam, beta)) is not None:
        F2t, det, used_beta = sized
        F2 = F2t.T
    elif np.any(np.abs(F1 - np.diag(np.diag(F1))) > tol):
        raise NotApplicable(
            "no off-diagonal entry of A - B K1 sizes the singleton entry of the "
            "off-diagonal construction"
        )
    else:
        F2 = _diagonal_F2(F1, lam, tol)
        case = "diagonal_2x2_embedded"
        det = float(np.linalg.det(lam * F2 + (1.0 - lam) * F1))
        used_beta = beta
    cert = AdversarialCertificate(
        model=model,
        K1=K1,
        K2=Binv @ (A - F2),
        lam=float(lam),
        beta=float(used_beta),
        F2=F2,
        construction_case=case,
        det_combined=det,
    )
    cert.self_check()
    return cert


def demonstrate_instability(
    cert: AdversarialCertificate,
    x0,
    T: int,
    blowup: float = 1e9,
) -> tuple[Trajectory, Trajectory]:
    """Simulate the blended gain and K2 alone from x0 (no residual).

    Returns (blended trajectory, K2-alone trajectory); the first is
    expected to blow up, the second to contract.
    """
    residual = zero_residual(cert.model.n)
    combined = simulate(
        cert.model, residual, gain_policy(cert.combined_gain), x0, T, blowup=blowup
    )
    alone = simulate(cert.model, residual, gain_policy(cert.K2), x0, T, blowup=blowup)
    return combined, alone
