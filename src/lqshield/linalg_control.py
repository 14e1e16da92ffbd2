"""Dense linear algebra for LQR synthesis on small systems.

Everything here is derived from the plant quadruple (A, B, Q, R): the
Riccati fixed point P, the feedback gain K, the closed loop F = A - BK,
and the decay-envelope constants (C_F, rho, kappa, sigma) that the
stability and competitive-ratio machinery consumes.

All functions are pure.  Returned objects are frozen; a derived value
is computed on its first read, always to the same value, so they are
safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import NonStabilizable

__all__ = [
    "LinearModel",
    "Synthesis",
    "solve_dare",
    "synthesize",
    "spectral_radius",
]


def _as_matrix(M, name: str) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise ValueError(f"{name} must be a 2-d matrix, got shape {M.shape}")
    return M


def _opnorm(M) -> float:
    return float(np.linalg.norm(M, 2))


def spectral_radius(M) -> float:
    """Largest eigenvalue magnitude of a square matrix."""
    M = _as_matrix(M, "M")
    if M.shape[0] != M.shape[1]:
        raise ValueError(f"spectral_radius needs a square matrix, got {M.shape}")
    return float(np.max(np.abs(np.linalg.eigvals(M))))


def _eta_series(F, P, seq: Sequence[np.ndarray]) -> list[np.ndarray]:
    """eta_s = sum_{tau>=s} (F^T)^(tau-s) P seq[tau] for every s of ``seq``.

    One backward pass from a zero tail, eta_s = P seq[s] + F^T eta_{s+1},
    so no explicit matrix power is ever formed.
    """
    F = np.asarray(F, dtype=float)
    P = np.asarray(P, dtype=float)
    etas: list[np.ndarray] = [None] * len(seq)
    eta = np.zeros(P.shape[0])
    for s in range(len(seq) - 1, -1, -1):
        eta = P @ np.asarray(seq[s], dtype=float) + F.T @ eta
        etas[s] = eta
    return etas


@dataclass(frozen=True)
class LinearModel:
    """The crude plant model: x_{t+1} = A x_t + B u_t (+ residual).

    Every entry must be finite.  Q and R are the quadratic stage-cost
    weights and must be symmetric positive definite.  Stabilizability
    of (A, B) is not checked here; it surfaces as
    :class:`NonStabilizable` from :func:`solve_dare`.
    """

    A: np.ndarray
    B: np.ndarray
    Q: np.ndarray
    R: np.ndarray

    def __post_init__(self):
        A = _as_matrix(self.A, "A")
        B = _as_matrix(self.B, "B")
        Q = _as_matrix(self.Q, "Q")
        R = _as_matrix(self.R, "R")
        n = A.shape[0]
        if A.shape != (n, n):
            raise ValueError(f"A must be square, got {A.shape}")
        if B.shape[0] != n:
            raise ValueError(f"B must have {n} rows, got {B.shape}")
        m = B.shape[1]
        if Q.shape != (n, n):
            raise ValueError(f"Q must be {n}x{n}, got {Q.shape}")
        if R.shape != (m, m):
            raise ValueError(f"R must be {m}x{m}, got {R.shape}")
        for name, M in (("A", A), ("B", B), ("Q", Q), ("R", R)):
            if not np.all(np.isfinite(M)):
                raise ValueError(f"{name} must be finite")
        for name, M in (("Q", Q), ("R", R)):
            if not np.allclose(M, M.T, atol=1e-12):
                raise ValueError(f"{name} must be symmetric")
            if np.min(np.linalg.eigvalsh(M)) <= 0:
                raise ValueError(f"{name} must be positive definite")
        for name, M in (("A", A), ("B", B), ("Q", Q), ("R", R)):
            object.__setattr__(self, name, M.copy())
            self.__dict__[name].setflags(write=False)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]


@dataclass(frozen=True)
class Synthesis:
    """LQR synthesis products for a :class:`LinearModel`.

    Only the Riccati fixed point ``P`` and its iteration count are
    stored; everything else derives from them and the model, each value
    computed on its first read and kept:

    - ``H`` = R + B'PB (symmetrized), ``K`` = H^-1 B'PA, ``F`` = A - BK,
    - ``rho_F``: spectral radius of F, and ``rho``: the midpoint decay
      rate (1 + rho_F) / 2,
    - ``C_F``: empirical envelope constant with ||F^t|| <= C_F rho^t
      for 0 <= t <= ``T_check`` = 500 (a finite-horizon lower bound of
      the true envelope constant; T_check is reported alongside),
    - ``kappa``: max{2, ||A||, ||B||},
    - ``sigma``: smallest eigenvalue across Q and R,
    - ``dare_residual``: :func:`dare_residual_norm` of P.
    """

    model: LinearModel
    P: np.ndarray
    iterations: int

    @cached_property
    def H(self) -> np.ndarray:
        B = self.model.B
        H = self.model.R + B.T @ self.P @ B
        return 0.5 * (H + H.T)

    @cached_property
    def K(self) -> np.ndarray:
        return np.linalg.solve(self.H, self.model.B.T @ self.P @ self.model.A)

    @cached_property
    def F(self) -> np.ndarray:
        return self.model.A - self.model.B @ self.K

    @cached_property
    def rho_F(self) -> float:
        return spectral_radius(self.F)

    @property
    def rho(self) -> float:
        return 0.5 * (1.0 + self.rho_F)

    @property
    def T_check(self) -> int:
        return _T_CHECK

    @cached_property
    def C_F(self) -> float:
        return _envelope_constant(self.F, self.rho, _T_CHECK)

    @cached_property
    def kappa(self) -> float:
        return max(2.0, _opnorm(self.model.A), _opnorm(self.model.B))

    @cached_property
    def sigma(self) -> float:
        Q, R = self.model.Q, self.model.R
        return float(min(np.min(np.linalg.eigvalsh(Q)), np.min(np.linalg.eigvalsh(R))))

    @cached_property
    def dare_residual(self) -> float:
        return dare_residual_norm(self.model, self.P)

    @cached_property
    def _norms(self) -> dict[str, float]:
        """The operator norms behind the guarantee constants, keyed by
        matrix: P, K, B, F, H, PB, PF, QKRK (Q + K'RK) and BI (B + I, or
        ||B|| + 1 for a non-square B)."""
        P, K, F, H = self.P, self.K, self.F, self.H
        B, Q, R = self.model.B, self.model.Q, self.model.R
        nB = _opnorm(B)
        if B.shape[0] == B.shape[1]:
            nBI = _opnorm(B + np.eye(B.shape[0]))
        else:
            nBI = nB + 1.0
        return {
            "P": _opnorm(P),
            "K": _opnorm(K),
            "B": nB,
            "F": _opnorm(F),
            "H": _opnorm(H),
            "PB": _opnorm(P @ B),
            "PF": _opnorm(P @ F),
            "QKRK": _opnorm(Q + K.T @ R @ K),
            "BI": nBI,
        }

    @cached_property
    def _hindsight_weight(self) -> np.ndarray:
        """B H^-1 B', the weight of ``optimal_lambda`` and ``auxiliary_cost_closed_form``."""
        B = self.model.B
        return B @ np.linalg.solve(self.H, B.T)

    @cached_property
    def _learned_weight(self) -> np.ndarray:
        """(B H^-1)^+ B, the weight of the adaptive rule's learned denominator."""
        B = self.model.B
        return np.linalg.pinv(B @ np.linalg.inv(self.H)) @ B

    @property
    def n(self) -> int:
        return self.model.n

    @property
    def m(self) -> int:
        return self.model.m


def dare_residual_norm(model: LinearModel, P: np.ndarray) -> float:
    """Operator norm of P - (Q + A'PA - A'PB (R+B'PB)^-1 B'PA)."""
    A, B, Q, R = model.A, model.B, model.Q, model.R
    BtP = B.T @ P
    H = R + BtP @ B
    rhs = Q + A.T @ P @ A - A.T @ P @ B @ np.linalg.solve(H, BtP @ A)
    return float(np.linalg.norm(P - rhs, 2))


_DARE_TOL = 1e-12
_DARE_MAX_ITER = 20_000


def _dare_fixed_point(model: LinearModel, max_iter: int) -> tuple[np.ndarray, int]:
    """The Riccati fixed point of :func:`solve_dare` and its iteration count."""
    A, B, Q, R = model.A, model.B, model.Q, model.R
    At, Bt = A.T, B.T
    P = Q.copy()
    blowup = 1e12 * (1.0 + np.linalg.norm(Q, 2))
    delta = np.inf
    for it in range(1, max_iter + 1):
        BtP = Bt @ P
        H = R + BtP @ B
        BtPA = BtP @ A
        K = np.linalg.solve(H, BtPA)
        P_next = Q + At @ P @ A - BtPA.T @ K
        P_next = 0.5 * (P_next + P_next.T)
        delta = np.abs(P_next - P).max()
        P = P_next
        P_max = np.abs(P).max()
        if not math.isfinite(delta) or P_max > blowup:
            raise NonStabilizable(
                f"Riccati iteration diverged after {it} iterations"
            )
        if delta <= _DARE_TOL * (1.0 + P_max):
            return P, it
    raise NonStabilizable(
        f"Riccati iteration did not converge within {max_iter} iterations: "
        f"last sup-norm update {delta:.3e}, "
        f"DARE residual {dare_residual_norm(model, P):.3e}"
    )


def solve_dare(model: LinearModel) -> np.ndarray:
    """Fixed-point solution of P = Q + A'PA - A'PB (R+B'PB)^-1 B'PA.

    Iterates from P0 = Q until the sup-norm update drops to
    ``1e-12 * (1 + ||P||)``, for at most 20 000 iterations.  Divergence
    or non-convergence raises :class:`NonStabilizable`; on
    non-convergence its message gives the last sup-norm update and the
    DARE residual of the last iterate.
    """
    return _dare_fixed_point(model, _DARE_MAX_ITER)[0]


# the horizon of the C_F envelope: the max over the powers F^0..F^500
_T_CHECK = 500


def _envelope_constant(F: np.ndarray, rho: float, T_check: int) -> float:
    """The max of ||F^t||_2 / rho^t over 0 <= t <= ``T_check``.

    The powers F^1..F^T_check are stacked and screened by their
    Frobenius norms, which bound the spectral norm within a factor
    sqrt(n): only the powers that could set the max get an SVD, all in
    one batched call, so the result equals the max over every power
    bit for bit.
    """
    # the t=0 term makes C_F at least 1; the powers come from the F @ F^t
    # recurrence of a per-power loop, so C_F matches that loop bit for bit
    n = F.shape[0]
    powers = np.empty((T_check, n, n))
    Ft = np.eye(n)
    for t in range(T_check):
        Ft = np.matmul(F, Ft, out=powers[t])
    # ||M||_2 <= ||M||_F <= sqrt(n) ||M||_2: a power whose Frobenius ratio
    # is below the largest lower bound cannot set the max, so only the
    # others get an SVD; the 1e-9 margins cover the rounding of both norms
    upper = np.sqrt(np.einsum("tij,tij->t", powers, powers)) / rho ** np.arange(1, T_check + 1)
    floor = max(1.0, upper.max(initial=0.0) / math.sqrt(n))
    cand = np.flatnonzero(upper * (1.0 + 1e-9) >= floor * (1.0 - 1e-9))
    C_F = 1.0
    norms = np.linalg.svd(powers[cand], compute_uv=False)[:, 0]
    for t, norm in zip((cand + 1).tolist(), norms):
        ratio = norm / rho**t
        if ratio > C_F:
            C_F = ratio
    return float(C_F)


def synthesize(model: LinearModel, max_iter: int = _DARE_MAX_ITER) -> Synthesis:
    """Full LQR synthesis: the Riccati fixed point and what derives from it.

    P is the fixed point of :func:`solve_dare`, iterated at most
    ``max_iter`` times, and ``iterations`` its iteration count.  ``C_F``
    is the max of ||F^t||_2 / rho^t over 0 <= t <= 500 (``T_check``),
    from :func:`_envelope_constant`, computed when first read.

    Raises :class:`NonStabilizable` if the Riccati iteration fails, if
    R + B'PB is not positive definite, if the synthesized closed loop is
    not contracting, or if the DARE residual of P is above tolerance.
    """
    P, iterations = _dare_fixed_point(model, max_iter)
    syn = Synthesis(model=model, P=P, iterations=iterations)
    if np.min(np.linalg.eigvalsh(syn.H)) <= 0:
        raise NonStabilizable("R + B'PB is not positive definite")
    if syn.rho_F >= 1.0:
        raise NonStabilizable(
            f"synthesized closed loop has spectral radius {syn.rho_F:.6f} >= 1"
        )
    if syn.dare_residual > 1e-9 * (1.0 + np.linalg.norm(P, 2)):
        raise NonStabilizable(
            f"DARE residual {syn.dare_residual:.3e} above tolerance; solution untrusted"
        )
    return syn
