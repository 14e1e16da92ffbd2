"""Dense linear algebra for LQR synthesis on small systems.

Everything here is derived from the plant quadruple (A, B, Q, R): the
Riccati fixed point P, the feedback gain K, the closed loop F = A - BK,
and the decay-envelope constants (C_F, rho, kappa, sigma) that the
stability and competitive-ratio machinery consumes.

All functions are pure; returned objects are frozen and safe to share
across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import IndexRange, NonStabilizable

__all__ = [
    "LinearModel",
    "Synthesis",
    "solve_dare",
    "synthesize",
    "spectral_radius",
    "matrix_power_series",
    "pseudo_inverse",
]


def _as_matrix(M, name: str) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise ValueError(f"{name} must be a 2-d matrix, got shape {M.shape}")
    return M


def spectral_radius(M) -> float:
    """Largest eigenvalue magnitude of a square matrix."""
    M = _as_matrix(M, "M")
    if M.shape[0] != M.shape[1]:
        raise ValueError(f"spectral_radius needs a square matrix, got {M.shape}")
    return float(np.max(np.abs(np.linalg.eigvals(M))))


def pseudo_inverse(M) -> np.ndarray:
    """Moore-Penrose inverse of an arbitrary real matrix."""
    return np.linalg.pinv(_as_matrix(M, "M"))


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


def matrix_power_series(
    F: np.ndarray, P: np.ndarray, seq: Sequence[np.ndarray], s: int, t: int
) -> np.ndarray:
    """Evaluate sum_{tau=s}^{t} (F^T)^(tau-s) P seq[tau]."""
    if s > t:
        raise IndexRange(f"series start {s} exceeds end {t}")
    if s < 0 or t >= len(seq):
        raise IndexRange(f"series range [{s}, {t}] outside sequence of length {len(seq)}")
    return _eta_series(F, P, seq[s : t + 1])[0]


@dataclass(frozen=True)
class LinearModel:
    """The crude plant model: x_{t+1} = A x_t + B u_t (+ residual).

    Q and R are the quadratic stage-cost weights and must be symmetric
    positive definite.  Stabilizability of (A, B) is not checked here;
    it surfaces as :class:`NonStabilizable` from :func:`solve_dare`.
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

    Besides (P, K, F, H) this carries the constants used by the
    guarantee computations:

    - ``rho``: midpoint decay rate (1 + spectral radius of F) / 2,
    - ``C_F``: empirical envelope constant with ||F^t|| <= C_F rho^t
      for 0 <= t <= ``T_check`` (a finite-horizon lower bound of the
      true envelope constant; T_check is reported alongside),
    - ``kappa``: max{2, ||A||, ||B||},
    - ``sigma``: smallest eigenvalue across Q and R.
    """

    model: LinearModel
    P: np.ndarray
    K: np.ndarray
    F: np.ndarray
    H: np.ndarray
    C_F: float
    rho: float
    rho_F: float
    kappa: float
    sigma: float
    T_check: int
    dare_residual: float
    iterations: int = field(default=0)

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


def _dare_fixed_point(
    model: LinearModel, tol: float, max_iter: int
) -> tuple[np.ndarray, int]:
    """The Riccati fixed point of :func:`solve_dare` and its iteration count."""
    A, B, Q, R = model.A, model.B, model.Q, model.R
    P = Q.copy()
    blowup = 1e12 * (1.0 + np.linalg.norm(Q, 2))
    delta = np.inf
    for it in range(1, max_iter + 1):
        BtP = B.T @ P
        H = R + BtP @ B
        K = np.linalg.solve(H, BtP @ A)
        P_next = Q + A.T @ P @ A - (BtP @ A).T @ K
        P_next = 0.5 * (P_next + P_next.T)
        delta = np.max(np.abs(P_next - P))
        P = P_next
        if not np.isfinite(delta) or np.max(np.abs(P)) > blowup:
            raise NonStabilizable(
                f"Riccati iteration diverged after {it} iterations"
            )
        if delta <= tol * (1.0 + np.max(np.abs(P))):
            return P, it
    raise NonStabilizable(
        f"Riccati iteration did not converge within {max_iter} iterations: "
        f"last sup-norm update {delta:.3e}, "
        f"DARE residual {dare_residual_norm(model, P):.3e}"
    )


def solve_dare(
    model: LinearModel,
    tol: float = 1e-12,
    max_iter: int = 10_000,
) -> np.ndarray:
    """Fixed-point solution of P = Q + A'PA - A'PB (R+B'PB)^-1 B'PA.

    Iterates from P0 = Q until the sup-norm update drops below
    ``tol * (1 + ||P||)``.  Divergence or non-convergence raises
    :class:`NonStabilizable`; on non-convergence its message gives the
    last sup-norm update and the DARE residual of the last iterate.
    """
    return _dare_fixed_point(model, tol, max_iter)[0]


def synthesize(
    model: LinearModel,
    T_check: int = 500,
    tol: float = 1e-12,
    max_iter: int = 10_000,
) -> Synthesis:
    """Full LQR synthesis: P, K, F, H plus the decay-envelope constants.

    P is the fixed point of :func:`solve_dare` and ``iterations`` its
    iteration count.  ``C_F`` is the max of ||F^t||_2 / rho^t over
    0 <= t <= ``T_check``, with the powers F^1..F^T_check stacked and
    their spectral norms taken in one batched SVD call.

    Raises :class:`NonStabilizable` if the Riccati iteration fails or if
    the synthesized closed loop is not contracting.
    """
    P, iterations = _dare_fixed_point(model, tol, max_iter)
    A, B, Q, R = model.A, model.B, model.Q, model.R
    H = R + B.T @ P @ B
    H = 0.5 * (H + H.T)
    if np.min(np.linalg.eigvalsh(H)) <= 0:
        raise NonStabilizable("R + B'PB is not positive definite")
    K = np.linalg.solve(H, B.T @ P @ A)
    F = A - B @ K
    rho_F = spectral_radius(F)
    if rho_F >= 1.0:
        raise NonStabilizable(
            f"synthesized closed loop has spectral radius {rho_F:.6f} >= 1"
        )
    rho = 0.5 * (1.0 + rho_F)
    # the t=0 term makes C_F at least 1; the powers come from the F @ F^t
    # recurrence of a per-power loop, so C_F matches that loop bit for bit
    powers = np.empty((T_check, model.n, model.n))
    Ft = np.eye(model.n)
    for t in range(T_check):
        Ft = F @ Ft
        powers[t] = Ft
    C_F = 1.0
    for t, norm in enumerate(np.linalg.norm(powers, 2, axis=(1, 2)), start=1):
        ratio = norm / rho**t
        if ratio > C_F:
            C_F = ratio
    kappa = max(2.0, np.linalg.norm(A, 2), np.linalg.norm(B, 2))
    sigma = float(min(np.min(np.linalg.eigvalsh(Q)), np.min(np.linalg.eigvalsh(R))))
    residual = dare_residual_norm(model, P)
    if residual > 1e-9 * (1.0 + np.linalg.norm(P, 2)):
        raise NonStabilizable(
            f"DARE residual {residual:.3e} above tolerance; solution untrusted"
        )
    return Synthesis(
        model=model,
        P=P,
        K=K,
        F=F,
        H=H,
        C_F=float(C_F),
        rho=float(rho),
        rho_F=float(rho_F),
        kappa=float(kappa),
        sigma=sigma,
        T_check=T_check,
        dare_residual=residual,
        iterations=iterations,
    )
