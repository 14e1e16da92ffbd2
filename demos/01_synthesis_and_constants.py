"""Synthesis walk-through: from a crude model to guarantee constants.

Builds the LQR for a small plant and for the cart-pole linearization,
then prints the quantities everything else is built from: the Riccati
solution, the gain, the closed-loop decay envelope ||F^t|| <= C_F rho^t,
and the stability/ratio constants for a given residual Lipschitz bound
and black-box consistency error.
"""

import numpy as np

import lqshield as lq
from lqshield.environments import CartPoleParams, cartpole_linearization
from lqshield.guarantees import admissible_lipschitz_cap

np.set_printoptions(precision=5, suppress=True)

# --- a two-state plant ----------------------------------------------------
A = np.array([[0.55, 0.25], [0.0, 0.45]])
model = lq.LinearModel(A=A, B=np.eye(2), Q=np.eye(2), R=np.eye(2))
syn = lq.synthesize(model)

print("two-state plant")
print("  P =\n", syn.P)
print("  K =\n", syn.K)
print(f"  rho(F) = {syn.rho_F:.6f}, envelope rho = {syn.rho:.6f}, C_F = {syn.C_F:.6f}")
print(f"  DARE residual = {syn.dare_residual:.2e} after {syn.iterations} iterations")

# envelope check by brute force
Ft = np.eye(2)
worst = 0.0
for t in range(1, 200):
    Ft = syn.F @ Ft
    worst = max(worst, np.linalg.norm(Ft, 2) / (syn.C_F * syn.rho**t))
print(f"  max_t ||F^t|| / (C_F rho^t) over t <= 200: {worst:.6f} (must be <= 1)")

# --- guarantee constants --------------------------------------------------
cap = admissible_lipschitz_cap(syn)
print(f"\nadmissible residual Lipschitz cap: {cap:.5f}")
for C_ell, eps in [(0.0, 0.0), (0.3 * cap, 0.02), (0.9 * cap, 0.05)]:
    c = lq.theorem_constants(syn, C_ell, eps)
    print(
        f"  C_ell={C_ell:.4f} eps={eps:.3f}: gamma={c.gamma:.4f} mu={c.mu:.4f} "
        f"C_a={c.C_a_sys:.4f} C_c={c.C_c_sys:.4f} CR_model_bar={c.CR_model_bar:.2f}"
    )

# --- cart-pole ------------------------------------------------------------
params = CartPoleParams()  # model masses deliberately 2x the true ones
cp = cartpole_linearization(params)
cp_syn = lq.synthesize(cp)
print("\ncart-pole linearization (crude masses)")
print("  A =\n", cp.A)
print("  B =", cp.B.ravel())
print("  K =", cp_syn.K.ravel())
print(f"  rho(F) = {cp_syn.rho_F:.6f}, C_F = {cp_syn.C_F:.2f}")
