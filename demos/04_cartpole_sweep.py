"""Cart-pole: blending a good black box with crude-model advice.

The plant is the nonlinear cart-pole; the advice LQR only knows a
linearization with 2x-wrong masses.  The black box is an LQR built on
the true masses (standing in for a well-trained agent).  Swept over
initial pole angles, the adaptive blend matches or beats the crude LQR
everywhere -- while a fixed 0.8 blend with a destabilizing black box
falls over at theta = 0.4 and the adaptive blend shrugs it off.

The CLI equivalent: `lqshield sweep-theta --out out/`.
"""

import numpy as np

import lqshield as lq
from lqshield.environments import CartPoleParams, cartpole_linearization, cartpole_residual

params = CartPoleParams()
model = cartpole_linearization(params)
syn = lq.synthesize(model)
residual = cartpole_residual(params, params)
syn_true = lq.synthesize(
    cartpole_linearization(params.with_true_masses_as_model())
)

advice = lq.lqr_policy(syn)
blackbox = lq.lqr_policy(syn_true)
T = 1200

rng = np.random.default_rng(0)
jitters = {th: rng.uniform(-0.05, 0.05, size=10) for th in (0.1, 0.2, 0.3, 0.4)}

print(f"{'theta':>6} {'crude LQR':>12} {'black box':>12} {'adaptive':>12}")
for theta in (0.1, 0.2, 0.3, 0.4):
    costs = {"lqr": [], "bb": [], "adaptive": []}
    for mc in range(10):
        x0 = np.array([0.0, 0.0, theta + jitters[theta][mc], 0.0])
        costs["lqr"].append(lq.simulate(model, residual, advice, x0, T).total_cost)
        costs["bb"].append(lq.simulate(model, residual, blackbox, x0, T).total_cost)
        pol = lq.AdaptivePolicy(syn, blackbox, advice, 0.01, "learned")
        costs["adaptive"].append(lq.simulate(model, residual, pol, x0, T).total_cost)
    print(
        f"{theta:6.1f} {np.mean(costs['lqr']):12.2f} {np.mean(costs['bb']):12.2f} "
        f"{np.mean(costs['adaptive']):12.2f}"
    )

print("\nworst case at theta = 0.4 with a destabilizing black box:")
bad = lq.gain_policy(-syn.K)
x0 = np.array([0.0, 0.0, 0.4, 0.0])
naive = lq.simulate(
    model, residual, lq.naive_convex_policy(bad, advice, 0.8), x0, T, blowup=50.0
)
pol = lq.AdaptivePolicy(syn, bad, advice, 0.01, "learned")
adaptive = lq.simulate(model, residual, pol, x0, T, blowup=50.0)
print(f"  fixed 0.8 blend : diverged={naive.diverged} (at step {naive.diverged_at})")
print(
    f"  adaptive blend  : diverged={adaptive.diverged}, "
    f"final ||x|| = {np.linalg.norm(adaptive.states[-1]):.2e}, "
    f"lambda trace head {[round(l, 3) for l in pol.lambdas[:5]]}"
)
