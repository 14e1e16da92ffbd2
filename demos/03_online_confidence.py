"""Learning how much to trust the black box, online.

A disturbance-driven linear plant is controlled by black boxes of
varying quality: a perfectly informed feedforward policy, over- and
under-confident variants (their residual estimates scaled), and a
consistency-bounded perturbation family.  The script shows

1. the learned confidence coefficient converging to the hindsight
   weight (1/c for estimates scaled by c), and
2. the measured cost ratio against the exact offline optimum growing
   with the consistency error.
"""

import numpy as np

import lqshield as lq
from lqshield.adaptive import ObservationLog

A = np.array([[0.55, 0.25], [0.0, 0.45]])
model = lq.LinearModel(A=A, B=np.eye(2), Q=np.eye(2), R=np.eye(2))
syn = lq.synthesize(model)

rng = np.random.default_rng(1)
T_w = 60
w = [0.5 * rng.standard_normal(2) for _ in range(T_w)]
x0 = rng.standard_normal(2)

print("learned confidence vs hindsight weight (estimates scaled by c):")
for c in (1.0, 1.25, 2.0, 4.0):
    bb = lq.parameterized_blackbox(syn, [c * v for v in w])
    pol = lq.AdaptivePolicy(syn, bb, lq.lqr_policy(syn), 1e-6, lambda t: 1.0)
    traj = lq.simulate(model, lq.disturbance_residual(w), pol, x0, 100)
    # the black box is deterministic in (t, x): recompute its suggestions
    log = ObservationLog(
        states=list(traj.states),
        actions=list(traj.actions),
        blackbox_actions=[bb.act(t, traj.states[t]) for t in range(traj.horizon)],
    )
    learned = lq.learn_lambda_prime(syn, log)
    print(f"  c={c:4.2f}: learned {learned:.4f}  (hindsight {1.0 / c:.4f})")

print("\ncost ratio vs exact offline optimum as consistency error grows:")
opt = lq.opt_cost_time_only(syn, w, x0)
for eps in (0.0, 0.02, 0.05, 0.1, 0.2):
    ratios = []
    for seed in range(10):
        bb = lq.epsilon_consistent_blackbox(
            lq.auxiliary_optimal_policy(syn, w), eps, "rotation", seed
        )
        pol = lq.AdaptivePolicy(syn, bb, lq.lqr_policy(syn), 1e-6, lambda t: 1.0)
        traj = lq.simulate(model, lq.disturbance_residual(w), pol, x0, T_w + 200)
        ratios.append(lq.competitive_ratio(traj, opt, syn=syn))
    print(f"  eps={eps:4.2f}: mean ratio {np.mean(ratios):.6f}")

print("\nconfidence trace with a destabilizing black box (cut off fast):")
bad = lq.gain_policy(-syn.K)
pol = lq.AdaptivePolicy(syn, bad, lq.lqr_policy(syn), 0.01, "learned")
traj = lq.simulate(model, lq.disturbance_residual(w), pol, x0, 40)
print("  lambda_t:", [round(l, 3) for l in pol.lambdas[:8]], "...")
print(f"  final state norm: {np.linalg.norm(traj.states[-1]):.2e}")
