"""EV charging under a distribution shift.

A schedule-based black box is fitted to commute-peaked training days.
On days drawn from the same distribution it performs like the reactive
LQR and the adaptive blend tracks it closely; on flattened-arrival days
the fitted schedule charges ghosts, and the adaptive blend walks away
from it toward the model-based advice.

The CLI equivalent: `lqshield ev-compare --out out/`.
"""

import numpy as np

import lqshield as lq
from lqshield.environments import (
    ChargingConfig,
    ev_environment,
    fit_demand_schedule,
    generate_sessions,
    line_limited,
)

config = ChargingConfig()
n, T, gamma = config.n_chargers, config.horizon, config.line_limit
syn = lq.synthesize(ev_environment(config, []).model)

training = [generate_sessions(k, "pre_covid", n, T) for k in range(15)]
f_hat = fit_demand_schedule(training, T, n)
print(f"fitted schedule mass: {sum(float(np.sum(v)) for v in f_hat):.1f} kWh/day")


def run_day(seed, profile):
    env = ev_environment(config, generate_sessions(seed, profile, n, T))
    blackbox = line_limited(lq.parameterized_blackbox(syn, f_hat), gamma)
    advice = line_limited(lq.lqr_policy(syn), gamma)

    def reward_of(policy):
        traj = lq.simulate(env.model, env.residual, policy, np.zeros(n), T)
        return float(np.sum(env.rewards_for_trajectory(traj)))

    adaptive = lq.AdaptivePolicy(syn, blackbox, advice, 1e-3, "learned")
    return reward_of(blackbox), reward_of(adaptive), reward_of(advice)


for profile in ("pre_covid", "post_covid"):
    rows = np.array([run_day(1000 + s, profile) for s in range(20)])
    bb, ad, lqr = rows.mean(axis=0)
    wins = int(np.sum(rows[:, 1] >= rows[:, 0]))
    print(f"\n{profile} (20 days):")
    print(f"  black box  mean total reward {bb:10.1f}")
    print(f"  adaptive   mean total reward {ad:10.1f}   (>= black box on {wins}/20 days)")
    print(f"  advice LQR mean total reward {lqr:10.1f}")
