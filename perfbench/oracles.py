"""The ``synthesis-oracles`` workload: library calls that no CLI run reaches.

Inputs are generated from the program seed: ``N_RANDOM`` small
stabilizable systems (every other one with a square B, so the adversarial
construction applies), plus the cart-pole and EV-charging models.  Sizes
and open-loop spectral radii follow a fixed schedule and only directions
are random, so the amount of work barely depends on the seed.  For
each system the workload runs ``synthesize``, ``admissible_lipschitz_cap``
and ``theorem_constants``; on the square-B systems it builds the
destabilizing-partner certificate and simulates it.  Finally it runs
``opt_cost_trajopt`` finite-difference shooting on the cart-pole from
``TRAJOPT_STARTS`` seed-drawn pole angles (on the cart-pole every one of
its 40 descent iterations improves, so its work is seed-independent).

Every output that a correct program must reproduce is returned as a
record (see ``reference.py``); work counts that a faster program may
legitimately change (Riccati and trajopt iterations) are returned
separately and are never compared with the reference.
"""

from __future__ import annotations

import numpy as np

N_RANDOM = 24
TRAJOPT_T = 12
TRAJOPT_STARTS = 3
CERT_HORIZON = 20
# far above any state the 20-step certificate rollouts reach, so their
# length (and the step count) does not depend on the seed
CERT_BLOWUP = 1e300


def _random_system(rng, n, m, radius):
    from lqshield import LinearModel

    A = rng.standard_normal((n, n))
    A *= radius / max(float(np.max(np.abs(np.linalg.eigvals(A)))), 1e-6)
    B = rng.standard_normal((n, m))
    return LinearModel(A=A, B=B, Q=np.eye(n), R=np.eye(m))


def _f(v) -> str:
    return repr(float(v))


def run(seed: int, setup_done) -> dict:
    """Run the workload; ``setup_done()`` is called just before the first
    timed library call, once every fixed input has been built."""
    from lqshield import (
        adversarial,
        guarantees,
        synthesize,
    )
    from lqshield.environments import (
        CartPoleParams,
        ChargingConfig,
        cartpole_linearization,
        cartpole_residual,
        ev_environment,
    )

    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x0AC1E]))
    systems = []
    for k in range(N_RANDOM):
        n = 2 + k % 3
        m = n if k % 2 == 0 else 1
        radius = 0.3 + 0.9 * k / (N_RANDOM - 1)
        systems.append((f"random{k}", _random_system(rng, n, m, radius)))
    params = CartPoleParams()
    cart_model = cartpole_linearization(params)
    systems.append(("cartpole", cart_model))
    systems.append(("ev", ev_environment(ChargingConfig(), []).model))
    cart_residual = cartpole_residual(params, params)
    x0s = {name: rng.standard_normal(model.n) for name, model in systems}
    angles = rng.uniform(0.05, 0.3, size=TRAJOPT_STARTS)

    setup_done()
    records = []
    rollouts = steps = dare_iterations = trajopt_iterations = 0
    for name, model in systems:
        syn = synthesize(model, max_iter=20_000)
        dare_iterations += syn.iterations
        if model is cart_model:
            cart_syn = syn
        records.append(
            {
                "id": f"{name}/synthesize",
                "float": {"C_F": _f(syn.C_F), "rho_F": _f(syn.rho_F)},
                "matrix": {"P": syn.P.tolist(), "K": syn.K.tolist()},
            }
        )
        cap = guarantees.admissible_lipschitz_cap(syn)
        records.append({"id": f"{name}/cap", "float": {"cap": _f(cap)}})
        for frac in (0.0, 0.5):
            C_ell = frac * cap
            eps = 0.5 * max(guarantees.theorem_constants(syn, C_ell, 0.0).eps_max_stability, 0.0)
            c = guarantees.theorem_constants(syn, C_ell, eps)
            records.append(
                {
                    "id": f"{name}/constants@{frac:g}",
                    "exact": {"applicable": str(c.applicable)},
                    "float": {
                        k: _f(getattr(c, k))
                        for k in ("gamma", "mu", "eps_max_stability", "C_ell_max", "CR_model_bar")
                    },
                }
            )
        # the EV model's closed loop is a multiple of the identity, which
        # the construction rejects; the cart-pole B is not square
        if name.startswith("random") and model.m == model.n:
            cert = adversarial.construct_adversarial_K2(model, syn.K, 0.5, 0.5)
            x0 = x0s[name] / np.linalg.norm(x0s[name])
            combined, alone = adversarial.demonstrate_instability(
                cert, x0, CERT_HORIZON, blowup=CERT_BLOWUP
            )
            rollouts += 2
            steps += combined.horizon + alone.horizon
            records.append(
                {
                    "id": f"{name}/certificate",
                    "exact": {
                        "case": cert.construction_case,
                        "combined_diverged": str(combined.diverged),
                        "combined_steps": str(combined.horizon),
                        "alone_diverged": str(alone.diverged),
                        "alone_steps": str(alone.horizon),
                    },
                    "float": {
                        "rho_F1": _f(cert.rho_F1),
                        "rho_F2": _f(cert.rho_F2),
                        "rho_combined": _f(cert.rho_combined),
                        "combined_final_norm": _f(np.linalg.norm(combined.states[-1])),
                        "alone_final_norm": _f(np.linalg.norm(alone.states[-1])),
                    },
                }
            )
    for k, angle in enumerate(angles):
        x0 = np.array([0.0, 0.0, angle, 0.0])
        res = guarantees.opt_cost_trajopt(cart_model, cart_residual, x0, TRAJOPT_T, syn=cart_syn)
        # opt_cost_trajopt starts from one LQR rollout of T steps
        rollouts += 1
        steps += TRAJOPT_T
        trajopt_iterations += res.iterations_run
        records.append(
            {
                "id": f"cartpole/trajopt{k}",
                "exact": {"improved": str(res.improved)},
                "float": {"cost": _f(res.cost), "initial_cost": _f(res.initial_cost)},
            }
        )
    return {
        "records": records,
        "rollouts": rollouts,
        "steps": steps,
        "counters": {
            "dare_iterations": dare_iterations,
            "trajopt_iterations": trajopt_iterations,
        },
    }
