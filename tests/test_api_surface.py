"""Text pins on the package's settable surface.

The public API record lists, for every callable and dataclass that
``lqshield`` and ``lqshield.environments`` export, its parameter or field
names, and for every exported error type, its base class.  Each name is a
value a caller can set or an error a caller can catch, so adding,
removing or renaming one shows up as a diff of this record, to be
re-recorded on purpose.  The ``verify-bounds`` run pins the config
keys that subcommand reads, the way ``test_output_bits.py`` pins the
sweep's.
"""

import dataclasses
import inspect

import lqshield
import lqshield.environments
from lqshield.cli import EXIT_OK, main

API_SURFACE = (
    'lqshield.AdaptivePolicy(syn, blackbox, advice, alpha, lambda_source)\n'
    'lqshield.AdversarialCertificate(model, K1, K2, lam, beta, F2, construction_case, det_combined)\n'
    'lqshield.BoundCheck(ratio, model_term, error_term, nonlinear_term)\n'
    'lqshield.ConfidenceState(lambdas, t0, lambda_prime_raw, branches)\n'
    'lqshield.ConfigError: ValueError\n'
    'lqshield.DegenerateOPT: ValueError\n'
    'lqshield.LinearModel(A, B, Q, R)\n'
    'lqshield.NonStabilizable: RuntimeError\n'
    'lqshield.NotApplicable: RuntimeError\n'
    'lqshield.NotRun: RuntimeError\n'
    'lqshield.Policy(act)\n'
    'lqshield.PreconditionViolated: RuntimeError\n'
    'lqshield.ResidualModel(eval, eval_batch)\n'
    'lqshield.SessionConflict: ValueError\n'
    'lqshield.SessionParseError: ValueError\n'
    'lqshield.SingularB: ValueError\n'
    'lqshield.Synthesis(model, P, iterations)\n'
    'lqshield.TheoremConstants(C_ell, epsilon, gamma, mu, C_a_sys, C_b_sys, C_c_sys, CR_model_bar, eps_max_stability, C_ell_max, applicable, syn)\n'
    'lqshield.TrajOptResult(cost_history)\n'
    'lqshield.Trajectory(states, actions, residuals, step_costs, diverged)\n'
    'lqshield.ValidationError: ValueError\n'
    'lqshield.auxiliary_cost_closed_form(syn, disturbances, x0)\n'
    'lqshield.auxiliary_optimal_policy(syn, disturbances)\n'
    'lqshield.competitive_ratio(alg_traj, opt_cost, syn)\n'
    'lqshield.construct_adversarial_K2(model, K1, lam, beta)\n'
    'lqshield.demonstrate_instability(cert, x0, T, blowup)\n'
    'lqshield.disturbance_residual(w)\n'
    'lqshield.epsilon_consistent_blackbox(optimal, epsilon, bias_mode, rng_seed)\n'
    'lqshield.estimate_lipschitz(residual, samples, radius, rng_seed, n, m)\n'
    'lqshield.fit_stability_envelope(traj, predicted)\n'
    'lqshield.gain_policy(K)\n'
    'lqshield.lipschitz_residual(n, m, constant, seed)\n'
    'lqshield.lqr_policy(syn)\n'
    'lqshield.naive_convex_policy(black, advice, lambda_fixed)\n'
    'lqshield.nonnegative(policy)\n'
    'lqshield.opt_cost_time_only(syn, disturbances, x0)\n'
    'lqshield.opt_cost_trajopt(model, residual, x0, T, syn)\n'
    'lqshield.optimal_lambda(syn, f_star, f_hat, t)\n'
    'lqshield.parameterized_blackbox(syn, f_hat)\n'
    'lqshield.saturated(policy, limit)\n'
    'lqshield.simulate(model, residual, policy, x0, T, blowup)\n'
    'lqshield.solve_dare(model)\n'
    'lqshield.spectral_radius(M)\n'
    'lqshield.synthesize(model, max_iter)\n'
    'lqshield.theorem_constants(syn, C_ell, epsilon)\n'
    'lqshield.total_cost_with_tail(traj, syn)\n'
    'lqshield.verify_bounds(constants, ratio, lambda_limit, x0_norm)\n'
    'lqshield.write_trajectory_csv(traj, path)\n'
    'lqshield.zero_residual(n)\n'
    'lqshield.environments.CartPoleParams(g, m, M, l, tau, model_m, model_M)\n'
    'lqshield.environments.ChargingConfig(n_chargers, line_limit, tau, prices, phi)\n'
    'lqshield.environments.ChargingSession(arrival, departure, energy, station)\n'
    'lqshield.environments.EvEnvironment(model, residual, reward)\n'
    'lqshield.environments.cartpole_linearization(params)\n'
    'lqshield.environments.cartpole_residual(params_true, params_model)\n'
    'lqshield.environments.default_prices(steps)\n'
    'lqshield.environments.ev_environment(config, sessions)\n'
    'lqshield.environments.fit_demand_schedule(session_sets, steps, n_chargers)\n'
    'lqshield.environments.generate_sessions(seed, day_profile, n_chargers, steps)\n'
    'lqshield.environments.line_limited(policy, gamma)\n'
    'lqshield.environments.load_prices_csv(path)\n'
)

VERIFY_BOUNDS_CONFIG = (
    "[grid]\nc_ell_fractions = 0.2\nepsilon_fractions = 0.3\n[experiment]\nseeds = 1\n"
)

VERIFY_BOUNDS_EFFECTIVE_CONFIG = (
    'experiment.disturbance_steps = 50\n'
    'experiment.horizon = 120\n'
    'experiment.seeds = 1\n'
    'grid.alphas = 0.01\n'
    'grid.c_ell_fractions = 0.2\n'
    'grid.epsilon_fractions = 0.3\n'
    'system.A = 0.55,0.25;0,0.45\n'
    'system.B = 1,0;0,1\n'
    'system.Q = 1,0;0,1\n'
    'system.R = 1,0;0,1\n'
    'run.command = verify-bounds\n'
    'run.jobs = 1\n'
    'run.seed = 0\n'
)


def _api_surface() -> str:
    lines = []
    for module in (lqshield, lqshield.environments):
        for name, obj in sorted(vars(module).items()):
            if name.startswith("_") or inspect.ismodule(obj) or not callable(obj):
                continue
            if isinstance(obj, type) and issubclass(obj, Exception):
                lines.append(f"{module.__name__}.{name}: {obj.__base__.__name__}\n")
                continue
            if dataclasses.is_dataclass(obj):
                names = [f.name for f in dataclasses.fields(obj)]
            else:
                names = list(inspect.signature(obj).parameters)
            lines.append(f"{module.__name__}.{name}({', '.join(names)})\n")
    return "".join(lines)


def test_public_api_surface():
    assert _api_surface() == "".join(API_SURFACE)


def test_verify_bounds_effective_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(VERIFY_BOUNDS_CONFIG)
    out = tmp_path / "out"
    argv = ["verify-bounds", "--config", str(cfg), "--out", str(out), "--seed", "0"]
    assert main(argv) == EXIT_OK
    assert (out / "effective_config.txt").read_text() == "".join(VERIFY_BOUNDS_EFFECTIVE_CONFIG)
