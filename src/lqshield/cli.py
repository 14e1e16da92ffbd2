"""Experiment harness: reproducible sweeps, traces, and checks as CSV.

Subcommands
-----------
sweep-theta      cart-pole cost/divergence sweep over initial pole angles
stability-trace  per-step ||x_t|| and confidence traces for a policy roster
adversarial      build and demonstrate a destabilizing blend certificate
ev-compare       schedule-biased black box vs adaptive blend on charging days
verify-bounds    envelope and ratio checks over an (epsilon, C_ell) grid
dare             synthesis dump (P, K, F, H and envelope constants)

Every run is determined by (config file, --seed): all effective values,
including defaults, are echoed to <out>/effective_config.txt.  Exit
codes: 0 success, 2 config error, 3 precondition violation.
"""

from __future__ import annotations

import argparse
import configparser
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .adaptive import adaptive_policy
from .adversarial import construct_adversarial_K2, demonstrate_instability
from .environments.cartpole import (
    CartPoleParams,
    cartpole_linearization,
    cartpole_residual,
)
from .environments.ev_charging import (
    ChargingConfig,
    ev_environment,
    fit_demand_schedule,
    generate_sessions,
    line_limited,
    load_prices_csv,
)
from .errors import (
    ConfigError,
    NonStabilizable,
    NotApplicable,
    PreconditionViolated,
    SingularB,
)
from .guarantees import (
    CompetitiveReport,
    admissible_lipschitz_cap,
    competitive_ratio,
    fit_stability_envelope,
    opt_cost_time_only,
    theorem_constants,
    truncation_tail_bound,
    verify_bounds,
)
from .linalg_control import LinearModel, synthesize
from .plant import (
    _fmt,
    disturbance_residual,
    lipschitz_residual,
    simulate,
    write_csv,
    write_trajectory_csv,
)
from .policies import (
    auxiliary_optimal_policy,
    epsilon_consistent_blackbox,
    gain_policy,
    lqr_policy,
    naive_convex_policy,
    parameterized_blackbox,
    saturated,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PRECONDITION = 3


class RunConfig:
    """Layered key=value configuration with effective-value logging.

    Values come from an INI-style file (section headers, flat keys);
    every lookup records the value actually used so the run directory
    carries a complete, re-runnable configuration.
    """

    def __init__(self, path=None):
        self._values: dict[tuple[str, str], str] = {}
        self._effective: dict[tuple[str, str], str] = {}
        if path is not None:
            parser = configparser.ConfigParser()
            parser.optionxform = str  # keys are case-sensitive (matrix names)
            try:
                with open(path) as fh:
                    parser.read_file(fh)
            except OSError as exc:
                raise ConfigError(f"cannot read config {path}: {exc}") from exc
            except configparser.Error as exc:
                raise ConfigError(f"malformed config {path}: {exc}") from exc
            for section in parser.sections():
                for key, value in parser.items(section):
                    self._values[(section, key)] = value

    def get(self, section: str, key: str, default):
        raw = self._values.get((section, key))
        if raw is None:
            value = default
        else:
            caster = type(default)
            try:
                if caster is bool:
                    value = raw.strip().lower() in ("1", "true", "yes", "on")
                else:
                    value = caster(raw)
            except ValueError as exc:
                raise ConfigError(f"[{section}] {key} = {raw!r}: {exc}") from exc
        self._effective[(section, key)] = _fmt(value)
        return value

    def get_floats(self, section: str, key: str, default: str) -> list[float]:
        raw = self._values.get((section, key), default)
        try:
            values = [float(v) for v in raw.split(",") if v.strip() != ""]
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key} = {raw!r}: {exc}") from exc
        if not values:
            raise ConfigError(f"[{section}] {key}: grid must be non-empty")
        self._effective[(section, key)] = ",".join(repr(v) for v in values)
        return values

    def get_matrix(self, section: str, key: str, default: str) -> np.ndarray:
        raw = self._values.get((section, key), default)
        try:
            rows = [
                [float(v) for v in row.split(",")]
                for row in raw.strip().split(";")
                if row.strip() != ""
            ]
            M = np.array(rows, dtype=float)
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key} = {raw!r}: {exc}") from exc
        if M.size == 0:
            raise ConfigError(f"[{section}] {key}: matrix must be non-empty")
        self._effective[(section, key)] = raw
        return M

    def echo(self, out_dir: Path, extra: dict) -> None:
        lines = []
        for (section, key), value in sorted(self._effective.items()):
            lines.append(f"{section}.{key} = {value}")
        for key, value in sorted(extra.items()):
            lines.append(f"run.{key} = {value}")
        (out_dir / "effective_config.txt").write_text("\n".join(lines) + "\n")


def _seed_rng(*entropy) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(list(entropy)))


# ---------------------------------------------------------------------------
# cart-pole setup shared by sweep-theta and stability-trace
# ---------------------------------------------------------------------------


def _cartpole_params(cfg: RunConfig) -> CartPoleParams:
    return CartPoleParams(
        g=cfg.get("cartpole", "g", 9.8),
        m=cfg.get("cartpole", "pole_mass", 0.1),
        M=cfg.get("cartpole", "cart_mass", 1.0),
        l=cfg.get("cartpole", "pole_length", 2.0),
        tau=cfg.get("cartpole", "tau", 0.02),
        F_mag=cfg.get("cartpole", "force_mag", 10.0),
        model_m=cfg.get("cartpole", "model_pole_mass", 0.2),
        model_M=cfg.get("cartpole", "model_cart_mass", 2.0),
    )


class _CartpoleBench:
    """Builds the plant and the policy roster for one configuration."""

    def __init__(self, cfg: RunConfig):
        self.params = _cartpole_params(cfg)
        self.model = cartpole_linearization(self.params)
        self.syn = synthesize(self.model, max_iter=20_000)
        self.residual = cartpole_residual(self.params, self.params)
        true_model = cartpole_linearization(self.params.with_true_masses_as_model())
        self.syn_true = synthesize(true_model, max_iter=20_000)
        self.epsilon = cfg.get("cartpole", "blackbox_epsilon", 0.0)
        self.bias_mode = cfg.get("cartpole", "blackbox_bias_mode", "rotation")
        self.naive_lambda = cfg.get("cartpole", "naive_lambda", 0.8)
        self.alpha = cfg.get("cartpole", "alpha", 0.01)
        # 0 disables clamping; the crude LQR cannot recover theta=0.4
        # under the +-10 force clamp, so sweeps default to unclamped
        self.force_limit = cfg.get("cartpole", "force_limit", 0.0)

    def _clamped(self, policy):
        if self.force_limit > 0:
            return saturated(policy, self.force_limit)
        return policy

    def build(self, label: str, seed: int):
        advice = self._clamped(lqr_policy(self.syn))
        good_bb = self._clamped(
            epsilon_consistent_blackbox(
                lqr_policy(self.syn_true), self.epsilon, self.bias_mode, seed
            )
        )
        bad_bb = self._clamped(gain_policy(-self.syn.K, "destabilizing"))
        if label == "lqr":
            return advice
        if label == "blackbox":
            return good_bb
        if label == "destabilizing":
            return bad_bb
        if label == "naive":
            return naive_convex_policy(good_bb, advice, self.naive_lambda)
        if label == "naive-destabilizing":
            return naive_convex_policy(bad_bb, advice, self.naive_lambda)
        if label == "adaptive":
            return adaptive_policy(self.syn, good_bb, advice, self.alpha, "learned")
        if label == "adaptive-destabilizing":
            return adaptive_policy(self.syn, bad_bb, advice, self.alpha, "learned")
        raise ConfigError(f"unknown policy label {label!r}")


# the sweep's bench in this process: cmd_sweep_theta sets it, forked
# pool workers inherit it, and other workers build it in _init_worker
_bench: _CartpoleBench | None = None


def _init_worker(cfg: RunConfig) -> None:
    global _bench
    if _bench is None:
        _bench = _CartpoleBench(cfg)


def _sweep_task(task: tuple) -> list[tuple]:
    """One (theta, policy) cell of the sweep on this process's bench."""
    seed, theta_idx, theta, label, monte_carlo, horizon, blowup, jitter = task
    rows = []
    for mc in range(monte_carlo):
        rng = _seed_rng(seed, theta_idx, mc)
        x0 = np.array([0.0, 0.0, theta + rng.uniform(-jitter, jitter), 0.0])
        policy = _bench.build(label, seed=seed + 7919 * mc)
        traj = simulate(_bench.model, _bench.residual, policy, x0, horizon, blowup=blowup)
        lam_final = policy.lambdas[-1] if hasattr(policy, "lambdas") else ""
        cost, diverged = float(traj.total_cost), bool(traj.diverged)
        rows.append((theta, label, mc, cost, diverged, traj.horizon, lam_final))
    return rows


def cmd_sweep_theta(cfg: RunConfig, out: Path, seed: int, jobs: int) -> int:
    thetas = cfg.get_floats("sweep", "thetas", "0.1,0.2,0.3,0.4")
    monte_carlo = cfg.get("experiment", "monte_carlo", 10)
    horizon = cfg.get("experiment", "horizon", 1200)
    blowup = cfg.get("experiment", "blowup", 50.0)
    jitter = cfg.get("experiment", "initial_angle_variation", 0.05)
    roster = cfg.get("experiment", "policies", "lqr,blackbox,naive,adaptive").split(",")
    # building the bench here records the cartpole keys in the echoed
    # effective config; the tasks of this process then reuse it
    global _bench
    _bench = _CartpoleBench(cfg)
    tasks = [
        (seed, ti, theta, label.strip(), monte_carlo, horizon, blowup, jitter)
        for ti, theta in enumerate(thetas)
        for label in roster
    ]
    if jobs > 1:
        with ProcessPoolExecutor(
            max_workers=jobs, initializer=_init_worker, initargs=(cfg,)
        ) as pool:
            results = list(pool.map(_sweep_task, tasks))
    else:
        results = [_sweep_task(t) for t in tasks]
    rows = sorted(
        (r for chunk in results for r in chunk), key=lambda r: (r[0], r[1], r[2])
    )
    write_csv(
        out / "rows.csv",
        ["theta", "policy", "mc", "cost", "diverged", "steps", "lambda_final"],
        rows,
    )
    summary = []
    for theta in thetas:
        for label in roster:
            label = label.strip()
            cell = [r for r in rows if r[0] == theta and r[1] == label]
            finished = [r[3] for r in cell if not r[4]]
            mean_cost = float(np.mean(finished)) if finished else float("nan")
            summary.append((theta, label, mean_cost, sum(1 for r in cell if r[4]), len(cell)))
    write_csv(
        out / "summary.csv",
        ["theta", "policy", "mean_cost", "divergences", "runs"],
        summary,
    )
    return EXIT_OK


def cmd_stability_trace(cfg: RunConfig, out: Path, seed: int, jobs: int) -> int:
    theta = cfg.get("experiment", "theta", 0.4)
    horizon = cfg.get("experiment", "horizon", 1200)
    blowup = cfg.get("experiment", "blowup", 50.0)
    roster = cfg.get(
        "experiment", "policies", "lqr,adaptive-destabilizing,naive-destabilizing"
    ).split(",")
    bench = _CartpoleBench(cfg)
    x0 = np.array([0.0, 0.0, theta, 0.0])
    consts = theorem_constants(bench.syn, bench.residual.lipschitz, 0.0)
    for label in roster:
        label = label.strip()
        policy = bench.build(label, seed=seed)
        traj = simulate(bench.model, bench.residual, policy, x0, horizon, blowup=blowup)
        if not traj.diverged and consts.gamma < 1.0:
            tail = truncation_tail_bound(traj, bench.syn, consts.gamma)
            print(f"{label}: final ||x|| = {np.linalg.norm(traj.states[-1]):.3e}, "
                  f"truncation tail bound {tail:.3e}")
        else:
            print(f"{label}: diverged={traj.diverged}")
        norms = traj.state_norms()
        if hasattr(policy, "trace"):
            state = policy.trace()
            lams = list(state.lambdas)
            raws = ["" if np.isnan(r) else r for r in state.lambda_prime_raw]
        else:
            lams = [""] * traj.horizon
            raws = [""] * traj.horizon
        rows = [(t, norms[t], lams[t], raws[t]) for t in range(traj.horizon)]
        write_csv(
            out / f"trace_{label}.csv", ["t", "state_norm", "lambda_t", "lambda_prime_raw"], rows
        )
    return EXIT_OK


def _system_model(cfg: RunConfig, A_default: str, B_default: str) -> LinearModel:
    """The [system] plant: A and B, with Q and R defaulting to identities
    sized from them."""
    A = cfg.get_matrix("system", "A", A_default)
    B = cfg.get_matrix("system", "B", B_default)

    def identity(k: int) -> str:
        return ";".join(",".join("1" if i == j else "0" for j in range(k)) for i in range(k))

    Q = cfg.get_matrix("system", "Q", identity(A.shape[0]))
    R = cfg.get_matrix("system", "R", identity(B.shape[1]))
    try:
        return LinearModel(A=A, B=B, Q=Q, R=R)
    except ValueError as exc:
        raise ConfigError(f"[system] {exc}") from exc


def cmd_adversarial(cfg: RunConfig, out: Path, seed: int, jobs: int) -> int:
    model = _system_model(cfg, "0,1,0;0,0,1;0.2,0.1,0.3", "1,0,0;0,1,0;0,0,1")
    lam = cfg.get("adversarial", "lambda", 0.5)
    beta = cfg.get("adversarial", "beta", 0.5)
    horizon = cfg.get("adversarial", "horizon", 60)
    syn = synthesize(model)
    cert = construct_adversarial_K2(model, syn.K, lam, beta)
    (out / "certificate.txt").write_text(cert.summary_text() + "\n")
    rng = _seed_rng(seed)
    x0 = rng.standard_normal(model.n)
    x0 /= np.linalg.norm(x0)
    combined, alone = demonstrate_instability(cert, x0, horizon)
    write_trajectory_csv(combined, out / "combined.csv")
    write_trajectory_csv(alone, out / "partner_alone.csv")
    print(cert.summary_text())
    return EXIT_OK


def cmd_ev_compare(cfg: RunConfig, out: Path, seed: int, jobs: int) -> int:
    n_seeds = cfg.get("experiment", "seeds", 20)
    alpha = cfg.get("experiment", "alpha", 1e-3)
    training_days = cfg.get("experiment", "training_days", 15)
    prices_csv = cfg.get("ev", "prices_csv", "")
    settings = dict(
        n_chargers=cfg.get("ev", "n_chargers", 5),
        line_limit=cfg.get("ev", "line_limit", 6.6),
        tau=cfg.get("ev", "tau_minutes", 5.0) / 60.0,
        phi=(
            cfg.get("ev", "phi1", 50.0),
            cfg.get("ev", "phi2", 0.01),
            cfg.get("ev", "phi3", 10.0),
            cfg.get("ev", "phi4", 100.0),
        ),
    )
    try:
        if prices_csv:
            settings["prices"] = load_prices_csv(prices_csv)
        config = ChargingConfig(**settings)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"[ev] {exc}") from exc
    n, T, gamma = config.n_chargers, config.horizon, config.line_limit
    training = [generate_sessions(seed + k, "pre_covid", n, T) for k in range(training_days)]
    f_hat = fit_demand_schedule(training, T, n)
    syn = synthesize(ev_environment(config, []).model)
    # one schedule black box serves every day: f_hat is fixed and it is stateless
    schedule = parameterized_blackbox(syn, f_hat)
    rows = []
    for profile in ("pre_covid", "post_covid"):
        for s in range(n_seeds):
            day_seed = seed + 1000 + s
            sessions = generate_sessions(day_seed, profile, n, T)
            env = ev_environment(config, sessions)
            blackbox = line_limited(schedule, gamma)
            advice = line_limited(lqr_policy(syn), gamma)
            for label, policy in (
                ("blackbox", blackbox),
                ("adaptive", adaptive_policy(syn, blackbox, advice, alpha, "learned")),
                ("lqr", advice),
            ):
                traj = simulate(env.model, env.residual, policy, np.zeros(n), T)
                reward = float(np.sum(env.rewards_for_trajectory(traj)))
                rows.append((profile, s, label, reward))
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    write_csv(out / "rows.csv", ["profile", "seed", "policy", "total_reward"], rows)
    summary = []
    for profile in ("pre_covid", "post_covid"):
        vals = {
            label: [r[3] for r in rows if r[0] == profile and r[2] == label]
            for label in ("blackbox", "adaptive", "lqr")
        }
        wins = sum(1 for a, b in zip(vals["adaptive"], vals["blackbox"]) if a >= b)
        mean_bb = float(np.mean(vals["blackbox"]))
        mean_ad = float(np.mean(vals["adaptive"]))
        summary.append(
            (
                profile,
                mean_bb,
                mean_ad,
                float(np.mean(vals["lqr"])),
                wins,
                n_seeds,
                abs(mean_ad - mean_bb) <= 0.05 * abs(mean_bb),
            )
        )
    write_csv(
        out / "summary.csv",
        ["profile", "mean_blackbox", "mean_adaptive", "mean_lqr", "adaptive_wins", "seeds", "within_5pct"],
        summary,
    )
    return EXIT_OK


def cmd_verify_bounds(cfg: RunConfig, out: Path, seed: int, jobs: int) -> int:
    model = _system_model(cfg, "0.55,0.25;0,0.45", "1,0;0,1")
    syn = synthesize(model)
    ell_fracs = cfg.get_floats("grid", "c_ell_fractions", "0.1,0.5,0.9")
    eps_fracs = cfg.get_floats("grid", "epsilon_fractions", "0.1,0.5,0.9")
    alphas = cfg.get_floats("grid", "alphas", "0.01")
    n_seeds = cfg.get("experiment", "seeds", 10)
    horizon = cfg.get("experiment", "horizon", 120)
    c2 = cfg.get("bounds", "c2", 0.0)
    c3 = cfg.get("bounds", "c3", 1.0)
    disturbance_T = cfg.get("experiment", "disturbance_steps", 50)
    ell_cap = admissible_lipschitz_cap(syn)
    n = model.n
    rows = []
    for ell_frac in ell_fracs:
        C_ell = ell_frac * ell_cap * 0.999
        probe = theorem_constants(syn, C_ell, 0.0)
        for eps_frac in eps_fracs:
            eps = eps_frac * probe.eps_max_stability * 0.999
            consts = theorem_constants(syn, C_ell, eps)
            precondition_ok = not consts.violations() and consts.mu < consts.gamma
            for alpha in alphas:
                if not precondition_ok:
                    rows.append(
                        (C_ell, eps, alpha, False, "", "", "", "", "excluded")
                    )
                    continue
                eps_tilde = max(eps - consts.C_a_sys * C_ell, 0.0)
                env_pass = 0
                for s in range(n_seeds):
                    rng = _seed_rng(seed, 1, s)
                    resid = lipschitz_residual(n, model.m, C_ell, seed=seed + s)
                    x0 = rng.standard_normal(n)
                    x0 /= np.linalg.norm(x0)
                    bb = epsilon_consistent_blackbox(
                        lqr_policy(syn), eps_tilde, "rotation", seed + s
                    )
                    pol = adaptive_policy(syn, bb, lqr_policy(syn), alpha, "learned")
                    traj = simulate(model, resid, pol, x0, horizon)
                    rep = fit_stability_envelope(traj, consts)
                    env_pass += bool(rep.satisfied)
                # ratio benchmark: disturbance-only plant with exact reference
                ratios = []
                for s in range(n_seeds):
                    rng = _seed_rng(seed, 2, s)
                    w = [0.5 * rng.standard_normal(n) for _ in range(disturbance_T)]
                    x0 = rng.standard_normal(n)
                    opt = opt_cost_time_only(syn, w, x0)
                    bb = epsilon_consistent_blackbox(
                        auxiliary_optimal_policy(syn, w), eps, "rotation", seed + s
                    )
                    pol = adaptive_policy(
                        syn, bb, lqr_policy(syn), 1e-6, lambda_source=lambda t: 1.0
                    )
                    traj = simulate(
                        model, disturbance_residual(w), pol, x0, disturbance_T + 200
                    )
                    ratios.append(
                        competitive_ratio(traj, opt, "exact_time_only", syn=syn).ratio
                    )
                cr_mean = float(np.mean(ratios))
                check = verify_bounds(
                    consts,
                    CompetitiveReport(cr_mean, 1.0, cr_mean, "exact_time_only"),
                    lambda_limit=0.0,
                    x0_norm=1.0,
                    c2=None if c2 <= 0 else c2,
                    c3=c3,
                )
                rows.append(
                    (
                        C_ell,
                        eps,
                        alpha,
                        True,
                        env_pass / n_seeds,
                        cr_mean,
                        check.bound,
                        check.satisfied,
                        "ok",
                    )
                )
    write_csv(
        out / "grid.csv",
        [
            "C_ell",
            "epsilon",
            "alpha",
            "preconditions",
            "envelope_pass_rate",
            "cr_mean",
            "bound",
            "cr_within_bound",
            "status",
        ],
        rows,
    )
    return EXIT_OK


def cmd_dare(cfg: RunConfig, out: Path, seed: int, jobs: int) -> int:
    env_name = cfg.get("system", "environment", "custom")
    if env_name == "cartpole":
        model = cartpole_linearization(_cartpole_params(cfg))
    elif env_name == "ev":
        config = ChargingConfig(
            n_chargers=cfg.get("ev", "n_chargers", 5),
            tau=cfg.get("ev", "tau_minutes", 5.0) / 60.0,
        )
        model = ev_environment(config, []).model
    elif env_name == "custom":
        model = _system_model(cfg, "0.55,0.25;0,0.45", "1,0;0,1")
    else:
        raise ConfigError(f"unknown environment {env_name!r}")
    syn = synthesize(model, max_iter=20_000)
    lines = [
        f"n = {model.n}, m = {model.m}",
        f"dare_residual = {syn.dare_residual!r}",
        f"iterations = {syn.iterations}",
        f"rho(F) = {syn.rho_F!r}",
        f"rho = {syn.rho!r}",
        f"C_F = {syn.C_F!r} (T_check = {syn.T_check})",
        f"kappa = {syn.kappa!r}",
        f"sigma = {syn.sigma!r}",
        "P:", np.array2string(syn.P, precision=10),
        "K:", np.array2string(syn.K, precision=10),
        "F:", np.array2string(syn.F, precision=10),
        "H:", np.array2string(syn.H, precision=10),
    ]
    (out / "synthesis.txt").write_text("\n".join(lines) + "\n")
    rows = [("dare_residual", syn.dare_residual), ("rho_F", syn.rho_F), ("rho", syn.rho),
            ("C_F", syn.C_F), ("kappa", syn.kappa), ("sigma", syn.sigma),
            ("iterations", syn.iterations)]
    for name, M in (("P", syn.P), ("K", syn.K), ("F", syn.F), ("H", syn.H)):
        for i in range(M.shape[0]):
            for j in range(M.shape[1]):
                rows.append((f"{name}[{i}][{j}]", M[i, j]))
    write_csv(out / "synthesis.csv", ["quantity", "value"], rows)
    print("\n".join(lines))
    return EXIT_OK


_COMMANDS = {
    "sweep-theta": cmd_sweep_theta,
    "stability-trace": cmd_stability_trace,
    "adversarial": cmd_adversarial,
    "ev-compare": cmd_ev_compare,
    "verify-bounds": cmd_verify_bounds,
    "dare": cmd_dare,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="lqshield", description="experiment harness for LQR-advised policy blending"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", type=Path, default=None)
        p.add_argument("--out", type=Path, default=Path("out"))
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args(argv)
    try:
        cfg = RunConfig(args.config)
        args.out.mkdir(parents=True, exist_ok=True)
        code = _COMMANDS[args.command](cfg, args.out, args.seed, args.jobs)
        cfg.echo(
            args.out,
            {"command": args.command, "seed": args.seed, "jobs": args.jobs},
        )
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NotApplicable, PreconditionViolated, SingularB, NonStabilizable) as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
