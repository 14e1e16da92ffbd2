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
import difflib
import math
import operator
import sys
from pathlib import Path

import numpy as np

from .adaptive import AdaptivePolicy
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
    admissible_lipschitz_cap,
    competitive_ratio,
    fit_stability_envelope,
    opt_cost_time_only,
    theorem_constants,
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
    _HASH_RANGE,
    auxiliary_optimal_policy,
    epsilon_consistent_blackbox,
    gain_policy,
    lqr_policy,
    naive_convex_policy,
    parameterized_blackbox,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PRECONDITION = 3


class RunConfig:
    """Layered key=value configuration with effective-value logging.

    Values come from an INI-style file (section headers, flat keys).
    Every lookup records the value actually used, defaults included;
    ``echo`` writes those, the command, seed and jobs to
    ``effective_config.txt`` as ``section.key = value`` lines, a record
    of the run that ``--config`` does not read back.
    """

    def __init__(self, path=None):
        self._values: dict[tuple[str, str], str] = {}
        self._effective: dict[tuple[str, str], str] = {}
        if path is not None:
            # no section feeds the others, so [DEFAULT] is an unknown section
            parser = configparser.ConfigParser(default_section="")
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

    def get(self, section: str, key: str, default, *, least=None, above=None,
            most=None, below=None):
        """``[section] key`` as the type of ``default``, a config error outside
        the inclusive ``least``/``most`` or exclusive ``above``/``below``
        bounds, each of which NaN fails.

        A list default reads a comma list of entries of its elements' type,
        a set of distinct, non-empty entries: a repeated or empty entry, or
        a non-finite float, is a config error."""
        raw = self._values.get((section, key))
        listed = isinstance(default, list)
        entries = raw.split(",") if listed and raw is not None else []
        if any(not v.strip() for v in entries):
            raise ConfigError(f"[{section}] {key} = {raw!r}: entries must be non-empty")
        try:
            if raw is None:
                values = default if listed else [default]
            elif listed:
                values = [type(default[0])(v.strip()) for v in entries]
            else:
                values = [type(default)(raw)]
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key} = {raw!r}: {exc}") from exc
        if listed and not all(math.isfinite(v) for v in values if isinstance(v, float)):
            raise ConfigError(f"[{section}] {key} = {raw!r}: entries must be finite")
        if listed and len(set(values)) < len(values):
            raise ConfigError(f"[{section}] {key} = {raw!r}: entries must be distinct")
        bounds = ((least, operator.ge, "at least"), (above, operator.gt, "above"),
                  (most, operator.le, "at most"), (below, operator.lt, "below"))
        for v in values:
            for bound, holds, text in bounds:
                if bound is not None and not holds(v, bound):
                    raise ConfigError(f"[{section}] {key} = {v}: must be {text} {bound}")
        self._effective[(section, key)] = ",".join(_fmt(v) for v in values)
        return values if listed else values[0]

    def get_matrix(self, section: str, key: str, default: str) -> np.ndarray:
        raw = self.get(section, key, default)
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
        return M

    def check_read(self) -> None:
        """Reject, as a config error naming the nearest known name, a key
        never read in a section that was read, and an unknown section."""
        read = {section for section, _ in self._effective}
        for section, key in self._values:
            if section not in _SECTIONS:
                near = difflib.get_close_matches(section, _SECTIONS, 1, 0.0)
                raise ConfigError(f"unknown section [{section}]; nearest is [{near[0]}]")
            if section in read and (section, key) not in self._effective:
                keys = [k for s, k in self._effective if s == section]
                near = difflib.get_close_matches(key, keys, 1, 0.0)
                raise ConfigError(f"[{section}] {key} is not read here; nearest is {near[0]}")

    def echo(self, out_dir: Path, extra: dict) -> None:
        lines = []
        for (section, key), value in sorted(self._effective.items()):
            lines.append(f"{section}.{key} = {value}")
        for key, value in sorted(extra.items()):
            lines.append(f"run.{key} = {value}")
        (out_dir / "effective_config.txt").write_text("\n".join(lines) + "\n")


# the sections that some subcommand reads; each subcommand ignores the ones it does not
_SECTIONS = ("adversarial", "cartpole", "ev", "experiment", "grid", "sweep", "system")


def _seed_rng(*entropy) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(list(entropy)))


# ---------------------------------------------------------------------------
# cart-pole setup shared by sweep-theta and stability-trace
# ---------------------------------------------------------------------------


def _cartpole_models(cfg: RunConfig) -> tuple[CartPoleParams, LinearModel, LinearModel]:
    """The [cartpole] parameters and their linearizations at the model's
    masses and at the true masses."""
    settings = dict(
        g=cfg.get("cartpole", "g", 9.8),
        m=cfg.get("cartpole", "pole_mass", 0.1),
        M=cfg.get("cartpole", "cart_mass", 1.0),
        l=cfg.get("cartpole", "pole_length", 2.0),
        tau=cfg.get("cartpole", "tau", 0.02),
        model_m=cfg.get("cartpole", "model_pole_mass", 0.2),
        model_M=cfg.get("cartpole", "model_cart_mass", 2.0),
    )
    try:
        params = CartPoleParams(**settings)
        true_params = params.with_true_masses_as_model()
        return params, cartpole_linearization(params), cartpole_linearization(true_params)
    except ValueError as exc:
        raise ConfigError(f"[cartpole] {exc}") from exc


class _CartpoleBench:
    """Builds the plant and the policy roster for one configuration."""

    def __init__(self, cfg: RunConfig):
        self.params, self.model, true_model = _cartpole_models(cfg)
        self.syn = synthesize(self.model)
        self.residual = cartpole_residual(self.params, self.params)
        self.syn_true = synthesize(true_model)
        # the roster's stateless policies, shared by every build
        self.advice = lqr_policy(self.syn)
        self.destabilizing = gain_policy(-self.syn.K)
        self.true_lqr = lqr_policy(self.syn_true)
        self.epsilon = cfg.get(
            "cartpole", "blackbox_epsilon", 0.0, least=0.0, below=math.inf
        )
        self.naive_lambda = cfg.get("cartpole", "naive_lambda", 0.8, least=0.0, most=1.0)
        self.alpha = cfg.get("cartpole", "alpha", 0.01, above=0.0)

    def build(self, label: str, seed: int):
        source, blend = _ROSTER[label]
        if source == "good":
            policy = epsilon_consistent_blackbox(self.true_lqr, self.epsilon, "rotation", seed)
        else:
            policy = self.destabilizing if source == "bad" else self.advice
        if blend == "naive":
            return naive_convex_policy(policy, self.advice, self.naive_lambda)
        if blend == "adaptive":
            return AdaptivePolicy(self.syn, policy, self.advice, self.alpha, "learned")
        return policy

    def check_blowup(self, roster: list[str], blowup: float) -> None:
        """Config error when the roster runs the hashed black box (a "good"
        label at positive epsilon) and ``blowup`` lets a rollout reach
        states beyond the hash's range; a rollout stops once ||x|| > blowup."""
        hashed = self.epsilon > 0 and any(_ROSTER[label][0] == "good" for label in roster)
        if hashed and not blowup <= _HASH_RANGE:
            raise ConfigError(
                f"[experiment] blowup = {blowup}: the hashed black box "
                f"([cartpole] blackbox_epsilon = {self.epsilon}) quantizes states only "
                f"up to |x_i| = {_HASH_RANGE:g}, so blowup must be at most {_HASH_RANGE:g}"
            )


# each roster label's policy: a black box ("advice" is the LQR itself,
# "good" the epsilon-consistent rotation of the true-mass LQR, "bad" the
# destabilizing gain -K) and its blend with the LQR advice, if any
_ROSTER = {
    "lqr": ("advice", None),
    "blackbox": ("good", None),
    "destabilizing": ("bad", None),
    "naive": ("good", "naive"),
    "naive-destabilizing": ("bad", "naive"),
    "adaptive": ("good", "adaptive"),
    "adaptive-destabilizing": ("bad", "adaptive"),
}


def _roster(cfg: RunConfig, default: list[str]) -> list[str]:
    """The ``[experiment] policies`` labels, each checked to be known
    before any work."""
    labels = cfg.get("experiment", "policies", default)
    for label in labels:
        if label not in _ROSTER:
            raise ConfigError(f"unknown policy label {label!r}")
    return labels


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
    thetas = cfg.get("sweep", "thetas", [0.1, 0.2, 0.3, 0.4])
    monte_carlo = cfg.get("experiment", "monte_carlo", 10, least=1)
    horizon = cfg.get("experiment", "horizon", 1200, least=1)
    blowup = cfg.get("experiment", "blowup", 50.0, above=0.0)
    jitter = cfg.get("experiment", "initial_angle_variation", 0.05, least=0.0)
    # a sweep's initial states have norms up to |theta| + jitter
    for theta in thetas:
        if not abs(theta) + jitter < blowup:
            raise ConfigError(
                f"[sweep] thetas = {theta}: |theta| + initial_angle_variation "
                f"must be below blowup {blowup}"
            )
    roster = _roster(cfg, ["lqr", "blackbox", "naive", "adaptive"])
    # building the bench here records the cartpole keys in the echoed
    # effective config; the tasks of this process then reuse it
    global _bench
    _bench = _CartpoleBench(cfg)
    _bench.check_blowup(roster, blowup)
    cfg.check_read()
    tasks = [
        (seed, ti, theta, label, monte_carlo, horizon, blowup, jitter)
        for ti, theta in enumerate(thetas)
        for label in roster
    ]
    # a fork-started pool starts all of its workers at once: no more than the cells
    workers = min(jobs, len(tasks))
    if workers > 1:
        # imported here: the pool pulls in multiprocessing, which no other run needs
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(
            max_workers=workers, initializer=_init_worker, initargs=(cfg,)
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
    # pool.map returns each cell's rows in task order: thetas outer, roster inner
    for (_, _, theta, label, *_), cell in zip(tasks, results):
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
    # any finite angle: the strict bounds reject NaN too
    theta = cfg.get("experiment", "theta", 0.4, above=-math.inf, below=math.inf)
    horizon = cfg.get("experiment", "horizon", 1200, least=1)
    blowup = cfg.get("experiment", "blowup", 50.0, above=0.0)
    if not abs(theta) < blowup:
        raise ConfigError(f"[experiment] theta = {theta}: |theta| must be below blowup {blowup}")
    roster = _roster(cfg, ["lqr", "adaptive-destabilizing", "naive-destabilizing"])
    bench = _CartpoleBench(cfg)
    bench.check_blowup(roster, blowup)
    cfg.check_read()
    x0 = np.array([0.0, 0.0, theta, 0.0])
    for label in roster:
        policy = bench.build(label, seed=seed)
        traj = simulate(bench.model, bench.residual, policy, x0, horizon, blowup=blowup)
        print(f"{label}: diverged={traj.diverged}")
        norms = traj.state_norms()
        if hasattr(policy, "trace"):
            state = policy.trace()
            lams, branches = state.lambdas, state.branches
            raws = ["" if np.isnan(r) else r for r in state.lambda_prime_raw]
        else:
            lams = raws = branches = [""] * traj.horizon
        rows = [(t, norms[t], lams[t], raws[t], branches[t]) for t in range(traj.horizon)]
        header = ["t", "state_norm", "lambda_t", "lambda_prime_raw", "branch_taken"]
        write_csv(out / f"trace_{label}.csv", header, rows)
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
    lam = cfg.get("adversarial", "lambda", 0.5, above=0.0, below=1.0)
    beta = cfg.get("adversarial", "beta", 0.5, above=0.0, below=1.0)
    horizon = cfg.get("adversarial", "horizon", 60, least=1)
    cfg.check_read()
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
    n_seeds = cfg.get("experiment", "seeds", 20, least=1)
    alpha = cfg.get("experiment", "alpha", 1e-3, above=0.0)
    # training day k is seed + k and pre-COVID test day s is seed + 1000 + s,
    # so at most 1000 training days keep the two apart
    training_days = cfg.get("experiment", "training_days", 15, least=1, most=1000)
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
    cfg.check_read()
    n, T, gamma = config.n_chargers, config.horizon, config.line_limit
    training = [generate_sessions(seed + k, "pre_covid", n, T) for k in range(training_days)]
    f_hat = fit_demand_schedule(training, T, n)
    syn = synthesize(ev_environment(config, []).model)
    # one black box and one advice serve every day: f_hat is fixed and both are stateless
    blackbox = line_limited(parameterized_blackbox(syn, f_hat), gamma)
    advice = line_limited(lqr_policy(syn), gamma)
    rows, summary = [], []
    for profile in ("pre_covid", "post_covid"):
        vals = {"blackbox": [], "adaptive": [], "lqr": []}  # rewards in seed order
        for s in range(n_seeds):
            day_seed = seed + 1000 + s
            sessions = generate_sessions(day_seed, profile, n, T)
            env = ev_environment(config, sessions)
            for label, policy in (
                ("blackbox", blackbox),
                ("adaptive", AdaptivePolicy(syn, blackbox, advice, alpha, "learned")),
                ("lqr", advice),
            ):
                traj = simulate(env.model, env.residual, policy, np.zeros(n), T)
                reward = float(np.sum(env.rewards_for_trajectory(traj)))
                rows.append((profile, s, label, reward))
                vals[label].append(reward)
        wins = sum(1 for a, b in zip(vals["adaptive"], vals["blackbox"]) if a >= b)
        mean_bb = float(np.mean(vals["blackbox"]))
        mean_ad = float(np.mean(vals["adaptive"]))
        close = abs(mean_ad - mean_bb) <= 0.05 * abs(mean_bb)
        summary.append(
            (profile, mean_bb, mean_ad, float(np.mean(vals["lqr"])), wins, n_seeds, close)
        )
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    write_csv(out / "rows.csv", ["profile", "seed", "policy", "total_reward"], rows)
    write_csv(
        out / "summary.csv",
        ["profile", "mean_blackbox", "mean_adaptive", "mean_lqr", "adaptive_wins", "seeds", "within_5pct"],
        summary,
    )
    return EXIT_OK


def cmd_verify_bounds(cfg: RunConfig, out: Path, seed: int, jobs: int) -> int:
    model = _system_model(cfg, "0.55,0.25;0,0.45", "1,0;0,1")
    syn = synthesize(model)
    ell_fracs = cfg.get("grid", "c_ell_fractions", [0.1, 0.5, 0.9], least=0.0)
    eps_fracs = cfg.get("grid", "epsilon_fractions", [0.1, 0.5, 0.9], least=0.0)
    alphas = cfg.get("grid", "alphas", [0.01], above=0.0)
    n_seeds = cfg.get("experiment", "seeds", 10, least=1)
    horizon = cfg.get("experiment", "horizon", 120, least=1)
    disturbance_T = cfg.get("experiment", "disturbance_steps", 50, least=1)
    cfg.check_read()
    ell_cap = admissible_lipschitz_cap(syn)
    n = model.n
    lqr = lqr_policy(syn)
    # every input that depends only on the seed is drawn once, not per cell
    env_x0, ratio_runs = [], []
    for s in range(n_seeds):
        x0 = _seed_rng(seed, 1, s).standard_normal(n)
        env_x0.append(x0 / np.linalg.norm(x0))
        rng = _seed_rng(seed, 2, s)
        w = [0.5 * rng.standard_normal(n) for _ in range(disturbance_T)]
        x0 = rng.standard_normal(n)
        ratio_runs.append(
            (w, x0, auxiliary_optimal_policy(syn, w), disturbance_residual(w))
        )
    rows = []
    for ell_frac in ell_fracs:
        C_ell = ell_frac * ell_cap * 0.999
        probe = theorem_constants(syn, C_ell, 0.0)
        resids = [lipschitz_residual(n, model.m, C_ell, seed=seed + s) for s in range(n_seeds)]
        for eps_frac in eps_fracs:
            eps = eps_frac * probe.eps_max_stability * 0.999
            consts = theorem_constants(syn, C_ell, eps)
            failed = consts.violations()
            if consts.mu >= consts.gamma:
                failed.append(f"mu {consts.mu:g} >= gamma {consts.gamma:g}")
            for alpha in alphas:
                if failed:
                    status = "excluded: " + "; ".join(failed)
                    rows.append((C_ell, eps, alpha, False, "", "", "", "", status))
                    continue
                eps_tilde = max(eps - consts.C_a_sys * C_ell, 0.0)
                env_pass = 0
                for s, (x0, resid) in enumerate(zip(env_x0, resids)):
                    bb = epsilon_consistent_blackbox(lqr, eps_tilde, "rotation", seed + s)
                    pol = AdaptivePolicy(syn, bb, lqr, alpha, "learned")
                    traj = simulate(model, resid, pol, x0, horizon)
                    env_pass += bool(fit_stability_envelope(traj, consts))
                # ratio benchmark: disturbance-only plant with exact reference
                ratios = []
                for s, (w, x0, optimal, resid) in enumerate(ratio_runs):
                    opt = opt_cost_time_only(syn, w, x0)
                    bb = epsilon_consistent_blackbox(optimal, eps, "rotation", seed + s)
                    pol = AdaptivePolicy(syn, bb, lqr, 1e-6, lambda_source=lambda t: 1.0)
                    traj = simulate(model, resid, pol, x0, disturbance_T + 200)
                    ratios.append(competitive_ratio(traj, opt, syn=syn))
                cr_mean = float(np.mean(ratios))
                check = verify_bounds(consts, cr_mean, lambda_limit=0.0, x0_norm=1.0)
                rows.append((C_ell, eps, alpha, True, env_pass / n_seeds, cr_mean,
                             check.bound, check.satisfied, "ok"))
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
        model = _cartpole_models(cfg)[1]
    elif env_name == "ev":
        n_chargers = cfg.get("ev", "n_chargers", 5)
        tau = cfg.get("ev", "tau_minutes", 5.0) / 60.0
        try:
            config = ChargingConfig(n_chargers=n_chargers, tau=tau)
        except ValueError as exc:
            raise ConfigError(f"[ev] {exc}") from exc
        model = ev_environment(config, []).model
    elif env_name == "custom":
        model = _system_model(cfg, "0.55,0.25;0,0.45", "1,0;0,1")
    else:
        raise ConfigError(f"unknown environment {env_name!r}")
    cfg.check_read()
    syn = synthesize(model)
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
        if args.seed < 0:
            raise ConfigError(f"--seed {args.seed}: must be non-negative")
        if args.jobs < 1:
            raise ConfigError(f"--jobs {args.jobs}: must be at least 1")
        cfg = RunConfig(args.config)
        try:
            args.out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create --out {args.out}: {exc}") from exc
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
