import csv
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

import lqshield.cli as cli
from lqshield.cli import EXIT_CONFIG, EXIT_OK, EXIT_PRECONDITION, RunConfig, main

ROOT = Path(__file__).resolve().parents[1]


def run(tmp_path, *args):
    out = tmp_path / "out"
    return main([*args, "--out", str(out)]), out


def read_rows(path):
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        return list(reader)


def test_dare_custom_system(tmp_path, capsys):
    code, out = run(tmp_path, "dare", "--seed", "1")
    assert code == EXIT_OK
    assert (out / "synthesis.txt").exists()
    rows = {r["quantity"]: r["value"] for r in read_rows(out / "synthesis.csv")}
    assert float(rows["dare_residual"]) < 1e-9
    assert float(rows["rho_F"]) < 1.0
    assert (out / "effective_config.txt").exists()


def test_dare_cartpole(tmp_path):
    cfg = tmp_path / "cp.cfg"
    cfg.write_text("[system]\nenvironment = cartpole\n")
    code, out = run(tmp_path, "dare", "--config", str(cfg))
    assert code == EXIT_OK
    rows = {r["quantity"]: r["value"] for r in read_rows(out / "synthesis.csv")}
    assert float(rows["rho_F"]) < 1.0


def test_config_error_exit_code(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[system]\nenvironment = never_heard_of_it\n")
    code, _ = run(tmp_path, "dare", "--config", str(cfg))
    assert code == EXIT_CONFIG


def test_malformed_config_exit_code(tmp_path):
    cfg = tmp_path / "malformed.cfg"
    cfg.write_text("no section header here\nkey = value\n")
    code, _ = run(tmp_path, "dare", "--config", str(cfg))
    assert code == EXIT_CONFIG


def test_nonstabilizable_exit_code(tmp_path):
    cfg = tmp_path / "nost.cfg"
    cfg.write_text("[system]\nA = 2,0;0,0.5\nB = 0,0;0,1\nQ = 1,0;0,1\nR = 1,0;0,1\n")
    code, _ = run(tmp_path, "dare", "--config", str(cfg))
    assert code == EXIT_PRECONDITION


def test_adversarial_not_applicable_exit_code(tmp_path):
    # A = c I with B = I synthesizes F = gamma I: the construction
    # has no applicable case and must surface exit code 3
    cfg = tmp_path / "gamma_i.cfg"
    cfg.write_text("[system]\nA = 0.5,0;0,0.5\nB = 1,0;0,1\n")
    code, _ = run(tmp_path, "adversarial", "--config", str(cfg))
    assert code == EXIT_PRECONDITION


def test_adversarial_one_state_exit_code(tmp_path):
    # the construction needs n > 1: a scalar plant is outside its hypotheses
    cfg = tmp_path / "scalar.cfg"
    cfg.write_text("[system]\nA = 0.5\nB = 1\n")
    code, out = run(tmp_path, "adversarial", "--config", str(cfg))
    assert code == EXIT_PRECONDITION
    assert not (out / "certificate.txt").exists()


def test_adversarial_default_system(tmp_path):
    code, out = run(tmp_path, "adversarial", "--seed", "3")
    assert code == EXIT_OK
    text = (out / "certificate.txt").read_text()
    assert "rho(combined)" in text
    rho_line = [l for l in text.splitlines() if l.startswith("rho(combined)")][0]
    assert float(rho_line.split(":")[1]) > 1.0
    assert (out / "combined.csv").exists() and (out / "partner_alone.csv").exists()


@pytest.fixture(scope="module")
def small_sweep(tmp_path_factory):
    base = tmp_path_factory.mktemp("sweep")
    cfg = base / "sweep.cfg"
    cfg.write_text(
        "[sweep]\nthetas = 0.1,0.3\n"
        "[experiment]\nmonte_carlo = 3\nhorizon = 400\npolicies = lqr,adaptive\n"
    )
    out = base / "out"
    code = main(["sweep-theta", "--config", str(cfg), "--out", str(out), "--seed", "5"])
    assert code == EXIT_OK
    return cfg, out


def test_sweep_outputs_and_summary_round_trip(small_sweep):
    _, out = small_sweep
    rows = read_rows(out / "rows.csv")
    assert len(rows) == 2 * 2 * 3
    summary = read_rows(out / "summary.csv")
    # recompute the summary from the emitted rows: must match exactly
    for s in summary:
        cell = [
            r
            for r in rows
            if r["theta"] == s["theta"] and r["policy"] == s["policy"] and r["diverged"] == "False"
        ]
        mean = float(np.mean([float(r["cost"]) for r in cell]))
        assert mean == float(s["mean_cost"])
        assert int(s["runs"]) == 3


def test_sweep_reproducible_and_jobs_invariant(small_sweep, tmp_path):
    cfg, out = small_sweep
    out2 = tmp_path / "again"
    assert main(["sweep-theta", "--config", str(cfg), "--out", str(out2), "--seed", "5"]) == EXIT_OK
    assert (out / "rows.csv").read_bytes() == (out2 / "rows.csv").read_bytes()
    out3 = tmp_path / "jobs2"
    assert (
        main(["sweep-theta", "--config", str(cfg), "--out", str(out3), "--seed", "5", "--jobs", "2"])
        == EXIT_OK
    )
    assert (out / "rows.csv").read_bytes() == (out3 / "rows.csv").read_bytes()


def test_sweep_effective_config_lists_values(small_sweep):
    _, out = small_sweep
    text = (out / "effective_config.txt").read_text()
    assert "experiment.monte_carlo = 3" in text
    assert "cartpole.pole_mass = 0.1" in text
    assert "run.seed = 5" in text


def test_stability_trace_outputs(tmp_path):
    cfg = tmp_path / "trace.cfg"
    cfg.write_text("[experiment]\nhorizon = 200\npolicies = lqr,adaptive-destabilizing\n")
    code, out = run(tmp_path, "stability-trace", "--config", str(cfg), "--seed", "2")
    assert code == EXIT_OK
    rows = read_rows(out / "trace_adaptive-destabilizing.csv")
    lams = [float(r["lambda_t"]) for r in rows]
    assert lams[0] == 1.0
    assert all(b <= a for a, b in zip(lams, lams[1:]))
    lqr_rows = read_rows(out / "trace_lqr.csv")
    norms = [float(r["state_norm"]) for r in lqr_rows]
    assert norms[-1] < norms[0]
    assert all(r["lambda_t"] == "" for r in lqr_rows)


@pytest.mark.parametrize("label", list(cli._ROSTER))
def test_stability_trace_confidence_columns(tmp_path, monkeypatch, label):
    # the CSV states what the policy's own record says it did, step by step
    built = []
    build = cli._CartpoleBench.build

    def recording(self, name, seed):
        built.append(build(self, name, seed))
        return built[-1]

    monkeypatch.setattr(cli._CartpoleBench, "build", recording)
    cfg = tmp_path / "trace.cfg"
    cfg.write_text(
        f"[experiment]\nhorizon = 80\npolicies = {label}\n[cartpole]\nblackbox_epsilon = 0.1\n"
    )
    code, out = run(tmp_path, "stability-trace", "--config", str(cfg), "--seed", "1")
    assert code == EXIT_OK
    (policy,) = built
    rows = read_rows(out / f"trace_{label}.csv")
    got = [(r["lambda_t"], r["lambda_prime_raw"], r["branch_taken"]) for r in rows]
    if label.startswith("adaptive"):
        state = policy.trace()
        want = [
            (repr(lam), "" if np.isnan(raw) else repr(raw), branch)
            for lam, raw, branch in zip(state.lambdas, state.lambda_prime_raw, state.branches)
        ]
        assert {"init", "cutoff"} <= set(state.branches)
    else:
        assert not hasattr(policy, "trace")
        want = [("", "", "")] * len(rows)
    assert got == want


@pytest.mark.parametrize(
    "command, config, seed",
    [
        (
            "verify-bounds",
            "[grid]\nc_ell_fractions = 0.2\nepsilon_fractions = 0.3\n[experiment]\nseeds = 1\n",
            2**63,
        ),
        # the sweep seeds rollout mc's black box with seed + 7919 mc
        (
            "sweep-theta",
            "[sweep]\nthetas = 0.1\n[experiment]\nmonte_carlo = 2\nhorizon = 20\n"
            "policies = blackbox\n[cartpole]\nblackbox_epsilon = 0.1\n",
            2**63 - 8,
        ),
    ],
    ids=["verify-bounds", "sweep-theta"],
)
def test_seed_past_int64_hashes_the_rotation(tmp_path, command, config, seed):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    code, _ = run(tmp_path, command, "--config", str(cfg), "--seed", str(seed))
    assert code == EXIT_OK


def test_ev_compare_small(tmp_path):
    cfg = tmp_path / "ev.cfg"
    cfg.write_text("[experiment]\nseeds = 4\ntraining_days = 5\n")
    code, out = run(tmp_path, "ev-compare", "--config", str(cfg), "--seed", "0")
    assert code == EXIT_OK
    rows = read_rows(out / "rows.csv")
    assert len(rows) == 2 * 4 * 3
    summary = read_rows(out / "summary.csv")
    post = [s for s in summary if s["profile"] == "post_covid"][0]
    assert int(post["adaptive_wins"]) == 4


@pytest.mark.parametrize(
    "prices",
    ["price\n0.5\nnot_a_number\n", "price\n", "price\n0.5\nnan\n0.5\n"],
    ids=["non-numeric", "header-only", "nan"],
)
def test_ev_compare_bad_prices_is_config_error(tmp_path, capsys, prices):
    path = tmp_path / "prices.csv"
    path.write_text(prices)
    cfg = tmp_path / "ev.cfg"
    cfg.write_text(f"[experiment]\nseeds = 1\ntraining_days = 1\n[ev]\nprices_csv = {path}\n")
    code, out = run(tmp_path, "ev-compare", "--config", str(cfg))
    assert code == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err
    assert not (out / "rows.csv").exists()


def test_verify_bounds_small(tmp_path):
    cfg = tmp_path / "vb.cfg"
    cfg.write_text(
        "[grid]\nc_ell_fractions = 0.2,0.8\nepsilon_fractions = 0.3\nalphas = 0.02\n"
        "[experiment]\nseeds = 3\nhorizon = 80\ndisturbance_steps = 30\n"
    )
    code, out = run(tmp_path, "verify-bounds", "--config", str(cfg), "--seed", "1")
    assert code == EXIT_OK
    rows = read_rows(out / "grid.csv")
    assert len(rows) == 2
    for r in rows:
        assert r["status"] == "ok"
        assert float(r["envelope_pass_rate"]) == 1.0
        assert r["cr_within_bound"] == "True"
        assert float(r["cr_mean"]) >= 1.0 - 1e-9


def test_sweep_equilibrium_start_is_costless(tmp_path):
    cfg = tmp_path / "eq.cfg"
    cfg.write_text(
        "[sweep]\nthetas = 0.0\n"
        "[experiment]\nmonte_carlo = 2\nhorizon = 100\npolicies = lqr\n"
        "initial_angle_variation = 0.0\n"
    )
    code, out = run(tmp_path, "sweep-theta", "--config", str(cfg))
    assert code == EXIT_OK
    summary = read_rows(out / "summary.csv")[0]
    assert float(summary["mean_cost"]) == pytest.approx(0.0, abs=1e-20)
    assert summary["divergences"] == "0"


def test_verify_bounds_marks_violations_excluded(tmp_path):
    cfg = tmp_path / "excl.cfg"
    cfg.write_text(
        "[grid]\nc_ell_fractions = 0.2\nepsilon_fractions = 1.5,4\nalphas = 0.02\n"
        "[experiment]\nseeds = 2\nhorizon = 60\ndisturbance_steps = 20\n"
    )
    code, out = run(tmp_path, "verify-bounds", "--config", str(cfg))
    assert code == EXIT_OK
    rows = read_rows(out / "grid.csv")
    # each failed precondition is named: TheoremConstants.violations() and mu >= gamma
    assert [r["status"] for r in rows] == [
        "excluded: epsilon 0.335634 >= eps_max 0.22398",
        "excluded: epsilon 0.895023 >= eps_max 0.22398; mu 0.90877 >= gamma 0.634558",
    ]
    assert [r["preconditions"] for r in rows] == ["False", "False"]


def test_sweep_synthesizes_once_per_process(tmp_path, monkeypatch):
    import lqshield.cli as cli

    calls = []
    real = cli.synthesize

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "synthesize", counting)
    cfg = tmp_path / "many.cfg"
    cfg.write_text(
        "[sweep]\nthetas = 0.1,0.2,0.3\n"
        "[experiment]\nmonte_carlo = 2\nhorizon = 50\npolicies = lqr,naive,adaptive\n"
    )
    code, out = run(tmp_path, "sweep-theta", "--config", str(cfg), "--jobs", "1")
    assert code == EXIT_OK
    assert len(read_rows(out / "rows.csv")) == 3 * 3 * 2
    # the crude and the true-mass models, each synthesized once
    assert len(calls) == 2


def test_verify_bounds_builds_stateless_inputs_once(tmp_path, monkeypatch):
    builds = {"lqr_policy": 0, "lipschitz_residual": 0}
    for name in builds:
        real = getattr(cli, name)

        def counting(*args, _name=name, _real=real, **kwargs):
            builds[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(cli, name, counting)
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(
        "[grid]\nc_ell_fractions = 0.1,0.5\nepsilon_fractions = 0.1,0.5\n"
        "[experiment]\nseeds = 2\nhorizon = 20\ndisturbance_steps = 5\n"
    )
    code, out = run(tmp_path, "verify-bounds", "--config", str(cfg))
    assert code == EXIT_OK
    assert [r["status"] for r in read_rows(out / "grid.csv")] == ["ok"] * 4
    # one advice per run, one residual per (C_ell, seed)
    assert builds == {"lqr_policy": 1, "lipschitz_residual": 2 * 2}


def test_ev_compare_builds_policies_once(tmp_path, monkeypatch):
    built = []
    real = cli.line_limited
    monkeypatch.setattr(cli, "line_limited", lambda *a: built.append(a) or real(*a))
    cfg = tmp_path / "ev.cfg"
    cfg.write_text("[experiment]\nseeds = 2\ntraining_days = 1\n")
    code, out = run(tmp_path, "ev-compare", "--config", str(cfg))
    assert code == EXIT_OK
    assert len(read_rows(out / "rows.csv")) == 2 * 2 * 3
    # the line-limited black box and advice
    assert len(built) == 2


def test_dare_sizes_default_costs_from_system(tmp_path):
    # the 3x3 [system] of the adversarial config gets 3x3 identity Q and R
    code, out = run(tmp_path, "dare", "--config", str(ROOT / "configs" / "adversarial.cfg"))
    assert code == EXIT_OK
    rows = {r["quantity"]: r["value"] for r in read_rows(out / "synthesis.csv")}
    assert "P[2][2]" in rows and "K[2][2]" in rows
    assert float(rows["dare_residual"]) < 1e-9
    text = (out / "effective_config.txt").read_text()
    assert "system.Q = 1,0,0;0,1,0;0,0,1" in text


@pytest.mark.parametrize("B", ["1,0;0,1;1,1", ""])
@pytest.mark.parametrize("command", ["dare", "adversarial", "verify-bounds"])
def test_mismatched_system_is_config_error(tmp_path, capsys, command, B):
    cfg = tmp_path / "mismatch.cfg"
    cfg.write_text(f"[system]\nA = 0.5,0.1;0,0.4\nB = {B}\n")
    code, _ = run(tmp_path, command, "--config", str(cfg))
    assert code == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def _readme_invocations() -> dict:
    """command -> argv of each `lqshield ...` line in the README."""
    lines = (ROOT / "README.md").read_text().splitlines()
    argvs = [shlex.split(l)[1:] for l in lines if l.startswith("lqshield ")]
    return {argv[0]: argv for argv in argvs}


@pytest.mark.parametrize("command", ["stability-trace", "adversarial", "dare"])
def test_documented_invocation_runs(tmp_path, monkeypatch, command):
    argv = _readme_invocations()[command]
    out = argv.index("--out")
    argv[out + 1] = str(tmp_path / "out")
    monkeypatch.chdir(ROOT)
    assert main(argv) == EXIT_OK


def test_readme_library_tour_runs(capsys):
    (tour,) = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    exec(compile(tour, "README.md", "exec"), {})
    assert capsys.readouterr().out


def test_sweep_worker_builds_bench_once(tmp_path, monkeypatch):
    import lqshield.cli as cli

    cfg = cli.RunConfig()
    # (seed, theta_idx, theta, label, monte_carlo, horizon, blowup, jitter)
    task = (4, 1, 0.3, "adaptive", 2, 120, 50.0, 0.05)
    monkeypatch.setattr(cli, "_bench", None)
    cli._init_worker(cfg)
    assert cli._bench is not None
    worker_rows = cli._sweep_task(task)
    monkeypatch.setattr(cli, "_bench", cli._CartpoleBench(cfg))
    assert worker_rows == cli._sweep_task(task)

    calls = []
    real = cli.synthesize

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "synthesize", counting)
    present = cli._bench
    cli._init_worker(cfg)
    assert cli._bench is present
    assert calls == []


@pytest.mark.parametrize(
    "command",
    ["sweep-theta", "stability-trace", "adversarial", "ev-compare", "verify-bounds", "dare"],
)
def test_negative_seed_is_config_error(tmp_path, capsys, command):
    code, _ = run(tmp_path, command, "--seed", "-1")
    assert code == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", ["0", "-5"])
def test_jobs_below_one_is_config_error(tmp_path, capsys, jobs):
    code, out = run(tmp_path, "dare", "--jobs", jobs)
    assert code == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("below", [None, "sub"])
def test_out_that_cannot_be_created_is_config_error(tmp_path, capsys, below):
    taken = tmp_path / "taken"
    taken.write_text("keep\n")
    out = taken if below is None else taken / below
    code = main(["dare", "--out", str(out)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and "--out" in err
    assert taken.read_text() == "keep\n"


@pytest.mark.parametrize("policies, workers", [("lqr,adaptive", [2]), ("lqr", [])])
def test_sweep_pool_has_at_most_one_worker_per_cell(tmp_path, monkeypatch, policies, workers):
    import concurrent.futures

    started = []

    class RecordingPool:
        """Records the pool size and runs the cells in this process."""

        def __init__(self, max_workers, initializer, initargs):
            started.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        f"[sweep]\nthetas = 0.1\n[experiment]\nmonte_carlo = 1\nhorizon = 20\n"
        f"policies = {policies}\n"
    )
    code, out = run(tmp_path, "sweep-theta", "--config", str(cfg), "--jobs", "3")
    assert code == EXIT_OK
    assert started == workers
    assert "run.jobs = 3" in (out / "effective_config.txt").read_text()


@pytest.mark.parametrize(
    "command, config",
    [
        ("verify-bounds", "[experiment]\nseeds = 0\n"),
        ("verify-bounds", "[experiment]\nhorizon = 0\n"),
        ("verify-bounds", "[experiment]\ndisturbance_steps = 0\n"),
        ("sweep-theta", "[experiment]\nhorizon = 0\n"),
        ("stability-trace", "[experiment]\nhorizon = 0\n"),
        ("adversarial", "[adversarial]\nhorizon = 0\n"),
        ("ev-compare", "[experiment]\nseeds = 0\n"),
        ("sweep-theta", "[experiment]\nmonte_carlo = 0\n"),
        ("verify-bounds", "[grid]\nalphas = -1\n"),
        ("ev-compare", "[experiment]\nalpha = 0\n"),
        ("sweep-theta", "[cartpole]\nalpha = 0\n"),
        ("ev-compare", "[experiment]\nseeds = 1\ntraining_days = 0\n"),
        ("ev-compare", "[experiment]\nseeds = 1\ntraining_days = -3\n"),
        ("ev-compare", "[experiment]\nseeds = 1\ntraining_days = 1001\n"),
        ("sweep-theta", "[experiment]\nblowup = -1\n"),
        ("stability-trace", "[experiment]\nblowup = 0\n"),
        ("sweep-theta", "[cartpole]\nnaive_lambda = 2\n"),
        ("sweep-theta", "[cartpole]\nblackbox_epsilon = -1\n"),
        (
            "sweep-theta",
            "[sweep]\nthetas = 0.1\n[experiment]\nmonte_carlo = 1\nhorizon = 5\n"
            "[cartpole]\nblackbox_epsilon = inf\n",
        ),
        ("stability-trace", "[experiment]\nhorizon = 5\n[cartpole]\nblackbox_epsilon = inf\n"),
        ("sweep-theta", "[cartpole]\npole_mass = 0\n"),
        ("sweep-theta", "[cartpole]\ntau = nan\n"),
        ("sweep-theta", "[sweep]\nthetas = nan\n"),
        ("sweep-theta", "[experiment]\ninitial_angle_variation = nan\n"),
        ("adversarial", "[adversarial]\nlambda = 2\n"),
        ("adversarial", "[adversarial]\nbeta = -1\n"),
        ("dare", "[system]\nenvironment = ev\n[ev]\nn_chargers = 0\n"),
        ("dare", "[system]\nenvironment = ev\n[ev]\ntau_minutes = nan\n"),
        ("verify-bounds", "[grid]\nc_ell_fractions = -0.5\n"),
        ("verify-bounds", "[grid]\nepsilon_fractions = -0.5\n"),
        ("verify-bounds", "[grid]\nepsilon_fractions = nan\n"),
        ("stability-trace", "[experiment]\ntheta = nan\n"),
        ("stability-trace", "[experiment]\ntheta = inf\n"),
        ("stability-trace", "[experiment]\ntheta = -inf\n"),
        ("ev-compare", "[experiment]\nseeds = 1\ntraining_days = 1\n[ev]\nphi1 = nan\n"),
        ("ev-compare", "[experiment]\nseeds = 1\ntraining_days = 1\n[ev]\nphi4 = inf\n"),
        ("verify-bounds", "[system]\nA = nan,0.25;0,0.45\n"),
        ("verify-bounds", "[system]\nB = 1,0;0,inf\n"),
        ("dare", "[system]\nA = nan,0.25;0,0.45\n"),
        ("dare", "[system]\nB = 1,0;0,inf\n"),
        ("dare", "[system]\nQ = inf,0;0,1\n"),
        ("dare", "[system]\nR = inf,0;0,1\n"),
        ("dare", "[system]\nenvironment = cartpole\n[cartpole]\ng = inf\n"),
        ("dare", "[system]\nenvironment = cartpole\n[cartpole]\ntau = 1e308\n"),
        ("dare", "[system]\nenvironment = ev\n[ev]\ntau_minutes = inf\n"),
        ("stability-trace", "[experiment]\npolicies = lqr,bogus\n"),
        ("sweep-theta", "[experiment]\npolicies = lqr,bogus\n"),
        ("stability-trace", "[experiment]\npolicies = lqr,lqr\nhorizon = 5\n"),
        (
            "sweep-theta",
            "[experiment]\npolicies = lqr,lqr\nmonte_carlo = 1\nhorizon = 5\n"
            "[sweep]\nthetas = 0.1\n",
        ),
        ("stability-trace", "[experiment]\ntheta = 1e300\nhorizon = 5\n"),
        ("sweep-theta", "[experiment]\nmonte_carlo = 1\nhorizon = 5\n[sweep]\nthetas = 1e300\n"),
        (
            "sweep-theta",
            "[experiment]\nmonte_carlo = 1\nhorizon = 5\nblowup = 1\n"
            "initial_angle_variation = 0.5\n[sweep]\nthetas = 0.6\n",
        ),
        (
            "sweep-theta",
            "[experiment]\nmonte_carlo = 1\nhorizon = 5\npolicies = lqr\n"
            "[sweep]\nthetas = 0.1,0.10\n",
        ),
        (
            "sweep-theta",
            "[experiment]\nmonte_carlo = 1\nhorizon = 5\npolicies = lqr\n"
            "[sweep]\nthetas = 0.1,,0.2\n",
        ),
        ("stability-trace", "[experiment]\npolicies = lqr,,adaptive\nhorizon = 5\n"),
        (
            "verify-bounds",
            "[grid]\nc_ell_fractions = 0.2,0.2\nepsilon_fractions = 0.3\n[experiment]\nseeds = 1\n",
        ),
        (
            "verify-bounds",
            "[grid]\nc_ell_fractions = 0.2,\nepsilon_fractions = 0.3\n[experiment]\nseeds = 1\n",
        ),
        (
            "verify-bounds",
            "[grid]\nc_ell_fractions = 0.2\nepsilon_fractions = 0.3,0.3\n[experiment]\nseeds = 1\n",
        ),
        (
            "verify-bounds",
            "[grid]\nc_ell_fractions = 0.2\nepsilon_fractions = ,0.3\n[experiment]\nseeds = 1\n",
        ),
        (
            "verify-bounds",
            "[grid]\nc_ell_fractions = 0.2\nepsilon_fractions = 0.3\nalphas = 0.01,0.01\n"
            "[experiment]\nseeds = 1\n",
        ),
        (
            "verify-bounds",
            "[grid]\nc_ell_fractions = 0.2\nepsilon_fractions = 0.3\nalphas = 0.01,\n"
            "[experiment]\nseeds = 1\n",
        ),
        (
            "sweep-theta",
            "[sweep]\nthetas = 1.0\n[experiment]\nmonte_carlo = 1\nblowup = 1e12\n"
            "policies = blackbox\n[cartpole]\nblackbox_epsilon = 0.5\n",
        ),
        (
            "stability-trace",
            "[experiment]\ntheta = 1.0\nblowup = 1e12\npolicies = naive\n"
            "[cartpole]\nblackbox_epsilon = 0.5\n",
        ),
    ],
    ids=[
        "verify-bounds-seeds",
        "verify-bounds-horizon",
        "verify-bounds-disturbance_steps",
        "sweep-theta-horizon",
        "stability-trace-horizon",
        "adversarial-horizon",
        "ev-compare-seeds",
        "sweep-theta-monte_carlo",
        "verify-bounds-alphas",
        "ev-compare-alpha",
        "sweep-theta-alpha",
        "ev-compare-training_days-0",
        "ev-compare-training_days-negative",
        "ev-compare-training_days-1001",
        "sweep-theta-blowup",
        "stability-trace-blowup",
        "sweep-theta-naive_lambda",
        "sweep-theta-blackbox_epsilon",
        "sweep-theta-blackbox_epsilon-inf",
        "stability-trace-blackbox_epsilon-inf",
        "sweep-theta-pole_mass",
        "sweep-theta-tau-nan",
        "sweep-theta-thetas-nan",
        "sweep-theta-initial_angle_variation-nan",
        "adversarial-lambda",
        "adversarial-beta",
        "dare-ev-n_chargers",
        "dare-ev-tau_minutes-nan",
        "verify-bounds-c_ell_fractions",
        "verify-bounds-epsilon_fractions",
        "verify-bounds-epsilon_fractions-nan",
        "stability-trace-theta-nan",
        "stability-trace-theta-inf",
        "stability-trace-theta-minus-inf",
        "ev-compare-phi1-nan",
        "ev-compare-phi4-inf",
        "verify-bounds-A-nan",
        "verify-bounds-B-inf",
        "dare-A-nan",
        "dare-B-inf",
        "dare-Q-inf",
        "dare-R-inf",
        "dare-cartpole-g-inf",
        "dare-cartpole-tau-overflow",
        "dare-ev-tau_minutes-inf",
        "stability-trace-unknown-policy",
        "sweep-theta-unknown-policy",
        "stability-trace-repeated-policy",
        "sweep-theta-repeated-policy",
        "stability-trace-theta-past-blowup",
        "sweep-theta-thetas-past-blowup",
        "sweep-theta-jitter-past-blowup",
        "sweep-theta-repeated-theta",
        "sweep-theta-empty-theta",
        "stability-trace-empty-policy",
        "verify-bounds-repeated-c_ell_fraction",
        "verify-bounds-empty-c_ell_fraction",
        "verify-bounds-repeated-epsilon_fraction",
        "verify-bounds-empty-epsilon_fraction",
        "verify-bounds-repeated-alpha",
        "verify-bounds-empty-alpha",
        "sweep-theta-blowup-past-hash-range",
        "stability-trace-blowup-past-hash-range",
    ],
)
def test_degenerate_count_is_config_error(tmp_path, capsys, command, config):
    cfg = tmp_path / "degenerate.cfg"
    cfg.write_text(config)
    code, out = run(tmp_path, command, "--config", str(cfg))
    assert code == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err
    assert not list(out.glob("*.csv"))


@pytest.mark.parametrize(
    "epsilon, blowup", [("0.0", "1e12"), ("0.5", "9.2e9")], ids=["unhashed", "hash-range"]
)
def test_blowup_within_what_the_roster_can_hash(tmp_path, epsilon, blowup):
    """A blowup past the hash's range is fine when no black box hashes a
    state (epsilon = 0), and the range itself is allowed."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"[sweep]\nthetas = 1.0\n[experiment]\nmonte_carlo = 1\nhorizon = 5\n"
        f"blowup = {blowup}\npolicies = blackbox,naive\n"
        f"[cartpole]\nblackbox_epsilon = {epsilon}\n"
    )
    code, out = run(tmp_path, "sweep-theta", "--config", str(cfg))
    assert code == EXIT_OK
    assert len(read_rows(out / "rows.csv")) == 2


@pytest.mark.parametrize(
    "command, config, nearest",
    [
        (
            "sweep-theta",
            "[sweep]\nthetas = 0.1\n[experiment]\nmonte_carlo = 1\nhorizon = 5\n"
            "policies = lqr\n[cartpole]\nalpah = 0.01\n",
            "[cartpole] alpah is not read here; nearest is alpha",
        ),
        (
            "stability-trace",
            "[experiment]\nhorizon = 5\npolicies = lqr\nthetta = 0.3\n",
            "[experiment] thetta is not read here; nearest is theta",
        ),
        (
            "adversarial",
            "[adversarial]\nhorizon = 5\nbetta = 0.4\n",
            "[adversarial] betta is not read here; nearest is beta",
        ),
        (
            "ev-compare",
            "[experiment]\nseeds = 1\ntraining_days = 1\nalpah = 0.01\n",
            "[experiment] alpah is not read here; nearest is alpha",
        ),
        (
            "verify-bounds",
            "[grid]\nc_ell_fractions = 0.2\nepsilon_fractions = 0.3\n"
            "[experiment]\nseeds = 1\nseedz = 2\n",
            "[experiment] seedz is not read here; nearest is seeds",
        ),
        (
            "dare",
            "[system]\nenviroment = cartpole\n",
            "[system] enviroment is not read here; nearest is environment",
        ),
    ],
    ids=["sweep-theta", "stability-trace", "adversarial", "ev-compare", "verify-bounds", "dare"],
)
def test_misspelled_key_is_config_error(tmp_path, capsys, command, config, nearest):
    cfg = tmp_path / "typo.cfg"
    cfg.write_text(config)
    code, out = run(tmp_path, command, "--config", str(cfg))
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == f"config error: {nearest}\n"
    assert not list(out.iterdir())


@pytest.mark.parametrize(
    "config, section",
    [("[sytem]\nA = 0.5,0.1;0,0.4\n", "sytem"), ("[DEFAULT]\nA = 0.5,0.1;0,0.4\n", "DEFAULT")],
    ids=["misspelled", "default"],
)
def test_unknown_section_is_config_error(tmp_path, capsys, config, section):
    cfg = tmp_path / "typo.cfg"
    cfg.write_text(config)
    code, out = run(tmp_path, "dare", "--config", str(cfg))
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == f"config error: unknown section [{section}]; nearest is [system]\n"
    assert not list(out.iterdir())


_CHECK_READ = RunConfig.check_read


class _ReadChecked(Exception):
    """Raised right after the read check passes, to stop a run before its work."""


def _sections_at_read_check(monkeypatch, argv) -> set:
    """Run ``argv`` up to its read check, which must pass; return the
    sections the subcommand read."""
    seen = []

    def check_then_stop(cfg):
        _CHECK_READ(cfg)
        seen.append({section for section, _ in cfg._effective})
        raise _ReadChecked

    monkeypatch.setattr(RunConfig, "check_read", check_then_stop)
    with pytest.raises(_ReadChecked):
        main(argv)
    return seen[0]


def test_shipped_configs_pass_read_check(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    used = set()
    for argv in _readme_invocations().values():
        used.add(Path(argv[argv.index("--config") + 1]).name)
        argv[argv.index("--out") + 1] = str(tmp_path / "out")
        _sections_at_read_check(monkeypatch, argv)
    assert used == {p.name for p in (ROOT / "configs").glob("*.cfg")}


def test_known_sections_are_the_sections_read(tmp_path, monkeypatch):
    import lqshield.cli as cli

    read = set()
    for command in cli._COMMANDS:
        read |= _sections_at_read_check(monkeypatch, [command, "--out", str(tmp_path / "out")])
    for environment in ("cartpole", "ev"):
        cfg = tmp_path / f"{environment}.cfg"
        cfg.write_text(f"[system]\nenvironment = {environment}\n")
        argv = ["dare", "--config", str(cfg), "--out", str(tmp_path / "out")]
        read |= _sections_at_read_check(monkeypatch, argv)
    assert read == set(cli._SECTIONS)
