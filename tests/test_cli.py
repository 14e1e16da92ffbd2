import csv
import shlex
from pathlib import Path

import numpy as np
import pytest

from lqshield.cli import EXIT_CONFIG, EXIT_OK, EXIT_PRECONDITION, main

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
        "[grid]\nc_ell_fractions = 0.2\nepsilon_fractions = 1.5\nalphas = 0.02\n"
        "[experiment]\nseeds = 2\nhorizon = 60\ndisturbance_steps = 20\n"
    )
    code, out = run(tmp_path, "verify-bounds", "--config", str(cfg))
    assert code == EXIT_OK
    rows = read_rows(out / "grid.csv")
    assert rows[0]["status"] == "excluded"
    assert rows[0]["preconditions"] == "False"


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
