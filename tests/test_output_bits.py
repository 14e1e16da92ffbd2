"""Byte-level guard on the outputs of the per-step rollout path.

Small ``ev-compare``, ``verify-bounds``, ``sweep-theta`` and
``stability-trace`` runs must write exactly the CSV texts recorded below
(the two long traces by their SHA-256); the sweep must also echo the
recorded effective configuration, so any change to the keys the harness
reads is made on purpose.  They cover the EV residual,
reward and line projection, the schedule black box, the adaptive rule in
learned and external mode, the hashed rotation black box, the cart-pole
plant step and the confidence trace rows.  A speed-up or a rewrite of any
of these must keep every output bit; one changed bit in a state can flip
a hashed direction on the grid.  If an output is meant to change,
re-record these texts and name the change.
"""

import hashlib

from lqshield.cli import EXIT_OK, main

EV_CONFIG = "[experiment]\nseeds = 2\ntraining_days = 3\n"

EV_ROWS = (
    'profile,seed,policy,total_reward\n'
    'post_covid,0,adaptive,-1429.266963258207\n'
    'post_covid,0,blackbox,-1560.2964268716294\n'
    'post_covid,0,lqr,-1429.266963258207\n'
    'post_covid,1,adaptive,-1762.2494825267029\n'
    'post_covid,1,blackbox,-1886.9484269470427\n'
    'post_covid,1,lqr,-1762.2494825267029\n'
    'pre_covid,0,adaptive,-2283.073573224923\n'
    'pre_covid,0,blackbox,-2303.049071273136\n'
    'pre_covid,0,lqr,-2287.586660618503\n'
    'pre_covid,1,adaptive,-2226.5922948858947\n'
    'pre_covid,1,blackbox,-2262.0673729027276\n'
    'pre_covid,1,lqr,-2230.527994404445\n'
)

EV_SUMMARY = (
    'profile,mean_blackbox,mean_adaptive,mean_lqr,adaptive_wins,seeds,within_5pct\n'
    'pre_covid,-2282.558222087932,-2254.832934055409,-2259.057327511474,2,2,True\n'
    'post_covid,-1723.622426909336,-1595.7582228924548,-1595.7582228924548,2,2,False\n'
)

GRID_CONFIG = (
    "[grid]\nc_ell_fractions = 0.2,0.8\nepsilon_fractions = 0.3,0.9\n"
    "[experiment]\nseeds = 1\n"
)

GRID = (
    'C_ell,epsilon,alpha,preconditions,envelope_pass_rate,cr_mean,bound,cr_within_bound,status\n'
    '0.013991586999361053,0.06712675367049022,0.01,True,1.0,1.004605785850095,172.14222861756295,True,ok\n'
    '0.013991586999361053,0.20138026101147063,0.01,True,1.0,1.0409022127400693,950.5003517252967,True,ok\n'
    '0.05596634799744421,0.06712675367049022,0.01,True,1.0,1.004605785850095,172.18420337856102,True,ok\n'
    '0.05596634799744421,0.20138026101147063,0.01,True,1.0,1.0409022127400693,950.5423264862948,True,ok\n'
)

SWEEP_CONFIG = "[sweep]\nthetas = 0.4\n[experiment]\nmonte_carlo = 2\nhorizon = 200\n"

SWEEP_ROWS = (
    'theta,policy,mc,cost,diverged,steps,lambda_final\n'
    '0.4,adaptive,0,988.15448314812,False,200,0.0\n'
    '0.4,adaptive,1,864.4145680401007,False,200,0.0\n'
    '0.4,blackbox,0,996.6034008707182,False,200,\n'
    '0.4,blackbox,1,871.3815135824609,False,200,\n'
    '0.4,lqr,0,996.192536037689,False,200,\n'
    '0.4,lqr,1,870.9211056520828,False,200,\n'
    '0.4,naive,0,996.2227976176919,False,200,\n'
    '0.4,naive,1,870.7968289472573,False,200,\n'
)

SWEEP_SUMMARY = (
    'theta,policy,mean_cost,divergences,runs\n'
    '0.4,lqr,933.5568208448859,0,2\n'
    '0.4,blackbox,933.9924572265895,0,2\n'
    '0.4,naive,933.5098132824746,0,2\n'
    '0.4,adaptive,926.2845255941104,0,2\n'
)

SWEEP_EFFECTIVE_CONFIG = (
    'cartpole.alpha = 0.01\n'
    'cartpole.blackbox_epsilon = 0.0\n'
    'cartpole.cart_mass = 1.0\n'
    'cartpole.g = 9.8\n'
    'cartpole.model_cart_mass = 2.0\n'
    'cartpole.model_pole_mass = 0.2\n'
    'cartpole.naive_lambda = 0.8\n'
    'cartpole.pole_length = 2.0\n'
    'cartpole.pole_mass = 0.1\n'
    'cartpole.tau = 0.02\n'
    'experiment.blowup = 50.0\n'
    'experiment.horizon = 200\n'
    'experiment.initial_angle_variation = 0.05\n'
    'experiment.monte_carlo = 2\n'
    'experiment.policies = lqr,blackbox,naive,adaptive\n'
    'sweep.thetas = 0.4\n'
    'run.command = sweep-theta\n'
    'run.jobs = 1\n'
    'run.seed = 0\n'
)

TRACE_CONFIG = "[experiment]\nhorizon = 200\n"

TRACE_STDOUT = (
    'lqr: diverged=False\n'
    'adaptive-destabilizing: diverged=False\n'
    'naive-destabilizing: diverged=True\n'
)

TRACE_NAIVE = (
    't,state_norm,lambda_t,lambda_prime_raw\n'
    '0,0.4,,\n'
    '1,4.953528685442057,,\n'
    '2,13.40652626158158,,\n'
    '3,28.049286747689347,,\n'
)

# 201 lines each: the header and one row per step
TRACE_SHA256 = {
    "trace_lqr.csv": "aa34b5b7c06d5138e77a790e508da6eab18681bd108b6bee3ed51bc9a5f19bc9",
    "trace_adaptive-destabilizing.csv": (
        "ef15509251cd2d70bbdd890ab2081a442be79e71e9576d4aebed8c241dff665e"
    ),
}


def _run(tmp_path, command, config):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out), "--seed", "0"]) == EXIT_OK
    return out


def test_ev_compare_output_bits(tmp_path):
    out = _run(tmp_path, "ev-compare", EV_CONFIG)
    assert (out / "rows.csv").read_text() == "".join(EV_ROWS)
    assert (out / "summary.csv").read_text() == "".join(EV_SUMMARY)


def test_verify_bounds_output_bits(tmp_path):
    out = _run(tmp_path, "verify-bounds", GRID_CONFIG)
    assert (out / "grid.csv").read_text() == "".join(GRID)


def test_sweep_theta_output_bits(tmp_path):
    out = _run(tmp_path, "sweep-theta", SWEEP_CONFIG)
    assert (out / "rows.csv").read_text() == "".join(SWEEP_ROWS)
    assert (out / "summary.csv").read_text() == "".join(SWEEP_SUMMARY)
    assert (out / "effective_config.txt").read_text() == "".join(SWEEP_EFFECTIVE_CONFIG)


def test_stability_trace_output_bits(tmp_path, capsys):
    out = _run(tmp_path, "stability-trace", TRACE_CONFIG)
    assert capsys.readouterr().out == "".join(TRACE_STDOUT)
    assert (out / "trace_naive-destabilizing.csv").read_text() == "".join(TRACE_NAIVE)
    for name, digest in TRACE_SHA256.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest
