"""Byte-level guard on the outputs of the per-step rollout path.

Small ``ev-compare``, ``verify-bounds``, ``sweep-theta`` and
``stability-trace`` runs must write exactly the CSV texts recorded below
(the two long traces by their SHA-256); ``adversarial`` on its shipped
config and ``dare`` on all four systems must print the recorded text and
write files with the recorded SHA-256; the sweep must also echo the
recorded effective configuration, so any change to the keys the harness
reads is made on purpose.  They cover the EV residual,
reward and line projection, the schedule black box, the adaptive rule in
learned and external mode, the hashed rotation black box, the cart-pole
plant step and the confidence trace rows.  A speed-up or a rewrite of any
of these must keep every output bit; one changed bit in a state can flip
a hashed direction on the grid.  If an output is meant to change,
re-record these texts and name the change.

The pins were recorded with NumPy 2.4.6 and its bundled OpenBLAS 0.3.31
running the SkylakeX kernel.  The bits of the tiny matrix products
depend on the kernel that OpenBLAS picks at start-up (another one, such
as Haswell, moves the last digits of some outputs), so the test header
names the kernel that ran.
"""

import hashlib
from pathlib import Path

import pytest

from lqshield.cli import EXIT_OK, main

ADVERSARIAL_CONFIG = (Path(__file__).resolve().parents[1] / "configs/adversarial.cfg").read_text()

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
    't,state_norm,lambda_t,lambda_prime_raw,branch_taken\n'
    '0,0.4,,,\n'
    '1,4.953528685442057,,,\n'
    '2,13.40652626158158,,,\n'
    '3,28.049286747689347,,,\n'
)

# 201 lines each: the header and one row per step
TRACE_SHA256 = {
    "trace_lqr.csv": "28b02a8316832e03dd499e002ca01d5d9363d2c0dd0f709ee721b306abce738d",
    "trace_adaptive-destabilizing.csv": (
        "6a16d1a49ad3e94b55fe57350c2c5b3bb369e09ca55c5eaf9fbe905812ff46e8"
    ),
}

ADVERSARIAL_STDOUT = (
    'construction case : off_diagonal\n'
    'lambda            : 0.5\n'
    'beta              : 0.5\n'
    'rho(A - B K1)     : 0.303927021\n'
    'rho(A - B K2)     : 0.500000000\n'
    'rho(combined)     : 5.379452583\n'
    'det(combined)     : -8\n'
    'K1:\n'
    '[[0.001412 0.506718 0.004781]\n'
    ' [0.000706 0.003016 0.603185]\n'
    ' [0.124797 0.069457 0.190724]]\n'
    'K2:\n'
    '[[  -0.5         1.          0.      ]\n'
    ' [-213.449552   -0.5         1.      ]\n'
    ' [   0.275203    0.130543   -0.2     ]]\n'
    'combined gain:\n'
    '[[  -0.249294    0.753359    0.00239 ]\n'
    ' [-106.724423   -0.248492    0.801592]\n'
    ' [   0.2         0.1        -0.004638]]\n'
)

ADVERSARIAL_SHA256 = {
    "certificate.txt": "e45a45648b97d11ff9a542dd81c1aacdfb26cd16e60b05b63de43225f9b14d49",
    "combined.csv": "c0e727d426600118c72b447846fb17275ec9808892d5d47a6f5e68fbb7432160",
    "effective_config.txt": "5e76b03a6f47e0cb1949e4a933d9669435e6b18b50892fc54ed6cd7539224050",
    "partner_alone.csv": "8d4d9a5c3e5f04ea5f81957532c05f884260e1b856e18896cc5756912fef93fa",
}

DARE_DEFAULT_STDOUT = (
    'n = 2, m = 2\n'
    'dare_residual = 3.376889637419771e-14\n'
    'iterations = 11\n'
    'rho(F) = 0.2311290382046578\n'
    'rho = 0.6155645191023289\n'
    'C_F = 1.0 (T_check = 500)\n'
    'kappa = 2.0\n'
    'sigma = 1.0\n'
    'P:\n'
    '[[1.1624272125 0.0779972115]\n'
    ' [0.0779972115 1.1453322998]]\n'
    'K:\n'
    '[[0.2953222045 0.1418131118]\n'
    ' [0.0092592452 0.2441756042]]\n'
    'F:\n'
    '[[ 0.2546777955  0.1081868882]\n'
    ' [-0.0092592452  0.2058243958]]\n'
    'H:\n'
    '[[2.1624272125 0.0779972115]\n'
    ' [0.0779972115 2.1453322998]]\n'
)

DARE_DEFAULT_SHA256 = {
    "effective_config.txt": "3b0b4351186a9bf0a3ea82e3b981a2a2f8961194ee6fbfa12e1cf3bb7301a769",
    "synthesis.csv": "cf03535bd103628d47c257709fc92135cad8b4336bb2631414d26b53e6e3b537",
    "synthesis.txt": "b953cc952b8e246febd04f5e1b4044a8713be14489e918a7d0624f8586c7b16c",
}

DARE_ADVERSARIAL_STDOUT = (
    'n = 3, m = 3\n'
    'dare_residual = 2.5379174048050377e-13\n'
    'iterations = 12\n'
    'rho(F) = 0.30392702149726325\n'
    'rho = 0.6519635107486317\n'
    'C_F = 1.0 (T_check = 500)\n'
    'kappa = 2.0\n'
    'sigma = 1.0\n'
    'P:\n'
    '[[1.0249593647 0.0138914691 0.0381448764]\n'
    ' [0.0138914691 1.5136633177 0.0238531026]\n'
    ' [0.0381448764 0.0238531026 1.6604021003]]\n'
    'K:\n'
    '[[0.0014117868 0.5067175831 0.0047806644]\n'
    ' [0.0007058293 0.0030158989 0.6031847858]\n'
    ' [0.1247968235 0.0694573457 0.1907243819]]\n'
    'F:\n'
    '[[-0.0014117868  0.4932824169 -0.0047806644]\n'
    ' [-0.0007058293 -0.0030158989  0.3968152142]\n'
    ' [ 0.0752031765  0.0305426543  0.1092756181]]\n'
    'H:\n'
    '[[2.0249593647 0.0138914691 0.0381448764]\n'
    ' [0.0138914691 2.5136633177 0.0238531026]\n'
    ' [0.0381448764 0.0238531026 2.6604021003]]\n'
)

DARE_ADVERSARIAL_SHA256 = {
    "effective_config.txt": "a5090c0f7fa9cb5da4b2298e834f8da8765d06ea6cc729debcd1a3e1ba79f1ba",
    "synthesis.csv": "2638e923106a3c9341c9ea6eb4812c4fa08a117d23112a301f7dbffe77a944f0",
    "synthesis.txt": "17a66ecc0c99e4c764bf223b3a6cacbb96b9ea6b95347f744f24b2f36dc7232e",
}

DARE_CARTPOLE_STDOUT = (
    'n = 4, m = 1\n'
    'dare_residual = 4.943183618328169e-09\n'
    'iterations = 669\n'
    'rho(F) = 0.9801941029398004\n'
    'rho = 0.9900970514699001\n'
    'C_F = 16.816237448925992 (T_check = 500)\n'
    'kappa = 2.0\n'
    'sigma = 0.0001\n'
    'P:\n'
    '[[ 106.1233722406   86.5604676374  453.6876392065  235.5452643075]\n'
    ' [  86.5604676374  135.6959081593  718.3182272694  371.7738311707]\n'
    ' [ 453.6876392065  718.3182272694 3913.0232676881 1994.1945071063]\n'
    ' [ 235.5452643075  371.7738311707 1994.1945071063 1032.6273716493]]\n'
    'K:\n'
    '[[  -57.9421281189  -122.9802806217 -1004.5975504192  -525.7525463742]]\n'
    'F:\n'
    '[[ 1.            0.02          0.            0.          ]\n'
    ' [ 0.5652890548  2.1998076158  9.786610248   5.1292931354]\n'
    ' [ 0.            0.            1.            0.02        ]\n'
    ' [-0.2119833956 -0.4499278559 -3.596478843  -0.9234849258]]\n'
    'H:\n'
    '[[0.0002978593]]\n'
)

DARE_CARTPOLE_SHA256 = {
    "effective_config.txt": "eda2334e70ca9c0de1772d6eb174d8ac38f0721319c7ef2d699a05853666814c",
    "synthesis.csv": "36b4aa6f7fef48d335838e663ea0c49608f3590fe1441fd195e882f59b938b7d",
    "synthesis.txt": "4973b5c2b6ad2ae323800da602d58e634f1ab97e6dbcfedac4f94c14efaab5bc",
}

DARE_EV_STDOUT = (
    'n = 5, m = 5\n'
    'dare_residual = 2.220446049250313e-16\n'
    'iterations = 4\n'
    'rho(F) = 0.013999632826553032\n'
    'rho = 0.5069998164132765\n'
    'C_F = 1.0 (T_check = 500)\n'
    'kappa = 2.0\n'
    'sigma = 0.0001\n'
    'P:\n'
    '[[1.0141984053 0.           0.           0.           0.          ]\n'
    ' [0.           1.0141984053 0.           0.           0.          ]\n'
    ' [0.           0.           1.0141984053 0.           0.          ]\n'
    ' [0.           0.           0.           1.0141984053 0.          ]\n'
    ' [0.           0.           0.           0.           1.0141984053]]\n'
    'K:\n'
    '[[-11.8320044061   0.             0.             0.\n'
    '    0.          ]\n'
    ' [  0.           -11.8320044061   0.             0.\n'
    '    0.          ]\n'
    ' [  0.             0.           -11.8320044061   0.\n'
    '    0.          ]\n'
    ' [  0.             0.             0.           -11.8320044061\n'
    '    0.          ]\n'
    ' [  0.             0.             0.             0.\n'
    '  -11.8320044061]]\n'
    'F:\n'
    '[[0.0139996328 0.           0.           0.           0.          ]\n'
    ' [0.           0.0139996328 0.           0.           0.          ]\n'
    ' [0.           0.           0.0139996328 0.           0.          ]\n'
    ' [0.           0.           0.           0.0139996328 0.          ]\n'
    ' [0.           0.           0.           0.           0.0139996328]]\n'
    'H:\n'
    '[[0.0071430445 0.           0.           0.           0.          ]\n'
    ' [0.           0.0071430445 0.           0.           0.          ]\n'
    ' [0.           0.           0.0071430445 0.           0.          ]\n'
    ' [0.           0.           0.           0.0071430445 0.          ]\n'
    ' [0.           0.           0.           0.           0.0071430445]]\n'
)

DARE_EV_SHA256 = {
    "effective_config.txt": "27ea7d76871d748e0ea2b4fa7b554da6ddd24f9013b1cfb1f9587ed50372a7f6",
    "synthesis.csv": "d2a701535b19bc15f66f8c7c03400bfe43bad2743a69cb978f872169d8133439",
    "synthesis.txt": "7cf2f79c2225b6a758a1725835964d475161b90595a953b1ef64fc661ea76d24",
}


def _run(tmp_path, command, config):
    out = tmp_path / "out"
    args = [command, "--out", str(out), "--seed", "0"]
    if config is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        args += ["--config", str(cfg)]
    assert main(args) == EXIT_OK
    return out


def _sha256_by_name(out):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}


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


def test_adversarial_output_bits(tmp_path, capsys):
    out = _run(tmp_path, "adversarial", ADVERSARIAL_CONFIG)
    assert capsys.readouterr().out == "".join(ADVERSARIAL_STDOUT)
    assert _sha256_by_name(out) == ADVERSARIAL_SHA256


@pytest.mark.parametrize(
    "config, stdout, digests",
    [
        (None, DARE_DEFAULT_STDOUT, DARE_DEFAULT_SHA256),
        (ADVERSARIAL_CONFIG, DARE_ADVERSARIAL_STDOUT, DARE_ADVERSARIAL_SHA256),
        ("[system]\nenvironment = cartpole\n", DARE_CARTPOLE_STDOUT, DARE_CARTPOLE_SHA256),
        ("[system]\nenvironment = ev\n", DARE_EV_STDOUT, DARE_EV_SHA256),
    ],
    ids=["default", "adversarial-cfg", "cartpole", "ev"],
)
def test_dare_output_bits(tmp_path, capsys, config, stdout, digests):
    out = _run(tmp_path, "dare", config)
    assert capsys.readouterr().out == "".join(stdout)
    assert _sha256_by_name(out) == digests
