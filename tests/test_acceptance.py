"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them inline)."""

import time

import numpy as np
import pytest

import lqshield as lq
from lqshield.environments import (
    CartPoleParams,
    ChargingConfig,
    cartpole_linearization,
    cartpole_residual,
    ev_environment,
    fit_demand_schedule,
    generate_sessions,
    line_limited,
)
from lqshield.guarantees import admissible_lipschitz_cap

from conftest import random_stabilizable

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0


def report(name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {name}: {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def bench():
    A = np.array([[0.55, 0.25], [0.0, 0.45]])
    model = lq.LinearModel(A=A, B=np.eye(2), Q=np.eye(2), R=np.eye(2))
    return model, lq.synthesize(model)


@pytest.fixture(scope="module")
def cartpole():
    params = CartPoleParams()
    model = cartpole_linearization(params)
    syn = lq.synthesize(model)
    resid = cartpole_residual(params, params)
    syn_true = lq.synthesize(
        cartpole_linearization(params.with_true_masses_as_model())
    )
    return params, model, syn, resid, syn_true


def test_dare_correctness():
    t0 = time.monotonic()
    scalar = lq.LinearModel(A=[[1.0]], B=[[1.0]], Q=[[1.0]], R=[[1.0]])
    p = lq.solve_dare(scalar)[0, 0]
    ok_scalar = abs(p - GOLDEN) < 1e-10
    rng = np.random.default_rng(2025)
    ok_random = True
    from lqshield.linalg_control import dare_residual_norm

    for _ in range(100):
        model = random_stabilizable(rng, int(rng.integers(1, 7)))
        syn = lq.synthesize(model)
        resid = dare_residual_norm(model, syn.P)
        ok_random &= resid <= 1e-9 * (1 + np.linalg.norm(syn.P, 2))
        ok_random &= syn.rho_F < 1.0
    elapsed = time.monotonic() - t0
    report(
        "dare-correctness",
        ok_scalar and ok_random and elapsed < 5.0,
        f"|p - golden| ok={ok_scalar}, 100 random draws ok={ok_random}, {elapsed:.2f}s",
    )


def test_unstable_blend_construction():
    t0 = time.monotonic()
    rng = np.random.default_rng(99)
    n_valid = 0
    off_diag_min = np.inf
    for _ in range(200):
        n = int(rng.choice([2, 3, 4]))
        lam = float(rng.uniform(0.1, 0.9))
        model = random_stabilizable(rng, n, n)
        syn = lq.synthesize(model)
        cert = lq.construct_adversarial_K2(model, syn.K, lam)
        valid = cert.rho_F1 < 1.0 and cert.rho_F2 < 1.0 and cert.rho_combined > 1.0
        n_valid += valid
        if cert.construction_case == "off_diagonal":
            off_diag_min = min(off_diag_min, cert.rho_combined)
    elapsed = time.monotonic() - t0
    report(
        "unstable-blend",
        n_valid == 200 and off_diag_min >= 2.0 - 1e-6 and elapsed < 10.0,
        f"{n_valid}/200 valid, min off-diag radius {off_diag_min:.6f}, {elapsed:.2f}s",
    )


def test_exact_opt_closed_form_equivalence():
    t0 = time.monotonic()
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(50):
        model = random_stabilizable(rng, int(rng.integers(1, 5)))
        syn = lq.synthesize(model)
        T = 200
        w = [rng.uniform(-1, 1, size=model.n) for _ in range(T)]
        w = [v / max(1.0, np.linalg.norm(v)) for v in w]
        x0 = rng.standard_normal(model.n)
        # the simulated side of opt_cost_time_only, without its own cross-check
        optimal = lq.auxiliary_optimal_policy(syn, w)
        sim = lq.total_cost_with_tail(
            lq.simulate(model, lq.disturbance_residual(w), optimal, x0, T), syn
        )
        closed = lq.auxiliary_cost_closed_form(syn, w, x0)
        worst = max(worst, abs(sim - closed) / max(1.0, abs(closed)))
    elapsed = time.monotonic() - t0
    report(
        "exact-opt-oracle",
        worst <= 1e-8 and elapsed < 10.0,
        f"worst relative gap {worst:.2e}, {elapsed:.2f}s",
    )


def test_confidence_weight_identities(bench):
    model, syn = bench
    rng = np.random.default_rng(13)
    f = [rng.standard_normal(2) for _ in range(40)]
    exact_one = lq.optimal_lambda(syn, f, f, 35) == 1.0
    scaling_ok = all(
        abs(lq.optimal_lambda(syn, f, [c * v for v in f], 35) - 1.0 / c) <= 1e-9
        for c in (0.5, 2.0, 10.0)
    )
    learned_ok = True
    for c, seed in [(1.0, 5), (1.25, 6), (2.0, 7)]:
        r = np.random.default_rng(seed)
        w = [0.5 * r.standard_normal(2) for _ in range(60)]
        bb = lq.parameterized_blackbox(syn, [c * v for v in w])
        pol = lq.AdaptivePolicy(syn, bb, lq.lqr_policy(syn), 1e-6, "learned")
        lq.simulate(model, lq.disturbance_residual(w), pol, r.standard_normal(2), 101)
        learned_ok &= abs(pol.trace().lambda_prime_raw[100] - 1.0 / c) < 0.05
    report(
        "confidence-weight-identities",
        exact_one and scaling_ok and learned_ok,
        f"exact={exact_one}, scaling={scaling_ok}, learned-by-T100={learned_ok}",
    )


def test_stability_envelope_grid(bench):
    model, syn = bench
    t0 = time.monotonic()
    fracs = (0.1, 0.3, 0.5, 0.7, 0.9)
    cap = admissible_lipschitz_cap(syn)
    total = passed = 0
    for fl in fracs:
        C_ell = fl * cap
        probe = lq.theorem_constants(syn, C_ell, 0.0)
        for fe in fracs:
            eps = fe * probe.eps_max_stability * 0.999
            consts = lq.theorem_constants(syn, C_ell, eps)
            assert consts.applicable and consts.gamma < 1 and consts.mu < consts.gamma
            assert eps < consts.eps_max_stability and C_ell < consts.C_ell_max
            eps_tilde = max(eps - consts.C_a_sys * C_ell, 0.0)
            for seed in range(10):
                rng = np.random.default_rng(seed)
                resid = lq.lipschitz_residual(2, 2, C_ell, seed=seed)
                x0 = rng.standard_normal(2)
                x0 /= np.linalg.norm(x0)
                bb = lq.epsilon_consistent_blackbox(
                    lq.lqr_policy(syn), eps_tilde, "rotation", seed
                )
                pol = lq.AdaptivePolicy(syn, bb, lq.lqr_policy(syn), 0.01, "learned")
                traj = lq.simulate(model, resid, pol, x0, 120)
                total += 1
                passed += bool(lq.fit_stability_envelope(traj, consts))
    elapsed = time.monotonic() - t0
    report(
        "stability-envelope",
        passed == total == 250 and elapsed < 60.0,
        f"{passed}/{total} trajectories inside the predicted envelope, {elapsed:.1f}s",
    )


def test_competitive_ratio_properties(bench):
    model, syn = bench
    T_w = 50

    def ratio(eps, seed):
        r = np.random.default_rng(seed)
        w = [0.6 * r.standard_normal(2) for _ in range(T_w)]
        x0 = r.standard_normal(2)
        opt = lq.opt_cost_time_only(syn, w, x0)
        bb = lq.epsilon_consistent_blackbox(
            lq.auxiliary_optimal_policy(syn, w), eps, "rotation", seed
        )
        pol = lq.AdaptivePolicy(syn, bb, lq.lqr_policy(syn), 1e-6, lambda t: 1.0)
        traj = lq.simulate(model, lq.disturbance_residual(w), pol, x0, T_w + 200)
        return lq.competitive_ratio(traj, opt, syn=syn)

    grid = (0.0, 0.02, 0.05, 0.1)
    means = []
    all_ratios = []
    for eps in grid:
        rs = [ratio(eps, 100 + s) for s in range(10)]
        all_ratios.extend(rs)
        means.append(float(np.mean(rs)))
    never_below_one = min(all_ratios) >= 1.0 - 1e-9
    exact_at_zero = abs(means[0] - 1.0) <= 1e-6
    monotone = all(b >= a for a, b in zip(means, means[1:]))
    report(
        "competitive-ratio",
        never_below_one and exact_at_zero and monotone,
        f"min={min(all_ratios):.10f}, CR(0)={means[0]:.10f}, means={[f'{m:.6f}' for m in means]}",
    )


def test_cartpole_qualitative(cartpole):
    params, model, syn, resid, syn_true = cartpole
    advice = lq.lqr_policy(syn)
    bad = lq.gain_policy(-syn.K)
    rng = np.random.default_rng(7)
    T = 1200
    naive_div = adaptive_div = 0
    for _ in range(10):
        x0 = np.array([0.0, 0.0, 0.4 + rng.uniform(-0.05, 0.05), 0.0])
        naive = lq.naive_convex_policy(bad, advice, 0.8)
        naive_div += lq.simulate(model, resid, naive, x0, T, blowup=50.0).diverged
        pol = lq.AdaptivePolicy(syn, bad, advice, 0.01, "learned")
        adaptive_div += lq.simulate(model, resid, pol, x0, T, blowup=50.0).diverged
    divergence_ok = naive_div == 10 and adaptive_div == 0

    good_bb = lq.epsilon_consistent_blackbox(lq.lqr_policy(syn_true), 0.0, "rotation", 0)
    jit = np.random.default_rng(0)
    jitters = {th: jit.uniform(-0.05, 0.05, size=10) for th in (0.1, 0.2, 0.3, 0.4)}
    cost_ok = True
    margins = []
    for theta in (0.1, 0.2, 0.3, 0.4):
        lqr_costs, ad_costs = [], []
        for mc in range(10):
            x0 = np.array([0.0, 0.0, theta + jitters[theta][mc], 0.0])
            lqr_costs.append(lq.simulate(model, resid, advice, x0, T, blowup=50.0).total_cost)
            pol = lq.AdaptivePolicy(syn, good_bb, advice, 0.01, "learned")
            ad_costs.append(lq.simulate(model, resid, pol, x0, T, blowup=50.0).total_cost)
        cost_ok &= np.mean(ad_costs) <= np.mean(lqr_costs)
        margins.append(float(np.mean(lqr_costs) - np.mean(ad_costs)))
    report(
        "cartpole-qualitative",
        divergence_ok and cost_ok,
        f"naive divergences {naive_div}/10, adaptive {adaptive_div}/10, "
        f"cost margins vs LQR {['%.2f' % m for m in margins]}",
    )


def test_ev_ordinal_reproduction():
    t0 = time.monotonic()
    config = ChargingConfig()
    n, T, gamma = config.n_chargers, config.horizon, config.line_limit
    syn = lq.synthesize(ev_environment(config, []).model)
    training = [generate_sessions(k, "pre_covid", n, T) for k in range(15)]
    f_hat = fit_demand_schedule(training, T, n)

    def day(seed, profile):
        env = ev_environment(config, generate_sessions(seed, profile, n, T))
        bb = line_limited(lq.parameterized_blackbox(syn, f_hat), gamma)
        advice = line_limited(lq.lqr_policy(syn), gamma)

        def reward_of(pol):
            traj = lq.simulate(env.model, env.residual, pol, np.zeros(n), T)
            return float(np.sum(env.rewards_for_trajectory(traj)))

        return reward_of(bb), reward_of(lq.AdaptivePolicy(syn, bb, advice, 1e-3, "learned"))

    post = np.array([day(1000 + s, "post_covid") for s in range(20)])
    pre = np.array([day(1000 + s, "pre_covid") for s in range(20)])
    wins = int(np.sum(post[:, 1] >= post[:, 0]))
    # one-sided sign test at p < 0.05 over 20 seeds needs >= 15 wins
    sign_ok = wins >= 15
    mean_bb, mean_ad = float(np.mean(pre[:, 0])), float(np.mean(pre[:, 1]))
    within = abs(mean_ad - mean_bb) <= 0.05 * abs(mean_bb)
    elapsed = time.monotonic() - t0
    report(
        "ev-ordinal",
        sign_ok and within and elapsed < 120.0,
        f"post-shift wins {wins}/20, unshifted gap "
        f"{100 * abs(mean_ad - mean_bb) / abs(mean_bb):.2f}%, {elapsed:.1f}s",
    )


def test_confidence_rule_invariants():
    rng = np.random.default_rng(51)
    runs = 0
    ok = True
    while runs < 500:
        model = random_stabilizable(rng, int(rng.integers(2, 4)))
        try:
            syn = lq.synthesize(model)
        except lq.NonStabilizable:
            continue
        runs += 1
        if rng.uniform() < 0.5:
            source = "learned"
        else:
            source = list(rng.uniform(-0.2, 1.2, size=25)).__getitem__
        bb = lq.epsilon_consistent_blackbox(
            lq.lqr_policy(syn), float(rng.uniform(0, 0.3)), "rotation", runs
        )
        advice = lq.lqr_policy(syn)
        pol = lq.AdaptivePolicy(syn, bb, advice, float(rng.uniform(0.005, 0.3)), source)
        resid = lq.lipschitz_residual(model.n, model.m, float(rng.uniform(0, 0.05)), seed=runs)
        traj = lq.simulate(model, resid, pol, rng.standard_normal(model.n), 25)
        lams = pol.lambdas
        ok &= lams[0] == 1.0
        ok &= all(0.0 <= l <= 1.0 for l in lams)
        ok &= all(b <= a for a, b in zip(lams, lams[1:]))
        for t in range(traj.horizon):
            u_hat = np.asarray(bb.act(t, traj.states[t]))
            u_bar = np.asarray(advice.act(t, traj.states[t]))
            ok &= bool(
                np.array_equal(traj.actions[t], lams[t] * u_hat + (1 - lams[t]) * u_bar)
            )
        if not ok:
            break
    report("confidence-rule-invariants", ok and runs == 500, f"{runs} randomized runs")
