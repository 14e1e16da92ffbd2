import numpy as np
import pytest

import lqshield as lq
from lqshield.environments import (
    ChargingConfig,
    ChargingSession,
    default_prices,
    ev_environment,
    fit_demand_schedule,
    generate_sessions,
    line_limited,
    load_prices_csv,
)
from lqshield.errors import SessionConflict, SessionParseError, ValidationError


@pytest.fixture()
def config():
    return ChargingConfig(prices=default_prices(48), tau=0.5)


class TestSessionValidation:
    def test_valid_session(self):
        s = ChargingSession(arrival=0, departure=10, energy=5.0, station=1)
        assert s.energy == 5.0

    def test_rejects_arrival_after_departure(self):
        with pytest.raises(ValidationError):
            ChargingSession(arrival=10, departure=10, energy=5.0, station=1)

    def test_rejects_nonpositive_energy(self):
        with pytest.raises(ValidationError):
            ChargingSession(arrival=0, departure=5, energy=0.0, station=1)

    def test_rejects_nan_energy(self):
        with pytest.raises(ValidationError):
            ChargingSession(arrival=0, departure=5, energy=float("nan"), station=1)

    def test_conflict_detection(self, config):
        sessions = [
            ChargingSession(arrival=0, departure=10, energy=5.0, station=1),
            ChargingSession(arrival=5, departure=15, energy=5.0, station=1),
        ]
        with pytest.raises(SessionConflict):
            ev_environment(config, sessions)

    def test_station_out_of_range(self, config):
        with pytest.raises(ValidationError):
            ev_environment(
                config, [ChargingSession(arrival=0, departure=5, energy=1.0, station=6)]
            )


class TestResidual:
    def test_arrival_injects_energy(self, config):
        env = ev_environment(
            config, [ChargingSession(arrival=0, departure=10, energy=5.0, station=1)]
        )
        f = env.residual.eval(0, np.zeros(5), np.zeros(5))
        assert f[0] == 5.0
        assert np.allclose(f[1:], 0.0)

    def test_departure_zeroes_station(self, config):
        env = ev_environment(
            config, [ChargingSession(arrival=0, departure=4, energy=5.0, station=2)]
        )
        x = np.array([0.0, 3.0, 0.0, 0.0, 0.0])
        u = np.zeros(5)
        f = env.residual.eval(4, x, u)
        assert f[1] == -3.0
        x_next = env.model.A @ x + env.model.B @ u + f
        assert x_next[1] == 0.0

    def test_overcharge_zeroes_not_negative(self, config):
        env = ev_environment(config, [])
        x = np.array([0.1, 0.0, 0.0, 0.0, 0.0])
        u = np.array([2.0, 0.0, 0.0, 0.0, 0.0])  # tau*u = 1.0 > 0.1
        f = env.residual.eval(3, x, u)
        x_next = env.model.A @ x + env.model.B @ u + f
        assert x_next[0] == 0.0

    def test_line_limit_projection(self, config):
        env = ev_environment(config, [])
        x = 10.0 * np.ones(5)
        u = 2.0 * np.ones(5)  # sum 10 > 6.6
        f = env.residual.eval(0, x, u)
        delivered = x - (env.model.A @ x + env.model.B @ u + f)
        assert np.sum(delivered) == pytest.approx(config.line_limit * config.tau, rel=1e-12)

    def test_delivered_energy_never_exceeds_line_capacity(self, config):
        rng = np.random.default_rng(0)
        env = ev_environment(config, [])
        for _ in range(200):
            x = rng.uniform(0, 10, size=5)
            u = rng.uniform(0, 4, size=5)
            f = env.residual.eval(int(rng.integers(1, 40)), x, u)
            x_next = env.model.A @ x + env.model.B @ u + f
            delivered = np.clip(x - x_next, 0.0, None)
            assert np.sum(delivered) <= config.line_limit * config.tau * (1 + 1e-9)
            assert np.all(x_next >= -1e-12)


class TestReward:
    def test_no_session_terms(self, config):
        env = ev_environment(config, [])
        u = np.array([1.0, 2.0, 0.0, 0.0, 0.0])
        phi1, _, phi3, _ = config.phi
        expected = phi1 * config.tau * np.linalg.norm(u) - phi3 * config.prices[0] * np.sum(u)
        assert env.reward(0, np.zeros(5), u) == pytest.approx(expected, rel=1e-12)

    def test_departure_penalty(self, config):
        env = ev_environment(
            config, [ChargingSession(arrival=0, departure=6, energy=4.0, station=3)]
        )
        x = np.zeros(5)
        x[2] = 1.0  # 25% of the battery unserved at departure
        phi4 = config.phi[3]
        r_with = env.reward(6, x, np.zeros(5))
        r_without = env.reward(5, x, np.zeros(5))
        assert r_with == pytest.approx(r_without - phi4 * 0.25, rel=1e-12)

    def test_reward_replay_matches(self, config):
        sessions = generate_sessions(3, "pre_covid", config.n_chargers, config.horizon)
        env = ev_environment(config, sessions)
        syn = lq.synthesize(env.model)
        pol = line_limited(lq.lqr_policy(syn), config.line_limit)
        traj = lq.simulate(env.model, env.residual, pol, np.zeros(5), config.horizon)
        r1 = env.rewards_for_trajectory(traj)
        r2 = env.rewards_for_trajectory(traj)
        assert np.array_equal(r1, r2)
        manual = [env.reward(t, traj.states[t], traj.actions[t]) for t in range(traj.horizon)]
        assert np.array_equal(r1, np.array(manual))


def test_prices_csv(tmp_path):
    path = tmp_path / "prices.csv"
    path.write_text("price\n0.5\n0.25\n")
    assert np.allclose(load_prices_csv(path), [0.5, 0.25])
    bad = tmp_path / "bad.csv"
    bad.write_text("price\nnot_a_number\n")
    with pytest.raises(SessionParseError):
        load_prices_csv(bad)


def test_prices_csv_parse_error_carries_line_number(tmp_path):
    # the error carries the 1-based line of the bad row, header included
    late = tmp_path / "late.csv"
    late.write_text("price\n0.5\nx\n")
    with pytest.raises(SessionParseError) as exc:
        load_prices_csv(late)
    assert exc.value.line == 3


class TestGenerator:
    def test_deterministic(self):
        assert generate_sessions(7, "pre_covid") == generate_sessions(7, "pre_covid")

    def test_no_overlap_per_station(self):
        for seed in range(20):
            for profile in ("pre_covid", "post_covid"):
                sessions = generate_sessions(seed, profile)
                ev_environment(ChargingConfig(), sessions)  # validates

    def test_arrival_distribution_shift(self):
        pre_hours, post_hours = [], []
        for seed in range(100):
            for s in generate_sessions(seed, "pre_covid"):
                pre_hours.append(s.arrival / 12.0)
            for s in generate_sessions(seed, "post_covid"):
                post_hours.append(s.arrival / 12.0)
        assert len(pre_hours) >= 900
        pre_hist, _ = np.histogram(pre_hours, bins=24, range=(0, 24))
        post_hist, _ = np.histogram(post_hours, bins=24, range=(0, 24))
        # concentrated commute peak lands in the morning window
        assert 6 <= np.argmax(pre_hist) <= 11
        peak_to_mean_pre = pre_hist.max() / pre_hist.mean()
        peak_to_mean_post = post_hist.max() / post_hist.mean()
        assert peak_to_mean_post < peak_to_mean_pre

    def test_rejects_unknown_profile(self):
        with pytest.raises(ValueError):
            generate_sessions(0, "mid_covid")


def test_fit_demand_schedule_lag():
    sessions = [ChargingSession(arrival=10, departure=20, energy=6.0, station=2)]
    sched = fit_demand_schedule([sessions], steps=30, n_chargers=3)
    assert sched[11][1] == 6.0
    assert sum(np.sum(v) for v in sched) == 6.0


def test_line_limited_wrapper(config):
    raw = lq.Policy(act=lambda t, x: np.array([5.0, 5.0, -1.0, 0.0, 0.0]))
    pol = line_limited(raw, config.line_limit)
    u = pol.act(0, np.zeros(5))
    assert np.all(u >= 0)
    assert np.sum(u) == pytest.approx(config.line_limit)


def test_zero_session_day_all_policies_agree(config):
    """With no sessions and an empty fitted schedule, the black box,
    the adaptive blend, and the advice coincide (zero reward)."""
    env = ev_environment(config, [])
    syn = lq.synthesize(env.model)
    f_hat = fit_demand_schedule([[]], config.horizon, config.n_chargers)
    bb = line_limited(lq.parameterized_blackbox(syn, f_hat), config.line_limit)
    advice = line_limited(lq.lqr_policy(syn), config.line_limit)
    rewards = []
    for pol in (bb, lq.AdaptivePolicy(syn, bb, advice, 1e-3, "learned"), advice):
        traj = lq.simulate(env.model, env.residual, pol, np.zeros(5), config.horizon)
        rewards.append(float(np.sum(env.rewards_for_trajectory(traj))))
    assert rewards[0] == rewards[1] == rewards[2] == 0.0


class TestPricesValidation:
    @pytest.mark.parametrize("prices", [[], [0.5, np.nan], [np.inf, 0.5]])
    def test_rejects_empty_or_non_finite(self, prices):
        with pytest.raises(ValueError, match="prices must"):
            ChargingConfig(prices=np.array(prices, dtype=float))


def _reference_closures(config, sessions):
    """The residual, reward and line projection as they were before they
    moved to Python floats, with their own list-form session index:
    copies kept as the bit-level oracle."""
    n = config.n_chargers
    sessions = sorted(sessions, key=lambda s: (s.arrival, s.station))
    # stations in order of first arrival, each station's sessions in arrival order
    per_station = {}
    for s in sessions:
        per_station.setdefault(s.station, []).append(s)
    arrivals, departures = {}, {}
    for group in per_station.values():
        for s in group:
            arrivals.setdefault(s.arrival, []).append((s.station - 1, s.energy))
            departures.setdefault(s.departure, []).append((s.station - 1, s.energy))
    tau, gamma = config.tau, config.line_limit
    phi1, phi2, phi3, phi4 = config.phi
    prices = config.prices

    def residual_eval(t, x, u):
        x = np.asarray(x, dtype=float).reshape(n)
        u = np.asarray(u, dtype=float).reshape(n)
        f = np.zeros(n)
        arr = dict(arrivals.get(t, ()))
        dep = dict(departures.get(t, ()))
        total = float(np.sum(np.abs(u)))
        over_limit = total > gamma
        u_eff = u * (gamma / total) if over_limit else u
        for i in range(n):
            if i in arr:
                f[i] = arr[i]
            elif i in dep or x[i] - tau * u_eff[i] < 0:
                f[i] = tau * u[i] - x[i]
            elif over_limit:
                f[i] = tau * (u[i] - u_eff[i])
        return f

    def reward(t, x, u):
        x = np.asarray(x, dtype=float).reshape(n)
        u = np.asarray(u, dtype=float).reshape(n)
        p_t = float(prices[t]) if t < prices.shape[0] else float(prices[-1])
        r = (
            phi1 * tau * float(np.linalg.norm(u))
            - phi2 * float(np.linalg.norm(x))
            - phi3 * p_t * float(np.sum(np.abs(u)))
        )
        for i, energy in departures.get(t, ()):
            r -= phi4 * x[i] / energy
        return r

    def limited(policy, gamma):
        def act(t, x):
            u = np.maximum(np.asarray(policy.act(t, x), dtype=float), 0.0)
            total = float(np.sum(u))
            if total > gamma:
                u = u * (gamma / total)
            return u

        return act

    return residual_eval, reward, limited


def _bits(value):
    return np.asarray(value, dtype=float).tobytes()


def test_closures_match_reference_copies():
    config = ChargingConfig()
    n, T, gamma = config.n_chargers, config.horizon, config.line_limit
    sessions = generate_sessions(1003, "post_covid", n, T)
    env = ev_environment(config, sessions)
    ref_residual, ref_reward, ref_limited = _reference_closures(config, sessions)
    syn = lq.synthesize(env.model)
    f_hat = fit_demand_schedule([generate_sessions(k, "pre_covid", n, T) for k in range(3)], T, n)
    traj = lq.simulate(
        env.model,
        env.residual,
        line_limited(lq.parameterized_blackbox(syn, f_hat), gamma),
        np.zeros(n),
        T,
    )
    arrival_steps = {s.arrival for s in sessions}
    departure_steps = {s.departure for s in sessions}
    rng = np.random.default_rng(17)
    seen = dict(arrival=0, departure=0, over_limit=0, full_battery=0)
    for t in range(T + 2):  # two steps past the price series
        x = traj.states[min(t, T)]
        probes = [
            rng.uniform(0.0, 3.0, n),  # mostly over the line limit
            rng.uniform(-1.0, 1.0, n),  # negative entries count in ||u||_1
            np.full(n, gamma / n),  # exactly at the limit
            np.zeros(n),
        ]
        if t < T:
            probes.append(traj.actions[t])
        xs = [x, np.full(n, 0.01), rng.uniform(0.0, 8.0, n)]  # 0.01 kWh: battery fills
        for x_probe in xs:
            for u in probes:
                got = env.residual.eval(t, x_probe, u)
                assert _bits(got) == _bits(ref_residual(t, x_probe, u)), (t, x_probe, u)
                assert _bits(env.reward(t, x_probe, u)) == _bits(ref_reward(t, x_probe, u))
                seen["over_limit"] += float(np.sum(np.abs(u))) > gamma
                seen["full_battery"] += bool(np.any(x_probe - config.tau * u < 0))
        seen["arrival"] += t in arrival_steps
        seen["departure"] += t in departure_steps
    assert min(seen.values()) > 0, seen
    # the rollout's own per-step rewards and residuals
    assert _bits(env.rewards_for_trajectory(traj)) == _bits(
        [ref_reward(t, traj.states[t], traj.actions[t]) for t in range(T)]
    )
    assert _bits(traj.residuals) == _bits(
        [ref_residual(t, traj.states[t], traj.actions[t]) for t in range(T)]
    )


@pytest.mark.parametrize(
    "raw",
    [
        [5.0, 5.0, -1.0, 0.0, 0.0],
        [1.0, 1.2, 0.3, 2.0, 2.1],  # 6.6 exactly in decimal, not in binary
        [0.1, 0.2, 0.3, 0.4, 0.5],
        [-1.0, -2.0, 0.0, -0.0, -3.0],
        [[3.0], [2.0], [1.0], [0.5], [0.25]],  # column output
        (4.0, 4.0, 0.0, 0.0, 1e-300),  # tuple output
    ],
)
def test_line_limited_matches_reference_copy(raw):
    gamma = 6.6
    inner = lq.Policy(act=lambda t, x: raw)
    _, _, ref_limited = _reference_closures(ChargingConfig(), [])
    got = line_limited(inner, gamma).act(0, np.zeros(5))
    want = ref_limited(inner, gamma)(0, np.zeros(5))
    # the reference copy keeps a column's shape; line_limited reads the
    # action as a 1-d vector, as every rollout reader does
    assert got.shape == (want.size,)
    assert _bits(got) == _bits(want)


def test_line_limited_matches_reference_copy_on_random_actions():
    gamma = 6.6
    _, _, ref_limited = _reference_closures(ChargingConfig(), [])
    rng = np.random.default_rng(23)
    for _ in range(500):
        raw = rng.uniform(-1.0, 3.0, 5) * rng.choice([0.1, 1.0, 10.0])
        inner = lq.Policy(act=lambda t, x: raw)
        got = line_limited(inner, gamma).act(0, np.zeros(5))
        assert _bits(got) == _bits(ref_limited(inner, gamma)(0, np.zeros(5)))


def test_sum_matches_numpy_reduce_bit_for_bit():
    """The residual's ||u||_1 and the line limit's total add a short list
    in Python floats; each must have the bits of np.add.reduce, for every
    length, sign of zero, non-finite entry and spread of magnitudes."""
    from lqshield.environments.ev_charging import _sum

    rng = np.random.default_rng(29)
    specials = [0.0, -0.0, np.inf, -np.inf, np.nan, 1.7e308, -1.7e308, 5e-324]
    for n in range(0, 13):
        for _ in range(2000):
            v = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
            if n and rng.uniform() < 0.3:
                v[rng.integers(n)] = specials[rng.integers(len(specials))]
            if n and rng.uniform() < 0.05:
                v[:] = -0.0
            for values in (v, np.abs(v)):
                got = _sum(values.tolist())
                assert type(got) is float
                assert _bits(got) == _bits(np.add.reduce(values)), (n, values)
