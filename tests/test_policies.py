import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lqshield as lq
import lqshield.policies as policies
from lqshield.policies import _direction, _quantized

from conftest import random_stabilizable


@pytest.fixture(scope="module")
def syn3():
    rng = np.random.default_rng(13)
    return lq.synthesize(random_stabilizable(rng, 3))


class TestLqrPolicy:
    def test_zero_maps_to_zero(self, syn3):
        assert np.allclose(lq.lqr_policy(syn3).act(0, np.zeros(3)), 0.0)

    def test_scalar_gain(self, scalar_syn):
        u = lq.lqr_policy(scalar_syn).act(0, np.array([1.0]))
        assert u[0] == pytest.approx(-0.6180339887, abs=1e-9)

    def test_zero_gain(self):
        pol = lq.gain_policy(np.zeros((2, 3)))
        assert np.allclose(pol.act(0, np.ones(3)), 0.0)


class TestAuxiliaryOptimal:
    def test_no_disturbance_equals_lqr(self, syn3):
        aux = lq.auxiliary_optimal_policy(syn3, [np.zeros(3)] * 10)
        lqr = lq.lqr_policy(syn3)
        rng = np.random.default_rng(0)
        for t in (0, 3, 9, 15):
            x = rng.standard_normal(3)
            assert np.allclose(aux.act(t, x), lqr.act(t, x), atol=1e-12)

    def test_single_remaining_disturbance(self, syn3):
        rng = np.random.default_rng(1)
        w = rng.standard_normal(3)
        aux = lq.auxiliary_optimal_policy(syn3, [w])
        x = rng.standard_normal(3)
        B, P, H, A = syn3.model.B, syn3.P, syn3.H, syn3.model.A
        expected = -np.linalg.solve(H, B.T @ (P @ A @ x + P @ w))
        assert np.allclose(aux.act(0, x), expected, atol=1e-12)

    def test_beats_lqr_under_disturbance(self, scalar_model, scalar_syn):
        w = [np.array([1.0])] + [np.zeros(1)] * 9
        resid = lq.disturbance_residual(w)
        aux = lq.auxiliary_optimal_policy(scalar_syn, w)
        c_aux = lq.simulate(scalar_model, resid, aux, [0.5], 300).total_cost
        c_lqr = lq.simulate(scalar_model, resid, lq.lqr_policy(scalar_syn), [0.5], 300).total_cost
        assert c_aux <= c_lqr

    def test_optimal_against_dp_oracle(self, bench2_model, bench2_syn):
        """Exact finite-horizon dynamic programming with terminal value
        x'Px reproduces both the policy's actions and its cost."""
        rng = np.random.default_rng(5)
        T = 12
        w = [0.4 * rng.standard_normal(2) for _ in range(T)]
        x0 = rng.standard_normal(2)
        syn = bench2_syn
        A, B, Q, R, P, H = (
            bench2_model.A,
            bench2_model.B,
            bench2_model.Q,
            bench2_model.R,
            syn.P,
            syn.H,
        )
        # backward affine value recursion V_t(x) = x'Px + p_t'x + q_t
        p = np.zeros((T + 1, 2))
        q = np.zeros(T + 1)
        for t in range(T - 1, -1, -1):
            c = P @ w[t] + p[t + 1] / 2.0
            p[t] = 2.0 * (A - B @ np.linalg.solve(H, B.T @ P @ A)).T @ c
            q[t] = (
                q[t + 1]
                + w[t] @ P @ w[t]
                + p[t + 1] @ w[t]
                - c @ B @ np.linalg.solve(H, B.T @ c)
            )
        dp_cost = float(x0 @ P @ x0 + p[0] @ x0 + q[0])
        opt = lq.opt_cost_time_only(syn, w, x0)
        assert opt == pytest.approx(dp_cost, rel=1e-9)
        # the policy's action matches the DP minimizer at t = 0
        aux = lq.auxiliary_optimal_policy(syn, w)
        u_dp = -np.linalg.solve(H, B.T @ (P @ (A @ x0) + P @ w[0] + p[1] / 2.0))
        assert np.allclose(aux.act(0, x0), u_dp, atol=1e-10)


class TestParameterizedBlackbox:
    def test_zero_estimates_equal_lqr(self, syn3):
        bb = lq.parameterized_blackbox(syn3, [np.zeros(3)] * 5)
        lqr = lq.lqr_policy(syn3)
        rng = np.random.default_rng(2)
        for _ in range(1000):
            x = rng.standard_normal(3)
            assert np.max(np.abs(bb.act(0, x) - lqr.act(0, x))) < 1e-12

    def test_matches_auxiliary_for_true_disturbances(self, syn3):
        rng = np.random.default_rng(3)
        w = [rng.standard_normal(3) for _ in range(6)]
        bb = lq.parameterized_blackbox(syn3, w)
        aux = lq.auxiliary_optimal_policy(syn3, w)
        for t in range(8):
            x = rng.standard_normal(3)
            assert np.allclose(bb.act(t, x), aux.act(t, x), atol=1e-12)

    def test_feedforward_scales_linearly(self, syn3):
        rng = np.random.default_rng(4)
        w = [rng.standard_normal(3) for _ in range(6)]
        bb1 = lq.parameterized_blackbox(syn3, w)
        bb2 = lq.parameterized_blackbox(syn3, [2 * v for v in w])
        K = syn3.K
        for t in range(6):
            x = rng.standard_normal(3)
            off1 = bb1.act(t, x) + K @ x
            off2 = bb2.act(t, x) + K @ x
            assert np.allclose(off2, 2 * off1, atol=1e-12)


class TestNaiveConvex:
    def test_endpoints(self, syn3):
        rng = np.random.default_rng(5)
        black = lq.gain_policy(rng.standard_normal((3, 3)))
        advice = lq.lqr_policy(syn3)
        x = rng.standard_normal(3)
        assert np.allclose(
            lq.naive_convex_policy(black, advice, 0.0).act(0, x), advice.act(0, x)
        )
        assert np.allclose(
            lq.naive_convex_policy(black, advice, 1.0).act(0, x), black.act(0, x)
        )

    def test_midpoint_of_gains(self):
        rng = np.random.default_rng(6)
        K1, K2 = rng.standard_normal((2, 3)), rng.standard_normal((2, 3))
        mix = lq.naive_convex_policy(lq.gain_policy(K2), lq.gain_policy(K1), 0.5)
        x = rng.standard_normal(3)
        assert np.allclose(mix.act(0, x), -0.5 * (K1 + K2) @ x, atol=1e-14)

    def test_affine_in_lambda(self, syn3):
        rng = np.random.default_rng(7)
        black = lq.gain_policy(rng.standard_normal((3, 3)))
        advice = lq.lqr_policy(syn3)
        x = rng.standard_normal(3)
        u0 = advice.act(0, x)
        u1 = black.act(0, x)
        for lam in (0.2, 0.5, 0.77):
            mixed = lq.naive_convex_policy(black, advice, lam).act(0, x)
            assert np.allclose(mixed, lam * u1 + (1 - lam) * u0, atol=0)

    def test_rejects_actions_of_different_sizes(self):
        black = lq.Policy(act=lambda t, x: np.array([0.3]))
        advice = lq.gain_policy(np.eye(2))
        mix = lq.naive_convex_policy(black, advice, 0.5)
        with pytest.raises(ValueError, match="black box returned dimension 1, expected 2"):
            mix.act(0, np.array([1.0, 0.0]))

    def test_rejects_bad_lambda(self, syn3):
        with pytest.raises(ValueError):
            lq.naive_convex_policy(lq.lqr_policy(syn3), lq.lqr_policy(syn3), 1.5)


class TestEpsilonConsistent:
    def test_column_reference_acts_as_its_flat_copy(self):
        K = np.array([[0.2, 0.1], [0.0, 0.3]])
        flat = lq.gain_policy(K)
        column = lq.Policy(act=lambda t, x: flat.act(t, x).reshape(-1, 1))
        x = np.array([0.4, -0.7])
        want = lq.epsilon_consistent_blackbox(flat, 0.3, "rotation", 5).act(0, x)
        got = lq.epsilon_consistent_blackbox(column, 0.3, "rotation", 5).act(0, x)
        assert got.shape == (2,)
        assert np.array_equal(got, want)
        model = lq.LinearModel(A=0.5 * np.eye(2), B=np.eye(2), Q=np.eye(2), R=np.eye(2))
        trajs = [
            lq.simulate(
                model,
                lq.zero_residual(2),
                lq.epsilon_consistent_blackbox(ref, 0.3, "rotation", 5),
                x,
                10,
            )
            for ref in (flat, column)
        ]
        assert trajs[0].states.tobytes() == trajs[1].states.tobytes()

    def test_zero_epsilon_is_identity(self, syn3):
        base = lq.lqr_policy(syn3)
        bb = lq.epsilon_consistent_blackbox(base, 0.0, "rotation", 0)
        assert bb is base
        rng = np.random.default_rng(8)
        x = rng.standard_normal(3)
        assert np.array_equal(bb.act(0, x), base.act(0, x))

    def test_error_bound_by_construction(self, syn3):
        base = lq.lqr_policy(syn3)
        bb = lq.epsilon_consistent_blackbox(base, 0.1, "rotation", 3)
        rng = np.random.default_rng(9)
        for _ in range(10_000):
            x = rng.standard_normal(3) * rng.uniform(0.01, 10)
            err = np.linalg.norm(bb.act(0, x) - base.act(0, x))
            assert err <= 0.1 * np.linalg.norm(x) * (1 + 1e-12)

    @pytest.mark.parametrize("mode", ["scaling", "offset_gain"])
    def test_rejects_other_modes(self, syn3, mode):
        with pytest.raises(ValueError, match="unknown bias_mode"):
            lq.epsilon_consistent_blackbox(lq.lqr_policy(syn3), 0.1, mode, 3)

    @pytest.mark.parametrize("epsilon", [-0.1, float("nan"), float("inf")])
    def test_rejects_negative_or_nan_epsilon(self, syn3, epsilon):
        with pytest.raises(ValueError, match="epsilon"):
            lq.epsilon_consistent_blackbox(lq.lqr_policy(syn3), epsilon, "rotation", 3)

    def test_preserves_zero(self, syn3):
        bb = lq.epsilon_consistent_blackbox(lq.lqr_policy(syn3), 0.3, "rotation", 1)
        assert np.allclose(bb.act(0, np.zeros(3)), 0.0)

    def test_deterministic_function_of_state(self, syn3):
        bb = lq.epsilon_consistent_blackbox(lq.lqr_policy(syn3), 0.2, "rotation", 5)
        x = np.array([0.3, -1.2, 0.7])
        assert np.array_equal(bb.act(0, x), bb.act(0, x.copy()))

    def test_measured_epsilon_within_declared(self, syn3):
        base = lq.lqr_policy(syn3)
        bb = lq.epsilon_consistent_blackbox(base, 0.2, "rotation", 11)
        eps_hat = lq.measure_epsilon(bb, base, lq.gaussian_state_sampler(3), 2000, 17)
        assert eps_hat <= 0.2 * (1 + 1e-9)
        assert eps_hat > 0.19  # rotation mode is tight

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e10, -1e10])
    def test_rotation_rejects_unhashable_state(self, syn3, bad):
        bb = lq.epsilon_consistent_blackbox(lq.lqr_policy(syn3), 0.2, "rotation", 5)
        x = np.array([0.3, bad, 0.7])
        with pytest.raises(ValueError, match="cannot hash state"):
            _direction(5, _quantized(x), 3)
        with pytest.raises(ValueError, match="cannot hash state"):
            bb.act(0, x)


class TestMeasureEpsilon:
    def test_identical_policies(self, syn3):
        pol = lq.lqr_policy(syn3)
        eps_hat = lq.measure_epsilon(pol, pol, lq.gaussian_state_sampler(3), 100, 0)
        assert eps_hat == 0.0

    def test_gain_offset_svd_tight(self, syn3):
        rng = np.random.default_rng(12)
        D = rng.standard_normal((syn3.m, 3))
        D *= 0.05 / np.linalg.norm(D, 2)
        perturbed = lq.gain_policy(syn3.K + D)
        base = lq.lqr_policy(syn3)
        # sampling along the top right-singular direction attains the bound
        _, _, Vt = np.linalg.svd(D)
        top = Vt[0]

        def sampler(rng_):
            if rng_.uniform() < 0.2:
                return top * rng_.uniform(0.5, 2.0)
            return rng_.standard_normal(3)

        eps_hat = lq.measure_epsilon(perturbed, base, sampler, 500, 3)
        assert eps_hat <= 0.05 * (1 + 1e-9)
        assert eps_hat == pytest.approx(0.05, rel=1e-6)


class TestWrappers:
    def test_saturated_clamps(self, syn3):
        pol = lq.saturated(lq.gain_policy(10 * np.eye(3)), 2.0)
        u = pol.act(0, np.ones(3))
        assert np.max(np.abs(u)) <= 2.0

    def test_nonnegative_projects(self):
        pol = lq.nonnegative(lq.Policy(act=lambda t, x: np.array([-1.0, 2.0])))
        assert np.allclose(pol.act(0, np.zeros(2)), [0.0, 2.0])


def _reference_hashed_unit_vector(seed, x, m):
    """The hashed direction as it was before its seeding moved to Python
    ints and an explicit SeedSequence: a copy kept as the bit-level oracle."""
    x = np.asarray(x, float)
    scaled = x * 1e9
    if not np.all(np.abs(scaled) < 2.0**63):
        raise ValueError("cannot hash state")
    q = np.round(scaled).astype(np.int64)
    digest = hashlib.blake2b(
        q.tobytes() + int(seed).to_bytes(8, "little", signed=True), digest_size=16
    ).digest()
    sub = np.random.default_rng(int.from_bytes(digest, "little"))
    d = sub.standard_normal(m)
    norm = np.linalg.norm(d)
    if norm < 1e-12:
        d = np.zeros(m)
        d[0] = 1.0
        return d
    return d / norm


def _half_way_ties(count):
    """Coordinates x with x * 1e9 exactly k + 1/2, round half to even's
    edge, found around (k + 1/2) / 1e9 for k = -count..count."""
    ties = []
    for k in range(-count, count + 1):
        guess = (k + 0.5) / 1e9
        for x in (np.nextafter(guess, -1.0), guess, np.nextafter(guess, 1.0)):
            if x * 1e9 == k + 0.5:
                ties.append(float(x))
    return ties


_TIES = _half_way_ties(6)

_coordinate = st.one_of(
    st.sampled_from([0.0, -0.0] + _TIES),
    st.builds(
        lambda mantissa, scale: mantissa * scale,
        st.floats(-1.0, 1.0),
        st.sampled_from([1e-12, 1e-10, 1e-9, 1e-6, 1e-3, 1.0, 1e2, 1e3]),
    ),
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    st.integers(-(2**40), 2**40),
    st.lists(_coordinate, min_size=1, max_size=4),
    st.integers(1, 3),
)
def test_hashed_unit_vector_matches_reference_copy(seed, coords, m):
    x = np.array(coords)
    got = _direction(seed, _quantized(x), m)
    assert got.tobytes() == _reference_hashed_unit_vector(seed, x, m).tobytes()


@pytest.mark.parametrize("m", [1, 2, 3])
def test_hashed_unit_vector_on_zero_and_tie_states(m):
    assert len(_TIES) >= 6
    assert {int(abs(x) * 1e9) % 2 for x in _TIES} == {0, 1}  # both rounding directions
    states = [np.zeros(3), np.array([-0.0, 0.0, -0.0]), np.array(_TIES), np.array(_TIES[::-1])]
    for seed in range(20):
        for x in states:
            got = _direction(seed, _quantized(x), m)
            assert got.tobytes() == _reference_hashed_unit_vector(seed, x, m).tobytes()


@pytest.mark.parametrize("k", [0, 1, 7919, 2**63 - 1, -1, -(2**63)])
def test_direction_seed_wraps_modulo_2_64(k):
    # seeds outside int64 hash as their residue mod 2**64, so a seed of
    # 2**63 or more draws a direction instead of overflowing the encoding
    q = _quantized(np.array([0.3, -1.2, 0.7]))
    for m in (1, 3):
        want = _direction(k, q, m).tobytes()
        assert _direction(k + 2**64, q, m).tobytes() == want
        assert _direction(k - 2**64, q, m).tobytes() == want


# states whose quantized grid points repeat and alternate: the sign of zero,
# the rounding ties, and tiny states that all land on the all-zero point
_POOL = [
    np.zeros(3),
    np.array([-0.0, 0.0, -0.0]),
    np.array(_TIES[:3]),
    np.array(_TIES[-3:]),
    np.array([4e-10, -3e-10, 1e-12]),
    np.array([-2e-10, 0.0, 4.9e-10]),
    np.array([0.3, -1.2, 0.7]),
    np.array([0.3, -1.2, 0.7 + 1e-12]),
    np.array([-2.5, 0.01, 1e-6]),
]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.integers(0, len(_POOL) - 1), st.booleans()), max_size=30))
def test_cached_direction_matches_reference_copy(syn3, queries):
    base = lq.lqr_policy(syn3)
    eps = 0.2
    boxes = {seed: lq.epsilon_consistent_blackbox(base, eps, "rotation", seed) for seed in (4, 9)}
    for k, second in queries:
        x = _POOL[k]
        seed = 9 if second else 4
        u0 = base.act(0, x)
        nx = math.sqrt(x.dot(x))
        want = u0 if nx == 0.0 else u0 + eps * nx * _reference_hashed_unit_vector(seed, x, 3)
        assert boxes[seed].act(0, x).tobytes() == want.tobytes()


def test_direction_drawn_once_per_run_of_equal_quantized_states(bench2_syn, monkeypatch):
    draws = []
    direction = policies._direction

    def counted(seed, q, m):
        draws.append(q)
        return direction(seed, q, m)

    monkeypatch.setattr(policies, "_direction", counted)
    syn = bench2_syn
    bb = lq.epsilon_consistent_blackbox(lq.lqr_policy(syn), 0.3, "rotation", 2)
    # lambda stays positive, so the black box is queried at every step,
    # as in the verify-bounds ratio runs
    pol = lq.AdaptivePolicy(syn, bb, lq.lqr_policy(syn), 1e-6, lambda t: 1.0)
    x0 = np.array([0.6, -0.8])
    resid = lq.lipschitz_residual(2, 2, 0.05, seed=2)
    traj = lq.simulate(syn.model, resid, pol, x0, 120)
    assert traj.horizon == 120
    assert min(pol.lambdas) > 0.0
    queried = [policies._quantized(x) for x in traj.states[:-1] if x.dot(x) > 0.0]
    runs = [q for i, q in enumerate(queried) if i == 0 or q != queried[i - 1]]
    assert draws == runs
    assert len(runs) < len(queried)  # the decayed tail repeats the all-zero point
