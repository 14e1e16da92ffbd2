"""Synthetic EV-charging fleet with session arrivals and a line limit.

The state holds the remaining energy demand (kWh) per charger; an
allocation u (kW) reduces it at rate tau * u per step.  Session
arrivals inject demand, departures and full batteries zero their
coordinate, and allocations beyond the line limit are projected back
onto it.  All of that enters through the residual, so the crude linear
model the controller sees is just x_{t+1} = x_t - tau u_t.

The reward per step is

    phi1 tau ||u||_2 - phi2 ||x||_2 - phi3 p_t ||u||_1
    - phi4 sum_i 1(departure at i) x_i / e_j

evaluated on the commanded allocation.  Note the residual here does not
vanish at the origin on arrival steps, so this environment exercises
empirical robustness, not the stability hypotheses.

Sessions use integer step indices and 1-based station numbers; prices
are a per-step series in units chosen so that charging against the
electricity price roughly balances the delivery reward (idle charging
is mildly net-negative).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..errors import SessionConflict, SessionParseError, ValidationError
from ..linalg_control import LinearModel
from ..plant import ResidualModel, Trajectory, _vector
from ..policies import Policy

__all__ = [
    "ChargingSession",
    "ChargingConfig",
    "EvEnvironment",
    "ev_environment",
    "default_prices",
    "load_prices_csv",
    "generate_sessions",
    "line_limited",
]


@dataclass(frozen=True)
class ChargingSession:
    """One charging visit: arrival/departure step, battery capacity
    (kWh) and the 1-based station index."""

    arrival: int
    departure: int
    energy: float
    station: int

    def __post_init__(self):
        if self.arrival >= self.departure:
            raise ValidationError(
                f"session arrival {self.arrival} must precede departure {self.departure}"
            )
        if not self.energy > 0:
            raise ValidationError(f"session energy must be positive, got {self.energy}")
        if self.station < 1:
            raise ValidationError(f"station index must be >= 1, got {self.station}")


@dataclass(frozen=True)
class ChargingConfig:
    """Fleet geometry, step duration, prices, and reward coefficients."""

    n_chargers: int = 5
    line_limit: float = 6.6
    tau: float = 5.0 / 60.0
    prices: np.ndarray = field(default_factory=lambda: default_prices(288))
    phi: tuple = (50.0, 0.01, 10.0, 100.0)

    def __post_init__(self):
        if self.n_chargers < 1:
            raise ValueError("need at least one charger")
        # written as `not > 0` so that NaN fails too
        if not self.line_limit > 0:
            raise ValueError("line limit must be positive")
        if not 0 < self.tau < math.inf:
            raise ValueError("step duration must be positive and finite")
        if not np.all(np.isfinite(self.phi)):
            raise ValueError("reward weights phi must be finite")
        prices = np.asarray(self.prices, dtype=float)
        if prices.ndim != 1 or prices.shape[0] == 0:
            raise ValueError(f"prices must be a non-empty series, got shape {prices.shape}")
        if not np.all(np.isfinite(prices)):
            raise ValueError("prices must be finite")
        if np.any(prices < 0):
            raise ValueError("prices must be nonnegative")
        object.__setattr__(self, "prices", prices)

    @property
    def horizon(self) -> int:
        return self.prices.shape[0]


def default_prices(steps: int) -> np.ndarray:
    """Smooth daily price curve with a morning dip and an evening peak."""
    t = np.arange(steps) / steps
    return 0.52 + 0.10 * np.sin(2.0 * np.pi * (t - 0.35)) + 0.03 * np.sin(
        4.0 * np.pi * t
    )


def load_prices_csv(path) -> np.ndarray:
    """Read a per-step price series from a CSV with a ``price`` column."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or "price" not in reader.fieldnames:
            raise SessionParseError(1, "price CSV must have a 'price' column")
        values = []
        for lineno, row in enumerate(reader, start=2):
            try:
                values.append(float(row["price"]))
            except (TypeError, ValueError) as exc:
                raise SessionParseError(lineno, f"bad price value {row.get('price')!r}") from exc
    return np.asarray(values)


@dataclass
class EvEnvironment:
    """Linear model + residual + reward for one day of sessions.

    ``reward(t, x, u)`` takes one step (an int t and float64 1-d x and u;
    it returns a float) or stacked steps (an int array t of N steps and
    row-stacked x [N, n] and u [N, n]; it returns an array of N rewards).
    Both forms evaluate one formula, each row with the same BLAS routine
    and reduction as the one-step form, so a stacked reward has the bits
    of the per-step rewards.
    """

    model: LinearModel
    residual: ResidualModel
    reward: Callable[[object, np.ndarray, np.ndarray], object]

    def rewards_for_trajectory(self, traj: Trajectory) -> np.ndarray:
        """The per-step rewards of a recorded rollout, from one stacked
        :attr:`reward` call after the rollout (the reward does not feed
        back into the dynamics)."""
        T = traj.horizon
        return self.reward(np.arange(T), traj.states[:T], traj.actions)


def _sum(values: list) -> float:
    """``float(np.add.reduce(values))`` for a list of floats.

    NumPy's pairwise summation adds fewer than 8 entries left to right
    from 0.0, which Python float additions reproduce bit for bit at a
    fraction of a ufunc call's cost; longer lists go through NumPy.
    """
    if len(values) < 8:
        total = 0.0
        for v in values:
            total += v
        return total
    return float(np.add.reduce(values))


def _sessions_by_step(sessions: Sequence[ChargingSession], n: int):
    """The per-step ``{t: {station index: energy}}`` lookups of arrivals
    and of departures, after checking that every station is in the
    fleet and that no two sessions on one station overlap."""
    arrivals: dict[int, dict] = {}
    departures: dict[int, dict] = {}
    per_station: dict[int, list] = {}
    for s in sessions:
        if s.station > n:
            raise ValidationError(
                f"station {s.station} outside the fleet of {n} chargers"
            )
        per_station.setdefault(s.station, []).append(s)
    for station, group in per_station.items():
        group.sort(key=lambda s: s.arrival)
        for a, b in zip(group, group[1:]):
            if b.arrival <= a.departure:
                raise SessionConflict(
                    f"sessions overlap on station {station}: "
                    f"[{a.arrival}, {a.departure}] and [{b.arrival}, {b.departure}]"
                )
        for s in group:
            arrivals.setdefault(s.arrival, {})[s.station - 1] = s.energy
            departures.setdefault(s.departure, {})[s.station - 1] = s.energy
    return arrivals, departures


def ev_environment(
    config: ChargingConfig, sessions: Sequence[ChargingSession]
) -> EvEnvironment:
    """Build the charging plant for one day of (non-overlapping) sessions.

    The linear part is A = I, B = -tau I on the demand coordinates; the
    residual implements, per station and in this order of precedence:

    - session arrival: add the session's battery capacity,
    - departure or battery full (x - tau u < 0): zero the coordinate,
    - line limit exceeded (||u||_1 > limit): scale the delivered energy
      back so the step's total delivery is exactly tau * limit,
    - otherwise zero.
    """
    n = config.n_chargers
    sessions = sorted(sessions, key=lambda s: (s.arrival, s.station))
    arrivals, departures = _sessions_by_step(sessions, n)
    tau, gamma = config.tau, config.line_limit
    model = LinearModel(
        A=np.eye(n), B=-tau * np.eye(n), Q=np.eye(n), R=1e-4 * np.eye(n)
    )

    def residual_eval(t, x, u):
        xs = x.tolist()
        us = u.tolist()
        total = _sum([abs(u_i) for u_i in us])  # ||u||_1
        # the generic rule: a full battery (x - tau u_eff < 0) zeros its
        # coordinate; over the line limit the effective allocation is
        # u_eff = u * (gamma / total), so total delivery never exceeds
        # gamma * tau, and the residual takes back the excess
        if total > gamma:
            scale = gamma / total
            f = [
                tau * u_i - x_i if x_i - tau * (u_i * scale) < 0 else tau * (u_i - u_i * scale)
                for x_i, u_i in zip(xs, us)
            ]
        else:
            f = [tau * u_i - x_i if x_i - tau * u_i < 0 else 0.0 for x_i, u_i in zip(xs, us)]
        # then the overrides, the higher precedence last
        dep = departures.get(t)
        if dep is not None:
            for i in dep:
                f[i] = tau * us[i] - xs[i]
        arr = arrivals.get(t)
        if arr is not None:
            for i, energy in arr.items():
                f[i] = energy
        return np.array(f, dtype=float)

    residual = ResidualModel(eval=residual_eval)
    phi1, phi2, phi3, phi4 = config.phi
    prices = config.prices
    last = prices.shape[0] - 1
    no_events: dict = {}

    def reward(t, x, u):
        one_step = np.ndim(t) == 0
        steps = np.atleast_1d(t)
        X, U = np.atleast_2d(x), np.atleast_2d(u)
        # sqrt of a (1, n) @ (n, 1) ddot per row: the value np.linalg.norm returns
        norm_u = np.sqrt(np.matmul(U[:, None, :], U[:, :, None]).reshape(-1))
        norm_x = np.sqrt(np.matmul(X[:, None, :], X[:, :, None]).reshape(-1))
        total_u = np.add.reduce(np.abs(U), axis=1)
        # the one-step form combined these as Python floats, which never warn
        with np.errstate(all="ignore"):
            r = (
                phi1 * tau * norm_u
                - phi2 * norm_x
                - phi3 * prices[np.minimum(steps, last)] * total_u
            )
        for k, step in enumerate(steps.tolist()):
            for i, energy in departures.get(step, no_events).items():
                r[k] -= phi4 * X[k, i] / energy
        return float(r[0]) if one_step else r

    return EvEnvironment(model=model, residual=residual, reward=reward)


def fit_demand_schedule(
    session_sets: Sequence[Sequence[ChargingSession]],
    steps: int,
    n_chargers: int,
) -> list[np.ndarray]:
    """Mean demand-injection profile of the given (training) days.

    Averages the arrival-energy schedule across days and lags it one
    step: an arrival at step t injects demand that a controller first
    sees in x_{t+1}, so a residual-estimate sequence fitted to history
    carries the injection at t+1.  The result feeds
    :func:`lqshield.policies.parameterized_blackbox`.
    """
    sched = np.zeros((steps, n_chargers))
    for sessions in session_sets:
        for s in sessions:
            if s.arrival + 1 < steps:
                sched[s.arrival + 1, s.station - 1] += s.energy
    if session_sets:
        sched /= len(session_sets)
    return list(sched)


def line_limited(policy: Policy, gamma: float) -> Policy:
    """Project actions onto the feasible set {u >= 0, sum(u) <= gamma}."""

    inner = policy.act

    def act(t, x):
        u = np.maximum(_vector(inner(t, x), None, "policy"), 0.0)
        total = _sum(u.tolist())  # == np.sum(u)
        if total > gamma:
            u = u * (gamma / total)
        return u

    return Policy(act=act)


def generate_sessions(
    seed: int,
    day_profile: str,
    n_chargers: int = 5,
    steps: int = 288,
) -> list[ChargingSession]:
    """Synthetic one-day session sets with two arrival regimes.

    Each station has fixed commute slots (a morning and an early-
    afternoon visit with station-specific offsets).  "pre_covid" jitters
    arrivals tightly around those slots, giving a concentrated morning
    peak that a schedule fitted on such days anticipates well;
    "post_covid" redraws the arrival times uniformly over the working
    day (flattened peak, lower peak-to-mean ratio) while keeping the
    energy/duration structure.  Sessions on one station never overlap.
    """
    if day_profile not in ("pre_covid", "post_covid"):
        raise ValueError(f"unknown day profile {day_profile!r}")
    rng = np.random.default_rng(seed)
    steps_per_hour = steps / 24.0
    out: list[ChargingSession] = []
    for station in range(1, n_chargers + 1):
        cursor = 0
        for slot_hour in (7.2 + 0.45 * station, 13.0 + 0.5 * station):
            if day_profile == "pre_covid":
                arrival = int(round(slot_hour * steps_per_hour)) + int(
                    rng.choice([-1, 0, 1], p=[0.15, 0.7, 0.15])
                )
            else:
                arrival = int(round(rng.uniform(6.0, 18.0) * steps_per_hour))
            arrival = min(max(arrival, 0), steps - 12)
            if arrival <= cursor:
                arrival = cursor + 1
            duration = min(max(round((3.0 + rng.uniform(0.0, 1.5)) * steps_per_hour), 6), steps)
            departure = min(arrival + duration, steps - 1)
            if departure <= arrival:
                continue
            energy = float(4.5 + 0.5 * station + rng.uniform(-0.4, 0.4))
            out.append(
                ChargingSession(
                    arrival=arrival, departure=departure, energy=energy, station=station
                )
            )
            cursor = departure + 1
    out.sort(key=lambda s: (s.arrival, s.station))
    return out
