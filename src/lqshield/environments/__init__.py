"""Case-study plants: the cart-pole balancer and an EV charging fleet."""

from .cartpole import (
    CartPoleParams,
    cartpole_linearization,
    cartpole_residual,
)
from .ev_charging import (
    ChargingConfig,
    ChargingSession,
    EvEnvironment,
    default_prices,
    ev_environment,
    fit_demand_schedule,
    generate_sessions,
    line_limited,
    load_prices_csv,
)

__all__ = [
    "CartPoleParams",
    "cartpole_linearization",
    "cartpole_residual",
    "ChargingSession",
    "ChargingConfig",
    "EvEnvironment",
    "ev_environment",
    "fit_demand_schedule",
    "generate_sessions",
    "load_prices_csv",
    "default_prices",
    "line_limited",
]
