"""Model-based LQR advice for untrusted black-box controllers.

The package synthesizes an LQR from a crude linear model, wraps any
black-box policy in an adaptive confidence-weighted blend with that
advice, and ships the numerical machinery to check the blend's
stability envelopes and competitive ratios -- plus the worst-case
construction showing why a fixed-weight blend of two individually
stabilizing gains can be unstable.
"""

from .adaptive import AdaptivePolicy, ConfidenceState, optimal_lambda
from .adversarial import (
    AdversarialCertificate,
    construct_adversarial_K2,
    demonstrate_instability,
)
from .errors import (
    ConfigError,
    DegenerateOPT,
    NonStabilizable,
    NotApplicable,
    NotRun,
    PreconditionViolated,
    SessionConflict,
    SessionParseError,
    SingularB,
    ValidationError,
)
from .guarantees import (
    BoundCheck,
    TheoremConstants,
    TrajOptResult,
    auxiliary_cost_closed_form,
    competitive_ratio,
    fit_stability_envelope,
    opt_cost_time_only,
    opt_cost_trajopt,
    theorem_constants,
    total_cost_with_tail,
    verify_bounds,
)
from .linalg_control import (
    LinearModel,
    Synthesis,
    solve_dare,
    spectral_radius,
    synthesize,
)
from .plant import (
    ResidualModel,
    Trajectory,
    disturbance_residual,
    estimate_lipschitz,
    lipschitz_residual,
    simulate,
    write_trajectory_csv,
    zero_residual,
)
from .policies import (
    Policy,
    auxiliary_optimal_policy,
    epsilon_consistent_blackbox,
    gain_policy,
    lqr_policy,
    naive_convex_policy,
    nonnegative,
    parameterized_blackbox,
    saturated,
)

__version__ = "0.1.0"
