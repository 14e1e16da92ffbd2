"""Span tracing of lqshield from outside the package.

Spans are recorded around calls into each layer (module) of the package
without editing it: every public function that is a layer boundary is
replaced by a timing wrapper wherever its name is bound -- in the module
that defines it and in every module that imported it by name (``cli``
imports ``simulate``, ``synthesize`` and the policy factories;
``environments.cartpole`` imports ``estimate_lipschitz``).  Closures that
the package builds at run time (``Policy.act``, ``ResidualModel.eval``,
the EV reward) are timed by wrapping the factories that return them.

Spans are aggregated in memory per name (calls, total time, self time =
span time minus the time of child spans) plus parent -> child call
counts, and reported once when the process ends.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import inspect
import os
import sys
import time
from collections import Counter

_SPAN_ATTR = "_perfbench_span"


def rebind(replacements: dict) -> list:
    """Replace every module-level binding of each key by its value.

    ``replacements`` maps id(original) -> (original, replacement).
    Returns the (namespace, name, original) triples that were changed.
    """
    changed = []
    for mod in list(sys.modules.values()):
        namespace = getattr(mod, "__dict__", None)
        if not isinstance(namespace, dict):
            continue
        for name, value in list(namespace.items()):
            hit = replacements.get(id(value))
            if hit is not None and hit[0] is value:
                namespace[name] = hit[1]
                changed.append((namespace, name, value))
    return changed


def restore(changed: list) -> None:
    for namespace, name, original in changed:
        namespace[name] = original


def _bound_args(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


class Tracer:
    def __init__(self):
        self.spans: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: Counter = Counter()
        self.edges: Counter = Counter()
        self.models: set = set()
        self.adaptive: list = []
        self._stack: list = []

    # -- span and counter wrappers ------------------------------------

    def timed(self, name, fn, before=None, after=None):
        """``fn`` inside a span called ``name``.

        ``before(args, kwargs) -> (args, kwargs)`` may rewrite the
        arguments; ``after(result, args, kwargs)`` may return a
        replacement result (None keeps it).
        """
        stat = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        edges = self.edges
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            parent = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - frame[1]
                if parent is not None:
                    parent[1] += elapsed
                edges[(parent[0] if parent else "", name)] += 1
            if after is not None:
                replaced = after(result, args, kwargs)
                if replaced is not None:
                    result = replaced
            return result

        setattr(wrapper, _SPAN_ATTR, name)
        return wrapper

    def counted(self, name, fn):
        """``fn`` with a call counter ``name + '.calls'``, but no span."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name + ".calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- wrappers for objects the package builds at run time ----------

    def _policy(self, policy, name):
        if not hasattr(getattr(policy, "act", None), _SPAN_ATTR):
            policy.act = self.timed(name, policy.act)
        return policy

    def _residual(self, residual, name):
        if hasattr(residual.eval, _SPAN_ATTR):
            return residual
        return dataclasses.replace(residual, eval=self.timed(name, residual.eval))

    def _trajopt_args(self, args, kwargs):
        """Count each shooting rollout of ``opt_cost_trajopt``: every one
        evaluates the residual at t = 0 directly from the trajopt span
        (its initial LQR rollout does so from inside ``simulate``)."""
        stack, counts = self._stack, self.counts
        residual = args[1] if len(args) > 1 else kwargs["residual"]
        inner = residual.eval

        def evaluate(t, x, u):
            if t == 0 and stack and stack[-1][0] == "guarantees.trajopt":
                counts["guarantees.trajopt.rollout_evals"] += 1
            return inner(t, x, u)

        residual = dataclasses.replace(residual, eval=evaluate)
        if len(args) > 1:
            args = args[:1] + (residual,) + args[2:]
        else:
            kwargs = dict(kwargs, residual=residual)
        return args, kwargs

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        import lqshield.adaptive as adaptive
        import lqshield.adversarial as adversarial
        import lqshield.cli as cli
        import lqshield.environments.cartpole as cartpole
        import lqshield.environments.ev_charging as ev
        import lqshield.guarantees as guarantees
        import lqshield.linalg_control as linalg
        import lqshield.plant as plant
        import lqshield.policies as policies

        counts = self.counts
        wrapped = {}

        def add(original, replacement):
            wrapped[id(original)] = (original, replacement)

        def policy_factory(fn, pick=lambda a: "policies.act"):
            def after(result, args, kwargs):
                return self._policy(result, pick(_bound_args(fn, args, kwargs)))

            return after

        def rotation_or_plain(a):
            hashed = a["bias_mode"] == "rotation" and float(a["epsilon"]) > 0.0
            return "policies.rotation" if hashed else "policies.act"

        for name in (
            "lqr_policy",
            "gain_policy",
            "parameterized_blackbox",
            "auxiliary_optimal_policy",
            "naive_convex_policy",
            "saturated",
            "nonnegative",
        ):
            fn = getattr(policies, name)
            add(fn, _after_only(fn, policy_factory(fn)))
        fn = policies.epsilon_consistent_blackbox
        add(fn, _after_only(fn, policy_factory(fn, rotation_or_plain)))
        fn = ev.line_limited
        add(fn, _after_only(fn, policy_factory(fn)))

        def simulate_after(traj, args, kwargs):
            counts["plant.simulate.rollouts"] += 1
            counts["plant.simulate.steps"] += traj.horizon

        add(plant.simulate, self.timed("plant.simulate", plant.simulate, after=simulate_after))
        for name in ("zero_residual", "disturbance_residual", "lipschitz_residual"):
            fn = getattr(plant, name)
            add(fn, _after_only(fn, lambda r, a, k: self._residual(r, "plant.residual")))
        add(
            plant.estimate_lipschitz,
            self.counted("plant.estimate_lipschitz", plant.estimate_lipschitz),
        )

        def synthesize_after(syn, args, kwargs):
            counts["linalg_control.dare.iterations"] += syn.iterations
            m = syn.model
            digest = hashlib.sha256()
            for M in (m.A, m.B, m.Q, m.R):
                digest.update(repr(M.shape).encode() + M.tobytes())
            self.models.add(digest.hexdigest())

        add(
            linalg.synthesize,
            self.timed("linalg_control.synthesize", linalg.synthesize, after=synthesize_after),
        )

        for name in ("theorem_constants", "admissible_lipschitz_cap"):
            fn = getattr(guarantees, name)
            add(fn, self.timed("guarantees.constants", fn))
        add(
            guarantees.fit_stability_envelope,
            self.timed("guarantees.envelope", guarantees.fit_stability_envelope),
        )
        add(
            guarantees.opt_cost_time_only,
            self.timed("guarantees.opt_time_only", guarantees.opt_cost_time_only),
        )

        def trajopt_after(res, args, kwargs):
            history = res.cost_history
            counts["guarantees.trajopt.accepted"] += sum(
                1 for a, b in zip(history, history[1:]) if b < a
            )

        add(
            guarantees.opt_cost_trajopt,
            self.timed(
                "guarantees.trajopt",
                guarantees.opt_cost_trajopt,
                before=self._trajopt_args,
                after=trajopt_after,
            ),
        )
        add(
            adversarial.construct_adversarial_K2,
            self.timed("adversarial.certificate", adversarial.construct_adversarial_K2),
        )

        build = self.timed("environments.cartpole.residual_build", cartpole.cartpole_residual)
        add(
            cartpole.cartpole_residual,
            _after_only(
                build, lambda r, a, k: self._residual(r, "environments.cartpole.residual")
            ),
        )

        def ev_after(env, args, kwargs):
            env.residual = self._residual(env.residual, "environments.ev_charging.residual")
            if not hasattr(env.reward, _SPAN_ATTR):
                env.reward = self.timed("environments.ev_charging.reward", env.reward)

        add(ev.ev_environment, _after_only(ev.ev_environment, ev_after))
        for name in ("generate_sessions", "fit_demand_schedule"):
            fn = getattr(ev, name)
            add(fn, self.timed("environments.ev_charging.sessions", fn))

        def written(path):
            counts["cli.write.bytes"] += os.path.getsize(path)

        add(
            cli.write_csv,
            self.timed("cli.write", cli.write_csv, after=lambda r, a, k: written(a[0])),
        )
        add(
            plant.write_trajectory_csv,
            self.timed(
                "cli.write", plant.write_trajectory_csv, after=lambda r, a, k: written(a[1])
            ),
        )
        rebind(wrapped)

        # methods are bound on the class, so they are wrapped in place
        cli.RunConfig.echo = self.timed(
            "cli.write",
            cli.RunConfig.echo,
            after=lambda r, a, k: written(a[1] / "effective_config.txt"),
        )
        cls = adaptive.AdaptivePolicy
        cls.act = self.timed("adaptive.act", cls.act)
        init = cls.__init__
        registry = self.adaptive

        @functools.wraps(init)
        def register(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            registry.append(obj)

        cls.__init__ = register

    # -- report -----------------------------------------------------------

    def report(self) -> dict:
        branches = Counter()
        for policy in self.adaptive:
            if policy.lambdas:
                branches.update(policy.trace().branches)
        return {
            "spans": {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]} for k, v in self.spans.items()},
            "counts": dict(self.counts),
            "distinct_models": len(self.models),
            "branches": dict(branches),
            "edges": [[p, c, n] for (p, c), n in sorted(self.edges.items())],
        }


def _after_only(fn, after):
    """``fn`` with ``after(result, args, kwargs)`` applied to its result."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        replaced = after(result, args, kwargs)
        return result if replaced is None else replaced

    return wrapper
