"""The benchmark's span tracer still installs on the package and traces calls.

``perfbench/tracer.py`` wraps package functions and methods by name, and
some wrappers read arguments by name when they are called (the black-box
factory's ``bias_mode``, the residual of ``opt_cost_trajopt``), so removing
or renaming one of them breaks the benchmark; this catches it in seconds
instead of in the benchmark's own suite.  So does a change to the number
of rollouts one verify-bounds grid cell runs, which the benchmark's work
count assumes.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# installs the tracer, then drives one two-cell verify-bounds run, one
# one-rollout cart-pole sweep and one trajopt call through the wrapped
# package and prints the spans that ran, then the verify-bounds run's
# traced rollouts and steps
DRIVE = """
import sys
from pathlib import Path

import numpy as np
from tracer import Tracer

tracer = Tracer()
tracer.install()

import lqshield as lq
from lqshield.cli import main

tmp = Path(sys.argv[1])
cfg = tmp / "vb.cfg"
cfg.write_text(
    "[grid]\\nc_ell_fractions = 0.2\\nepsilon_fractions = 0.3,0.6\\n[experiment]\\nseeds = 1\\n"
)
assert main(["verify-bounds", "--config", str(cfg), "--out", str(tmp / "out")]) == 0
grid = tracer.counts["plant.simulate.rollouts"], tracer.counts["plant.simulate.steps"]
cfg = tmp / "sweep.cfg"
cfg.write_text(
    "[sweep]\\nthetas = 0.1\\n[experiment]\\nmonte_carlo = 1\\nhorizon = 5\\n"
    "policies = lqr,adaptive\\n"
)
assert main(["sweep-theta", "--config", str(cfg), "--out", str(tmp / "sweep")]) == 0

model = lq.LinearModel(A=[[0.55, 0.25], [0.0, 0.45]], B=np.eye(2), Q=np.eye(2), R=np.eye(2))
syn = lq.synthesize(model)
resid = lq.lipschitz_residual(2, 2, 0.05, seed=5)
lq.opt_cost_trajopt(model, resid, [1.0, -0.5], 5, syn=syn)

spans = tracer.report()["spans"]
print(" ".join(sorted(name for name, span in spans.items() if span["calls"] > 0)))
print(*grid)
"""


def test_tracer_installs(tmp_path):
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    env = dict(os.environ, PYTHONPATH=path)
    result = subprocess.run(
        [sys.executable, "-c", DRIVE, str(tmp_path)],
        env=env,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    spans, grid = result.stdout.splitlines()
    # the geometry perfbench's work count assumes for each of the two grid
    # cells and the one seed: the envelope run (horizon 120), the exact-OPT
    # rollout (disturbance_steps 50) and the ratio run (50 + 200 steps);
    # with one cell, a rollout hoisted out of the grid loop would not show
    assert grid.split() == [str(2 * 3), str(2 * (120 + 50 + 250))]
    ran = set(spans.split())
    for name in (
        "policies.rotation",
        "guarantees.opt_time_only",
        "guarantees.envelope",
        "guarantees.trajopt",
        "environments.cartpole.residual_build",
        "environments.cartpole.residual",
        "adaptive.act",
        "plant.simulate",
    ):
        assert name in ran, (name, sorted(ran))
