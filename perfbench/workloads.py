"""The benchmark's workload table: what each workload runs and how its
outputs are read back.

Each workload is one whole experiment run in a fresh process.  Three are
the shipped CLI subcommands on their shipped configs; the fourth is a set
of library calls (see ``oracles.py``) that no CLI subcommand reaches.

The CLI workloads run the shipped config with a few values overridden
(``overrides``): fewer replications, so that one whole run takes 2-4 s
and one invocation's median is taken over several runs.  On a shared
machine whose speed drifts, that is what keeps the figures steady.  The
per-task structure (policies, horizon, grid) is the shipped one.

The benchmark seed selects a program seed from a fixed pool, so every
program seed a run can use has recorded reference outputs
(``references/<workload>.json``).  ``HOLDOUT_SEEDS`` are recorded too but
reached only with ``--holdout``: a gain tuned on the pool is confirmed on
them.
"""

from __future__ import annotations

import configparser
import csv
from dataclasses import dataclass
from pathlib import Path

DEV_SEEDS = tuple(range(10))
HOLDOUT_SEEDS = (1009, 2027)

# ChargingConfig's default price curve has 288 five-minute steps and
# ev-compare rolls out one full day per row of rows.csv.
EV_DAY_STEPS = 288


def program_seed(bench_seed: int, holdout: bool = False) -> int:
    pool = HOLDOUT_SEEDS if holdout else DEV_SEEDS
    return pool[bench_seed % len(pool)]


@dataclass(frozen=True)
class Table:
    """One output CSV and how to compare it: ``exact`` columns must match
    as text, every other column is a float compared within tolerance."""

    file: str
    key: tuple
    exact: tuple


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str = ""  # CLI subcommand; empty for the library workload
    config: str = ""  # shipped config, relative to the checkout root
    overrides: tuple = ()  # (section, key, value) set on top of it
    tables: tuple = ()
    # per-layer spans that must record at least one call on this workload
    covers: tuple = ()


SWEEP = Workload(
    name="cartpole-sweep",
    why="sweep-theta, shipped config at theta 0.4 only: per-step simulate loop, cart-pole residual, per-task synthesis rebuild",
    command="sweep-theta",
    config="configs/sweep_theta.cfg",
    # 4 policy tasks x 10 rollouts keeps the shipped ratio of per-task
    # rebuild work to rollout work
    overrides=(("sweep", "thetas", "0.4"),),
    tables=(
        Table("rows.csv", ("theta", "policy", "mc"), ("theta", "policy", "mc", "diverged", "steps")),
        Table("summary.csv", ("theta", "policy"), ("theta", "policy", "divergences", "runs")),
    ),
    covers=(
        "plant.simulate",
        "linalg_control.synthesize",
        "policies.act",
        "adaptive.act",
        "environments.cartpole.residual",
        "environments.cartpole.residual_build",
        "cli.write",
    ),
)

BOUNDS = Workload(
    name="bounds-grid",
    why="verify-bounds, shipped grid with 3 seeds per cell: adaptive rollouts, hashed rotation black box, exact-OPT oracle",
    command="verify-bounds",
    config="configs/verify_bounds.cfg",
    overrides=(("experiment", "seeds", "3"),),
    tables=(
        Table(
            "grid.csv",
            ("C_ell", "epsilon", "alpha"),
            ("preconditions", "cr_within_bound", "status"),
        ),
    ),
    covers=(
        "plant.simulate",
        "plant.residual",
        "linalg_control.synthesize",
        "policies.act",
        "policies.rotation",
        "adaptive.act",
        "guarantees.constants",
        "guarantees.envelope",
        "guarantees.opt_time_only",
        "cli.write",
    ),
)

EV = Workload(
    name="ev-shift",
    why="ev-compare on the shipped config: 5-station Python residual, session lookups, per-step reward pass",
    command="ev-compare",
    config="configs/ev_compare.cfg",
    tables=(
        Table("rows.csv", ("profile", "seed", "policy"), ("profile", "seed", "policy")),
        Table(
            "summary.csv",
            ("profile",),
            ("profile", "adaptive_wins", "seeds", "within_5pct"),
        ),
    ),
    covers=(
        "plant.simulate",
        "linalg_control.synthesize",
        "policies.act",
        "adaptive.act",
        "environments.ev_charging.residual",
        "environments.ev_charging.reward",
        "environments.ev_charging.sessions",
        "cli.write",
    ),
)

ORACLES = Workload(
    name="synthesis-oracles",
    why="library calls with no CLI: synthesis, guarantee constants, adversarial certificates and trajopt shooting",
    covers=(
        "plant.simulate",
        "linalg_control.synthesize",
        "guarantees.constants",
        "guarantees.trajopt",
        "adversarial.certificate",
        "environments.cartpole.residual_build",
    ),
)

WORKLOADS = {w.name: w for w in (SWEEP, BOUNDS, EV, ORACLES)}


def config_path(root: Path, workload: Workload) -> Path:
    return root / ".bench_out" / "configs" / f"{workload.name}.cfg"


def write_config(root: Path, workload: Workload) -> Path:
    """Write the workload's effective config (shipped file plus overrides)."""
    parser = configparser.ConfigParser()
    parser.optionxform = str  # keys are case-sensitive, as in the CLI
    with open(root / workload.config) as fh:
        parser.read_file(fh)
    for section, key, value in workload.overrides:
        parser[section][key] = value
    path = config_path(root, workload)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        parser.write(fh)
    return path


def read_csv(path: Path) -> tuple[list, list]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, [row for row in reader]


def read_effective_config(out: Path) -> dict:
    values = {}
    for line in (out / "effective_config.txt").read_text().splitlines():
        key, _, value = line.partition(" = ")
        values[key] = value
    return values


def count_work(workload: Workload, out: Path, oracle_output: dict = None) -> tuple[int, int]:
    """(rollouts, plant steps) counted from a finished run's own outputs.

    ``verify-bounds`` writes no step counts: every finished grid cell runs
    ``seeds`` envelope rollouts of ``horizon`` steps, ``seeds`` ratio
    rollouts of ``disturbance_steps + 200`` steps and ``seeds`` exact-OPT
    rollouts of ``disturbance_steps`` steps (none can stop early at the
    default blow-up bound of 1e9; the traced run's step count checks it).
    """
    if workload is SWEEP:
        header, rows = read_csv(out / "rows.csv")
        col = header.index("steps")
        return len(rows), sum(int(r[col]) for r in rows)
    if workload is EV:
        _, rows = read_csv(out / "rows.csv")
        return len(rows), len(rows) * EV_DAY_STEPS
    if workload is BOUNDS:
        header, rows = read_csv(out / "grid.csv")
        cfg = read_effective_config(out)
        seeds = int(cfg["experiment.seeds"])
        horizon = int(cfg["experiment.horizon"])
        dist = int(cfg["experiment.disturbance_steps"])
        status = header.index("status")
        cells = sum(1 for r in rows if r[status] == "ok")
        return 3 * seeds * cells, seeds * cells * (horizon + (dist + 200) + dist)
    return oracle_output["rollouts"], oracle_output["steps"]
