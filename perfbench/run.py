"""lqshield benchmark: whole experiments timed from outside the package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout (it needs ``src/lqshield`` and
``configs/``).  Every workload run is a fresh ``python3`` process
(``child.py``) with BLAS pinned to one thread.  One invocation:

1. runs one untimed set-up probe (compiles bytecode, warms the file cache);
2. runs ``PROBES`` set-up probes, each stopped at the first rollout;
3. with ``--trace 1``, runs the workload ``TRACED_RUNS`` times with every
   layer boundary wrapped in a span;
4. runs the whole workload untraced, again and again while the next run is
   predicted to end within ``--seconds`` of the first (at least once).

Every whole run's outputs are checked against the recorded reference for
its program seed, and its work counts against the other runs'.  The last
line of stdout is the machine-readable result; the line before it is the
full report (provenance, sample counts, quartiles, check messages), also
written to ``.bench_out/<workload>/report.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import workloads as wl  # noqa: E402

PROBES = 5
TRACED_RUNS = 2
BUDGET_S = 170.0  # every invocation must end within 180 s

THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

# span name -> the (calls, self_s) per-layer metrics reported for it
SPANS = (
    "linalg_control.synthesize",
    "plant.simulate",
    "plant.residual",
    "policies.act",
    "policies.rotation",
    "adaptive.act",
    "environments.cartpole.residual",
    "environments.cartpole.residual_build",
    "environments.ev_charging.residual",
    "environments.ev_charging.reward",
    "environments.ev_charging.sessions",
    "guarantees.constants",
    "guarantees.envelope",
    "guarantees.opt_time_only",
    "guarantees.trajopt",
    "adversarial.certificate",
    "cli.write",
)
BRANCHES = ("init", "decrease", "cutoff", "hold", "zero_state")

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "steps_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ops_ok_frac": "fraction",
}


def checkout_root() -> Path | None:
    root = Path.cwd()
    if not (root / "src" / "lqshield" / "__init__.py").is_file() or not (root / "configs").is_dir():
        print(
            f"perfbench: {root} is not an lqshield checkout (needs src/lqshield and configs/)",
            file=sys.stderr,
        )
        return None
    return root


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


_runs = 0


def run_child(root: Path, workload, seed: int, mode: str, timeout: float) -> dict:
    """One fresh workload process; returns its result with ``wall_s`` and
    ``setup_s`` measured from just before the process was started."""
    global _runs
    _runs += 1
    base = root / ".bench_out" / workload.name
    out = base / f"{mode}-{_runs}"
    shutil.rmtree(out, ignore_errors=True)
    base.mkdir(parents=True, exist_ok=True)
    result_path = base / f"{mode}-{_runs}.json"
    if workload.command:
        wl.write_config(root, workload)
    cmd = [sys.executable, str(HERE / "child.py"), workload.name, str(seed), str(out), mode, str(result_path)]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            cmd,
            cwd=root,
            env=child_env(root),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired:
        return {"error": f"{mode} run killed after {timeout:.0f} s"}
    if proc.returncode != 0 or not result_path.exists():
        return {"error": f"{mode} run exited with {proc.returncode}: {proc.stderr[-2000:]}"}
    result = json.loads(result_path.read_text())
    result_path.unlink()
    shutil.rmtree(out, ignore_errors=True)
    result["wall_s"] = result["t_end"] - t0
    if result.get("t_first") is not None:
        result["setup_s"] = result["t_first"] - t0
    return result


def provenance(root: Path) -> dict:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))

    def git(*args):
        try:
            proc = subprocess.run(
                ["git", *args], cwd=root, env=env, capture_output=True, text=True, timeout=30
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return proc.stdout.strip() if proc.returncode == 0 else None

    commit = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no") if commit else None
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    configs = {}
    for w in wl.WORKLOADS.values():
        path = wl.write_config(root, w) if w.command else HERE / "oracles.py"
        configs[w.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return {
        "git_commit": commit or "not a git checkout",
        "git_dirty": None if status is None else bool(status),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": THREAD_ENV,
        "argv": sys.argv,
        "config_sha256": configs,
    }


def summary(values: list) -> dict:
    out = {"median": statistics.median(values), "min": min(values), "max": max(values), "n": len(values)}
    if len(values) >= 4:
        q = statistics.quantiles(values, n=4)
        out["q1"], out["q3"] = q[0], q[2]
    out["samples"] = values
    return out


def layer_metrics(trace: dict) -> dict:
    spans, counts = trace["spans"], trace["counts"]
    m = {}
    for name in SPANS:
        span = spans.get(name, {"calls": 0, "self_s": 0.0})
        m[f"{name}.calls"] = span["calls"]
        m[f"{name}.self_s"] = span["self_s"]
    synth_calls = m["linalg_control.synthesize.calls"]
    steps = counts.get("plant.simulate.steps", 0)
    evals = counts.get("guarantees.trajopt.rollout_evals", 0)
    m["linalg_control.dare.iterations"] = counts.get("linalg_control.dare.iterations", 0)
    m["linalg_control.synthesize.distinct_over_calls"] = (
        trace["distinct_models"] / synth_calls if synth_calls else 0.0
    )
    m["plant.simulate.steps"] = steps
    m["plant.simulate.us_per_step"] = 1e6 * m["plant.simulate.self_s"] / steps if steps else 0.0
    m["plant.estimate_lipschitz.calls"] = counts.get("plant.estimate_lipschitz.calls", 0)
    for b in BRANCHES:
        m[f"adaptive.branch.{b}"] = trace["branches"].get(b, 0)
    m["guarantees.trajopt.rollout_evals"] = evals
    m["guarantees.trajopt.accepted_over_evals"] = (
        counts.get("guarantees.trajopt.accepted", 0) / evals if evals else 0.0
    )
    m["cli.write.bytes"] = counts.get("cli.write.bytes", 0)
    return m


def layer_units() -> dict:
    units = {}
    for name in SPANS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(
        {
            "linalg_control.dare.iterations": "count",
            "linalg_control.synthesize.distinct_over_calls": "ratio",
            "plant.simulate.steps": "count",
            "plant.simulate.us_per_step": "us",
            "plant.estimate_lipschitz.calls": "count",
            "guarantees.trajopt.rollout_evals": "count",
            "guarantees.trajopt.accepted_over_evals": "ratio",
            "cli.write.bytes": "B",
            "trace.wall_s": "s",
            "trace.overhead_frac": "ratio",
        }
    )
    units.update({f"adaptive.branch.{b}": "count" for b in BRANCHES})
    return units


def _is_work_count(name: str) -> bool:
    return not name.endswith("_s") and name not in (
        "plant.simulate.us_per_step",
        "trace.overhead_frac",
    )


def trace_checks(workload, traced: list, steps: int, rollouts: int) -> list:
    """Span coverage and exact-repeat checks of the traced runs."""
    problems = []
    first = layer_metrics(traced[0]["trace"])
    for other in traced[1:]:
        again = layer_metrics(other["trace"])
        for name, value in first.items():
            if _is_work_count(name) and again[name] != value:
                problems.append(f"work count {name} drifted between traced runs: {value} vs {again[name]}")
    for span in workload.covers:
        if first[f"{span}.calls"] == 0:
            problems.append(f"span {span} recorded no call on {workload.name}")
    counts = traced[0]["trace"]["counts"]
    if first["plant.simulate.steps"] != steps:
        problems.append(f"traced plant.simulate.steps {first['plant.simulate.steps']} != {steps} counted from outputs")
    if counts.get("plant.simulate.rollouts", 0) != rollouts:
        problems.append(f"traced rollouts {counts.get('plant.simulate.rollouts', 0)} != {rollouts} counted from outputs")
    branch_total = sum(first[f"adaptive.branch.{b}"] for b in BRANCHES)
    if branch_total != first["adaptive.act.calls"]:
        problems.append(f"adaptive branches {branch_total} != adaptive.act calls {first['adaptive.act.calls']}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="lqshield benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--holdout", action="store_true", help="draw the program seed from the holdout pool"
    )
    args = parser.parse_args(argv)
    start = time.monotonic()
    root = checkout_root()
    if root is None:
        return 2
    workload = wl.WORKLOADS[args.workload]
    seed = wl.program_seed(args.seed, args.holdout)
    ref = reference.load(workload.name).get(str(seed))
    if ref is None:
        print(f"perfbench: no reference outputs for {workload.name} seed {seed}", file=sys.stderr)
        return 2
    shutil.rmtree(root / ".bench_out" / workload.name, ignore_errors=True)

    def remaining():
        return BUDGET_S - (time.monotonic() - start)

    problems = []
    attempted = failed = 0

    def check(res: dict) -> dict:
        nonlocal attempted, failed
        if res.get("error"):
            attempted += len(ref)
            failed += len(ref)
            problems.append(res["error"].strip().splitlines()[-1])
            return res
        a, f, messages = reference.compare(res["records"], ref)
        attempted += a
        failed += f
        problems.extend(messages[:5])
        return res

    run_child(root, workload, seed, "probe", remaining())  # warm-up, not timed
    probes = [run_child(root, workload, seed, "probe", remaining()) for _ in range(PROBES)]
    problems.extend(p["error"].strip().splitlines()[-1] for p in probes if p.get("error"))
    traced = []
    if args.trace:
        traced = [check(run_child(root, workload, seed, "traced", remaining())) for _ in range(TRACED_RUNS)]
    runs = []
    window = time.monotonic()
    while True:
        res = check(run_child(root, workload, seed, "full", remaining()))
        runs.append(res)
        if res.get("error"):
            break
        now = time.monotonic()
        if now - window + res["wall_s"] > args.seconds or res["wall_s"] * 1.5 > remaining():
            break

    good = [r for r in runs if not r.get("error")]
    good_traced = [r for r in traced if not r.get("error")]
    work = {(r["rollouts"], r["steps"], json.dumps(r.get("counters"))) for r in good + good_traced}
    if len(work) > 1:
        problems.append(f"work counts drifted between runs: {sorted(work)}")
    e2e = {}
    if good:
        rollouts, steps = good[0]["rollouts"], good[0]["steps"]
        setups = [p["setup_s"] for p in probes + good if "setup_s" in p]
        e2e = {
            "wall_s": summary([r["wall_s"] for r in good]),
            "setup_s": summary(setups) if setups else None,
            "steps_per_s": summary([r["steps"] / r["wall_s"] for r in good]),
            "peak_rss_mb": summary([r["maxrss_kb"] / 1024.0 for r in good]),
            "ops_ok_frac": {"median": 1.0 - failed / attempted if attempted else 0.0},
        }
        if e2e["setup_s"] is None:
            problems.append("no run reached its first rollout")
    else:
        problems.append("no untraced run finished")
    layers = {}
    if args.trace and good and len(good_traced) == len(traced):
        problems.extend(trace_checks(workload, good_traced, steps, rollouts))
        per_run = [layer_metrics(r["trace"]) for r in good_traced]
        for name in per_run[0]:
            values = [m[name] for m in per_run]
            layers[name] = statistics.median(values) if not _is_work_count(name) else values[0]
        layers["trace.wall_s"] = statistics.median(r["wall_s"] for r in good_traced)
        layers["trace.overhead_frac"] = layers["trace.wall_s"] / e2e["wall_s"]["median"] - 1.0
    elif args.trace:
        problems.append("traced runs did not finish")

    correct = failed == 0 and not problems and bool(e2e) and (bool(layers) or not args.trace)
    report = {
        "workload": workload.name,
        "why": workload.why,
        "bench_seed": args.seed,
        "program_seed": seed,
        "holdout": args.holdout,
        "provenance": provenance(root),
        "runs": {"probes": len(probes), "traced": len(traced), "untraced": len(runs)},
        "work": {"rollouts": good[0]["rollouts"], "steps": good[0]["steps"]} if good else None,
        "end_to_end": {k: dict(v or {}, unit=END_TO_END_UNITS[k]) for k, v in e2e.items()},
        "per_layer": layers,
        "trace_edges": good_traced[0]["trace"]["edges"] if good_traced else [],
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
    }
    (root / ".bench_out" / workload.name).mkdir(parents=True, exist_ok=True)
    (root / ".bench_out" / workload.name / "report.json").write_text(json.dumps(report, indent=1) + "\n")
    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)
    if args.trace:
        units = layer_units()
        metrics = {k: {"value": layers.get(k, 0), "unit": u} for k, u in units.items()}
    else:
        metrics = {
            k: {"value": (e2e.get(k) or {}).get("median", 0.0), "unit": u}
            for k, u in END_TO_END_UNITS.items()
        }
    print(json.dumps({k: v for k, v in report.items() if k != "trace_edges"}))
    print(
        json.dumps(
            {"correct": correct, "attempted": max(attempted, 1), "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
