"""Runs one workload in a fresh process and writes what it measured.

    python3 perfbench/child.py WORKLOAD SEED OUT_DIR MODE RESULT_JSON

MODE is one of

- ``probe``: stop at the first rollout (or first timed library call);
  measures set-up only;
- ``full``: the whole workload, untraced; the hook that marks the first
  rollout removes itself on that call, so the rest runs unwrapped;
- ``traced``: the whole workload with every layer boundary wrapped in a
  span (see ``tracer.py``).

Times are ``time.monotonic()`` readings, comparable with the parent's.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path


class SetupDone(BaseException):
    """Raised at the first rollout of a probe run to stop the workload."""


def main(argv) -> int:
    name, seed, out, mode, result_path = argv[1], int(argv[2]), Path(argv[3]), argv[4], argv[5]
    result: dict = {"t_first": None, "error": None}

    def setup_done():
        if result["t_first"] is None:
            result["t_first"] = time.monotonic()
        if mode == "probe":
            raise SetupDone

    import workloads as wl

    workload = wl.WORKLOADS[name]
    tracer = None
    oracle_output = None
    try:
        if mode == "traced":
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        elif workload.command:
            import lqshield.plant
            from tracer import rebind, restore

            simulate = lqshield.plant.simulate
            changed = []

            def first_rollout(*args, **kwargs):
                restore(changed)
                setup_done()
                return simulate(*args, **kwargs)

            import lqshield.cli  # noqa: F401  (binds simulate by name)

            changed.extend(rebind({id(simulate): (simulate, first_rollout)}))
        if workload.command:
            from lqshield import cli

            config = wl.config_path(Path.cwd(), workload)
            argv_cli = [workload.command, "--config", str(config), "--out", str(out)]
            code = cli.main(argv_cli + ["--seed", str(seed), "--jobs", "1"])
            if code != 0:
                raise RuntimeError(f"lqshield {workload.command} exited with code {code}")
        else:
            import oracles

            oracle_output = oracles.run(seed, setup_done)
            out.mkdir(parents=True, exist_ok=True)
            (out / "oracles.json").write_text(json.dumps(oracle_output["records"]) + "\n")
    except SetupDone:
        pass
    except Exception:  # the parent counts the run as failed and reports why
        result["error"] = traceback.format_exc()
    result["t_end"] = time.monotonic()
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        result["trace"] = tracer.report()
    if mode != "probe" and result["error"] is None:
        import reference

        try:
            if workload.command:
                result["records"] = reference.table_records(workload, out)
                result["rollouts"], result["steps"] = wl.count_work(workload, out)
            else:
                result["records"] = oracle_output["records"]
                result["rollouts"], result["steps"] = wl.count_work(workload, out, oracle_output)
                result["counters"] = oracle_output["counters"]
        except (OSError, ValueError, KeyError, IndexError):
            result["error"] = "unreadable outputs:\n" + traceback.format_exc()
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
