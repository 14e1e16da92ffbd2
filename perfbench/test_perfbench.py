"""Tests of the benchmark itself (not part of the tier-1 suite).

    python3 -m pytest perfbench -q

The traced-run tests run each workload end to end (about three minutes
in all on a 2-core machine).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import reference
import run
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_json_matches_the_code():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.layer_units()


def _record(**fields):
    return {"id": "r", **fields}


def test_reference_check_tolerates_last_bits_and_catches_changes():
    ref = _record(exact={"steps": "1200"}, float={"cost": "54.07033501878409"}, matrix={"P": [[2.0, 0.5], [0.5, 1.0]]})
    shifted = _record(exact={"steps": "1200"}, float={"cost": "54.07033501878452"}, matrix={"P": [[2.0 + 1e-11, 0.5], [0.5, 1.0]]})
    assert reference.record_mismatch(shifted, ref) == ""
    for wrong in (
        _record(exact={"steps": "1199"}, float=ref["float"], matrix=ref["matrix"]),
        _record(exact=ref["exact"], float={"cost": "54.0704"}, matrix=ref["matrix"]),
        _record(exact=ref["exact"], float={"cost": ""}, matrix=ref["matrix"]),
        _record(exact=ref["exact"], float=ref["float"], matrix={"P": [[2.0, 0.5], [0.5, 1.0001]]}),
    ):
        assert reference.record_mismatch(wrong, ref) != ""
    attempted, failed, _ = reference.compare([shifted], [ref, ref])
    assert (attempted, failed) == (2, 1)


def test_every_program_seed_has_a_reference():
    for name in wl.WORKLOADS:
        seeds = reference.load(name)
        for seed in wl.DEV_SEEDS + wl.HOLDOUT_SEEDS:
            assert seeds.get(str(seed)), (name, seed)
    assert wl.program_seed(123456789) in wl.DEV_SEEDS
    assert wl.program_seed(7, holdout=True) in wl.HOLDOUT_SEEDS


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ev-shift", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_traced_run_covers_its_layers(name):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", name, "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    report_line, result_line = proc.stdout.strip().splitlines()[-2:]
    report, result = json.loads(report_line), json.loads(result_line)
    assert result["correct"], report["problems"]
    assert result["failed"] == 0
    layers = report["per_layer"]
    for span in wl.WORKLOADS[name].covers:
        assert layers[f"{span}.calls"] > 0, span
    # the wrappers saw every plant step the outputs account for
    assert layers["plant.simulate.steps"] == report["work"]["steps"]
    assert set(layers) == set(run.layer_units())
