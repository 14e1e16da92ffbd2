"""Every benchmark workload still reproduces its recorded reference.

``perfbench/`` checks each whole run's outputs against the references in
``perfbench/references/`` (floats within a relative 1e-7, flags and row
keys as exact text), but only when the benchmark itself runs.  This runs
each workload once at program seed 0, as the benchmark's untraced
``full`` runs do, and asserts that no reference record fails, so an
output drift that would fail the benchmark (a one-ulp move of
``admissible_lipschitz_cap`` renames every ``grid.csv`` row) shows in
this suite.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import reference  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402

SEED = wl.DEV_SEEDS[0]


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_workload_matches_reference(tmp_path, name):
    workload = wl.WORKLOADS[name]
    shutil.copytree(ROOT / "configs", tmp_path / "configs")
    if workload.command:
        wl.write_config(tmp_path, workload)
    result_path = tmp_path / "result.json"
    cmd = [
        sys.executable,
        str(PERFBENCH / "child.py"),
        name,
        str(SEED),
        str(tmp_path / "out"),
        "full",
        str(result_path),
    ]
    proc = subprocess.run(
        cmd, cwd=tmp_path, env=run.child_env(ROOT), capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(result_path.read_text())
    assert result["error"] is None, result["error"]
    attempted, failed, messages = reference.compare(
        result["records"], reference.load(name)[str(SEED)]
    )
    assert attempted > 1
    assert failed == 0, messages[:5]
