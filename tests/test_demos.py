"""Every script in ``demos/`` runs to completion and prints its walk-through.

Each demo is deterministic, so its stdout is pinned by SHA-256: a change to
any printed digit shows here.
"""

import hashlib
import runpy
from pathlib import Path

import numpy as np
import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))

STDOUT_SHA256 = {
    "01_synthesis_and_constants": "9489f95149e0cfd37b83dabfbc5d97ba12859839da28b1ae75dabec774a12ed3",
    "02_unstable_blend": "bda56dbc757945bfde80de719b0b502a7ef6624329d5579c777ea521023d60e2",
    "03_online_confidence": "2b34fd7d8ff9a9112143e773179ec80c98e84a27e6172642b0837e0091703f96",
    "04_cartpole_sweep": "e960da3cabe7186aa1113b5ed9a01e4ca20c90b442f103ed1cd5a6e0059bedcc",
    "05_ev_distribution_shift": "c4142af5fa800ff326eabf48d181b58cba647029188c43f7152b13b87ceb1293",
}


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(path, capsys):
    # the demos set NumPy print options; keep them out of later tests
    with np.printoptions():
        runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert out
    assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_SHA256[path.stem]
