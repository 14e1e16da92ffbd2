"""Every script in ``demos/`` runs to completion and prints its walk-through."""

import runpy
from pathlib import Path

import numpy as np
import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(path, capsys):
    # the demos set NumPy print options; keep them out of later tests
    with np.printoptions():
        runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out
