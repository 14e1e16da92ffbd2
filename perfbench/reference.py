"""Recorded reference outputs and the check of a run against them.

A run's outputs are turned into records, one per checked operation (a
rollout row, a summary row, a grid cell, one library call).  A record has
an ``id`` and up to three kinds of fields:

- ``exact``: text that must match exactly (divergence flags and counts,
  step counts, win counts, precondition and status flags);
- ``float``: numbers compared within ``RTOL`` relative (``ATOL`` near 0);
- ``matrix``: arrays compared by ``||a - b||_F <= RTOL ||b||_F + ATOL``.

``RTOL`` is tight enough that any change of algorithm or rule shows, and
loose enough for last-bit shifts: swapping the Riccati fixed point for
scipy's ``solve_discrete_are`` (P moves by 2.5e-11 relative on the
cart-pole model) moved every float output of the shipped configs by at
most 1e-11 relative.  Riccati iteration counts are never compared.

Record references for the current program with
``python3 perfbench/reference.py [--workload NAME ...]``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import workloads as wl

RTOL = 1e-7
ATOL = 1e-12
HERE = Path(__file__).resolve().parent
REF_DIR = HERE / "references"


def table_records(workload: wl.Workload, out: Path) -> list:
    records = []
    for table in workload.tables:
        header, rows = wl.read_csv(out / table.file)
        for row in rows:
            fields = dict(zip(header, row))
            key = ",".join(fields[k] for k in table.key)
            records.append(
                {
                    "id": f"{table.file}:{key}",
                    "exact": {k: v for k, v in fields.items() if k in table.exact},
                    "float": {k: v for k, v in fields.items() if k not in table.exact},
                }
            )
    return records


def _float_ok(a: str, b: str) -> bool:
    if a == b:
        return True
    try:
        x, y = float(a), float(b)
    except ValueError:
        return False  # one side empty or text, the other a different value
    if math.isnan(x) or math.isnan(y):
        return math.isnan(x) and math.isnan(y)
    return abs(x - y) <= RTOL * max(abs(x), abs(y)) + ATOL


def _matrix_ok(a, b) -> bool:
    import numpy as np

    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return False
    return bool(np.linalg.norm(a - b) <= RTOL * np.linalg.norm(b) + ATOL)


def record_mismatch(got: dict, ref: dict) -> str:
    """Empty string when ``got`` matches ``ref``, else the first difference."""
    if got.get("id") != ref.get("id"):
        return f"record {got.get('id')!r} where {ref.get('id')!r} was expected"
    for kind in ("exact", "float", "matrix"):
        g, r = got.get(kind, {}), ref.get(kind, {})
        if set(g) != set(r):
            return f"{ref['id']}: {kind} fields {sorted(g)} != {sorted(r)}"
        for k in r:
            ok = {
                "exact": lambda x, y: x == y,
                "float": _float_ok,
                "matrix": _matrix_ok,
            }[kind](g[k], r[k])
            if not ok:
                shown = "" if kind == "matrix" else f": {g[k]!r} vs reference {r[k]!r}"
                return f"{ref['id']}: {k}{shown}"
    return ""


def load(workload_name: str) -> dict:
    path = REF_DIR / f"{workload_name}.json"
    if not path.exists():
        return {}
    return json.loads(path.read_text())["seeds"]


def compare(records: list, reference: list) -> tuple[int, int, list]:
    """(attempted, failed, messages) for one run's records.

    Every reference record is one attempted operation; a missing or
    mismatching record is a failed one.
    """
    messages = []
    failed = 0
    for i, ref in enumerate(reference):
        msg = record_mismatch(records[i], ref) if i < len(records) else f"{ref['id']}: missing"
        if msg:
            failed += 1
            messages.append(msg)
    if len(records) > len(reference):
        messages.append(f"{len(records) - len(reference)} records beyond the reference")
        failed += 1
    return max(len(reference), 1), failed, messages


def dump(doc: dict) -> str:
    """The reference file as JSON with one record per line."""
    head = {k: v for k, v in doc.items() if k != "seeds"}
    lines = [json.dumps(head)[:-1] + ', "seeds": {']
    for i, (seed, records) in enumerate(doc["seeds"].items()):
        lines.append(f"{json.dumps(seed)}: [")
        lines.append(",\n".join(json.dumps(r, separators=(",", ":")) for r in records))
        lines.append("]" + ("," if i < len(doc["seeds"]) - 1 else ""))
    return "\n".join(lines) + "\n}}\n"


def _record(names: list) -> int:
    import run

    root = run.checkout_root()
    if root is None:
        return 2
    for name in names:
        workload = wl.WORKLOADS[name]
        seeds = {}
        for seed in wl.DEV_SEEDS + wl.HOLDOUT_SEEDS:
            res = run.run_child(root, workload, seed, "full", timeout=600.0)
            if res.get("error"):
                print(f"{name} seed {seed}: {res['error']}", file=sys.stderr)
                return 1
            seeds[str(seed)] = res["records"]
            print(f"{name} seed {seed}: {len(res['records'])} records", file=sys.stderr)
        REF_DIR.mkdir(exist_ok=True)
        doc = {
            "workload": name,
            "provenance": run.provenance(root),
            "seeds": seeds,
        }
        (REF_DIR / f"{name}.json").write_text(dump(doc))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="record reference outputs")
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS), action="append")
    args = parser.parse_args(argv)
    return _record(args.workload or sorted(wl.WORKLOADS))


if __name__ == "__main__":
    sys.exit(main())
