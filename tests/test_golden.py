"""Golden outputs: the files and picks of two fixed runs, pinned by digest.

``test_matrix_files`` writes the seed-7, 2-trial condition matrix and
compares the sha256 of every file with ``golden_digests.json``.
``test_bo_fine_grid_picks`` runs crescent BO with discrete probes on a
0.5 mm grid in memory and compares every picked cell and every trial's
F-score exactly: EI ties on that grid are broken by exact float
equality, so a change of a few ulps upstream shows there first.

The tests only read the digest file.  Rewrite it on purpose, and say why
in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import platform
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import scipy

from palpsim import default_config, run_experiment, run_matrix, table1_matrix

DIGESTS = Path(__file__).with_name("golden_digests.json")


def versions() -> dict[str, str]:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__}


def matrix_digests(out_dir: Path) -> dict[str, str]:
    """sha256 of every file ``palpsim matrix --trials 2 --seed 7`` writes."""
    run_matrix(table1_matrix(seed=7, trials=2), out_dir, verbose=False)
    return {path.relative_to(out_dir).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out_dir.rglob("*")) if path.is_file()}


def bo_fine_grid_picks() -> dict[str, list]:
    """Picked cells, status and F per trial of crescent BO on a 0.5 mm grid."""
    cfg = default_config("crescent", "bo", "discrete", seed=7, trials=2)
    rep = run_experiment(replace(cfg, grid_dx=0.0005, grid_dy=0.0005), None, verbose=False)
    return {
        "cells": [[list(res.cell) for res in t.probes] for t in rep.trials],
        "status": [t.status for t in rep.trials],
        "fscore": [t.report.fscore if t.report else None for t in rep.trials],
    }


def _explain(what: str, moved: list[str], recorded: dict) -> str:
    return (f"{what} moved from the golden record: {', '.join(moved)}\n"
            f"versions in use: {versions()}; recorded with: {recorded['versions']}")


def test_matrix_files(tmp_path):
    recorded = json.loads(DIGESTS.read_text())
    want, got = recorded["matrix"], matrix_digests(tmp_path)
    moved = sorted(name for name in want.keys() | got.keys() if want.get(name) != got.get(name))
    assert not moved, _explain(f"{len(moved)} of {len(want)} files", moved, recorded)


def test_bo_fine_grid_picks():
    recorded = json.loads(DIGESTS.read_text())
    want, got = recorded["bo_fine_grid"], bo_fine_grid_picks()
    moved = [key for key in want if want[key] != got[key]]
    assert not moved, _explain("bo_fine_grid", moved, recorded)


def main(argv: list[str]) -> int:
    if argv != ["--write"]:
        print(__doc__.strip().splitlines()[-1].strip(), file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        record = {"versions": versions(), "matrix": matrix_digests(Path(tmp)),
                  "bo_fine_grid": bo_fine_grid_picks()}
    DIGESTS.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {DIGESTS}: {len(record['matrix'])} file digests", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
