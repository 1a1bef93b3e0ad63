#!/usr/bin/env python3
"""Summarise one set of benchmark runs, or compare two.

    python3 perfbench/compare.py SET_A [SET_B]

A set is a directory of run records (``*.json``) written by ``run.py``
into ``perfbench/runs/``; move each set into its own directory.  For
every workload and metric the table gives each set's median and
quartiles.  With one set it adds the spread (quartile distance over the
median) against the metric's bound.  With two it adds the change of the
medians, the share of pairs won by each side (runs paired by seed, ties
counted for neither), and whether outputs that must repeat exactly
(``mean_f``, output digests, per-module counts) did so for equal seeds.
Exits 1 when a spread exceeds its bound, a median of B is worse than
A's by more than the bound, or an exact repeat fails.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXACT_UNITS = ("count", "bytes")  # per-module values that must repeat exactly


def load(path: str) -> dict[tuple[str, int], list[dict]]:
    """(workload, trace) -> records sorted by seed."""
    runs: dict[tuple[str, int], list[dict]] = {}
    for f in sorted(Path(path).glob("*.json")):
        rec = json.loads(f.read_text())
        runs.setdefault((rec["workload"], rec["trace"]), []).append(rec)
    for recs in runs.values():
        recs.sort(key=lambda r: r["seed"])
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def value(rec: dict, name: str):
    m = rec["result"]["metrics"].get(name)
    return None if m is None else m["value"]


def summarise(name: str, spec: dict, recs: list[dict]) -> tuple[str, bool]:
    vals = [v for v in (value(r, name) for r in recs) if v is not None]
    if not vals:
        return "", True
    q1, med, q3 = quartiles(vals)
    line = f"  {name:34s} {med:14.6g} [{q1:.6g}, {q3:.6g}]"
    if "bound" not in spec:
        return line, True
    spread = (q3 - q1) / abs(med) if med else 0.0
    ok = spread <= spec["bound"] or name == "setup_s"
    line += f"  spread {spread:6.2%} of bound {spec['bound']:.0%}"
    return line + ("" if ok else "  TOO WIDE"), ok


def compare(name: str, spec: dict, a: list[dict], b: list[dict]) -> tuple[str, bool]:
    va = [value(r, name) for r in a]
    vb = [value(r, name) for r in b]
    if None in va or None in vb or not va or not vb:
        return "", True
    qa, qb = quartiles(va), quartiles(vb)
    sign = -1.0 if spec["better"] == "lower" else 1.0
    wins_b = wins_a = 0
    for x, y in zip(va, vb):
        if sign * (y - x) > 0:
            wins_b += 1
        elif sign * (y - x) < 0:
            wins_a += 1
    pairs = min(len(va), len(vb))
    change = (qb[1] - qa[1]) / abs(qa[1]) if qa[1] else 0.0
    worse = -sign * change
    ok = "bound" not in spec or worse <= spec["bound"]
    return (f"  {name:34s} A {qa[1]:.6g} [{qa[0]:.6g}, {qa[2]:.6g}]  "
            f"B {qb[1]:.6g} [{qb[0]:.6g}, {qb[2]:.6g}]  {change:+7.2%}  "
            f"B wins {wins_b}/{pairs}, A wins {wins_a}/{pairs}"
            + ("" if ok else "  WORSE THAN BOUND")), ok


def exact_repeats(a: list[dict], b: list[dict], specs: dict) -> list[str]:
    """Outputs that must be equal for equal seeds."""
    by_seed = {r["seed"]: r for r in a}
    errs = []
    for rb in b:
        ra = by_seed.get(rb["seed"])
        if ra is None:
            continue
        if (ra["digest"], ra["files"]) != (rb["digest"], rb["files"]):
            errs.append(f"seed {rb['seed']}: output digests differ")
        for name, spec in specs.items():
            exact = name == "mean_f" or spec.get("unit") in EXACT_UNITS
            if exact and value(ra, name) != value(rb, name):
                errs.append(f"seed {rb['seed']}: {name} {value(ra, name)} != {value(rb, name)}")
        fa = ra["result"]["failed"] / ra["result"]["attempted"]
        fb = rb["result"]["failed"] / rb["result"]["attempted"]
        if fa != fb:
            errs.append(f"seed {rb['seed']}: failed share {fa} != {fb}")
    return errs


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    sets = [load(p) for p in argv]
    ok = True
    for key in sorted(set().union(*sets)):
        print(f"{key[0]} (trace {key[1]})")
        recs = [s.get(key, []) for s in sets]
        if not all(recs):
            print("  missing from one set")
            ok = False
            continue
        counts = ", ".join(f"{len(r)} runs, {sum(x['result']['failed'] for x in r)} of "
                           f"{sum(x['result']['attempted'] for x in r)} trials failed"
                           for r in recs)
        print(f"  {counts}")
        for name, spec in specs.items():
            line, good = (summarise(name, spec, recs[0]) if len(recs) == 1
                          else compare(name, spec, recs[0], recs[1]))
            if line:
                print(line)
            ok &= good
        if len(recs) == 2:
            for e in exact_repeats(recs[0], recs[1], specs):
                print(f"  NOT REPEATED: {e}")
                ok = False
        if not all(r["result"]["correct"] for rs in recs for r in rs):
            print("  a run reported correct = false")
            ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
