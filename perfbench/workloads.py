"""The benchmark's workloads: each turns ``--seed`` into the palpsim
configs of one round, and runs a round through the public API.

A round is a fixed list of trials.  A run repeats the same round, so
every output of a run (F-scores, counts, files) depends on the seed
alone, never on how many rounds fit into the run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

import palpsim as ps


def base_seed(seed: int) -> int:
    """Config seed for a benchmark seed; trial seeds are base + trial."""
    return 1000 * int(seed) + 7


@dataclass(frozen=True)
class Workload:
    name: str
    writes_files: bool      # run through run_matrix with an output directory
    trials: int             # trials per config in one round

    @property
    def palpations(self) -> int:
        """Palpations in one round."""
        return sum(c.budget * c.trials for c in self.configs(0))

    @property
    def tail_pct(self) -> int:
        """Highest whole percentile with at least 10 of a round's palpations beyond it."""
        return math.floor(100.0 * (1.0 - 10.0 / self.palpations))

    def configs(self, seed: int) -> list[ps.ExperimentConfig]:
        s = base_seed(seed)
        if self.name == "matrix":
            return ps.table1_matrix(seed=s, trials=self.trials)
        if self.name == "bo_fine_grid":
            cfg = ps.default_config("crescent", "bo", "discrete", seed=s,
                                    trials=self.trials, budget=80)
            return [replace(cfg, grid_dx=0.0005, grid_dy=0.0005)]
        if self.name == "cf_faults":
            cfg = ps.default_config("ellipsoid", "rs", "cf", seed=s, trials=self.trials)
            return [replace(
                cfg,
                tumor=replace(cfg.tumor, semi_axes=(0.018, 0.018, 0.012)),
                cal=replace(cfg.cal, angle_noise=0.02),
                probe=replace(cfg.probe, gravity_residual=(0.01, 0.0, 0.02)),
                cloud=replace(cfg.cloud, noise_sigma=0.001),
            )]
        raise KeyError(self.name)

    def run_round(self, cfgs, out_dir: Path | None) -> list[ps.ConditionReport]:
        """Run one round; the matrix writes its files the way ``palpsim matrix`` does."""
        if self.writes_files:
            return ps.run_matrix(cfgs, out_dir, verbose=False).conditions
        return [ps.run_experiment(cfg, None, verbose=False) for cfg in cfgs]


# Why each workload exists is written in BENCHMARK.json and the README.
WORKLOADS = {w.name: w for w in (
    Workload("matrix", writes_files=True, trials=2),
    Workload("bo_fine_grid", writes_files=False, trials=6),
    Workload("cf_faults", writes_files=False, trials=12),
)}
