"""Bayesian-optimization cell search versus random search.

Probing a cell yields a stiffness estimate k = f_z / d_z; a GP over the
grid turns those samples into a posterior, and Expected Improvement
picks the next cell.  This demo runs both strategies on one registered
scene and reports how quickly each finds the stiff inclusion.
"""

from dataclasses import replace

import numpy as np

from palpsim import (
    Phantom,
    crop_roi,
    default_config,
    interpolate_grid,
    mesh_from_cloud,
    preprocess_cloud,
    run_policy,
)

budget = 40
cfg = default_config("hemisphere", mode="discrete", budget=budget)
phantom = Phantom(cfg.phantom, cfg.tumor)
raw = phantom.synth_depth_cloud(((-0.03, -0.03), (0.03, 0.03)), 3e6, 0.0005, seed=1)
c = cfg.cloud
clean = preprocess_cloud(raw, c.voxel, c.outlier_k, c.outlier_sigma)
grid = interpolate_grid(crop_roi(mesh_from_cloud(clean), cfg.roi), cfg.grid_dx, cfg.grid_dy)

for strategy in ("bo", "rs"):
    probes, _ = run_policy(phantom, grid, replace(cfg, strategy=strategy), seed=2)
    ks = np.array([p.k for p in probes])
    hits = np.cumsum([p.classified_tumor for p in probes])
    first = next((i for i, p in enumerate(probes) if p.classified_tumor), None)
    print(f"\n=== {strategy.upper()} ({budget} probes) ===")
    print(f"stiffness estimates: min {ks.min():.0f}, max {ks.max():.0f} N/m")
    print(f"first tumor hit at probe #{first}")
    print(f"tumor-classified probes: {int(hits[-1])}")
    print("hits after 10/20/40 probes:",
          int(hits[9]), int(hits[19]), int(hits[-1]))
