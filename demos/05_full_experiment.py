"""End-to-end trials with F-score evaluation against ground truth.

Runs a shortened version of the benchmark (3 trials instead of 10) for
hemisphere contour-following vs. discrete probing, writing the same
file set the CLI produces.  For the full condition matrix use:

    palpsim matrix --out out --trials 10
"""

from palpsim import default_config, run_experiment

for mode in ("cf", "discrete"):
    cfg = default_config("hemisphere", "bo", mode, seed=7, trials=3)
    rep = run_experiment(cfg, out_dir=f"demo_out/{cfg.condition}", verbose=False)
    n_pts = sum(t.n_recon for t in rep.trials)
    print(f"{cfg.condition}: mean_F={rep.mean_f:.3f} max_F={rep.max_f:.3f} "
          f"recon points={n_pts} ({rep.wall_time:.1f}s)")

print("\nper-trial detail (contour following):")
cfg = default_config("hemisphere", "bo", "cf", seed=7, trials=3)
rep = run_experiment(cfg, out_dir=None, verbose=False)
for t in rep.trials:
    r = t.report
    n_tumor = sum(p.classified_tumor for p in t.probes)
    n_waypoints = sum(traj.n_waypoints for traj in t.trajectories)
    print(f"  trial {t.index}: {n_tumor}/{t.n_probes} probes on tumor, "
          f"{len(t.trajectories)} follows, {n_waypoints} waypoints, "
          f"P={r.precision:.3f} R={r.recall:.3f} F={r.fscore:.3f}")
print("\noutputs (PLY clouds, meshes, metrics.csv, trajectories.jsonl) in demo_out/")
