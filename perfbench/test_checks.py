"""Each benchmark check passes on real palpsim output and fails once that
output is corrupted.

    python3 -m pytest -q perfbench/test_checks.py
"""

import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import palpsim as ps  # noqa: E402

import checks  # noqa: E402
from tracing import Capture, Patches  # noqa: E402


@pytest.fixture(scope="module")
def trial():
    """One short BO + contour-following trial, with its grid and ground truth."""
    cfg = ps.default_config("hemisphere", "bo", "cf", seed=11, trials=1, budget=12)
    patches = Patches()
    capture = Capture(patches)
    try:
        rep = ps.run_experiment(cfg, None, verbose=False)
    finally:
        patches.restore()
    (gt_idx, grid), = capture.policy_calls
    assert len(capture.palpations) == cfg.budget
    return SimpleNamespace(cfg=cfg, t=rep.trials[0], grid=grid, gt=capture.gts[gt_idx])


def test_real_trial_passes_every_check(trial):
    t, cfg = trial.t, trial.cfg
    assert t.status == "ok" and t.trajs
    assert checks.check_fscore(t.recon_points, trial.gt, cfg.r_eval, t.report) == []
    assert checks.check_ground_truth(trial.gt, cfg) == []
    assert checks.check_policy(t, cfg) == []
    assert checks.check_bo_choices(t.probes, trial.grid.valid_mask, cfg) == []


def test_fscore_check_catches_one_shifted_point(trial):
    recon = trial.t.recon_points.copy()
    recon[0, 2] += 0.05
    assert checks.check_fscore(recon, trial.gt, trial.cfg.r_eval, trial.t.report)


def test_ground_truth_check_catches_a_lifted_point(trial):
    gt = trial.gt.copy()
    gt[7, 2] += 1e-6
    assert checks.check_ground_truth(gt, trial.cfg)


def test_policy_check_catches_broken_invariants(trial):
    t, cfg = trial.t, trial.cfg
    early = replace(t.probes[0], f_z=0.5 * cfg.probe.f_thres, d_z=0.5 * cfg.probe.d_thres)
    assert checks.check_policy(replace(t, probes=[early] + t.probes[1:]), cfg)
    assert checks.check_policy(replace(t, probes=t.probes[1:]), cfg)
    odd = replace(t.trajs[0], outcome="stalled")
    assert checks.check_policy(replace(t, trajs=[odd] + t.trajs[1:]), cfg)
    late = replace(t.trajs[0], times=t.trajs[0].times * 0 + np.linspace(0, 6, len(t.trajs[0])))
    assert checks.check_policy(replace(t, trajs=[late] + t.trajs[1:]), cfg)


def test_bo_check_catches_a_swapped_cell(trial):
    t, cfg, mask = trial.t, trial.cfg, trial.grid.valid_mask
    i = cfg.n_init
    free = mask.copy()
    for res in t.probes[:i]:
        free[res.cell] = False
    cand = np.argwhere(free)
    x = np.array([r.cell for r in t.probes[:i]], dtype=float)
    y = np.array([r.k for r in t.probes[:i]])
    worst = tuple(int(c) for c in cand[np.argmin(
        checks._dense_ei(x, y, cand.astype(float), cfg.hyper, cfg.xi))])
    swapped = list(t.probes)
    swapped[i] = replace(swapped[i], cell=worst)
    assert checks.check_bo_choices(swapped, mask, cfg)


def load_cell_records(angle_noise: float) -> np.ndarray:
    """Readings of palpsim's load-cell chain at random orientations."""
    cfg = ps.default_config("hemisphere")
    cal = replace(cfg.cal, angle_noise=angle_noise)
    plant = ps.ProbePlant(ps.Phantom(cfg.phantom, cfg.tumor), cfg.probe, cal)
    rng = np.random.default_rng(5)
    rows = []
    for _ in range(200):
        axis = rng.normal(size=3)
        axis[2] = abs(axis[2]) + 0.5
        plant.align((0.0, 0.0, 0.03), axis, rng)
        f = rng.uniform(-8, 8, 3)
        axial, out = plant.measure(*f)
        e, q = plant.euler, plant.euler_est
        rows.append((e.psi, e.theta, e.phi, q.psi, q.theta, q.phi, *f, *out, axial))
    return np.array(rows)


def test_calibration_check_matches_the_chain_and_catches_a_perturbed_force():
    rec = load_cell_records(angle_noise=0.02)
    w = ps.default_config("hemisphere").cal.tip_weight_n
    assert checks.check_calibration(rec, w) == []
    bad = rec.copy()
    bad[17, 10] += 1e-6
    assert checks.check_calibration(bad, w)
    bad = rec.copy()
    bad[3, 12] -= 1e-6
    assert checks.check_calibration(bad, w)


def fake_matrix(n_recon_discrete: int = 10, f_cf: float = 0.9):
    reps = []
    for shape in ("hemisphere", "crescent"):
        for strategy in ("rs", "bo"):
            for mode in ("cf", "discrete"):
                cf = mode == "cf"
                t = SimpleNamespace(index=0, trajs=[],
                                    n_recon=200 if cf else n_recon_discrete,
                                    report=SimpleNamespace(fscore=f_cf if cf else 0.6))
                reps.append(SimpleNamespace(
                    config=SimpleNamespace(tumor=SimpleNamespace(shape=shape),
                                           strategy=strategy, mode=mode,
                                           condition=f"{strategy}_{mode}_{shape}"),
                    trials=[t]))
    return reps


def test_matrix_check_catches_each_paper_property():
    assert checks.check_matrix(fake_matrix()) == []
    assert checks.check_matrix(fake_matrix(n_recon_discrete=30))
    assert checks.check_matrix(fake_matrix(f_cf=0.5))
    assert checks.check_matrix(fake_matrix()[:7])
