"""Correctness checks on a round's outputs, computed apart from palpsim.

Every check returns a list of failure messages (empty when it passes).
The formulas here are written out from the model's definitions; the
only palpsim objects they read are the outputs under test and the
configs that produced them.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtr

DECLARED_OUTCOMES = ("boundary_reached", "timeout", "lost_contact")
FSCORE_TOL = 1e-12    # F recomputed from exact precision and recall
GT_HEIGHT_TOL = 1e-12  # m, ground-truth point against the analytic height field
EI_REL_TOL = 1e-6     # chosen EI >= max EI - tol * max(1 N/m, max EI)
FORCE_TOL = 1e-9      # N, calibrated force against the rotation formula
GP_JITTER = 1e-10     # diagonal jitter of the GP kernel, as the model defines it


# -- F-score ----------------------------------------------------------------

def _nearest_sq(a: np.ndarray, b: np.ndarray, chunk: int = 512) -> np.ndarray:
    """Squared distance from every row of a to its nearest row of b (all pairs)."""
    out = np.empty(a.shape[0])
    for i in range(0, a.shape[0], chunk):
        d = a[i:i + chunk, None, :] - b[None, :, :]
        out[i:i + chunk] = np.einsum("ijk,ijk->ij", d, d).min(axis=1)
    return out


def check_fscore(recon: np.ndarray, gt: np.ndarray, r: float, report) -> list[str]:
    """Precision and recall from all-pairs distances, against the report."""
    if recon is None or len(recon) == 0:
        return ["empty reconstruction"]
    r2 = r * r
    precision = float(np.mean(_nearest_sq(recon, gt) <= r2))
    recall = float(np.mean(_nearest_sq(gt, recon) <= r2))
    f = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    errs = []
    if (report.precision, report.recall) != (precision, recall):
        errs.append(f"precision/recall {report.precision}/{report.recall} "
                    f"!= all-pairs {precision}/{recall}")
    if abs(report.fscore - f) > FSCORE_TOL:
        errs.append(f"F {report.fscore} != {f}")
    if (report.n_recon, report.n_gt) != (len(recon), len(gt)):
        errs.append("point counts in the report do not match the clouds")
    return errs


# -- ground truth ------------------------------------------------------------

def profile_height(cfg, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Skin profile offset: flat, cylindrical arc along y, or radial Gaussian."""
    p = cfg.phantom.surface_profile
    if p.kind == "flat":
        return np.zeros_like(x)
    if p.kind == "cyl_bump":
        return p.amplitude * np.sqrt(np.clip(1.0 - (x / p.radius) ** 2, 0.0, None))
    return p.amplitude * np.exp(-(x * x + y * y) / (2.0 * p.sigma ** 2))


def tumor_height(tumor, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Inclusion height above the muscle bed; 0 outside its footprint."""
    dx, dy = x - tumor.center_xy[0], y - tumor.center_xy[1]
    if tumor.shape == "hemisphere":
        return np.sqrt(np.clip(tumor.radius ** 2 - dx * dx - dy * dy, 0.0, None))
    if tumor.shape == "ellipsoid":
        ax, ay, az = tumor.semi_axes
        return az * np.sqrt(np.clip(1.0 - (dx / ax) ** 2 - (dy / ay) ** 2, 0.0, None))
    # crescent: disk of `radius` minus a disk shifted by inner_offset, whose
    # radius leaves `width` at the widest point; flat top, quarter-round fillet
    r_cut = tumor.radius - tumor.width + tumor.inner_offset
    edge = np.minimum(tumor.radius - np.hypot(dx, dy),
                      np.hypot(dx - tumor.inner_offset, dy) - r_cut)
    t = 1.0 - np.clip(edge, 0.0, tumor.fillet_radius) / tumor.fillet_radius
    return np.where(edge > 0.0, tumor.top_height * np.sqrt(np.clip(1.0 - t * t, 0.0, None)), 0.0)


def check_ground_truth(gt: np.ndarray, cfg) -> list[str]:
    """Every ground-truth point lies on the exposed tumor surface."""
    errs = []
    if len(gt) != cfg.gt_samples:
        errs.append(f"{len(gt)} ground-truth points, config asks {cfg.gt_samples}")
    x, y = gt[:, 0], gt[:, 1]
    h = tumor_height(cfg.tumor, x, y)
    z = cfg.phantom.muscle_plane_z + profile_height(cfg, x, y) + h
    if not np.all(h > 0.0):
        errs.append(f"{int(np.sum(h <= 0.0))} ground-truth points outside the footprint")
    dev = float(np.max(np.abs(gt[:, 2] - z)))
    if dev > GT_HEIGHT_TOL:
        errs.append(f"ground truth off the tumor surface by {dev:.3g} m")
    return errs


# -- policy ------------------------------------------------------------------

def check_policy(trial, cfg) -> list[str]:
    """Budget, declared outcomes, follow durations, probe stopping rules."""
    p = cfg.probe
    errs = []
    if trial.n_probes != cfg.budget or len(trial.probes) != cfg.budget:
        errs.append(f"{len(trial.probes)} probes for budget {cfg.budget}")
    cells = [res.cell for res in trial.probes]
    if len(set(cells)) != len(cells):
        errs.append("a cell was probed twice")
    for i, res in enumerate(trial.probes):
        if not (res.f_z >= p.f_thres or res.d_z >= p.d_thres):
            errs.append(f"probe {i} stopped at f={res.f_z:.4g} N, d={res.d_z:.4g} m "
                        "before either threshold")
        if res.classified_tumor != (res.f_z > p.f_thres and res.d_z < p.d_thres):
            errs.append(f"probe {i} classification disagrees with its stop")
    hits = sum(res.classified_tumor for res in trial.probes)
    want = hits if cfg.mode == "cf" else 0
    if len(trial.trajs) != want:
        errs.append(f"{len(trial.trajs)} follows for {want} tumor hits")
    for j, t in enumerate(trial.trajs):
        if t.outcome not in DECLARED_OUTCOMES:
            errs.append(f"follow {j} ended with undeclared outcome {t.outcome!r}")
        if t.times[-1] - t.times[0] > p.cf_timeout + 1e-9:
            errs.append(f"follow {j} ran {t.times[-1] - t.times[0]:.4f} s "
                        f"past cf_timeout {p.cf_timeout}")
    return errs


# -- Bayesian optimisation -----------------------------------------------------

def _dense_ei(x, y, cand, hyper, xi):
    """EI over candidate cells under a GP posterior from a dense linear solve."""
    def kern(a, b):
        d2 = ((a[:, None, :] - b[None, :, :]) ** 2).sum(-1)
        return hyper.signal_var * np.exp(-0.5 * d2 / hyper.length_scale ** 2)

    kmat = kern(x, x) + (hyper.noise_var + GP_JITTER) * np.eye(len(x))
    ks = kern(cand, x)
    mean = y.mean()
    mu = mean + ks @ np.linalg.solve(kmat, y - mean)
    var = hyper.signal_var - np.einsum("ij,ji->i", ks, np.linalg.solve(kmat, ks.T))
    sigma = np.sqrt(np.clip(var, 0.0, None))
    imp = mu - y.max() - xi
    with np.errstate(divide="ignore", invalid="ignore"):
        z = imp / sigma
        ei = imp * ndtr(z) + sigma * np.exp(-0.5 * z * z) / math.sqrt(2 * math.pi)
    return np.where(sigma > 0, np.clip(ei, 0.0, None), np.clip(imp, 0.0, None))


def check_bo_choices(probes, valid_mask: np.ndarray, cfg) -> list[str]:
    """Each BO pick maximises EI over the unvisited valid cells."""
    errs = []
    free = valid_mask.copy()
    for i, res in enumerate(probes):
        cell = tuple(res.cell)
        if not (0 <= cell[0] < free.shape[0] and 0 <= cell[1] < free.shape[1] and free[cell]):
            errs.append(f"pick {i} {cell} is not an unvisited valid cell")
            break
        if cfg.strategy == "bo" and i >= cfg.n_init:
            x = np.array([r.cell for r in probes[:i]], dtype=float)
            y = np.array([r.k for r in probes[:i]])
            cand = np.argwhere(free)
            ei = _dense_ei(x, y, cand.astype(float), cfg.hyper, cfg.xi)
            mine = ei[np.flatnonzero((cand == cell).all(axis=1))[0]]
            best = ei.max()
            if mine < best - EI_REL_TOL * max(1.0, best):
                errs.append(f"pick {i} {cell} has EI {mine:.6g}, max is {best:.6g}")
        free[cell] = False
    return errs


# -- load-cell calibration -------------------------------------------------------

def rotation_zyx(psi: np.ndarray, theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """(n, 3, 3) body-to-inertial rotations Rz(psi) Ry(theta) Rx(phi)."""
    def rz(a):
        c, s, o, i = np.cos(a), np.sin(a), np.zeros_like(a), np.ones_like(a)
        return np.stack([np.stack([c, -s, o], -1), np.stack([s, c, o], -1),
                         np.stack([o, o, i], -1)], -2)

    def ry(a):
        c, s, o, i = np.cos(a), np.sin(a), np.zeros_like(a), np.ones_like(a)
        return np.stack([np.stack([c, o, s], -1), np.stack([o, i, o], -1),
                         np.stack([-s, o, c], -1)], -2)

    def rx(a):
        c, s, o, i = np.cos(a), np.sin(a), np.zeros_like(a), np.ones_like(a)
        return np.stack([np.stack([i, o, o], -1), np.stack([o, c, -s], -1),
                         np.stack([o, s, c], -1)], -2)

    return rz(psi) @ ry(theta) @ rx(phi)


def check_calibration(rec: np.ndarray, tip_weight: float) -> list[str]:
    """Calibrated forces equal R_est R_true^T (f + w z) - w z.

    ``rec`` rows: true Euler (psi, theta, phi), estimated Euler, true
    contact force (3), calibrated inertial force (3), axial reading.
    """
    r_true = rotation_zyx(rec[:, 0], rec[:, 1], rec[:, 2])
    r_est = rotation_zyx(rec[:, 3], rec[:, 4], rec[:, 5])
    wz = np.array([0.0, 0.0, tip_weight])
    loaded = rec[:, 6:9] + wz
    want = np.einsum("nij,nkj,nk->ni", r_est, r_true, loaded) - wz
    axial = np.einsum("nji,nj->ni", r_est, want)[:, 2]
    errs = []
    dev = float(np.max(np.abs(rec[:, 9:12] - want)))
    if dev > FORCE_TOL:
        errs.append(f"calibrated force off the rotation formula by {dev:.3g} N")
    dev = float(np.max(np.abs(rec[:, 12] - axial)))
    if dev > FORCE_TOL:
        errs.append(f"axial reading off the rotation formula by {dev:.3g} N")
    return errs


# -- paper-level properties of the matrix ------------------------------------------

def _mean_f(rep) -> float:
    scores = [t.report.fscore for t in rep.trials if t.report is not None]
    return float(np.mean(scores)) if scores else 0.0


def check_matrix(reports) -> list[str]:
    """Acceptance criteria 5-6 on one round of the condition matrix.

    The criteria are stated for 10 trials per condition; a round has far
    fewer, so criterion 6's 10x point multiplier is checked per shape over
    both strategies.  Random search alone can land below it by sampling:
    with one trial per condition, seed 6 gave 45 contour points against 5
    discrete ones on the crescent.
    """
    by = {(r.config.tumor.shape, r.config.strategy, r.config.mode): r for r in reports}
    errs = []
    if len(by) != 8:
        return [f"{len(by)} of 8 conditions ran"]
    if _mean_f(by["hemisphere", "bo", "cf"]) < 0.57:
        errs.append("hemisphere bo+cf mean F below 0.57")
    if max(_mean_f(by["crescent", s, "cf"]) for s in ("bo", "rs")) < 0.89:
        errs.append("best crescent cf mean F below 0.89")
    for s in ("bo", "rs"):
        if not _mean_f(by["hemisphere", s, "cf"]) > _mean_f(by["hemisphere", s, "discrete"]):
            errs.append(f"hemisphere {s}: cf does not beat discrete")
    for shape in ("hemisphere", "crescent"):
        n = {m: sum(t.n_recon for s in ("bo", "rs") for t in by[shape, s, m].trials)
             for m in ("cf", "discrete")}
        if n["discrete"] == 0 or n["cf"] < 10 * n["discrete"]:
            errs.append(f"{shape}: {n['cf']} contour points < 10 x {n['discrete']} discrete")
    for r in reports:
        for t in r.trials:
            short = [len(tr) for tr in t.trajs
                     if tr.outcome == "boundary_reached" and len(tr) < 10]
            if short:
                errs.append(f"{r.config.condition} trial {t.index}: boundary follow "
                            f"with {short[0]} waypoints")
    return errs
