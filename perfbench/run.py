#!/usr/bin/env python3
"""palpsim benchmark: one workload, one process, trials one after another.

    python3 perfbench/run.py --workload matrix --seed 1 --seconds 30 --trace 0

Set-up (import, phantom, ground truth, one warm-up registration) is timed
three times: in this process and in two child processes started with
``--setup-only``.  Then the workload's round (a fixed list of seeded
trials) repeats while another round still fits into ``--seconds``.  The
first round's outputs are checked against computations made in
``checks.py``; every later round must reproduce them exactly.

With ``--trace 0`` the last stdout line holds the end-to-end metrics;
with ``--trace 1`` one untraced round is followed by traced rounds and
the line holds the per-module metrics.  A record of the run (and, when
traced, its spans) is written under ``perfbench/runs/``.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field, replace  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
from speed import REF_NOMINAL_S, scaled, speed_probe  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 3          # set-ups timed per run: this process plus two children
CHILD_TIMEOUT = 60  # s, per child set-up
SETUP_PROBES = 100  # reference loops that measure the machine's speed after set-up


def import_palpsim():
    """Import palpsim from this checkout's ``src``, and nowhere else."""
    src = ROOT / "src"
    if not (src / "palpsim" / "__init__.py").is_file():
        sys.exit(f"perfbench: no palpsim sources under {src}")
    sys.path.insert(0, str(src))
    import palpsim
    if Path(palpsim.__file__).resolve().parent != (src / "palpsim").resolve():
        sys.exit(f"perfbench: imported palpsim from {palpsim.__file__}, not {src}")
    return palpsim


def declared_metrics(kind: str) -> dict[str, dict]:
    """Metric name -> its entry in BENCHMARK.json (``end_to_end`` or ``per_layer``)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec[kind]}


def setup(ps, wl, seed):
    """Configs, phantom, ground truth and one warm-up registration.

    The first ``interpolate_grid`` call of a process can cost far more
    than later ones; it belongs to set-up, not to the first trial.
    """
    cfgs = wl.configs(seed)
    cfg = cfgs[0]
    phantom = ps.Phantom(cfg.phantom, cfg.tumor)
    phantom.ground_truth_cloud(cfg.gt_samples, seed=cfg.seed)
    m = cfg.cloud.margin
    region = ((cfg.roi.min_xy[0] - m, cfg.roi.min_xy[1] - m),
              (cfg.roi.max_xy[0] + m, cfg.roi.max_xy[1] + m))
    raw = phantom.synth_depth_cloud(region, cfg.cloud.density, cfg.cloud.noise_sigma,
                                    seed=cfg.seed)
    cloud = ps.preprocess_cloud(raw, cfg.cloud.voxel, cfg.cloud.outlier_k,
                                cfg.cloud.outlier_sigma)
    mesh = ps.crop_roi(ps.mesh_from_cloud(cloud), cfg.roi)
    t0 = time.perf_counter()
    ps.interpolate_grid(mesh, cfg.grid_dx, cfg.grid_dy)
    first_interpolate = time.perf_counter() - t0
    return cfgs, first_interpolate


def child_setup_s(args) -> float:
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


# -- rounds ---------------------------------------------------------------------

@dataclass
class Round:
    """One round's times, without the reference loops run inside it."""
    wall_s: float
    cpu_s: float
    ref_s: float             # mean reference-loop time over the round
    search_s: tuple          # (wall, cpu) inside the GP search
    palpations: list         # (ms, of which GP search ms)
    digest: str
    files: dict = field(default_factory=dict)   # output file -> sha256
    bytes_written: dict = field(default_factory=dict)
    reports: list = None                         # kept for the first round only


def trial_digest(h, cfg, t) -> None:
    h.update(f"{cfg.condition}|{t.index}|{t.status}|{t.n_recon}|".encode())
    if t.report is not None:
        h.update(repr((t.report.precision, t.report.recall, t.report.fscore)).encode())
    if t.recon_points is not None:
        h.update(t.recon_points.tobytes())
    for res in t.probes:
        h.update(repr((res.cell, res.f_z, res.d_z)).encode())
    for tr in t.trajs:
        h.update(tr.outcome.encode() + tr.poses.tobytes() + tr.forces.tobytes())


def run_round(wl, cfgs, capture, out_dir: Path, keep: bool) -> Round:
    """Run and time one round; hash its outputs; keep them if ``keep``."""
    if out_dir.exists():
        shutil.rmtree(out_dir)
    capture.new_round()
    capture.keep = keep
    gc.collect()
    w0, c0 = time.perf_counter(), time.process_time()
    reports = wl.run_round(cfgs, out_dir)
    wall, cpu = time.perf_counter() - w0, time.process_time() - c0
    ref = capture.ref_s
    h = hashlib.sha256()
    for rep in reports:
        for t in rep.trials:
            trial_digest(h, rep.config, t)
    files, written = {}, {"ply": 0, "other": 0}
    if wl.writes_files:
        for p in sorted(out_dir.rglob("*")):
            if p.is_file():
                written["ply" if p.suffix == ".ply" else "other"] += p.stat().st_size
        for name in ("metrics.csv", "summary.csv"):
            files[name] = hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
            h.update(files[name].encode())
        shutil.rmtree(out_dir)
    return Round(wall - sum(ref), cpu - capture.ref_cpu_s,
                 statistics.fmean(ref) if ref else REF_NOMINAL_S, tuple(capture.search_s),
                 capture.palpations, h.hexdigest(), files, written, reports if keep else None)


def timed_rounds(wl, cfgs, capture, out_dir, seconds, keep_first) -> list[Round]:
    """Run rounds while one more (at the median round time) still fits."""
    t0 = time.perf_counter()
    rounds = []
    while True:
        rounds.append(run_round(wl, cfgs, capture, out_dir, keep_first and not rounds))
        per_round = statistics.median(r.wall_s for r in rounds)
        if time.perf_counter() - t0 + per_round > seconds:
            return rounds


# -- checks ---------------------------------------------------------------------

def check_round(ps, wl, first: Round, capture) -> tuple[set, list[str]]:
    """Checks on the first round: (indices of failed trials, all messages)."""
    trials = [(rep.config, t) for rep in first.reports for t in rep.trials]
    errs, failed = [], set()
    if len(capture.policy_calls) != len(trials):
        return set(range(len(trials))), [
            f"{len(capture.policy_calls)} run_policy calls seen for {len(trials)} trials"]
    checked_gts = set()
    for i, ((cfg, t), (gt_idx, grid)) in enumerate(zip(trials, capture.policy_calls)):
        if t.status != "ok":
            failed.add(i)
            errs.append(f"{cfg.condition} trial {t.index}: status {t.status} {t.message}")
            continue
        gt = capture.gts[gt_idx]
        mine = []
        if gt_idx not in checked_gts:
            checked_gts.add(gt_idx)
            mine += checks.check_ground_truth(gt, cfg)
        mine += checks.check_fscore(t.recon_points, gt, cfg.r_eval, t.report)
        mine += checks.check_policy(t, cfg)
        mine += checks.check_bo_choices(t.probes, grid.valid_mask, cfg)
        if mine:
            failed.add(i)
            errs += [f"{cfg.condition} trial {t.index}: {e}" for e in mine]
    if wl.name == "matrix":
        mine = checks.check_matrix(first.reports)
        if mine:
            failed |= set(range(len(trials)))
            errs += mine
    if wl.name == "cf_faults":
        mine = check_calibration_rerun(ps, first.reports[0])
        if mine:
            failed.add(0)
            errs += [f"calibration: {e}" for e in mine]
    return failed, errs


def check_calibration_rerun(ps, rep) -> list[str]:
    """Rerun trial 0 recording every load-cell reading, check each one
    against the rotation formula, and check the rerun reproduces the
    timed trial."""
    from tracing import Patches

    rows = []

    def make(orig):
        def measure(plant, fx, fy, fz):
            axial, out = orig(plant, fx, fy, fz)
            e, q = plant.euler, plant.euler_est
            rows.append((e.psi, e.theta, e.phi, q.psi, q.theta, q.phi,
                         fx, fy, fz, out[0], out[1], out[2], axial))
            return axial, out
        return measure

    patches = Patches()
    patches.method(ps.ProbePlant, "measure", make)
    try:
        again = ps.run_experiment(replace(rep.config, trials=1), None, verbose=False)
    finally:
        patches.restore()
    a, b = hashlib.sha256(), hashlib.sha256()
    trial_digest(a, rep.config, rep.trials[0])
    trial_digest(b, rep.config, again.trials[0])
    errs = [] if a.digest() == b.digest() else ["rerun of trial 0 differs from the timed one"]
    rec = np.array(rows)
    if not np.any(rec[:, 0:3] != rec[:, 3:6]):
        errs.append("orientation estimate never differs from the true one")
    return errs + checks.check_calibration(rec, rep.config.cal.tip_weight_n)


# -- metrics --------------------------------------------------------------------

def at_speed(total: float, search: float, ref_s: float) -> float:
    """A time quoted at the reference machine speed.  The reference loop
    tracks Python code; the GP search runs mostly in multi-threaded BLAS,
    whose speed it does not track, so that part stays as measured."""
    return search + scaled(total - search, ref_s)


def end_to_end(wl, rounds, setups, peak_rss_mb) -> dict[str, float]:
    palp = [at_speed(ms, s_ms, r.ref_s) for r in rounds for ms, s_ms in r.palpations]
    scores = [t.report.fscore for rep in rounds[0].reports for t in rep.trials
              if t.report is not None]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(at_speed(r.wall_s, r.search_s[0], r.ref_s) for r in rounds),
        "palpation_ms_p50": float(np.percentile(palp, 50)),
        "palpation_ms_tail": float(np.percentile(palp, wl.tail_pct)),
        "cpu_s": statistics.median(at_speed(r.cpu_s, r.search_s[1], r.ref_s) for r in rounds),
        "peak_rss_mb": peak_rss_mb,
        "mean_f": float(np.mean(scores)) if scores else 0.0,
    }


def per_layer(tracer, traced: list[Round], first: Round, capture,
              first_interpolate_s, untraced_wall_s) -> dict[str, float]:
    """Per-module metrics.  Counts are per trial; ``*_ms`` are inclusive
    per-call times, except ``experiment.self_ms`` (self time per trial);
    ``*_us`` of hot calls come from the argument replay."""
    stats = tracer.span_stats()
    replay, floor_ns = tracer.replay_us()
    n = tracer.n_trials

    def ms(*names):  # inclusive ms per call over the named spans
        calls = sum(stats.get(x, {}).get("calls", 0) for x in names)
        total = sum(stats.get(x, {}).get("total_s", 0.0) for x in names)
        return 1e3 * total / calls if calls else 0.0

    def per_trial_ms(*names):
        return 1e3 * sum(stats.get(x, {}).get("total_s", 0.0) for x in names) / n

    def count(name):
        return stats.get(name, {}).get("calls", 0) / n

    def hot(name):
        return tracer.calls.get(name, [0])[0] / n

    # counts that follow from the outputs of the first round
    trials = [(rep.config, t) for rep in first.reports for t in rep.trials]
    n1 = len(trials)
    descent = ticks = waypoints = recon = valid = 0
    outcomes = {"boundary_reached": 0, "timeout": 0, "lost_contact": 0}
    for (cfg, t), (_, grid) in zip(trials, capture.policy_calls):
        step = cfg.probe.indent_speed * cfg.gains.period
        valid += int(grid.valid_mask.sum())
        recon += t.n_recon
        for res in t.probes:
            depth = float((grid.cell_point(*res.cell) - res.contact_point) @ res.normal)
            descent += round((cfg.probe.hover + depth) / step)
        for tr in t.trajs:
            ticks += round((tr.times[-1] - tr.times[0]) / cfg.gains.period)
            waypoints += len(tr)
            outcomes[tr.outcome] = outcomes.get(tr.outcome, 0) + 1
    follow_s = stats.get("policy.contour_follow", {}).get("total_s", 0.0)
    follows = stats.get("policy.contour_follow", {}).get("calls", 0)
    rounds = len(traced)
    cal_calls = hot("calibration.remove_z_offset") + hot("calibration.compensate_tip_weight")
    cal_us = ((replay.get("calibration.remove_z_offset", 0.0) * hot("calibration.remove_z_offset")
               + replay.get("calibration.compensate_tip_weight", 0.0)
               * hot("calibration.compensate_tip_weight")) / cal_calls) if cal_calls else 0.0
    cands = tracer.candidates
    self_ms = 1e3 * sum(stats.get(x, {}).get("self_s", 0.0) for x in
                        ("experiment.run_matrix", "experiment.run_experiment",
                         "experiment.run_trial")) / n
    return {
        "phantom.contact_calls": hot("phantom.contact_force"),
        "phantom.contact_us": replay.get("phantom.contact_force", 0.0),
        "phantom.normal_calls": hot("phantom.surface_normal"),
        "phantom.normal_us": replay.get("phantom.surface_normal", 0.0),
        "phantom.scan_ms": ms("phantom.synth_depth_cloud"),
        "phantom.gt_ms": ms("phantom.ground_truth_cloud"),
        "registration.preprocess_ms": ms("registration.preprocess_cloud"),
        "registration.mesh_ms": per_trial_ms("registration.mesh_from_cloud",
                                             "registration.crop_roi"),
        "registration.interpolate_ms": ms("registration.interpolate_grid"),
        "registration.first_interpolate_ms": 1e3 * first_interpolate_s,
        "registration.valid_cells": valid / n1,
        "registration.sample_height_calls": hot("registration.sample_height"),
        "registration.sample_height_us": replay.get("registration.sample_height", 0.0),
        "search.gp_fits": count("search.gp_fit"),
        "search.gp_fit_ms": ms("search.gp_fit"),
        "search.select_bo_calls": count("search.next_cell_bo"),
        "search.select_bo_ms": ms("search.next_cell_bo"),
        "search.candidates_per_select": sum(cands) / len(cands) if cands else 0.0,
        "search.select_random_ms": ms("search.next_cell_random"),
        "calibration.calls": cal_calls,
        "calibration.us": cal_us,
        "policy.measure_calls": hot("policy.measure"),
        "policy.measure_us": replay.get("policy.measure", 0.0),
        "policy.probes": count("policy.probe_cell"),
        "policy.probe_ms": ms("policy.probe_cell"),
        "policy.descent_steps": descent / n1,
        "policy.follows": follows / n,
        "policy.follow_ms": ms("policy.contour_follow"),
        "policy.follow_ticks": ticks / n1,
        "policy.ticks_per_s": ticks * rounds / follow_s if follow_s else 0.0,
        "policy.waypoints": waypoints / n1,
        "policy.outcome.boundary_reached": outcomes["boundary_reached"] / n1,
        "policy.outcome.timeout": outcomes["timeout"] / n1,
        "policy.outcome.lost_contact": outcomes["lost_contact"] / n1,
        "evaluation.extract_ms": ms("evaluation.extract_contact_points"),
        "evaluation.fscore_ms": ms("evaluation.fscore"),
        "evaluation.mesh_ms": ms("evaluation.reconstruct_mesh"),
        "evaluation.recon_points": recon / n1,
        "experiment.self_ms": self_ms,
        "experiment.bytes_written": first.bytes_written.get("other", 0) / n1,
        "ply.export_ms": per_trial_ms("ply.export_ply", "ply.export_mesh_ply"),
        "ply.bytes_written": first.bytes_written.get("ply", 0) / n1,
        "trace.overhead_s": statistics.median(r.wall_s for r in traced) - untraced_wall_s,
        "trace.replay_floor_ns": floor_ns,
    }


def machine() -> dict:
    import scipy
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError):
        blas = "unknown"
    return {"cores": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__, "blas": blas,
            "machine": platform.machine()}


# -- main -----------------------------------------------------------------------

def parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse(argv)
    ps = import_palpsim()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    cfgs, first_interpolate = setup(ps, wl, args.seed)
    setup_s = time.perf_counter() - _T0
    setup_s = scaled(setup_s, statistics.fmean(speed_probe()[0] for _ in range(SETUP_PROBES)))
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    declared = declared_metrics("per_layer" if args.trace else "end_to_end")
    from tracing import Capture, Patches, Tracer

    setups = [setup_s] + ([child_setup_s(args) for _ in range(SETUPS - 1)]
                          if not args.trace else [])
    runs_dir = HERE / "runs"
    runs_dir.mkdir(exist_ok=True)
    out_dir = HERE / "out" / f"{wl.name}-{os.getpid()}"
    patches = Patches()
    capture = Capture(patches)
    t_start = time.perf_counter()
    try:
        if args.trace:
            rounds = [run_round(wl, cfgs, capture, out_dir, keep=True)]
            tracer, trace_patches = Tracer(), Patches()
            tracer.install(trace_patches)
            capture.probe_speed = False
            try:
                left = args.seconds - (time.perf_counter() - t_start)
                traced = timed_rounds(wl, cfgs, capture, out_dir, left, False)
            finally:
                trace_patches.restore()
            rounds += traced
        else:
            rounds = timed_rounds(wl, cfgs, capture, out_dir, args.seconds, True)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        patches.restore()
        shutil.rmtree(out_dir, ignore_errors=True)
        if out_dir.parent.exists() and not any(out_dir.parent.iterdir()):
            out_dir.parent.rmdir()

    first = rounds[0]
    failed_trials, errors = check_round(ps, wl, first, capture)
    per_round = len([t for rep in first.reports for t in rep.trials])
    failed = 0
    for r in rounds:
        if r.digest != first.digest:
            errors.append("a round's outputs differ from the first round's")
            failed += per_round
        else:
            failed += len(failed_trials)
    palpations = wl.palpations
    for r in rounds:
        if len(r.palpations) != palpations:
            errors.append(f"{len(r.palpations)} palpations timed, {palpations} run")
            break

    if args.trace:
        values = per_layer(tracer, rounds[1:], first, capture, first_interpolate,
                           first.wall_s)
    else:
        values = end_to_end(wl, rounds, setups, peak_rss_mb)
    if set(values) != set(declared):
        errors.append(f"metrics {sorted(set(values) ^ set(declared))} disagree with BENCHMARK.json")
    metrics = {k: {"value": v, "unit": declared[k]["unit"]} for k, v in values.items()
               if k in declared}

    result = {"correct": not errors, "attempted": per_round * len(rounds),
              "failed": failed, "metrics": metrics}
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}-{int(time.time())}-{os.getpid()}"
    record = {
        "workload": wl.name, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "rounds": len(rounds),
        "round_wall_s": [r.wall_s for r in rounds], "round_cpu_s": [r.cpu_s for r in rounds],
        "elapsed_s": time.perf_counter() - _T0,
        "setups_s": setups, "palpations_per_round": palpations,
        "palpation_samples": sum(len(r.palpations) for r in rounds),
        "round_ref_us": [1e6 * r.ref_s for r in rounds],
        "round_search_s": [r.search_s for r in rounds],
        "tail_pct": wl.tail_pct, "digest": first.digest, "files": first.files,
        "trial_f": [t.report.fscore if t.report else None
                    for rep in first.reports for t in rep.trials],
        "errors": errors, "machine": machine(), "result": result,
    }
    (runs_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        tracer.write_spans(runs_dir / f"{stem}.spans.jsonl")
    for e in errors[:20]:
        print(f"CHECK FAILED: {e}", file=sys.stderr)
    print(f"{wl.name} seed {args.seed}: {len(rounds)} rounds, "
          f"{record['palpation_samples']} palpations, digest {first.digest[:16]}, "
          f"files {json.dumps({k: v[:16] for k, v in first.files.items()})}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
