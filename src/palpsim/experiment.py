"""Configuration-driven experiment harness.

Reproduces the 2 (sampling strategy) x 2 (palpation mode) condition
matrix over the tumor shapes, with deterministic per-trial seeding and
file exports: per-trial metrics CSV, a JSON-lines trajectory log,
reconstruction/ground-truth PLY clouds, and a summary table with
per-condition mean/max F-scores plus pooled "combined" rows per shape.

Wall-clock timings are printed but deliberately kept out of the CSV
outputs so reruns with the same seed are byte-identical.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field, fields, is_dataclass, replace
from operator import attrgetter
from pathlib import Path
from typing import Optional, get_args, get_origin, get_type_hints

import numpy as np

from .calibration import CalibrationParams
from .errors import ConfigInvalid, Empty, PalpSimError, above, at_least, check_ranges
from .evaluation import (
    FScoreReport,
    aggregate_trials,
    extract_contact_points,
    fscore,
    reconstruct_mesh,
)
from .phantom import (
    CRESCENT,
    HEMISPHERE,
    Phantom,
    PhantomConfig,
    PointCloud,
    TumorGeometry,
)
from .ply import export_mesh_ply, export_ply
from .policy import (
    BO,
    CONTOUR_FOLLOWING,
    DISCRETE,
    RS,
    ControllerGains,
    PalpationTrajectory,
    ProbeParams,
    ProbeResult,
    run_policy,
)
from .registration import (
    RoiBox,
    SurfaceGrid,
    crop_roi,
    interpolate_grid,
    mesh_from_cloud,
    preprocess_cloud,
)
from .search import GPHyper

_GT_STREAM = 9001  # rng stream id for ground-truth sampling
_CLOUD_STREAM = 3  # rng stream id for depth-cloud synthesis


@dataclass(frozen=True)
class CloudParams:
    density: float = above(0, 3.0e6)          # points per m^2
    noise_sigma: float = at_least(0, 0.0005)  # m
    margin: float = at_least(0, 0.01)         # m, scan region beyond the ROI
    voxel: float = at_least(0, 0.002)         # m
    outlier_k: int = at_least(0, 8)
    outlier_sigma: float = at_least(0, 2.0)

    __post_init__ = check_ranges


@dataclass(frozen=True)
class ExperimentConfig:
    # field order is the key order of the config.txt echo (``config_to_flat``)
    label: str = ""
    phantom: PhantomConfig = field(default_factory=PhantomConfig)
    tumor: TumorGeometry = field(default_factory=TumorGeometry)
    roi: RoiBox = field(default_factory=lambda: RoiBox((-0.02, -0.02), (0.02, 0.02)))
    grid_dx: float = above(0, 0.002)
    grid_dy: float = above(0, 0.002)
    cloud: CloudParams = field(default_factory=CloudParams)
    strategy: str = BO
    mode: str = CONTOUR_FOLLOWING
    budget: int = at_least(1, 50)
    trials: int = at_least(1, 10)
    seed: int = at_least(0, 7)
    gains: ControllerGains = field(default_factory=ControllerGains)
    probe: ProbeParams = field(default_factory=ProbeParams)
    cal: CalibrationParams = field(default_factory=CalibrationParams)
    hyper: GPHyper = field(default_factory=GPHyper)
    xi: float = at_least(0, 5.0)
    n_init: int = at_least(2, 3)
    r_eval: float = above(0, 0.003)
    gt_samples: int = at_least(1, 2000)

    def __post_init__(self):
        check_ranges(self)
        if self.strategy not in (BO, RS):
            raise ConfigInvalid(f"unknown strategy {self.strategy!r}")
        if self.mode not in (CONTOUR_FOLLOWING, DISCRETE):
            raise ConfigInvalid(f"unknown mode {self.mode!r}")
        if any(c in self.label for c in ',"\r\n'):
            raise ConfigInvalid(f"label {self.label!r} holds a comma, quote or line break")
        Phantom(self.phantom, self.tumor)  # the tumor must fit under the soft stack

    @property
    def condition(self) -> str:
        if self.label:
            return self.label
        return f"{self.strategy}_{self.mode}_{self.tumor.shape}"


@dataclass
class TrialOutcome:
    """One trial's palpations and score; every count is derived from them."""

    index: int
    seed: int
    status: str                       # "ok" or the error class name
    message: str = ""
    report: Optional[FScoreReport] = None
    recon_points: Optional[np.ndarray] = None
    probes: list[ProbeResult] = field(default_factory=list, repr=False)
    trajs: list[PalpationTrajectory] = field(default_factory=list, repr=False)

    @property
    def n_probes(self) -> int:
        return len(self.probes)

    @property
    def n_recon(self) -> int:
        return 0 if self.recon_points is None else len(self.recon_points)

    @property
    def trajectories(self) -> list[PalpationTrajectory]:
        return self.trajs


@dataclass
class ConditionReport:
    """One condition's trials, scored against ``gt``.  ``wall_time`` (s) covers
    the ground truth and the trials, not the writes; no file records it."""

    config: ExperimentConfig
    trials: list[TrialOutcome]
    gt: PointCloud
    mean_f: float
    max_f: float
    n_failed: int
    wall_time: float

    @property
    def scored(self) -> bool:
        """Whether any trial got an F-score; if not, no output shows ``mean_f`` or ``max_f``."""
        return self.n_failed < len(self.trials)


def default_config(shape: str = TumorGeometry.shape, strategy: str = ExperimentConfig.strategy,
                   mode: str = ExperimentConfig.mode, seed: int = ExperimentConfig.seed,
                   trials: int = ExperimentConfig.trials,
                   budget: Optional[int] = None) -> ExperimentConfig:
    """Per-shape defaults mirroring the benchtop protocol: palpation
    budget 80 for the crescent, the field default (50) for the others."""
    if budget is None:
        budget = 80 if shape == CRESCENT else ExperimentConfig.budget
    return ExperimentConfig(tumor=TumorGeometry(shape=shape), strategy=strategy, mode=mode,
                            budget=budget, trials=trials, seed=seed)


def matrix_configs(flat: dict) -> list[ExperimentConfig]:
    """Both strategies x both modes per shape, each condition built from the
    flat config keys ``flat``; a ``shape``, ``strategy`` or ``mode`` there
    fixes that axis."""
    shapes = [flat["shape"]] if "shape" in flat else [HEMISPHERE, CRESCENT]
    strategies = [flat["strategy"]] if "strategy" in flat else [RS, BO]
    modes = [flat["mode"]] if "mode" in flat else [CONTOUR_FOLLOWING, DISCRETE]
    return [config_from_flat({**flat, "shape": shape, "strategy": strategy, "mode": mode})
            for shape in shapes for strategy in strategies for mode in modes]


def table1_matrix(seed: int = ExperimentConfig.seed,
                  trials: int = ExperimentConfig.trials) -> list[ExperimentConfig]:
    """The full condition matrix: both strategies x both modes per shape."""
    return matrix_configs({"seed": seed, "trials": trials})


# -- flat-key config files ---------------------------------------------------

def load_config_file(path) -> dict:
    """Parse ``key = value`` lines, each key once; values are JSON where possible.
    ``#`` starts a comment, except inside a value that is JSON as a whole."""
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise ConfigInvalid(f"{path}: cannot read config file: {exc.strerror}") from exc
    flat: dict[str, object] = {}
    seen: dict[str, int] = {}  # key -> line number
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigInvalid(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = raw.split("=", 1)
        key = key.strip()
        if key in seen:
            raise ConfigInvalid(f"{path}:{lineno}: config key {key!r} repeats line {seen[key]}")
        seen[key] = lineno
        for text in (value, value.split("#", 1)[0]):
            try:
                flat[key] = json.loads(text)
                break
            except json.JSONDecodeError:
                flat[key] = text.strip()
    return flat


# Dataclass paths whose file key keeps its older spelling; every other field
# is written under its own dotted path.
_FILE_KEYS = {
    "tumor.shape": "shape",
    "phantom.surface_profile.kind": "phantom.profile",
    "phantom.surface_profile.amplitude": "phantom.profile_amplitude",
    "phantom.surface_profile.radius": "phantom.profile_radius",
    "phantom.surface_profile.sigma": "phantom.profile_sigma",
    "roi.min_xy": "roi.min",
    "roi.max_xy": "roi.max",
    "grid_dx": "grid.dx",
    "grid_dy": "grid.dy",
    "hyper.length_scale": "gp.length_scale",
    "hyper.signal_var": "gp.signal_var",
    "hyper.noise_var": "gp.noise_var",
    "xi": "gp.xi",
    "n_init": "gp.n_init",
}

_DEFAULT_KEYS = ("shape", "strategy", "mode", "seed", "trials", "budget")


def _leaves(cls, prefix: str = ""):
    """(dotted path, type) of every non-dataclass field under ``cls``, in field order."""
    hints = get_type_hints(cls)
    for f in fields(cls):
        if is_dataclass(hints[f.name]):
            yield from _leaves(hints[f.name], f"{prefix}{f.name}.")
        else:
            yield prefix + f.name, hints[f.name]


# file key -> (dotted field path, field type), one key per field
_KEYS = {_FILE_KEYS.get(path, path): (path, tp) for path, tp in _leaves(ExperimentConfig)}


def _cast(key: str, value, tp):
    """``value`` as field type ``tp``: float, int, str or a tuple of floats.
    Only a string is a string, a boolean (JSON ``true``) is not a number,
    and a NaN or infinite float, tuple components included, is rejected
    with its file key before the dataclass would reject it by field name."""
    def scalar(t, v):
        if t is str and not isinstance(v, str):
            raise ValueError(f"{v!r} is not a string")
        if t is not str and isinstance(v, bool):
            raise ValueError(f"{v!r} is not a number")
        if t is int and not isinstance(v, str) and v != int(v):
            raise ValueError(f"{v!r} is not a whole number")
        return t(v)

    try:
        if get_origin(tp) is tuple:
            out = tuple(scalar(t, v) for t, v in zip(get_args(tp), value, strict=True))
        else:
            out = scalar(tp, value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigInvalid(f"config key {key!r}: {exc}") from None
    parts = out if isinstance(out, tuple) else (out,)
    if any(isinstance(x, float) and not math.isfinite(x) for x in parts):
        raise ConfigInvalid(f"config key {key!r}: {value!r} is not finite")
    return out


def _with_values(obj, values: dict, prefix: str = ""):
    """Copy of dataclass ``obj`` with the fields at ``values``' dotted paths
    set.  Nested dataclasses are rebuilt first, so every ``__post_init__``
    check runs on the new values."""
    changes = {}
    for f in fields(obj):
        path = prefix + f.name
        sub = getattr(obj, f.name)
        if is_dataclass(sub):
            changes[f.name] = _with_values(sub, values, path + ".")
        elif path in values:
            changes[f.name] = values[path]
    return replace(obj, **changes)


def config_from_flat(flat: dict) -> ExperimentConfig:
    """Build an ExperimentConfig from flat file keys (those ``config_to_flat`` writes).

    ``shape``, ``strategy``, ``mode``, ``seed``, ``trials`` and ``budget``
    pick the per-shape defaults of ``default_config`` first; the remaining
    keys then override single fields.  Every value is cast to its field's
    type.  Unknown keys and values that do not cast raise ``ConfigInvalid``.
    """
    unknown = sorted(set(flat) - set(_KEYS))
    if unknown:
        raise ConfigInvalid(f"unknown config keys: {unknown}")
    values = {_KEYS[key][0]: _cast(key, value, _KEYS[key][1]) for key, value in flat.items()}
    cfg = default_config(**{key: values.pop(_KEYS[key][0]) for key in _DEFAULT_KEYS
                            if key in flat})
    return _with_values(cfg, values)


def config_to_flat(cfg: ExperimentConfig) -> dict:
    """Flatten a config to its file keys, top-level keys first (echoed into
    the output directory so every run records its exact parameters)."""
    flat = {key: attrgetter(path)(cfg) for key, (path, _) in _KEYS.items()}
    return dict(sorted(flat.items(), key=lambda item: "." in item[0]))


# -- running -------------------------------------------------------------------

def _ground_truth(cfg: ExperimentConfig) -> PointCloud:
    return Phantom(cfg.phantom, cfg.tumor).ground_truth_cloud(cfg.gt_samples,
                                                              seed=[cfg.seed, _GT_STREAM])


def _write_config_echo(cfg: ExperimentConfig, path: Path) -> None:
    with open(path, "w") as fh:
        for key, value in config_to_flat(cfg).items():
            fh.write(f"{key} = {json.dumps(value)}\n")


def _scene(phantom_cfg: PhantomConfig, cloud: CloudParams, roi: RoiBox, dx: float,
           dy: float, trial_seed: int) -> SurfaceGrid:
    """The trial's registered skin: depth scan, filter, mesh, crop, grid.
    Its arguments are the scene's cache key; the scan is of a phantom
    without a tumor, so the tumor cannot enter."""
    m = cloud.margin
    region = ((roi.min_xy[0] - m, roi.min_xy[1] - m), (roi.max_xy[0] + m, roi.max_xy[1] + m))
    raw = Phantom(phantom_cfg).synth_depth_cloud(region, cloud.density, cloud.noise_sigma,
                                                 seed=[trial_seed, _CLOUD_STREAM])
    points = preprocess_cloud(raw, cloud.voxel, cloud.outlier_k, cloud.outlier_sigma)
    return interpolate_grid(crop_roi(mesh_from_cloud(points), roi), dx, dy)


def run_trial(cfg: ExperimentConfig, gt: PointCloud, trial: int,
              scenes: Optional[dict] = None) -> TrialOutcome:
    """One seeded end-to-end trial: scan, register, palpate, score.

    ``scenes`` maps a scene's inputs to the ``SurfaceGrid`` already built
    from them; a grid built here is added to it.  A scene that fails is not
    kept, so it fails every trial that asks for it.  ``scenes`` also keeps one
    memo per scene, under ``("memo", key)``, for ``run_policy``: its probe
    descents and BO picks.
    """
    trial_seed = cfg.seed + trial
    out = TrialOutcome(index=trial, seed=trial_seed, status="ok")
    key = (cfg.phantom, cfg.cloud, cfg.roi, cfg.grid_dx, cfg.grid_dy, trial_seed)
    memo = None if scenes is None else scenes.setdefault(("memo", key), {})
    scenes = {} if scenes is None else scenes
    try:
        if key not in scenes:
            scenes[key] = _scene(*key)
        grid = scenes[key]
        out.probes, out.trajs = run_policy(Phantom(cfg.phantom, cfg.tumor), grid, cfg,
                                           trial_seed, memo)
        recon = extract_contact_points(out.trajs, out.probes, cfg.probe)
        out.recon_points = recon.points
        out.report = fscore(recon, gt, cfg.r_eval)
    except PalpSimError as exc:
        out.status = type(exc).__name__
        out.message = str(exc)
    return out


def _csv_num(v: float) -> str:
    return f"{v:.9g}"


def _write_csv(path: Path, header: str, rows) -> None:
    path.write_text("".join(f"{line}\n" for line in (header, *rows)))


def _metrics_row(cfg: ExperimentConfig, t: TrialOutcome) -> str:
    rep = t.report
    return ",".join([
        cfg.condition, cfg.tumor.shape, cfg.strategy, cfg.mode, str(cfg.budget),
        str(t.index), str(t.seed), t.status,
        str(t.n_probes), str(sum(p.classified_tumor for p in t.probes)), str(len(t.trajs)),
        str(sum(len(tr) for tr in t.trajs)), str(t.n_recon),
        _csv_num(rep.precision) if rep else "",
        _csv_num(rep.recall) if rep else "",
        _csv_num(rep.fscore) if rep else "",
    ])


METRICS_HEADER = ("condition,shape,strategy,mode,budget,trial,seed,status,"
                  "n_probes,n_classified,n_trajectories,n_waypoints,n_recon,"
                  "precision,recall,fscore")
SUMMARY_HEADER = ("condition,shape,strategy,mode,kind,trials,failed,mean_F,max_F,"
                  "n_palpations")


def _summary_row(rep: ConditionReport) -> str:
    cfg = rep.config
    return ",".join([
        cfg.condition, cfg.tumor.shape, cfg.strategy, cfg.mode, "per_trial",
        str(len(rep.trials)), str(rep.n_failed),
        _csv_num(rep.mean_f) if rep.scored else "",
        _csv_num(rep.max_f) if rep.scored else "", str(cfg.budget),
    ])


def _f_text(rep: ConditionReport) -> str:
    """The F fields of the printed lines: ``n/a`` where ``summary.csv`` leaves them empty."""
    if not rep.scored:
        return "mean_F=n/a max_F=n/a"
    return f"mean_F={rep.mean_f:.3f} max_F={rep.max_f:.3f}"


def _write_trajectories(fh, trial: TrialOutcome) -> None:
    """One JSON line per probe, then one per contour waypoint, each the bytes
    ``json.dumps`` writes for its record: ``%r`` writes ``repr`` of the
    floats, as JSON does for every finite one.  All are finite: configs
    reject NaN and infinity, and the plant's speed guard (``NumericalBlowup``)
    stops a palpation before any position or force can become either."""
    def record(j: int, phase: str, outcome: str) -> str:
        return ('{"trial": %d, "palpation_index": %d, "t": %%r, "p": [%%r, %%r, %%r], '
                '"f": [%%r, %%r, %%r], "phase": "%s", "outcome": "%s"}\n'
                % (trial.index, j, phase, outcome))
    fh.writelines(record(j, "probe", "tumor" if res.classified_tumor else "no_tumor")
                  % (0.0, *res.contact_point.tolist(), *res.f_vec.tolist())
                  for j, res in enumerate(trial.probes))
    probe_index = {res.cell: j for j, res in enumerate(trial.probes)}
    for traj in trial.trajs:
        rows = np.column_stack([traj.times, traj.poses, traj.forces]).ravel().tolist()
        fh.write(record(probe_index.get(traj.start_cell, -1), "contour", traj.outcome)
                 * len(traj) % tuple(rows))


def _write_condition(rep: ConditionReport, out: Path) -> None:
    """Write every file of a finished condition into ``out``."""
    cfg = rep.config
    _write_config_echo(cfg, out / "config.txt")
    export_ply(rep.gt, out / "gt.ply")
    with open(out / "trajectories.jsonl", "w") as fh:
        for trial in rep.trials:
            _write_trajectories(fh, trial)
            if trial.recon_points is not None:
                recon = PointCloud(trial.recon_points)
                export_ply(recon, out / f"recon_{trial.index}.ply")
                try:
                    export_mesh_ply(reconstruct_mesh(recon),
                                    out / f"recon_mesh_{trial.index}.ply")
                except PalpSimError:
                    pass  # too few/degenerate points for a mesh
    _write_csv(out / "metrics.csv", METRICS_HEADER, [_metrics_row(cfg, t) for t in rep.trials])
    _write_csv(out / "summary.csv", SUMMARY_HEADER, [_summary_row(rep)])


def run_experiment(cfg: ExperimentConfig, out_dir=None, verbose: bool = True,
                   scenes: Optional[dict] = None) -> ConditionReport:
    """Run all trials of one condition, then write its files if ``out_dir`` is set.

    ``out_dir`` is made before the first trial and removed if one raises.
    Failed trials (e.g. an empty reconstruction on a degenerate budget)
    become failure rows and are excluded from mean/max; a condition with
    no scored trial leaves its ``summary.csv`` F cells empty.  ``scenes``
    is passed to every ``run_trial``, and also keeps each ground truth.
    """
    t0 = time.perf_counter()
    out = None if out_dir is None else Path(out_dir)
    made = [] if out is None else [p for p in (out, *out.parents) if not p.exists()]
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)  # an unwritable path fails before any trial
    gts = {} if scenes is None else scenes  # alone, trials get no dict and keep no grid
    key = (cfg.phantom, cfg.tumor, cfg.gt_samples, cfg.seed)
    trials: list[TrialOutcome] = []
    try:
        gt = gts[key] = gts[key] if key in gts else _ground_truth(cfg)
        for i in range(cfg.trials):
            trial = run_trial(cfg, gt, i, scenes=scenes)
            trials.append(trial)
            if verbose:
                f = trial.report.fscore if trial.report else float("nan")
                print(f"[{cfg.condition}] trial {i}: status={trial.status} "
                      f"recon={trial.n_recon} F={f:.3f}")
    except BaseException:
        for p in made:
            p.rmdir()
        raise
    ok = [t.report for t in trials if t.report is not None]
    mean_f, max_f = aggregate_trials(ok) if ok else (0.0, 0.0)
    rep = ConditionReport(cfg, trials, gt, mean_f, max_f,
                          n_failed=sum(1 for t in trials if t.status != "ok"),
                          wall_time=time.perf_counter() - t0)
    if out is not None:
        _write_condition(rep, out)
    if verbose:
        print(f"[{cfg.condition}] {_f_text(rep)} ({rep.wall_time:.1f}s)")
    return rep


@dataclass
class MatrixReport:
    conditions: list[ConditionReport]
    combined: dict[str, FScoreReport]       # shape -> pooled-cloud score


def run_matrix(cfgs: list[ExperimentConfig], out_dir=None,
               verbose: bool = True) -> MatrixReport:
    """Run every condition and emit one summary table.

    One call shares, between the conditions that read the same inputs:
    scenes, ground truths, probe descents and BO picks.  Each trial's scene
    (scan and registration, see ``_scene``) is built once and shared by every
    condition with the same phantom, cloud, ROI and grid steps: the scan never
    sees the tumor, so the shapes and the strategy x mode conditions of a trial
    index palpate one grid.  Each ground truth is sampled once, at the first
    condition that needs it.  Per scene, each probe descent is computed once
    and each BO pick's posterior scanned once (see ``run_trial``): twins probe
    the same cells, so the second of a BO pair scans nothing, and BO lands on
    cells random search probed.  The first condition makes ``out_dir``, before
    its first trial; each condition writes the subdirectory named after it, so
    with an ``out_dir`` no two may share a name.  Adds a pooled "combined" row
    per shape: all reconstruction points from all that shape's trials scored
    against the ground truth once.
    """
    if not cfgs:
        raise Empty("no experiment configs given")
    out_path = Path(out_dir) if out_dir is not None else None
    names = [cfg.condition for cfg in cfgs]
    twice = sorted({name for name in names if names.count(name) > 1})
    if out_path is not None and twice:
        raise ConfigInvalid(f"condition names repeat: {twice}; each writes its own directory")
    scenes: dict = {}
    reports = [run_experiment(cfg, out_path / cfg.condition if out_path is not None else None,
                              verbose=verbose, scenes=scenes) for cfg in cfgs]

    combined: dict[str, FScoreReport] = {}
    by_shape: dict[str, list[ConditionReport]] = {}
    for rep in reports:
        by_shape.setdefault(rep.config.tumor.shape, []).append(rep)
    for shape, shape_reports in by_shape.items():
        points = [t.recon_points for rep in shape_reports for t in rep.trials
                  if t.recon_points is not None]
        if points:
            rep0 = shape_reports[0]
            combined[shape] = fscore(PointCloud(np.vstack(points)), rep0.gt, rep0.config.r_eval)

    if out_path is not None:
        _write_csv(out_path / "metrics.csv", METRICS_HEADER,
                   [_metrics_row(rep.config, t) for rep in reports for t in rep.trials])
        rows = [_summary_row(rep) for rep in reports]
        for shape in sorted(combined):
            n_palp = sum(r.config.budget * r.config.trials for r in by_shape[shape])
            rows.append(f"combined,{shape},,,combined,,,{_csv_num(combined[shape].fscore)},,"
                        f"{n_palp}")
        _write_csv(out_path / "summary.csv", SUMMARY_HEADER, rows)
    if verbose:
        for rep in reports:
            print(f"{rep.config.condition:28s} {_f_text(rep)}")
        for shape, score in sorted(combined.items()):
            print(f"combined[{shape}]: F={score.fscore:.3f}")
    return MatrixReport(reports, combined)
