import argparse
import io
import json
import math
import re
import sys
from dataclasses import fields, is_dataclass, replace
from operator import attrgetter
from pathlib import Path
from types import SimpleNamespace
from typing import get_args, get_origin, get_type_hints
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from palpsim import (
    CalibrationParams,
    CloudParams,
    ControllerGains,
    ExperimentConfig,
    GPHyper,
    GPModel,
    PalpationTrajectory,
    Phantom,
    PhantomConfig,
    PointCloud,
    ProbeParams,
    ProbePlant,
    ProbeResult,
    RoiBox,
    SurfaceProfile,
    TumorGeometry,
    config_from_flat,
    default_config,
    export_ply,
    load_config_file,
    read_ply,
    run_experiment,
    run_matrix,
    table1_matrix,
)
from palpsim.experiment import (
    _KEYS,
    ConditionReport,
    MatrixReport,
    TrialOutcome,
    _with_values,
    _write_config_echo,
    _write_trajectories,
    config_to_flat,
    matrix_configs,
)
from palpsim import cli, experiment, ply, policy, search
from palpsim.cli import main as cli_main
from palpsim.errors import (
    ConfigInvalid,
    EmptyCloud,
    MalformedPly,
    OutOfRange,
    PalpSimError,
    ResolutionTooCoarse,
)


def small_config(**kw):
    """Cheap config for harness tests: few trials, small budget."""
    cfg = default_config(kw.pop("shape", "hemisphere"),
                         kw.pop("strategy", "bo"),
                         kw.pop("mode", "cf"),
                         seed=kw.pop("seed", 5),
                         trials=kw.pop("trials", 2),
                         budget=kw.pop("budget", 12))
    return replace(cfg, **kw) if kw else cfg


# positive floats, some integral so that the echo holds whole numbers
POSITIVE = st.one_of(st.floats(1e-4, 1e4), st.integers(1, 10**4).map(float))


def drawn(cls, **given_fields):
    """Strategy for a ``cls`` with every field drawn: nested dataclasses
    recursively, the rest by type.  ``given_fields`` holds the strategies for
    fields whose valid values depend on each other."""
    hints = get_type_hints(cls)
    kw = {}
    for f in fields(cls):
        tp = hints[f.name]
        if f.name in given_fields:
            kw[f.name] = given_fields[f.name]
        elif is_dataclass(tp):
            kw[f.name] = drawn(tp)
        elif get_origin(tp) is tuple:
            kw[f.name] = st.tuples(*[POSITIVE] * len(get_args(tp)))
        else:
            kw[f.name] = {float: POSITIVE, int: st.integers(1, 10**6), str: st.text()}[tp]
    return st.builds(cls, **kw)


# tumor heights below the layer thickness range, so every tumor fits under its stack
HEIGHT = st.floats(1e-6, 1e-4)

CONFIGS = drawn(
    ExperimentConfig,
    label=st.text().filter(lambda s: not any(c in s for c in ',"\r\n')),
    strategy=st.sampled_from(["bo", "rs"]),
    mode=st.sampled_from(["cf", "discrete"]),
    n_init=st.integers(2, 10**6),
    phantom=drawn(
        PhantomConfig,
        k_fat=st.floats(1.0, 99.0), k_skin=st.floats(100.0, 999.0),
        k_muscle=st.floats(1e3, 9999.0), k_tumor=st.one_of(st.floats(1e4, 1e6), st.just(30000.0)),
        surface_profile=drawn(SurfaceProfile,
                              kind=st.sampled_from(["flat", "cyl_bump", "gauss_bump"]))),
    # the crescent's inner cut radius, radius - width + inner_offset, must stay > 0
    tumor=drawn(TumorGeometry, shape=st.sampled_from(["hemisphere", "ellipsoid", "crescent"]),
                width=st.floats(1e-6, 5e-5), radius=HEIGHT, top_height=HEIGHT,
                semi_axes=st.tuples(POSITIVE, POSITIVE, HEIGHT)),
    roi=st.builds(RoiBox, st.tuples(POSITIVE, POSITIVE).map(lambda xy: (-xy[0], -xy[1])),
                  st.tuples(POSITIVE, POSITIVE)),
)


DEFAULT = default_config()
NUMERIC = [key for key, (_, tp) in _KEYS.items() if tp in (int, float) or get_origin(tp) is tuple]
# numeric leaves that declare no bound; a new field must either declare one or be listed here
UNBOUNDED = {"phantom.k_skin", "phantom.k_fat", "phantom.k_muscle", "phantom.k_tumor",
             "phantom.muscle_plane_z", "tumor.inner_offset", "tumor.center_xy", "cal.z_offset",
             "probe.gravity_residual", "roi.min", "roi.max"}


def owner_and_field(key: str):
    """The dataclass in ``DEFAULT`` that holds file key ``key``, and that key's field."""
    owner_path, _, name = _KEYS[key][0].rpartition(".")
    owner = attrgetter(owner_path)(DEFAULT) if owner_path else DEFAULT
    return owner, next(f for f in fields(owner) if f.name == name)


def with_component(old, i, x):
    """``x``, or tuple ``old`` with component ``i`` replaced by ``x``."""
    return x if i is None else old[:i] + (x,) + old[i + 1:]


def slots(key: str) -> list:
    """Component indices of ``key``'s value: ``[None]`` for a scalar."""
    value = attrgetter(_KEYS[key][0])(DEFAULT)
    return list(range(len(value))) if isinstance(value, tuple) else [None]


def past_bound(key: str) -> list:
    """Values at or just past the declared bound of ``key``, one component at a time."""
    owner, f = owner_and_field(key)
    op, lo = f.metadata["bound"]
    old = getattr(owner, f.name)
    bad = [lo - 1] if isinstance(old, int) else [math.nextafter(lo, -math.inf), lo - 0.01]
    bad += [lo] if op == ">" else []
    return [with_component(old, i, x) for i in slots(key) for x in bad]


def readme_key_block() -> str:
    """The README's block of every config key with its default."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    return readme.split("Every key, with its default:\n\n```\n", 1)[1].split("```", 1)[0]


class TestConfigFile:
    def test_parse_and_build(self, tmp_path):
        text = """
        # comment
        shape = crescent
        strategy = rs
        trials = 3
        seed = 11
        phantom.k_tumor = 30000
        tumor.radius = 0.012
        roi.min = [-0.025, -0.025]
        roi.max = [0.025, 0.025]
        gains.k_p = 1200
        probe.f_thres = 5.5
        gp.length_scale = 4.0
        gp.xi = 2.0
        """
        path = tmp_path / "exp.cfg"
        path.write_text("\n".join(l.strip() for l in text.splitlines()))
        cfg = config_from_flat(load_config_file(path))
        assert cfg.tumor.shape == "crescent"
        assert cfg.strategy == "rs"
        assert cfg.trials == 3
        assert cfg.seed == 11
        assert cfg.budget == 80  # crescent default
        assert cfg.phantom.k_tumor == 30000
        assert cfg.tumor.radius == 0.012
        assert cfg.roi.min_xy == (-0.025, -0.025)
        assert cfg.gains.k_p == 1200
        assert cfg.probe.f_thres == 5.5
        assert cfg.hyper.length_scale == 4.0
        assert cfg.xi == 2.0

    def test_repeated_key_rejected(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("seed = 3\n# a comment\nbudget = 5\n seed = 4\n")
        with pytest.raises(ConfigInvalid,
                           match=f"{re.escape(str(path))}:4: config key 'seed' repeats line 1"):
            load_config_file(path)

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            config_from_flat({"nonsense": 1})
        with pytest.raises(ValueError):
            config_from_flat({"widget.k": 1})
        for key, value in (("roi.min_xy", [0, 0]), ("grid.dz", 1), ("gp.jitter", 1e-9),
                           ("cal.resultant_mode", "norm")):
            with pytest.raises(ValueError, match="unknown config key"):
                config_from_flat({key: value})

    def test_readme_key_block_lists_every_key_with_its_default(self, tmp_path):
        path = tmp_path / "keys.cfg"
        path.write_text(readme_key_block())
        listed = [(key, tuple(v) if isinstance(v, list) else v)
                  for key, v in load_config_file(path).items()]
        assert listed == list(config_to_flat(default_config()).items())

    def test_readme_key_block_notes_the_declared_bounds(self):
        notes = {line.split("=", 1)[0].strip(): re.findall(r"(>=?) (\d+)", line.split("#", 1)[1])
                 for line in readme_key_block().splitlines() if "#" in line}
        for key in NUMERIC:
            bound = owner_and_field(key)[1].metadata.get("bound")
            assert notes.get(key, []) == ([(bound[0], str(bound[1]))] if bound else []), key

    def test_readme_key_block_notes_the_choices(self):
        notes = {line.split("=", 1)[0].strip():
                 [v.strip() for v in line.split("#", 1)[1].split("|")]
                 for line in readme_key_block().splitlines() if "|" in line}
        assert sorted(notes) == ["mode", "phantom.profile", "shape", "strategy"]
        for key, listed in notes.items():
            for value in listed:
                assert config_to_flat(config_from_flat({key: value}))[key] == value
            for value in ("other", *(v.upper() for v in listed)):
                with pytest.raises(ConfigInvalid, match=f"'{value}'"):
                    config_from_flat({key: value})
        parser = argparse.ArgumentParser()
        cli._add_common(parser)
        flags = {a.dest: list(a.choices) for a in parser._actions if a.choices is not None}
        assert flags == {key: notes[key] for key in ("shape", "strategy", "mode")}

    def test_values_cast_to_field_types(self):
        cfg = config_from_flat({"shape": "crescent", "budget": "17", "seed": "3"})
        assert (cfg.budget, cfg.seed) == (17, 3)
        for bad in ({"budget": "many"}, {"roi.min": [0.0]}, {"tumor.radius": [1.0]}):
            with pytest.raises(ConfigInvalid):
                config_from_flat(bad)

    @settings(max_examples=150, deadline=None)
    @given(cfg=CONFIGS)
    def test_echo_reloads_equal(self, tmp_path_factory, cfg):
        path = tmp_path_factory.mktemp("echo") / "config.txt"
        _write_config_echo(cfg, path)
        flat = load_config_file(path)
        assert config_from_flat(flat) == cfg
        # whole-number floats written as JSON ints are cast back to float
        ints = {k: int(v) if isinstance(v, float) and v.is_integer() else v
                for k, v in flat.items()}
        assert repr(config_from_flat(ints)) == repr(cfg)

    def test_int_fields_reject_fractions(self):
        cfg = config_from_flat({"budget": 17.0, "probe.ticks_per_stroke": "9"})
        assert (cfg.budget, cfg.probe.ticks_per_stroke) == (17, 9)
        for key, value in (("budget", 17.9), ("probe.ticks_per_stroke", 2.5),
                           ("trials", "2.5"), ("seed", float("inf"))):
            with pytest.raises(ConfigInvalid, match=f"config key '{key}'"):
                config_from_flat({key: value})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_floats_rejected(self, bad):
        defaults = config_to_flat(default_config())
        for key, (_, tp) in _KEYS.items():
            if tp is float:
                cases = [bad]
            elif get_origin(tp) is tuple:
                d = defaults[key]
                cases = [d[:i] + (bad,) + d[i + 1:] for i in range(len(d))]
            else:
                continue
            for value in cases:
                with pytest.raises(ConfigInvalid, match=f"config key '{key}': .* is not finite"):
                    config_from_flat({key: value})

    @pytest.mark.parametrize("value", [True, False])
    def test_booleans_rejected_for_numbers(self, value):
        for key in NUMERIC:
            for i in slots(key):
                case = with_component(attrgetter(_KEYS[key][0])(DEFAULT), i, value)
                with pytest.raises(ConfigInvalid,
                                   match=f"config key '{key}': {value} is not a number"):
                    config_from_flat({key: case})

    @pytest.mark.parametrize("value", [[1], True, None, 3, 0.5])
    def test_non_strings_rejected_for_strings(self, value):
        keys = [key for key, (_, tp) in _KEYS.items() if tp is str]
        assert set(keys) == {"label", "strategy", "mode", "shape", "phantom.profile"}
        for key in keys:
            with pytest.raises(ConfigInvalid,
                               match=re.escape(f"config key '{key}': {value!r} is not a string")):
                config_from_flat({key: value})

    @pytest.mark.parametrize("key", ["strategy", "mode"])
    def test_unknown_strategy_or_mode_rejected(self, key):
        with pytest.raises(ConfigInvalid, match=f"unknown {key} 'xx'"):
            config_from_flat({key: "xx", "trials": 1, "budget": 3})
        with pytest.raises(ConfigInvalid):
            ExperimentConfig(**{key: "xx"})

    @pytest.mark.parametrize("label", ["a,b", 'a"b', "a\rb", "a\nb"])
    def test_label_that_breaks_a_csv_row_rejected(self, label):
        with pytest.raises(ConfigInvalid, match="holds a comma, quote or line break"):
            config_from_flat({"label": label})

    def test_tumor_taller_than_the_stack_rejected_when_built(self):
        good = small_config(trials=1, budget=8)
        with pytest.raises(ConfigInvalid, match="tumor height 0.05 exceeds soft-stack depth"):
            replace(good, tumor=replace(good.tumor, radius=0.05), label="bad_condition")
        with pytest.raises(ConfigInvalid,
                           match="tumor height 0.01 exceeds soft-stack depth 0.008"):
            config_from_flat({"phantom.fat_thickness": 0.004})

    def test_flag_style_overrides(self):
        cfg = config_from_flat({"shape": "hemisphere", "budget": 17, "mode": "discrete"})
        assert cfg.budget == 17
        assert cfg.mode == "discrete"

    def test_default_config_is_the_dataclass_default(self):
        assert default_config() == ExperimentConfig()


class TestRunExperiment:
    def test_outputs_and_aggregates(self, tmp_path):
        cfg = small_config()
        rep = run_experiment(cfg, tmp_path, verbose=False)
        assert len(rep.trials) == cfg.trials
        assert (tmp_path / "gt.ply").exists()
        assert (tmp_path / "trajectories.jsonl").exists()
        assert (tmp_path / "metrics.csv").exists()
        assert (tmp_path / "summary.csv").exists()
        for t in rep.trials:
            if t.status == "ok":
                assert (tmp_path / f"recon_{t.index}.ply").exists()
        # summary mean/max equal recomputation from per-trial rows
        rows = (tmp_path / "metrics.csv").read_text().strip().splitlines()[1:]
        scores = [float(r.split(",")[-1]) for r in rows if r.split(",")[7] == "ok"]
        assert rep.mean_f == pytest.approx(np.mean(scores), abs=1e-9)
        assert rep.max_f == pytest.approx(max(scores), abs=1e-9)

    def test_a_condition_that_stops_leaves_no_directory(self, tmp_path, monkeypatch):
        run_trial = experiment.run_trial

        def stop_at_trial_1(cfg, gt, trial, scenes=None):
            if trial == 1:
                raise RuntimeError("stopped at trial 1")
            return run_trial(cfg, gt, trial, scenes=scenes)

        monkeypatch.setattr(experiment, "run_trial", stop_at_trial_1)
        with pytest.raises(RuntimeError, match="stopped at trial 1"):
            run_experiment(small_config(trials=2, budget=6), tmp_path / "out", verbose=False)
        assert not (tmp_path / "out").exists()

    def test_trajectory_log_schema(self, tmp_path):
        run_experiment(small_config(trials=1), tmp_path, verbose=False)
        lines = (tmp_path / "trajectories.jsonl").read_text().strip().splitlines()
        assert lines
        for line in lines:
            rec = json.loads(line)
            assert set(rec) == {"trial", "palpation_index", "t", "p", "f",
                                "phase", "outcome"}
            assert rec["phase"] in ("probe", "contour")
            assert len(rec["p"]) == 3 and len(rec["f"]) == 3

    def test_off_tumor_failure_row_continues(self, tmp_path):
        cfg = small_config(trials=1, budget=1, mode="discrete")
        cfg = replace(cfg, tumor=replace(cfg.tumor, center_xy=(0.05, 0.05)),
                      roi=cfg.roi)  # tumor entirely outside the ROI
        rep = run_experiment(cfg, tmp_path, verbose=False)
        assert rep.n_failed == 1
        assert rep.trials[0].status == "EmptyReconstruction"
        rows = (tmp_path / "metrics.csv").read_text().strip().splitlines()
        row = rows[1].split(",")
        assert row[7] == "EmptyReconstruction"
        # the palpation ran, only scoring failed: its counts are still reported
        # (n_probes, n_classified, n_trajectories, n_waypoints, n_recon)
        assert row[8:13] == [str(cfg.budget), "0", "0", "0", "0"]

    def test_singular_kernel_fails_a_trial_that_never_picks_by_bo(self):
        # budget = n_init: every cell is drawn at random, and no EI scan reads the GP
        cfg = small_config(trials=1, budget=3, mode="discrete", n_init=3,
                           hyper=GPHyper(length_scale=1e9, signal_var=1e8, noise_var=0.0))
        out = experiment.run_trial(cfg, experiment._ground_truth(cfg), 0)
        assert out.status == "SingularKernel"
        assert out.message.startswith("kernel not positive definite at cell")

    def test_an_invalid_cell_fails_a_trial_with_its_message_unquoted(self, monkeypatch):
        # every random draw returns the first cell, so the GP's second add repeats it
        draw, cells = policy.next_cell_random, []

        def first_cell(grid, free, rng):
            cells.append(cells[0] if cells else draw(grid, free, rng))
            return cells[-1]

        monkeypatch.setattr(policy, "next_cell_random", first_cell)
        cfg = small_config(trials=1, budget=3, mode="discrete")
        out = experiment.run_trial(cfg, experiment._ground_truth(cfg), 0)
        assert (out.status, out.message) == ("InvalidCell", f"cell {cells[0]} is already sampled")

    def test_unscored_condition_leaves_its_f_cells_empty(self, tmp_path):
        cfg = small_config(trials=1, budget=1, mode="discrete")
        cfg = replace(cfg, tumor=replace(cfg.tumor, center_xy=(0.05, 0.05)))
        rep = run_experiment(cfg, tmp_path, verbose=False)
        assert not rep.scored
        assert (tmp_path / "summary.csv").read_text().splitlines()[1] == \
            "bo_discrete_hemisphere,hemisphere,bo,discrete,per_trial,1,1,,,1"

    def test_byte_identical_reruns(self, tmp_path):
        cfg = small_config(trials=2, budget=10)
        run_experiment(cfg, tmp_path / "a", verbose=False)
        run_experiment(cfg, tmp_path / "b", verbose=False)
        for name in ("metrics.csv", "summary.csv", "gt.ply", "trajectories.jsonl",
                     "config.txt"):
            assert (tmp_path / "a" / name).read_bytes() == \
                   (tmp_path / "b" / name).read_bytes(), name

    def test_config_echo_round_trip(self, tmp_path):
        cfg = small_config(trials=1, budget=10)
        run_experiment(cfg, tmp_path, verbose=False)
        back = config_from_flat(load_config_file(tmp_path / "config.txt"))
        assert back.phantom == cfg.phantom
        assert back.tumor == cfg.tumor
        assert back.probe == cfg.probe
        assert back.gains == cfg.gains
        assert back.cal == cfg.cal
        assert back.hyper == cfg.hyper
        assert (back.strategy, back.mode, back.budget, back.seed) == \
               (cfg.strategy, cfg.mode, cfg.budget, cfg.seed)

    @pytest.mark.parametrize("label", ["", "faults"])
    def test_fault_config_echo_reloads_equal(self, tmp_path, label):
        # the sensing faults of the cf_faults benchmark workload, all off
        # their defaults
        cfg = small_config(shape="ellipsoid", strategy="rs", trials=1, budget=3,
                           label=label)
        cfg = replace(cfg,
                      cal=replace(cfg.cal, angle_noise=0.02),
                      probe=replace(cfg.probe, gravity_residual=(0.01, 0.0, 0.02)),
                      cloud=replace(cfg.cloud, noise_sigma=0.001))
        run_experiment(cfg, tmp_path, verbose=False)
        assert config_from_flat(load_config_file(tmp_path / "config.txt")) == cfg


class TestDeclaredRanges:
    def test_every_numeric_leaf_declares_a_bound_or_is_listed_unbounded(self):
        unbounded = {key for key in NUMERIC if "bound" not in owner_and_field(key)[1].metadata}
        assert unbounded == UNBOUNDED

    @pytest.mark.parametrize("key", [key for key in NUMERIC if key not in UNBOUNDED])
    def test_value_past_the_bound_is_out_of_range(self, key):
        owner, f = owner_and_field(key)
        op, lo = f.metadata["bound"]
        message = rf"^{f.name}(\[\d\])? must be {re.escape(op)} {lo}, got "
        for value in past_bound(key):
            with pytest.raises(OutOfRange, match=message):
                config_from_flat({key: value})
            with pytest.raises(OutOfRange, match=message):
                replace(owner, **{f.name: value})

    @pytest.mark.parametrize("key", [key for key in NUMERIC if key not in UNBOUNDED
                                     and owner_and_field(key)[1].metadata["bound"][0] == ">="])
    def test_value_at_an_at_least_bound_is_accepted(self, key):
        owner, f = owner_and_field(key)
        lo = f.metadata["bound"][1]
        for i in slots(key):
            value = with_component(getattr(owner, f.name), i, lo)
            assert config_to_flat(config_from_flat({key: value}))[key] == value
            assert getattr(replace(owner, **{f.name: value}), f.name) == value

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("key", NUMERIC)
    def test_non_finite_value_built_directly_is_out_of_range(self, key, bad):
        owner, f = owner_and_field(key)
        for i in slots(key):
            name = f.name if i is None else f"{f.name}[{i}]"
            with pytest.raises(OutOfRange, match=rf"^{re.escape(name)} must be finite, got "):
                replace(owner, **{f.name: with_component(getattr(owner, f.name), i, bad)})

    @pytest.mark.parametrize("key,i", [(key, i) for key in NUMERIC if _KEYS[key][1] is not int
                                       for i in slots(key)])
    @settings(max_examples=20, deadline=None)
    @given(shape=st.sampled_from(["hemisphere", "ellipsoid", "crescent"]),
           x=st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, -5e-324]),
                       st.floats()))
    def test_a_config_that_builds_has_an_echo_that_reloads_equal(self, tmp_path_factory,
                                                                 key, i, shape, x):
        base = default_config(shape)
        path = _KEYS[key][0]
        try:
            cfg = _with_values(base, {path: with_component(attrgetter(path)(base), i, x)})
        except PalpSimError:
            return
        echo = tmp_path_factory.mktemp("echo") / "config.txt"
        _write_config_echo(cfg, echo)
        assert config_from_flat(load_config_file(echo)) == cfg


class TestRunMatrix:
    def test_summary_rows_and_combined(self, tmp_path):
        cfgs = [small_config(strategy=s, mode=m, trials=1, budget=10)
                for s in ("bo", "rs") for m in ("cf", "discrete")]
        rep = run_matrix(cfgs, tmp_path, verbose=False)
        assert len(rep.conditions) == 4
        assert "hemisphere" in rep.combined
        lines = (tmp_path / "summary.csv").read_text().strip().splitlines()
        kinds = [l.split(",")[4] for l in lines[1:]]
        assert kinds.count("per_trial") == 4
        assert kinds.count("combined") == 1
        score = rep.combined["hemisphere"].fscore
        assert lines[-1] == f"combined,hemisphere,,,combined,,,{score:.9g},,40"
        assert (tmp_path / "metrics.csv").exists()

    def test_empty_rejected(self):
        with pytest.raises(Exception):
            run_matrix([], None, verbose=False)

    def test_a_shared_condition_name_is_rejected_before_any_trial(self, tmp_path):
        cfg = small_config(strategy="rs", trials=1, budget=4)
        out = tmp_path / "out"
        with pytest.raises(ConfigInvalid, match=r"names repeat: \['rs_cf_hemisphere'\]"):
            run_matrix([cfg, replace(cfg, budget=6)], out, verbose=False)
        assert not out.exists()  # the first condition makes it before its first trial

    def test_vertex_normals_are_computed_once_per_written_mesh(self, tmp_path, monkeypatch):
        count = [0]

        def wrap(orig):
            def counted(*a):
                count[0] += 1
                return orig(*a)
            return counted

        _wrap_everywhere(monkeypatch, "_vertex_normals", wrap, ply)
        run_experiment(small_config(), None, verbose=False)
        assert count == [0]
        run_matrix(table1_matrix(seed=7, trials=2), tmp_path, verbose=False)
        assert count == [len(list(tmp_path.rglob("recon_mesh_*.ply")))] == [16]


def _scene_key(cfg, trial_seed):
    return (cfg.phantom, cfg.cloud, cfg.roi, cfg.grid_dx, cfg.grid_dy, trial_seed)


def _scene_calls(monkeypatch):
    """Record every ``_scene`` call as its key and every grid ``run_policy``
    palpates as (grid, trial seed), both in call order."""
    scenes, grids = [], []
    build, policy = experiment._scene, experiment.run_policy

    def scene(*key):
        scenes.append(key)
        return build(*key)

    def run_policy(phantom, grid, *a, **k):
        grids.append((grid, a[1]))  # a[1]: the trial seed
        return policy(phantom, grid, *a, **k)

    monkeypatch.setattr(experiment, "_scene", scene)
    monkeypatch.setattr(experiment, "run_policy", run_policy)
    return scenes, grids


def _same_grid(a, b) -> bool:
    """Equal lattices and equal arrays; cells outside the hull hold NaN in both."""
    return (a.origin_xy, a.dx, a.dy, a._rows) == (b.origin_xy, b.dx, b.dy, b._rows) and all(
        np.array_equal(getattr(a, name), getattr(b, name), equal_nan=True)
        for name in ("height", "normal", "valid_mask"))


class TestSharedScene:
    """``run_matrix`` builds each trial's scene once and shares it."""

    @pytest.fixture(scope="class")
    def matrix(self):
        cfgs = [small_config(shape=shape, strategy=strategy, mode=mode, trials=2, budget=4)
                for shape in ("hemisphere", "crescent") for strategy in ("rs", "bo")
                for mode in ("cf", "discrete")]
        with pytest.MonkeyPatch.context() as mp:
            scenes, grids = _scene_calls(mp)
            rep = run_matrix(cfgs, None, verbose=False)
        return cfgs, rep, scenes, grids

    def test_every_shared_grid_equals_a_fresh_build(self, matrix):
        cfgs, rep, _, grids = matrix
        assert [t.status for c in rep.conditions for t in c.trials] == ["ok"] * 16
        assert len(grids) == 16
        calls = [(cfg, cfg.seed + i) for cfg in cfgs for i in range(cfg.trials)]
        for (cfg, trial_seed), (grid, seed) in zip(calls, grids):
            assert seed == trial_seed
            fresh = experiment._scene(*_scene_key(cfg, trial_seed))
            assert fresh is not grid and _same_grid(fresh, grid)

    def test_one_scene_per_distinct_key(self, matrix):
        cfgs, _, scenes, grids = matrix
        # the shapes differ only in the tumor, so all 8 conditions share a trial's grid
        assert scenes == [_scene_key(cfgs[0], 5), _scene_key(cfgs[0], 6)]
        assert len({id(grid) for grid, _ in grids}) == 2
        assert all(grid is grids[seed - 5][0] for grid, seed in grids)

    @pytest.mark.parametrize("change", [
        {"grid_dx": 0.0025},
        {"grid_dy": 0.0025},
        {"cloud": CloudParams(noise_sigma=0.0008)},
        {"roi": RoiBox((-0.02, -0.02), (0.02, 0.018))},
        {"phantom": PhantomConfig(fat_thickness=0.02)},
    ], ids=["grid_dx", "grid_dy", "cloud.noise_sigma", "roi", "phantom"])
    def test_a_change_to_a_scene_input_builds_a_new_grid(self, monkeypatch, change):
        cfg = small_config(mode="discrete", trials=1, budget=2)
        scenes, grids = _scene_calls(monkeypatch)
        run_matrix([cfg, replace(cfg, **change)], None, verbose=False)
        assert len(scenes) == 2
        (a, _), (b, _) = grids
        assert a is not b and not _same_grid(a, b)

    def test_a_change_outside_the_scene_shares_the_grid(self, monkeypatch):
        cfg = small_config(mode="discrete", trials=1, budget=2)
        other = replace(cfg, strategy="rs", budget=3, r_eval=0.004,
                        tumor=TumorGeometry(shape="crescent"))
        scenes, grids = _scene_calls(monkeypatch)
        run_matrix([cfg, other], None, verbose=False)
        assert len(scenes) == 1
        assert grids[0][0] is grids[1][0]

    def test_a_failed_scene_is_not_shared(self, monkeypatch):
        calls = []

        def scene(*key):
            calls.append(key[-1])
            raise ResolutionTooCoarse("no valid grid cells")

        monkeypatch.setattr(experiment, "_scene", scene)
        cfg = small_config(trials=1)
        rep = run_matrix([cfg, replace(cfg, strategy="rs")], None, verbose=False)
        assert calls == [5, 5]
        assert [(t.status, t.message) for c in rep.conditions for t in c.trials] == \
            [("ResolutionTooCoarse", "no valid grid cells")] * 2

    def test_run_experiment_alone_shares_nothing(self, monkeypatch):
        cfg = small_config(mode="discrete", trials=1, budget=2)
        scenes, grids = _scene_calls(monkeypatch)
        run_experiment(cfg, None, verbose=False)
        run_experiment(cfg, None, verbose=False)
        assert len(scenes) == 2 and grids[0][0] is not grids[1][0]


def _wrap_everywhere(mp, name, make, module=policy) -> None:
    """Wrap ``module.<name>`` in every palpsim module that imported it, the way
    perfbench's ``Patches.function`` does."""
    orig = getattr(module, name)
    wrapped = make(orig)
    for mod in list(sys.modules.values()):
        if (getattr(mod, "__name__", "").partition(".")[0] == "palpsim"
                and getattr(mod, name, None) is orig):
            mp.setattr(mod, name, wrapped)


def _count_descents(mp) -> list[int]:
    """A one-item list that counts the descents ``probe_cell`` computes."""
    count, descend = [0], policy._descend

    def counted(*a):
        count[0] += 1
        return descend(*a)

    mp.setattr(policy, "_descend", counted)
    return count


def _count_scans(mp) -> list[int]:
    """A one-item list that counts the posterior scans ``next_cell_bo`` makes."""
    count, predict_grid = [0], GPModel.predict_grid

    def counted(gp, grid):
        count[0] += 1
        return predict_grid(gp, grid)

    mp.setattr(GPModel, "predict_grid", counted)
    return count


def _probe_bytes(res) -> dict:
    return {name: np.asarray(value).tobytes() for name, value in vars(res).items()}


def _trial_bytes(t: TrialOutcome) -> tuple:
    """Everything a trial computed, as bytes."""
    rep = t.report
    return (t.status, t.message, [_probe_bytes(p) for p in t.probes],
            [(tr.times.tobytes(), tr.poses.tobytes(), tr.forces.tobytes(), tr.outcome,
              tr.start_cell, np.asarray(tr.direction).tobytes(), tr.tip_normal.tobytes())
             for tr in t.trajs],
            None if t.recon_points is None else t.recon_points.tobytes(),
            None if rep is None else np.array([rep.precision, rep.recall, rep.fscore]).tobytes())


def _shared_and_alone(cfgs, mp) -> tuple:
    """``run_matrix(cfgs)`` and each condition run alone, with the descents
    computed and the posteriors scanned by each."""
    descents, scans = _count_descents(mp), _count_scans(mp)
    rep = run_matrix(cfgs, None, verbose=False)
    shared = descents[0], scans[0]
    descents[0] = scans[0] = 0
    alone = [run_experiment(cfg, None, verbose=False) for cfg in cfgs]
    return rep, shared, alone, (descents[0], scans[0])


class TestSharedDescents:
    """``run_matrix`` computes each probe descent and scans each BO posterior
    once per call, while every budgeted probe is still one ``probe_cell`` call
    and every BO pick one ``next_cell_bo`` call inside one ``run_policy`` call
    per trial: perfbench times each palpation between those calls, and the GP
    search inside ``next_cell_bo``."""

    @pytest.fixture(scope="class")
    def matrix(self):
        cfgs = table1_matrix(seed=7, trials=2)
        calls = []  # [trial of the run_policy call, probe_cell calls inside it]
        picks = []  # (samples in the GP, probed valid cells by the free mask) per BO pick

        def wrap_policy(orig):
            def run_policy(phantom, grid, cfg, seed, *a, **k):
                calls.append([(cfg.condition, seed), 0])
                return orig(phantom, grid, cfg, seed, *a, **k)
            return run_policy

        def wrap_probe(orig):
            def probe_cell(*a, **k):
                calls[-1][1] += 1
                return orig(*a, **k)
            return probe_cell

        def wrap_bo(orig):
            def next_cell_bo(*a, **k):  # perfbench reads the free mask as a[2]
                mask = a[1].valid_mask
                picks.append((a[0].n, int(mask.sum() - (a[2] & mask).sum())))
                return orig(*a, **k)
            return next_cell_bo

        with pytest.MonkeyPatch.context() as mp:
            _wrap_everywhere(mp, "run_policy", wrap_policy)
            _wrap_everywhere(mp, "probe_cell", wrap_probe)
            _wrap_everywhere(mp, "next_cell_bo", wrap_bo, search)
            rep, shared, alone, fresh = _shared_and_alone(cfgs, mp)
        # the first half of each record is the matrix's, the second the conditions' alone
        return SimpleNamespace(cfgs=cfgs, rep=rep, shared=shared, alone=alone, fresh=fresh,
                               calls=calls[:len(calls) // 2], fresh_calls=calls[len(calls) // 2:],
                               picks=picks[:len(picks) // 2], fresh_picks=picks[len(picks) // 2:])

    def test_every_budgeted_probe_is_one_probe_cell_call(self, matrix):
        assert matrix.calls == matrix.fresh_calls == [
            [(cfg.condition, cfg.seed + i), cfg.budget]
            for cfg in matrix.cfgs for i in range(cfg.trials)]

    def test_every_bo_pick_is_one_next_cell_bo_call_given_the_free_mask(self, matrix):
        # 2 trials x 2 modes x (47 + 77) picks after n_init = 3; the free mask,
        # the third positional argument, clears each cell the GP sampled
        assert len(matrix.picks) == len(matrix.fresh_picks) == 2 * 2 * (47 + 77)
        assert all(n == probed for n, probed in matrix.picks)
        assert matrix.picks == matrix.fresh_picks

    def test_shared_descents_give_the_bytes_of_fresh_ones(self, matrix):
        assert [t.status for c in matrix.rep.conditions for t in c.trials] == ["ok"] * 16
        for shared, fresh in zip(matrix.rep.conditions, matrix.alone, strict=True):
            assert [_trial_bytes(t) for t in shared.trials] == \
                [_trial_bytes(t) for t in fresh.trials]
            assert (shared.mean_f, shared.max_f) == (fresh.mean_f, fresh.max_f)

    def test_each_descent_is_computed_once_per_call(self, matrix):
        # seed 7: 1,040 probes (2 trials x 4 conditions x budgets 50 and 80)
        # in 450 distinct descents; alone, each condition computes all of its own
        assert sum(n for _, n in matrix.calls) == matrix.fresh[0] == 1040
        assert matrix.shared[0] == 450

    def test_each_bo_posterior_is_scanned_once_per_call(self, matrix):
        # seed 7: the bo_discrete twin reuses every pick of bo_cf, which runs first
        assert matrix.fresh[1] == 496
        assert matrix.shared[1] == 236

    def test_shared_memos_give_the_bytes_of_fresh_ones_under_sensing_faults(self, monkeypatch):
        # each probe's k carries its angle-noise draw, which both twins draw alike
        cfgs = matrix_configs({"seed": 7, "shape": "hemisphere", "trials": 1, "budget": 12,
                               "cal.angle_noise": 0.02,
                               "probe.gravity_residual": [0.01, 0.0, 0.02]})
        rep, shared, alone, fresh = _shared_and_alone(cfgs, monkeypatch)
        assert [t.status for c in rep.conditions for t in c.trials] == ["ok"] * 4
        for s, f in zip(rep.conditions, alone, strict=True):
            assert [_trial_bytes(t) for t in s.trials] == [_trial_bytes(t) for t in f.trials]
        assert (shared[1], fresh[1]) == (9, 18)  # 9 BO picks per trial after n_init = 3

    def test_a_hit_gives_the_computed_floats_in_fresh_arrays(self, analytic_grid):
        cfg = small_config(cal=CalibrationParams(angle_noise=0.02))
        ph = Phantom(cfg.phantom, cfg.tumor)
        grid = analytic_grid(ph)
        plant, descents = ProbePlant(ph, cfg.probe, cfg.cal), {}

        def probe(cell, draw, memo=descents):
            res = policy.probe_cell(plant, grid, cell, cfg.gains, np.random.default_rng(draw),
                                    memo)
            return res, repr(vars(plant))  # repr gives each float's exact bits

        with pytest.MonkeyPatch.context() as mp:
            count = _count_descents(mp)
            want, state = probe((10, 10), 0, None)
            assert want.classified_tumor and count[0] == 1
            first, _ = probe((10, 10), 0)
            probe((10, 11), 0)  # aligns the plant elsewhere
            for arr in (first.contact_point, first.normal, first.f_vec):
                arr[:] = np.nan
            for _ in range(2):
                hit, hit_state = probe((10, 10), 0)
                assert count[0] == 3 and len(descents) == 2
                assert _probe_bytes(hit) == _probe_bytes(want)
                assert hit_state == state  # a hit leaves the plant as align does
                hit.f_vec[0] = hit.contact_point[0] = hit.normal[0] = 1.0
            probe((10, 10), 1)  # another angle-noise draw is another load-cell map
            assert count[0] == 4 and len(descents) == 3

    @pytest.mark.parametrize("change", [
        {"tumor": TumorGeometry(shape="crescent")},
        {"probe": ProbeParams(f_thres=5.5)},
        {"gains": ControllerGains(period=0.0005)},
        {"cal": CalibrationParams(angle_noise=0.02)},
    ], ids=["tumor", "f_thres", "gains.period", "angle_noise"])
    def test_a_change_to_a_descent_input_computes_every_descent(self, monkeypatch, change):
        cfg = small_config(mode="discrete", trials=1, budget=6)
        count = _count_descents(monkeypatch)
        run_matrix([cfg, replace(cfg, mode="cf")], None, verbose=False)
        assert count[0] == 6  # the cf twin computes none
        run_matrix([cfg, replace(cfg, mode="cf", **change)], None, verbose=False)
        assert count[0] == 6 + 12


def _gt_events(monkeypatch, run_trials: bool = True) -> list[tuple[str, str]]:
    """Record each ground-truth sample and each trial as (kind, tumor shape),
    in call order.  With ``run_trials`` False a trial is a stub that runs nothing."""
    events = []
    sample, trial = Phantom.ground_truth_cloud, experiment.run_trial

    def ground_truth_cloud(phantom, *a, **k):
        events.append(("gt", phantom.tumor.shape))
        return sample(phantom, *a, **k)

    def run_trial(cfg, gt, i, scenes=None):
        events.append(("trial", cfg.tumor.shape))
        if run_trials:
            return trial(cfg, gt, i, scenes=scenes)
        return TrialOutcome(i, cfg.seed + i, "Stub")

    monkeypatch.setattr(Phantom, "ground_truth_cloud", ground_truth_cloud)
    monkeypatch.setattr(experiment, "run_trial", run_trial)
    return events


class TestSharedGroundTruth:
    """``run_matrix`` samples each ground truth once, where it is first needed."""

    def test_one_sample_per_shape_each_just_before_its_trials(self, monkeypatch):
        events = _gt_events(monkeypatch)
        rep = run_matrix(table1_matrix(seed=7, trials=2), None, verbose=False)
        # 4 conditions x 2 trials per shape
        assert events == [("gt", "hemisphere")] + [("trial", "hemisphere")] * 8 + \
            [("gt", "crescent")] + [("trial", "crescent")] * 8
        for shape in ("hemisphere", "crescent"):
            gts = [c.gt for c in rep.conditions if c.config.tumor.shape == shape]
            assert len(gts) == 4 and all(gt is gts[0] for gt in gts)

    def test_a_change_to_a_ground_truth_input_samples_again(self, monkeypatch):
        events = _gt_events(monkeypatch, run_trials=False)
        cfg = small_config(trials=1)
        run_matrix([cfg, replace(cfg, strategy="rs", mode="discrete", budget=3),
                    replace(cfg, gt_samples=500), replace(cfg, seed=6),
                    replace(cfg, phantom=PhantomConfig(fat_thickness=0.02)),
                    replace(cfg, tumor=TumorGeometry(shape="crescent"))], None, verbose=False)
        assert [kind for kind, _ in events].count("gt") == 5

    def test_run_experiment_alone_samples_every_time(self, monkeypatch):
        events = _gt_events(monkeypatch, run_trials=False)
        cfg = small_config(trials=2)
        run_experiment(cfg, None, verbose=False)
        run_experiment(cfg, None, verbose=False)
        assert [kind for kind, _ in events].count("gt") == 2

    def test_run_experiment_alone_keeps_no_trial_grid(self, monkeypatch):
        # a trial given no scene dict drops its grid when it ends
        dicts = []

        def run_trial(cfg, gt, i, scenes=None):
            dicts.append(scenes)
            return TrialOutcome(i, cfg.seed + i, "Stub")

        monkeypatch.setattr(experiment, "run_trial", run_trial)
        run_experiment(small_config(trials=2), None, verbose=False)
        assert dicts == [None, None]


# finite floats, with the edges of repr: signed zero, subnormals and the
# switches between positional and exponent notation
FINITE = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from([0.0, -0.0, 5e-324, -2.225073858507201e-308, 1e16, 1e-7,
                                    9999999999999998.0, 1e-4, 1e-5, 1.7976931348623157e308]))
XYZ = st.lists(FINITE, min_size=3, max_size=3)


@settings(max_examples=100, deadline=None)
@given(index=st.integers(0, 50), probes=st.lists(st.tuples(XYZ, XYZ, st.booleans()), max_size=3),
       waypoints=st.lists(st.tuples(FINITE, XYZ, XYZ), min_size=1, max_size=4),
       outcome=st.sampled_from([policy.BOUNDARY_REACHED, policy.TIMEOUT, policy.LOST_CONTACT]),
       followed=st.integers(0, 3))
def test_trajectory_lines_are_the_json_dumps_bytes(index, probes, waypoints, outcome, followed):
    """Each written line against ``json.dumps`` of its record; a follow
    whose start cell no probe holds is written with index -1."""
    results = [ProbeResult((k, 0), 6.0, 0.01, 600.0, tumor, 0.0, (0.0,) * 3, np.array(p),
                           np.zeros(3), np.array(f)) for k, (p, f, tumor) in enumerate(probes)]
    times, poses, forces = zip(*waypoints)
    traj = PalpationTrajectory(np.array(times), np.array(poses), np.array(forces), outcome,
                               (followed, 0), (1.0, 0.0), np.zeros(3))
    fh = io.StringIO()
    _write_trajectories(fh, TrialOutcome(index, 7, "ok", probes=results, trajs=[traj]))
    j = followed if followed < len(probes) else -1
    records = [(k, 0.0, p, f, "probe", "tumor" if tumor else "no_tumor")
               for k, (p, f, tumor) in enumerate(probes)]
    records += [(j, t, p, f, "contour", outcome) for t, p, f in waypoints]
    assert fh.getvalue() == "".join(
        json.dumps({"trial": index, "palpation_index": k, "t": t, "p": p, "f": f,
                    "phase": phase, "outcome": out}) + "\n"
        for k, t, p, f, phase, out in records)


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(XYZ, min_size=1, max_size=9), block=st.integers(1, 4))
def test_ply_row_blocks_are_the_format_bytes(rows, block, tmp_path_factory):
    """Blocks of rows written by one ``%.6g`` format against ``{:.6g}`` row by row."""
    path = tmp_path_factory.getbasetemp() / "rows.ply"
    with mock.patch.object(ply, "_ROWS_PER_WRITE", block):
        export_ply(PointCloud(np.array(rows)), path)
    assert path.read_text().split("end_header\n")[1] == \
        "".join("{:.6g} {:.6g} {:.6g}\n".format(*r) for r in rows)


XYZ_HEADER =(b"ply\nformat ascii 1.0\nelement vertex 1\nproperty float x\n"
              b"property float y\nproperty float z\n")
NAN_VERTEX = XYZ_HEADER + b"end_header\nnan 0 0\n"
# nine lines whose header promises 10**12 vertices
HUGE_COUNT = XYZ_HEADER.replace(b"vertex 1\n", b"vertex 1000000000000\n") + \
    b"end_header\n1 2 3\n4 5 6\n"


class TestPly:
    def test_single_point_format(self, tmp_path):
        path = tmp_path / "one.ply"
        export_ply(PointCloud(np.array([[0.0, 0.0, 0.0]])), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "ply"
        assert lines[1] == "format ascii 1.0"
        assert lines[2] == "element vertex 1"
        assert lines[3:6] == ["property float x", "property float y", "property float z"]
        assert lines[6] == "end_header"
        assert lines[7] == "0 0 0"

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        pts = rng.uniform(-0.05, 0.05, (300, 3))
        path = tmp_path / "cloud.ply"
        export_ply(PointCloud(pts), path)
        back = read_ply(path)
        assert np.allclose(back.points, pts, atol=1e-6)

    def test_normal_columns_are_checked_finite_then_ignored(self, tmp_path):
        header = (XYZ_HEADER.replace(b"vertex 1\n", b"vertex 2\n")
                  + b"property float nx\nproperty float ny\nproperty float nz\nend_header\n")
        path = tmp_path / "n.ply"
        path.write_bytes(header + b"1 2 3 0 0 1\n4 5 6 0 0 0\n")  # the second has zero length
        assert read_ply(path).points.tolist() == [[1, 2, 3], [4, 5, 6]]
        path.write_bytes(header + b"1 2 3 0 0 1\n4 5 6 0 inf 0\n")
        with pytest.raises(MalformedPly, match="vertex 1 has a non-finite value"):
            read_ply(path)

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(EmptyCloud):
            export_ply(PointCloud(np.zeros((0, 3))), tmp_path / "x.ply")

    @pytest.mark.parametrize("content,message", [
        (b"hello\n", "not a PLY file"),
        (b"ply\nformat binary_little_endian 1.0\nend_header\n", "only ascii PLY supported"),
        (b"ply\nformat ascii 1.0\nelement vertex 2\n", "truncated header"),
        (b"ply\nformat ascii 1.0\nelement vertex\nend_header\n", "bad element line"),
        (b"ply\nformat ascii 1.0\nend_header\n", "no vertex element"),
        (b"ply\nformat ascii 1.0\nelement vertex 1\nproperty float x\nend_header\n1\n",
         "no x, y, z"),
        (b"ply\nformat ascii 1.0\nelement vertex 2\nproperty float x\nproperty float y\n"
         b"property float z\nend_header\n1 2 3\n", "vertex 1 has 0 values, expected 3"),
        (b"ply\nformat ascii 1.0\nelement vertex 1\nproperty float x\nproperty float y\n"
         b"property float z\nend_header\n1 2 q\n", "could not convert"),
        (b"\x89PNG\r\n\x1a\n\xff\xfe", "codec can't decode"),
        (NAN_VERTEX, "vertex 0 has a non-finite value"),
        (HUGE_COUNT, "vertex 2 has 0 values, expected 3"),
        (XYZ_HEADER.replace(b"vertex 1\n", b"vertex -1\n") + b"end_header\n",
         "negative vertex count -1"),
    ])
    def test_malformed_file_raises_malformed_ply(self, tmp_path, content, message):
        path = tmp_path / "bad.ply"
        path.write_bytes(content)
        with pytest.raises(MalformedPly, match=message) as info:
            read_ply(path)
        assert isinstance(info.value, ValueError) and str(path) in str(info.value)


class TestCli:
    def test_run_subcommand(self, tmp_path):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text("trials = 1\nbudget = 10\nseed = 3\n")
        rc = cli_main(["run", "--config", str(cfg_file), "--out", str(tmp_path / "out")])
        assert rc == 0
        assert (tmp_path / "out" / "metrics.csv").exists()

    def test_export_gt_and_eval(self, tmp_path, capsys):
        gt_path = tmp_path / "gt.ply"
        rc = cli_main(["export-gt", "--shape", "hemisphere", "--samples", "400",
                       "--file", str(gt_path)])
        assert rc == 0 and gt_path.exists()
        rc = cli_main(["eval", str(gt_path), str(gt_path), "--r", "0.003"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "fscore=1.0000" in out

    def test_export_gt_writes_the_cloud_run_scores_against(self, tmp_path):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text("mode = discrete\ntrials = 1\nbudget = 10\nseed = 3\n"
                            "gt_samples = 700\n")
        assert cli_main(["run", "--config", str(cfg_file), "--out", str(tmp_path / "out")]) == 0
        gt_path = tmp_path / "gt.ply"
        assert cli_main(["export-gt", "--config", str(cfg_file), "--file", str(gt_path)]) == 0
        assert len(read_ply(gt_path)) == 700
        assert gt_path.read_bytes() == (tmp_path / "out" / "gt.ply").read_bytes()

    @pytest.mark.parametrize("flag,value", [
        ("--out", "elsewhere"), ("--trials", "3"), ("--budget", "3"),
        ("--strategy", "rs"), ("--mode", "discrete"),
    ])
    def test_export_gt_rejects_a_flag_it_does_not_read(self, tmp_path, capsys, flag, value):
        gt_path = tmp_path / "gt.ply"
        with pytest.raises(SystemExit) as exc:
            cli_main(["export-gt", flag, value, "--file", str(gt_path)])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert not gt_path.exists()

    def test_export_gt_reads_the_seed_flag(self, tmp_path):
        paths = [tmp_path / f"gt_{seed}.ply" for seed in (3, 4)]
        for seed, path in zip((3, 4), paths):
            assert cli_main(["export-gt", "--seed", str(seed), "--samples", "50",
                             "--file", str(path)]) == 0
        cfg = config_from_flat({"seed": 3, "gt_samples": 50})
        export_ply(experiment._ground_truth(cfg), tmp_path / "ref.ply")
        assert paths[0].read_bytes() == (tmp_path / "ref.ply").read_bytes()
        assert paths[0].read_bytes() != paths[1].read_bytes()

    def _matrix_configs(self, monkeypatch, argv):
        ran = []

        def run_matrix(cfgs, out):  # one scored trial, so the command exits 0
            ran.append(cfgs)
            trial = TrialOutcome(index=0, seed=cfgs[0].seed, status="ok", report=None)
            return MatrixReport([ConditionReport(cfgs[0], [trial], None, 0.0, 0.0, 0, 0.0)], {})

        monkeypatch.setattr(cli, "run_matrix", run_matrix)
        assert cli_main(["matrix", *argv]) == 0
        return ran[0]

    def test_matrix_without_a_config_is_table1(self, monkeypatch):
        assert self._matrix_configs(monkeypatch, []) == table1_matrix()
        assert self._matrix_configs(monkeypatch, ["--seed", "3", "--trials", "2"]) == \
            table1_matrix(seed=3, trials=2)
        assert self._matrix_configs(monkeypatch, ["--shape", "ellipsoid", "--mode", "cf"]) == \
            [default_config("ellipsoid", strategy, "cf") for strategy in ("rs", "bo")]

    def test_matrix_applies_every_config_key_and_flag(self, tmp_path, monkeypatch):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text("probe.f_thres = 4.0\nbudget = 5\nstrategy = bo\n")
        cfgs = self._matrix_configs(monkeypatch, ["--config", str(cfg_file), "--budget", "3"])
        assert [c.condition for c in cfgs] == \
            [c.condition for c in table1_matrix() if c.strategy == "bo"]
        assert {(c.budget, c.probe.f_thres) for c in cfgs} == {(3, 4.0)}

    def test_matrix_with_no_scored_trial_exits_1(self, tmp_path):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text("trials = 1\nbudget = 1\ntumor.center_xy = [0.05, 0.05]\n")
        flags = ["--config", str(cfg_file), "--strategy", "rs", "--mode", "discrete",
                 "--shape", "hemisphere"]
        for command in ("run", "matrix"):
            assert cli_main([command, *flags, "--out", str(tmp_path / command)]) == 1
        assert (tmp_path / "matrix" / "summary.csv").read_text().splitlines()[1:] == \
            ["rs_discrete_hemisphere,hemisphere,rs,discrete,per_trial,1,1,,,1"]

    def test_unscored_condition_prints_n_a(self, tmp_path, capsys):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text("trials = 1\nbudget = 1\ntumor.center_xy = [0.05, 0.05]\n")
        flags = ["--config", str(cfg_file), "--strategy", "rs", "--mode", "discrete",
                 "--shape", "hemisphere"]
        cli_main(["run", *flags, "--out", str(tmp_path / "run")])
        lines = capsys.readouterr().out.splitlines()
        assert re.fullmatch(r"\[rs_discrete_hemisphere\] mean_F=n/a max_F=n/a \(\d+\.\ds\)",
                            lines[-1])
        cli_main(["matrix", *flags, "--out", str(tmp_path / "matrix")])
        lines = capsys.readouterr().out.splitlines()
        assert f"{'rs_discrete_hemisphere':28s} mean_F=n/a max_F=n/a" in lines
        assert not any("0.000" in line for line in lines)

    def test_eval_radius_defaults_to_the_config_field(self, tmp_path, monkeypatch):
        gt_path = tmp_path / "gt.ply"
        export_ply(PointCloud(np.zeros((1, 3))), gt_path)
        radii, score = [], cli.fscore
        monkeypatch.setattr(cli, "fscore",
                            lambda recon, gt, r: radii.append(r) or score(recon, gt, r))
        assert cli_main(["eval", str(gt_path), str(gt_path)]) == 0
        assert radii == [ExperimentConfig.r_eval]

    def test_matrix_rejects_a_shared_label(self, tmp_path, capsys):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text('label = "mine"\n')
        assert cli_main(["matrix", "--config", str(cfg_file),
                         "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == ("palpsim: error: ConfigInvalid: condition names "
                                           "repeat: ['mine']; each writes its own directory\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text,message", [
        ("trials = 1\nbogus line\n", "expected 'key = value', got 'bogus line'"),
        ("trials = 1\nwidget.k = 3\n", "unknown config keys: ['widget.k']"),
        ("trials = 1\nprobe.d_thres = NaN\n", "config key 'probe.d_thres': nan is not finite"),
        ("trials = true\n", "config key 'trials': True is not a number"),
        ("trials = 1\nstrategy = [1]\n", "config key 'strategy': [1] is not a string"),
        ("seed = 3\ntrials = 1\nseed = 4\n", ":3: config key 'seed' repeats line 1"),
        ("trials = 1\nphantom.fat_thickness = 0.004\n",
         "tumor height 0.01 exceeds soft-stack depth 0.008"),
    ])
    def test_bad_config_file_is_one_error_line(self, tmp_path, capsys, text, message):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text(text)
        for command in ("run", "matrix", "export-gt"):
            out = [] if command == "export-gt" else ["--out", str(tmp_path / "out")]
            assert cli_main([command, "--config", str(cfg_file), *out]) == 2
            err = capsys.readouterr().err
            assert err.startswith("palpsim: error: ConfigInvalid: ") and message in err
            assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "matrix", "export-gt"])
    def test_missing_config_file_is_one_error_line(self, tmp_path, capsys, command):
        missing = tmp_path / "missing.cfg"
        argv = [command, "--config", str(missing)]
        if command == "export-gt":
            argv += ["--file", str(tmp_path / "gt.ply")]
        else:
            argv += ["--out", str(tmp_path / "out")]
        assert cli_main(argv) == 2
        assert capsys.readouterr().err == (f"palpsim: error: ConfigInvalid: {missing}: "
                                           "cannot read config file: No such file or directory\n")
        assert not (tmp_path / "out").exists() and not (tmp_path / "gt.ply").exists()

    def test_unwritable_output_is_one_error_line(self, tmp_path, capsys):
        gt = tmp_path / "missing" / "gt.ply"
        assert cli_main(["export-gt", "--samples", "50", "--file", str(gt)]) == 2
        assert capsys.readouterr() == (
            "", f"palpsim: error: {gt}: cannot write: No such file or directory\n")
        (tmp_path / "plain").write_text("")
        out = tmp_path / "plain" / "x"
        assert cli_main(["run", "--trials", "1", "--budget", "5", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"palpsim: error: {out}: cannot write: Not a directory\n"

    @pytest.mark.parametrize("command", ["run", "matrix"])
    def test_unwritable_output_fails_before_any_trial(self, tmp_path, capsys, command):
        (tmp_path / "plain").write_text("")
        out = tmp_path / "plain" / "x"
        assert cli_main([command, "--trials", "1", "--budget", "5", "--out", str(out)]) == 2
        stdout, err = capsys.readouterr()
        assert stdout == ""  # no trial ran
        assert err.startswith(f"palpsim: error: {out}") and err.count("\n") == 1
        assert err.endswith(": cannot write: Not a directory\n")

    def test_eval_on_a_file_that_is_not_ply_is_one_error_line(self, tmp_path, capsys):
        text = tmp_path / "hello.txt"
        text.write_text("hello\n")
        assert cli_main(["eval", str(text), str(text)]) == 2
        assert capsys.readouterr().err == \
            f"palpsim: error: MalformedPly: {text}: not a PLY file\n"

    @pytest.mark.parametrize("content,message", [
        (NAN_VERTEX, "vertex 0 has a non-finite value"),
        (HUGE_COUNT, "vertex 2 has 0 values, expected 3"),
    ])
    def test_eval_on_a_bad_vertex_is_one_error_line(self, tmp_path, capsys, content, message):
        bad, good = tmp_path / "bad.ply", tmp_path / "good.ply"
        bad.write_bytes(content)
        export_ply(PointCloud(np.zeros((3, 3))), good)
        for argv in ([bad, good], [good, bad]):
            assert cli_main(["eval", *map(str, argv)]) == 2
            assert capsys.readouterr() == ("", f"palpsim: error: MalformedPly: {bad}: {message}\n")

    def test_eval_on_a_missing_file_is_one_error_line(self, tmp_path, capsys):
        missing = tmp_path / "nothere.ply"
        assert cli_main(["eval", str(missing), str(missing)]) == 2
        assert capsys.readouterr().err == (f"palpsim: error: MalformedPly: {missing}: "
                                           "cannot read PLY file: No such file or directory\n")

    def test_label_with_a_comma_is_one_error_line(self, tmp_path, capsys):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text('trials = 1\nlabel = "a,b"\n')
        assert cli_main(["run", "--config", str(cfg_file), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr() == ("", "palpsim: error: ConfigInvalid: label 'a,b' holds "
                                           "a comma, quote or line break\n")
        assert not (tmp_path / "out").exists()

    def test_negative_seed_is_one_error_line(self, tmp_path, capsys):
        assert cli_main(["run", "--seed", "-1", "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == "palpsim: error: OutOfRange: seed must be >= 0, got -1\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key,message", [
        ("probe.tip_radius", "tip_radius must be >= 0, got -0.01"),
        ("probe.press_force", "press_force must be >= 0, got -0.01"),
        ("cal.angle_noise", "angle_noise must be >= 0, got -0.01"),
        ("grid.dy", "grid_dy must be > 0, got -0.01"),
        ("cloud.outlier_sigma", "outlier_sigma must be >= 0, got -0.01"),
    ])
    def test_negative_config_value_is_one_error_line(self, tmp_path, capsys, key, message):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text(f"trials = 1\n{key} = -0.01\n")
        assert cli_main(["run", "--config", str(cfg_file), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"palpsim: error: OutOfRange: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("r", ["-1", "0", "nan", "inf"])
    def test_eval_with_a_bad_radius_is_one_error_line(self, tmp_path, capsys, r):
        message = "r must be finite, got inf" if r == "inf" else f"r must be > 0, got {float(r)}"
        ply_path = tmp_path / "a.ply"
        export_ply(PointCloud(np.zeros((3, 3))), ply_path)
        assert cli_main(["eval", str(ply_path), str(ply_path), "--r", r]) == 2
        assert capsys.readouterr() == ("", f"palpsim: error: OutOfRange: {message}\n")

    def test_out_of_range_flag_is_one_error_line(self, tmp_path, capsys):
        assert cli_main(["run", "--budget", "0", "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == \
            "palpsim: error: OutOfRange: budget must be >= 1, got 0\n"

    def test_eval_against_sim_recon(self, tmp_path):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text("trials = 1\nbudget = 15\nseed = 4\n")
        out_dir = tmp_path / "out"
        assert cli_main(["run", "--config", str(cfg_file), "--out", str(out_dir)]) == 0
        recons = sorted(out_dir.glob("recon_*.ply"))
        assert recons
        rc = cli_main(["eval", str(recons[0]), str(out_dir / "gt.ply")])
        assert rc == 0
