"""Instrumentation applied from the benchmark's own files.

``Patches`` swaps a palpsim function or method for a wrapper and puts
the original back.  ``Capture`` is the light instrumentation of every
run: five coarse wrappers (at most 242 calls per trial) that time each
palpation and the GP search inside it, time a short reference loop
before each palpation, and keep what the checks need.  ``Tracer`` is the traced run:
a span around each public call of each module, and call counts on the
hot scalar calls, whose per-call cost is then measured by replaying
their recorded arguments through the unwrapped functions.
"""

from __future__ import annotations

import json
import statistics
import sys
from time import perf_counter, process_time

import numpy as np

import palpsim.calibration as calibration
import palpsim.evaluation as evaluation
import palpsim.experiment as experiment
import palpsim.phantom as phantom
import palpsim.ply as ply
import palpsim.policy as policy
import palpsim.registration as registration
import palpsim.search as search
from speed import speed_probe


class Patches:
    """Installs wrappers on palpsim names and restores the originals."""

    def __init__(self):
        self._undo = []

    def function(self, module, name, make) -> None:
        """Wrap ``module.name`` in every palpsim module that imported it."""
        orig = getattr(module, name)
        wrapped = make(orig)
        for mod in list(sys.modules.values()):
            if (getattr(mod, "__name__", "").partition(".")[0] == "palpsim"
                    and getattr(mod, name, None) is orig):
                setattr(mod, name, wrapped)
                self._undo.append((mod, name, orig))

    def method(self, cls, name, make) -> None:
        orig = cls.__dict__[name]
        setattr(cls, name, make(orig))
        self._undo.append((cls, name, orig))

    def restore(self) -> None:
        for owner, name, orig in reversed(self._undo):
            setattr(owner, name, orig)
        self._undo.clear()


class Capture:
    """Palpation clock, plus the grids and ground truths the checks need.

    A palpation runs from one ``probe_cell`` entry to the next (or to the
    return of ``run_policy``), so each holds one probe, its follow if the
    probe hit the tumor, and the GP fit and selection of the next cell.
    Time inside ``gp_fit`` and ``next_cell_bo`` (the GP search, mostly
    multi-threaded BLAS) is kept apart from the rest.  Before each
    palpation the reference loop of ``speed.py`` runs once, outside every
    timed interval; its mean over a round says how fast the machine ran
    Python code during that round.
    """

    def __init__(self, patches: Patches):
        self.gts: list[np.ndarray] = []
        self.policy_calls: list[tuple[int, object]] = []  # (gt index, grid)
        self.keep = True
        self.probe_speed = True
        self.new_round()
        marks: list[tuple[float, float]] = []  # (clock, search seconds so far)
        gaps: list[float] = []   # reference-loop wall time before each palpation

        def wrap_probe(orig):
            def probe_cell(*a, **k):
                if self.probe_speed:
                    wall, cpu = speed_probe()
                    self.ref_s.append(wall)
                    self.ref_cpu_s += cpu
                    gaps.append(wall)
                marks.append((perf_counter(), self.search_s[0]))
                return orig(*a, **k)
            return probe_cell

        def wrap_policy(orig):
            def run_policy(*a, **k):
                marks.clear()
                gaps.clear()
                out = orig(*a, **k)
                marks.append((perf_counter(), self.search_s[0]))
                after = gaps[1:] + [0.0] if gaps else [0.0] * len(marks)
                self.palpations.extend(
                    (1e3 * (t1 - t0 - g), 1e3 * (s1 - s0))
                    for (t0, s0), (t1, s1), g in zip(marks, marks[1:], after))
                if self.keep:
                    self.policy_calls.append((len(self.gts) - 1, a[1] if len(a) > 1 else k["grid"]))
                return out
            return run_policy

        def wrap_search(orig):
            def search(*a, **k):
                w0, c0 = perf_counter(), process_time()
                try:
                    return orig(*a, **k)
                finally:
                    self.search_s[0] += perf_counter() - w0
                    self.search_s[1] += process_time() - c0
            return search

        def wrap_gt(orig):
            def ground_truth_cloud(*a, **k):
                out = orig(*a, **k)
                if self.keep:
                    self.gts.append(out.points)
                return out
            return ground_truth_cloud

        patches.function(policy, "probe_cell", wrap_probe)
        patches.function(policy, "run_policy", wrap_policy)
        patches.function(search, "gp_fit", wrap_search)
        patches.function(search, "next_cell_bo", wrap_search)
        patches.method(phantom.Phantom, "ground_truth_cloud", wrap_gt)

    def new_round(self) -> None:
        self.palpations: list[tuple[float, float]] = []  # (ms, of which GP search ms)
        self.search_s = [0.0, 0.0]     # GP search: wall, process CPU
        self.ref_s: list[float] = []   # wall time of each reference loop
        self.ref_cpu_s = 0.0


# Public calls traced with a span, by module.
SPAN_FUNCTIONS = [
    (experiment, "run_matrix"), (experiment, "run_experiment"), (experiment, "run_trial"),
    (registration, "preprocess_cloud"), (registration, "mesh_from_cloud"),
    (registration, "crop_roi"), (registration, "interpolate_grid"),
    (search, "gp_fit"), (search, "next_cell_bo"), (search, "next_cell_random"),
    (policy, "run_policy"), (policy, "probe_cell"), (policy, "contour_follow"),
    (evaluation, "extract_contact_points"), (evaluation, "fscore"),
    (evaluation, "reconstruct_mesh"),
    (ply, "export_ply"), (ply, "export_mesh_ply"),
]
SPAN_METHODS = [(phantom.Phantom, "phantom", "synth_depth_cloud"),
                (phantom.Phantom, "phantom", "ground_truth_cloud")]
# Scalar calls made 50-66k times per trial: counted, never timed in place.
HOT_METHODS = [(phantom.Phantom, "phantom", "contact_force"),
               (phantom.Phantom, "phantom", "surface_normal"),
               (registration.SurfaceGrid, "registration", "sample_height"),
               (policy.ProbePlant, "policy", "measure")]
HOT_FUNCTIONS = [(calibration, "remove_z_offset"), (calibration, "compensate_tip_weight")]
REPLAY_CALLS = 20000  # recorded argument tuples per hot call


def _short(module) -> str:
    return module.__name__.rpartition(".")[2]


class Tracer:
    """Spans (name, start, end, parent, trial) kept in memory; hot-call counts."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._open: list[int] = []  # indices of the spans still running
        self.trial = -1
        self.n_trials = 0
        self.calls: dict[str, list[int]] = {}
        self.recorded: dict[str, list[tuple]] = {}
        self.originals: dict[str, object] = {}
        self.candidates: list[int] = []

    def install(self, patches: Patches) -> None:
        for mod, fn in SPAN_FUNCTIONS:
            patches.function(mod, fn, self._span_maker(f"{_short(mod)}.{fn}"))
        for cls, mod, fn in SPAN_METHODS:
            patches.method(cls, fn, self._span_maker(f"{mod}.{fn}"))
        for cls, mod, fn in HOT_METHODS:
            self.originals[f"{mod}.{fn}"] = cls.__dict__[fn]
            patches.method(cls, fn, self._hot_maker(f"{mod}.{fn}"))
        for mod, fn in HOT_FUNCTIONS:
            self.originals[f"{_short(mod)}.{fn}"] = getattr(mod, fn)
            patches.function(mod, fn, self._hot_maker(f"{_short(mod)}.{fn}"))

    def _span_maker(self, name):
        spans, open_ = self.spans, self._open
        is_trial = name == "experiment.run_trial"
        is_bo = name == "search.next_cell_bo"

        def make(orig):
            def span(*a, **k):
                if is_trial:
                    self.trial = self.n_trials
                    self.n_trials += 1
                if is_bo:  # (gp, grid, visited, ...): cells the EI scan covers
                    self.candidates.append(int(a[1].valid_mask.sum()) - len(a[2]))
                parent = open_[-1] if open_ else -1
                idx = len(spans)
                spans.append(None)
                open_.append(idx)
                t0 = perf_counter()
                try:
                    return orig(*a, **k)
                finally:
                    t1 = perf_counter()
                    open_.pop()
                    spans[idx] = (name, t0, t1, parent, self.trial)
            return span
        return make

    def _hot_maker(self, name):
        count = self.calls.setdefault(name, [0])
        rec = self.recorded.setdefault(name, [])

        def make(orig):
            def hot(*a):
                count[0] += 1
                if len(rec) < REPLAY_CALLS:
                    rec.append(a)
                return orig(*a)
            return hot
        return make

    # -- results -------------------------------------------------------------

    def span_stats(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds, self seconds."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, dict[str, float]] = {}
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            s = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            s["calls"] += 1
            s["total_s"] += t1 - t0
            s["self_s"] += t1 - t0 - child[i]
        return out

    def replay_us(self, reps: int = 3) -> tuple[dict[str, float], float]:
        """Per-call microseconds of each hot call, from its recorded arguments
        run through the unwrapped function, minus the same loop over a no-op
        (returned as the floor, in ns)."""
        def noop(*a):
            return None

        def loop(fn, args):
            t0 = perf_counter()
            for a in args:
                fn(*a)
            return perf_counter() - t0

        out, floors = {}, []
        for name, args in self.recorded.items():
            if not args:
                out[name] = 0.0
                continue
            fn = self.originals[name]
            per = []
            for _ in range(reps):
                busy, idle = loop(fn, args), loop(noop, args)
                per.append((busy - idle) / len(args))
                floors.append(idle / len(args))
            out[name] = 1e6 * statistics.median(per)
        return out, 1e9 * statistics.median(floors) if floors else 0.0

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for name, t0, t1, parent, trial in self.spans:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1,
                                     "parent": parent, "trial": trial}) + "\n")
