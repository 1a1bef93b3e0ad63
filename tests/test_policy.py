import math
import operator
from dataclasses import replace
from functools import reduce
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st
from test_equivalence import bits, edge_grid, reference_descent, reference_step

from palpsim import (
    CalibrationParams,
    ControllerGains,
    Phantom,
    PhantomConfig,
    ProbeParams,
    ProbePlant,
    TumorGeometry,
    admissible_force,
    contour_follow,
    default_config,
    flat_profile,
    impedance_force,
    min_jerk_offset,
    policy,
    probe_cell,
    rotation_zyx,
    run_policy,
)
from palpsim.errors import Exhausted, NoContact, NumericalBlowup, OutOfRange
from palpsim.policy import BOUNDARY_REACHED, TIMEOUT
from palpsim.registration import SurfaceGrid, cell_to_surface

CFG400 = dict(k_skin=1200.0, k_fat=600.0, k_muscle=2500.0, k_tumor=20000.0)


def flat_phantom(tumor=None, **kw):
    kw.setdefault("surface_profile", flat_profile())
    return Phantom(PhantomConfig(**kw), tumor)


class TestMinJerk:
    def test_endpoints_and_midpoint(self):
        a = 0.002
        assert min_jerk_offset(0.0, a) == -a
        assert min_jerk_offset(0.5, a) == pytest.approx(0.0, abs=1e-18)
        assert min_jerk_offset(1.0, a) == pytest.approx(a, abs=1e-18)

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            min_jerk_offset(-0.01, 1.0)
        with pytest.raises(OutOfRange):
            min_jerk_offset(1.01, 1.0)

    def test_antisymmetry(self):
        a = 0.7
        for t in np.linspace(0.0, 1.0, 501):
            assert abs(min_jerk_offset(t, a) + min_jerk_offset(1.0 - t, a)) <= 1e-12

    def test_monotone(self):
        vals = [min_jerk_offset(t, 1.0) for t in np.linspace(0, 1, 1000)]
        assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))


class TestImpedanceForce:
    def test_equilibrium(self):
        g = ControllerGains(k_p=1000.0, k_d=20.0)
        f = impedance_force([0, 0, 0], [0, 0, 0], [0.1, 0, 0], [0.1, 0, 0], g)
        assert np.allclose(f, 0.0)

    def test_spring_law(self):
        g = ControllerGains(k_p=1000.0, k_d=20.0)
        f = impedance_force([0.001, 0, 0], [0, 0, 0], [0, 0, 0], [0, 0, 0], g)
        assert np.allclose(f, [1.0, 0.0, 0.0], atol=1e-12)

    def test_error_clamp(self):
        g = ControllerGains(k_p=1000.0, k_d=20.0, e_thres=0.005)
        f = impedance_force([1.0, 0, 0], [0, 0, 0], [0, 0, 0], [0, 0, 0], g)
        assert np.allclose(f, [5.0, 0.0, 0.0], atol=1e-12)

    def test_component_bound(self):
        g = ControllerGains(k_p=1500.0, k_d=20.0, e_thres=0.005)
        rng = np.random.default_rng(1)
        for _ in range(100):
            p_d, p = rng.normal(size=3), rng.normal(size=3)
            v = rng.normal(size=3)
            f = impedance_force(p_d, p, np.zeros(3), v, g)
            bound = g.k_p * g.e_thres + g.k_d * np.abs(v)
            assert np.all(np.abs(f) <= bound + 1e-12)


class TestAdmissibleForce:
    def test_reference_value(self):
        g = ControllerGains(k_p=1000.0, k_d=20.0, e_thres=0.005, period=0.001)
        assert admissible_force(g) == pytest.approx(205.0, abs=1e-12)

    def test_damping_free_limit(self):
        g = ControllerGains(k_p=1000.0, k_d=0.0, e_thres=0.005, period=0.001)
        assert admissible_force(g) == pytest.approx(5.0, abs=1e-12)

    def test_linearity_in_clamp(self):
        g1 = ControllerGains(k_p=900.0, k_d=15.0, e_thres=0.004)
        g2 = ControllerGains(k_p=900.0, k_d=15.0, e_thres=0.008)
        assert admissible_force(g2) == pytest.approx(2 * admissible_force(g1), abs=1e-12)


def step(ph, p, v, f_cmd, mass=0.1):
    """The reference plant step for a tip-less probe pointing up:
    (position, velocity, in contact)."""
    out = reference_step(*p, *v, *f_cmd, ph, 0.001, mass, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0)
    return np.array(out[0:3]), np.array(out[3:6]), out[6]


class TestStepPlant:
    def test_rest_stays_at_rest(self):
        ph = flat_phantom()
        p0 = np.array([0.0, 0.0, 1.0])
        p, v, in_contact = step(ph, p0, np.zeros(3), np.zeros(3))
        assert np.allclose(p, p0)
        assert np.allclose(v, 0.0)
        assert not in_contact

    def test_ballistic_pull(self):
        ph = flat_phantom()
        p, v = np.array([0.0, 0.0, 1.0]), np.zeros(3)
        for _ in range(100):
            p, v, _ = step(ph, p, v, np.array([0.0, 0.0, -1.0]), mass=0.1)
        assert v[2] == pytest.approx(-1.0, abs=1e-9)

    def test_static_equilibrium_penetration(self):
        ph = flat_phantom()  # k_soft = 266.67
        z0 = ph.z_skin(0.0, 0.0)
        p, v = np.array([0.0, 0.0, z0 + 0.001]), np.zeros(3)
        f_cmd = np.array([0.0, 0.0, -3.0])
        for _ in range(3000):
            p, v, _ = step(ph, p, v, f_cmd, mass=0.1)
        d = z0 - p[2]
        assert ph.cfg.k_soft * d == pytest.approx(3.0, rel=0.01)

    def test_velocity_blowup_guard(self):
        ph = flat_phantom()
        p, v = np.array([0.0, 0.0, 1.0]), np.zeros(3)
        with pytest.raises(NumericalBlowup):
            for _ in range(10000):
                p, v, _ = step(ph, p, v, np.array([0.0, 0.0, -50.0]), mass=0.1)


class TestProbeCell:
    def test_apex_classified_tumor(self, analytic_grid):
        ph = flat_phantom(TumorGeometry("hemisphere", radius=0.01), **CFG400)
        grid = analytic_grid(ph)
        params = ProbeParams(f_thres=5.0, d_thres=0.017)
        plant = ProbePlant(ph, params, CalibrationParams())
        cell = (10, 10)  # lattice origin (-0.02, -0.02), dx 2 mm -> (0, 0)
        assert np.allclose(grid.cell_point(*cell)[:2], [0.0, 0.0], atol=1e-12)
        res = probe_cell(plant, grid, cell, ControllerGains())
        # oracle: invert the piecewise force law for the stop depth,
        # including the descent damping bias
        bias = ph.cfg.contact_damping * params.indent_speed
        d_star = 0.009 + (params.f_thres - bias - 400.0 * 0.009) / 20000.0
        assert res.classified_tumor
        assert res.f_z >= params.f_thres
        assert res.d_z == pytest.approx(d_star, abs=2.5e-5)
        assert res.d_z < 0.017
        assert res.k == pytest.approx(res.f_z / res.d_z, rel=1e-12)

    def test_off_tumor_not_classified(self, analytic_grid):
        # defaults: k_soft = 266.7 so 5 N is unreachable inside d_thres
        ph = flat_phantom(TumorGeometry("hemisphere", radius=0.01))
        grid = analytic_grid(ph)
        params = ProbeParams(f_thres=5.0, d_thres=0.017)
        plant = ProbePlant(ph, params, CalibrationParams())
        cell = (1, 1)  # (-0.018, -0.018), far off the footprint
        res = probe_cell(plant, grid, cell, ControllerGains())
        assert not res.classified_tumor
        assert res.d_z == pytest.approx(0.017, abs=5e-5)
        assert res.f_z < params.f_thres

    def test_stop_depth_off_tumor_oracle(self, analytic_grid):
        # force-threshold stop in the soft stack when f_thres is low
        ph = flat_phantom(**CFG400)
        grid = analytic_grid(ph)
        params = ProbeParams(f_thres=2.0, d_thres=0.017, indent_speed=0.01)
        plant = ProbePlant(ph, params, CalibrationParams())
        res = probe_cell(plant, grid, (5, 5), ControllerGains())
        bias = ph.cfg.contact_damping * params.indent_speed
        d_star = (params.f_thres - bias) / 400.0
        assert res.d_z == pytest.approx(d_star, abs=2e-5)

    @pytest.mark.parametrize("cal", [CalibrationParams(),
                                     CalibrationParams(tip_weight_n=2.0, angle_noise=0.3)])
    @pytest.mark.parametrize("cell", [(10, 10), (2, 3)])  # force stop, depth stop
    def test_descent_reads_the_scalar_law_only_where_the_force_rule_can_fire(
            self, analytic_grid, cal, cell):
        ph = flat_phantom(TumorGeometry("hemisphere", radius=0.01))
        grid = analytic_grid(ph)
        params, gains = ProbeParams(f_thres=5.0, d_thres=0.017), ControllerGains()
        steps = reference_descent(ProbePlant(ph, params, cal), grid, cell, gains,
                                  np.random.default_rng(4))[0]
        plant = ProbePlant(ph, params, cal)
        windows, calls = [], []
        law, force_np = ph.contact_law, ph.contact_force_np

        def counted_law():
            inner = law()
            return lambda *a: calls.append(a) or inner(*a)

        def recorded_force_np(*a):
            windows.append(force_np(*a))
            return windows[-1]

        with mock.patch.object(ph, "contact_law", counted_law), \
                mock.patch.object(ph, "contact_force_np", recorded_force_np), \
                mock.patch.object(ph, "surface_normal_np", wraps=ph.surface_normal_np) as normal:
            probe_cell(plant, grid, cell, gains, np.random.default_rng(4))
        fn = np.concatenate(windows)[:steps + 1]  # every step up to the stop
        candidates = int(np.sum((fn > 0.0) & (fn >= plant.force_floor(params.f_thres))))
        assert normal.call_count == 0
        assert 1 <= len(calls) <= candidates + 1
        assert candidates < steps / 4

    def test_no_contact_error(self, analytic_grid):
        ph = flat_phantom()
        grid = analytic_grid(ph)
        lifted = SurfaceGrid(grid.origin_xy, grid.dx, grid.dy,
                             grid.height + 0.05, grid.normal, grid.valid_mask)
        params = ProbeParams()
        plant = ProbePlant(ph, params, CalibrationParams())
        with pytest.raises(NoContact):
            probe_cell(plant, lifted, (10, 10), ControllerGains())


class TestContourFollow:
    def _setup(self, seed=0):
        ph = flat_phantom(TumorGeometry("hemisphere", radius=0.01))
        params = ProbeParams(f_thres=5.0, d_thres=0.017)
        gains = ControllerGains()
        plant = ProbePlant(ph, params, CalibrationParams())
        return ph, params, gains, plant

    def test_boundary_reached_near_footprint(self, analytic_grid):
        ph, params, gains, plant = self._setup()
        grid = analytic_grid(ph)
        start = probe_cell(plant, grid, (10, 10), gains)
        assert start.classified_tumor
        traj = contour_follow(plant, grid, start, gains, np.random.default_rng(3))
        assert traj.outcome == BOUNDARY_REACHED
        r_end = math.hypot(traj.poses[-1, 0], traj.poses[-1, 1])
        assert 0.007 <= r_end <= 0.013
        assert len(traj) >= 10

    def test_zero_timeout_single_waypoint(self, analytic_grid):
        ph, params, gains, _ = self._setup()
        grid = analytic_grid(ph)
        plant = ProbePlant(ph, replace(params, cf_timeout=0.0), CalibrationParams())
        start = probe_cell(plant, grid, (10, 10), gains)
        traj = contour_follow(plant, grid, start, gains, np.random.default_rng(1))
        assert traj.outcome == TIMEOUT
        assert len(traj) == 1

    def test_requires_classified_start(self, analytic_grid):
        ph, params, gains, plant = self._setup()
        grid = analytic_grid(ph)
        start = probe_cell(plant, grid, (0, 0), gains)
        assert not start.classified_tumor
        with pytest.raises(OutOfRange):
            contour_follow(plant, grid, start, gains, np.random.default_rng(0))

    def test_timestamps_increase_at_stroke_rate(self, analytic_grid):
        ph, params, gains, plant = self._setup()
        grid = analytic_grid(ph)
        start = probe_cell(plant, grid, (10, 10), gains)
        traj = contour_follow(plant, grid, start, gains, np.random.default_rng(5))
        dts = np.diff(traj.times)
        assert np.all(dts > 0)
        # waypoint cadence: inner steps x controller period
        expect = round(1.0 / (params.osc_rate * gains.period)) * gains.period
        assert np.allclose(dts[:-1], expect, atol=1e-9)

    def test_hot_calls_once_per_stroke_not_per_tick(self, analytic_grid):
        ph, params, gains, plant = self._setup()
        grid = analytic_grid(ph)
        start = probe_cell(plant, grid, (10, 10), gains)
        with mock.patch.object(ph, "contact_force", wraps=ph.contact_force) as contact, \
                mock.patch.object(ph, "surface_normal", wraps=ph.surface_normal) as normal, \
                mock.patch.object(plant, "measure", wraps=plant.measure) as measure, \
                mock.patch.object(grid, "sample_height", wraps=grid.sample_height) as depth:
            traj = contour_follow(plant, grid, start, gains, np.random.default_rng(3))
        ticks = round((traj.times[-1] - traj.times[0]) / gains.period)
        assert ticks > 5 * len(traj)
        # the tick runs the closure from contact_law, not the scalar methods
        assert contact.call_count == normal.call_count == 0
        # the first waypoint's reading; every later one comes from its control step
        assert measure.call_count == 1
        # the boundary depth is read only while the axial force is below f_thres
        assert depth.call_count < ticks

    def test_all_outcomes_declared_within_timeout(self, analytic_grid):
        ph, params, gains, plant = self._setup()
        grid = analytic_grid(ph)
        rng = np.random.default_rng(7)
        for cell in [(10, 10), (9, 12), (12, 9), (11, 11)]:
            res = probe_cell(plant, grid, cell, gains)
            if not res.classified_tumor:
                continue
            traj = contour_follow(plant, grid, res, gains, rng)
            assert traj.outcome in (BOUNDARY_REACHED, TIMEOUT, "lost_contact")
            assert traj.times[-1] - traj.times[0] <= params.cf_timeout + 1e-9


class TestClassificationAgainstGeometry:
    def test_agreement_with_footprint_margin(self, analytic_grid):
        ph = flat_phantom(TumorGeometry("hemisphere", radius=0.01))
        grid = analytic_grid(ph)
        params = ProbeParams(f_thres=5.0, d_thres=0.017)
        gains = ControllerGains()
        plant = ProbePlant(ph, params, CalibrationParams())
        rng = np.random.default_rng(11)
        agree = 0
        n = 100
        cells = grid.valid_cells()
        picks = cells[rng.choice(len(cells), size=n, replace=False)]
        for u, v in picks:
            res = probe_cell(plant, grid, (int(u), int(v)), gains)
            p = grid.cell_point(int(u), int(v))
            d_stop = ph.cfg.stack_depth - ph.h_tumor(p[0], p[1])
            margin_ok = (params.d_thres - d_stop) >= 0.001
            inside = ph.h_tumor(p[0], p[1]) > 0.0
            if res.classified_tumor == (inside and margin_ok):
                agree += 1
        assert agree >= 95


def _ramp(start, step, n):
    """Reference ramp of one coordinate: start, start + step, ... (n + 1
    values) as a running sum, the floats of adding ``step`` n times in a loop."""
    out = np.full(n + 1, step)
    out[0] = start
    return np.cumsum(out)


unit = st.floats(-1.0, 1.0)


@settings(max_examples=300, deadline=None)
@given(start=st.tuples(unit, unit, unit, st.floats(0.0, 0.05)), normal=st.tuples(unit, unit, unit),
       step_len=st.floats(1e-7, 1e-3), n=st.integers(1, 4096))
def test_one_cumsum_gives_the_four_ramps_bytes(start, normal, step_len, n):
    # probe_cell's construction; test_equivalence.py checks the whole
    # descent against a step-by-step loop
    nx, ny, nz = normal
    steps = (-(step_len * nx), -(step_len * ny), -(step_len * nz), step_len)
    ramp = np.empty((n + 1, 4))
    ramp[1:] = steps
    ramp[0] = start
    for col, first, step in zip(np.cumsum(ramp, axis=0).T, start, steps):
        assert col.tobytes() == _ramp(first, step, n).tobytes()


axes = st.sampled_from([(0.0, 0.0, 1.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, -1.0, 1.0),
                        (1.0, 0.0, 1.0), (0.0, 0.0, -1.0)]) | st.tuples(unit, unit, unit).filter(
    lambda a: a[2] > 0.1)


class FixedNormals:
    """Stands in for a Generator whose ``normal`` draws are ``values``, in order."""

    def __init__(self, values):
        self.values = list(values)

    def normal(self, loc, scale):
        return loc + self.values.pop(0)


offsets = st.sampled_from([0.0, -0.0, 0.3, -0.3, math.pi / 2, -math.pi / 2]) | st.floats(-0.1, 0.1)


@settings(max_examples=300, deadline=None)
@example(axis=(0.0, 0.0, 1.0), angle_noise=0.05, noise=(0.0, -0.3, 0.0))  # a -0.0 + -0.0 + -0.0 sum
@example(axis=(1.0, 0.0, 0.0), angle_noise=0.05, noise=(-0.3, 0.3, 0.0))
@given(axis=axes, angle_noise=st.sampled_from([0.0, 0.05]),
       noise=st.tuples(offsets, offsets, offsets))
def test_load_cell_map_is_the_sum_of_rotation_products(axis, angle_noise, noise):
    # M = R_est R_trueᵀ from rotation_zyx, each entry summed left to right from
    # the integer 0 as Python 3.11's sum() does, so an exact zero comes out +0.0
    plant = ProbePlant(flat_phantom(), ProbeParams(), CalibrationParams(angle_noise=angle_noise))
    plant.align((0.0, 0.0, 0.0), axis, FixedNormals(noise))
    r_true = rotation_zyx(plant.euler).tolist()
    r_est = rotation_zyx(plant.euler_est).tolist()
    want = [reduce(operator.add, (r_est[i][k] * r_true[j][k] for k in range(3)), 0)
            for i in range(3) for j in range(3)]
    assert bits(v for row in plant._m for v in row) == bits(want)
    assert bits(plant._axial) == bits(row[2] for row in r_est)


@settings(max_examples=60, deadline=None)
@given(shape=st.sampled_from(["hemisphere", "ellipsoid", "crescent"]),
       x=st.floats(-0.015, 0.015), y=st.floats(-0.015, 0.015),
       lift=st.sampled_from([0.0, 0.0, 0.03]),  # 30 mm over the skin: no contact
       angle_noise=st.sampled_from([0.0, 0.02]), memo=st.sampled_from([None, "miss", "hit"]),
       seed=st.integers(0, 2**32 - 1))
def test_only_align_writes_the_plant(shape, x, y, lift, angle_noise, memo, seed):
    # the probe's stop reaches the follow through ProbeResult.tip, not the plant
    ph = Phantom(PhantomConfig(), TumorGeometry(shape))
    g = edge_grid(ph, x, y)
    grid = SurfaceGrid(g.origin_xy, g.dx, g.dy, g.height + lift, g.normal, g.valid_mask)
    params, gains = ProbeParams(), ControllerGains()
    cal = CalibrationParams(angle_noise=angle_noise)
    plant, twin = ProbePlant(ph, params, cal), ProbePlant(ph, params, cal)
    point, normal = cell_to_surface(grid, 10, 10)
    twin.align(point + (params.hover + params.tip_radius) * normal, tuple(normal),
               np.random.default_rng(seed))
    descents = None if memo is None else {}
    res = None
    with mock.patch.object(policy, "_descend", wraps=policy._descend) as descend:
        for _ in range(2 if memo == "hit" else 1):
            try:
                res = probe_cell(plant, grid, (10, 10), gains, np.random.default_rng(seed),
                                 descents)
            except NoContact:
                res = None
    # a hit computes no descent; a descent that raises is not kept
    assert descend.call_count == (2 if memo == "hit" and res is None else 1)
    event("no contact" if res is None else f"memo {memo}")
    assert repr(vars(plant)) == repr(vars(twin))  # repr gives each float's exact bits
    if res is not None and res.classified_tumor:
        event("followed")
        contour_follow(plant, grid, res, gains, np.random.default_rng(seed))
        assert repr(vars(plant)) == repr(vars(twin))


class TestRunPolicy:
    def test_budget_and_modes(self, analytic_grid):
        ph = flat_phantom(TumorGeometry("hemisphere", radius=0.01))
        grid = analytic_grid(ph)
        cfg = default_config(strategy="bo", mode="cf", budget=20)
        probes, trajs = run_policy(ph, grid, cfg, seed=3)
        assert len(probes) == 20
        assert len(trajs) == sum(1 for p in probes if p.classified_tumor)
        probes_d, trajs_d = run_policy(ph, grid, replace(cfg, mode="discrete"), seed=3)
        assert len(trajs_d) == 0
        # same seed, same selection stream: identical probed cells
        assert [p.cell for p in probes_d] == [p.cell for p in probes]

    @pytest.mark.parametrize("strategy", ["rs", "bo"])
    def test_twins_give_the_same_probe_records(self, analytic_grid, strategy):
        # the premise of sharing descents: a follow changes no later probe,
        # under angle noise and a gravity residual too
        cfg = default_config(strategy=strategy, mode="cf", budget=20)
        cfg = replace(cfg, cal=replace(cfg.cal, angle_noise=0.02),
                      probe=replace(cfg.probe, gravity_residual=(0.01, 0.0, 0.02)))
        ph = Phantom(cfg.phantom, cfg.tumor)
        grid = analytic_grid(ph)
        cf, trajs = run_policy(ph, grid, cfg, seed=3)
        discrete, none = run_policy(ph, grid, replace(cfg, mode="discrete"), seed=3)
        assert len(trajs) >= 2 and none == [] and len(cf) == len(discrete) == 20
        for a, b in zip(cf, discrete):
            assert a.cell == b.cell
            for name in ("f_z", "d_z", "k", "p_zi", "tip", "contact_point", "normal", "f_vec"):
                assert np.asarray(getattr(a, name)).tobytes() == \
                    np.asarray(getattr(b, name)).tobytes(), name

    def test_exhausted_budget(self, analytic_grid):
        ph = flat_phantom()
        grid = analytic_grid(ph, lo=(-0.004, -0.004), hi=(0.004, 0.004))
        with pytest.raises(Exhausted):
            run_policy(ph, grid, default_config(strategy="rs", mode="discrete", budget=1000),
                       seed=0)

    @pytest.mark.parametrize("strategy", ["rs", "bo"])
    def test_a_budget_of_every_valid_cell_probes_each_once(self, analytic_grid, strategy):
        ph = flat_phantom()
        full = analytic_grid(ph, lo=(-0.004, -0.002), hi=(0.004, 0.004))  # 5 x 4 cells
        mask = np.ones((full.nx, full.ny), dtype=bool)
        mask[0, 0] = mask[4, 1] = mask[2, 3] = False
        grid = SurfaceGrid(full.origin_xy, full.dx, full.dy, full.height, full.normal, mask)
        cfg = default_config(strategy=strategy, mode="discrete", budget=int(mask.sum()))
        probes, _ = run_policy(ph, grid, cfg, seed=0)
        assert sorted(p.cell for p in probes) == [tuple(c) for c in grid.valid_cells().tolist()]
        with pytest.raises(Exhausted, match="budget 18 exceeds 17 valid cells"):
            run_policy(ph, grid, replace(cfg, budget=cfg.budget + 1), seed=0)

    @pytest.mark.parametrize("mode", ["cf", "discrete"])
    @pytest.mark.parametrize("strategy", ["bo", "rs"])
    @pytest.mark.parametrize("shape", ["hemisphere", "crescent"])
    def test_a_smaller_budget_runs_a_prefix(self, analytic_grid, shape, strategy, mode):
        cfg = default_config(shape, strategy, mode, budget=20)
        ph = Phantom(cfg.phantom, cfg.tumor)
        grid = analytic_grid(ph)
        probes, trajs = run_policy(ph, grid, cfg, seed=7)
        for n in (5, 12):
            head, follows = run_policy(ph, grid, replace(cfg, budget=n), seed=7)
            assert [(p.cell, p.k) for p in head] == [(p.cell, p.k) for p in probes[:n]]
            cells = {p.cell for p in head}
            want = [t for t in trajs if t.start_cell in cells]
            assert len(follows) == len(want)
            for got, ref in zip(follows, want):
                assert got.poses.tobytes() == ref.poses.tobytes()
                assert got.forces.tobytes() == ref.forces.tobytes()
                assert got.outcome == ref.outcome

    def test_bitwise_determinism(self, analytic_grid):
        ph = flat_phantom(TumorGeometry("hemisphere", radius=0.01))
        grid = analytic_grid(ph)
        runs = []
        for _ in range(2):
            probes, trajs = run_policy(ph, grid,
                                       default_config(strategy="bo", mode="cf", budget=15),
                                       seed=9)
            runs.append((probes, trajs))
        (pa, ta), (pb, tb) = runs
        assert [p.cell for p in pa] == [p.cell for p in pb]
        assert [p.k for p in pa] == [p.k for p in pb]
        assert len(ta) == len(tb)
        for x, y in zip(ta, tb):
            assert np.array_equal(x.poses, y.poses)
            assert np.array_equal(x.forces, y.forces)
            assert np.array_equal(x.times, y.times)
            assert x.outcome == y.outcome
