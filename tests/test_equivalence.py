"""Property tests: the fast paths of the probe against their references.

(a) ``ProbePlant.measure`` (one affine map per palpation) against the
    step-by-step chain of ``calibration.py``, and ``force_floor`` as a
    bound on the map's axial part.
(b) The array contact law and surface normal against the scalar ones
    ``Phantom`` used to carry, ported here as ``reference_contact_force``
    and ``reference_surface_normal``: both do the same operations, so they
    must agree exactly.  The scalar views ``contact_force``,
    ``surface_normal`` and ``z_skin`` too.
(c) The windowed ``probe_cell`` descent against a step-by-step scalar
    descent, ported here from the loop it replaced.
(d) ``Phantom.contact_law`` against ``reference_contact_force`` and
    ``reference_surface_normal``.
(e) ``contour_follow`` (one specialised tick) against the loop it
    replaced, ported here with its plant step ``reference_step``.
(f) The reconstruction dedup (close pairs, then greedy) against the
    nested-loop dedup it replaced.
(g) ``reconstruct_mesh`` (registration's mesher plus the edge filter)
    against the standalone mesher it replaced, ported here.
(h) The barycentric transforms of ``registration._Triangulation`` against
    scipy's ``Delaunay.transform``, and ``interpolate_grid`` against the
    plain ``CloughTocher2DInterpolator(xy, z)`` version it replaced.
(i) ``preprocess_cloud`` (one flat voxel key, ``bincount`` sums) and
    ``_vertex_normals`` (one ``bincount`` per component) against the
    row-key ``np.unique`` / ``np.add.at`` versions they replaced, ported here.
(j) The per-shape tumor height ``TumorGeometry.height_fn``, which
    ``contact_law`` captures, against the method body it replaced, ported here.
(k) ``SurfaceGrid.sample_height``, which (e)'s reference loop also calls,
    against a plain clamped bilinear formula on the grid's node heights.
"""

import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from scipy.interpolate import CloughTocher2DInterpolator
from scipy.spatial import Delaunay, QhullError, cKDTree

from palpsim import (
    CalibrationParams,
    ControllerGains,
    ExperimentConfig,
    ForceReading,
    PalpationTrajectory,
    PhantomConfig,
    PointCloud,
    ProbeParams,
    ProbePlant,
    SurfaceMesh,
    TumorGeometry,
    compensate_tip_weight,
    config_from_flat,
    contour_follow,
    crop_roi,
    cyl_bump,
    default_config,
    extract_contact_points,
    flat_profile,
    gauss_bump,
    interpolate_grid,
    mesh_from_cloud,
    preprocess_cloud,
    probe_cell,
    reconstruct_mesh,
    remove_z_offset,
    rotation_zyx,
    run_policy,
)
from palpsim import evaluation, policy
from palpsim.errors import (
    AdmissibleForceExceeded,
    DegenerateCloud,
    EmptyAfterFilter,
    NoContact,
    NumericalBlowup,
    OutOfRange,
    PalpSimError,
    ResolutionTooCoarse,
)
from palpsim.experiment import _CLOUD_STREAM
from palpsim.phantom import Phantom
from palpsim.ply import _vertex_normals
from palpsim.registration import (
    SurfaceGrid,
    _masked_gradient,
    _Triangulation,
    cell_to_surface,
)

PROFILES = {"flat": flat_profile, "cyl_bump": cyl_bump, "gauss_bump": gauss_bump}
SHAPES = ("hemisphere", "ellipsoid", "crescent")

finite = dict(allow_nan=False, allow_infinity=False)
unit = st.floats(-1.0, 1.0, **finite)


def make_phantom(shape, profile):
    return Phantom(PhantomConfig(surface_profile=PROFILES[profile]()),
                   TumorGeometry(shape) if shape is not None else None)


# -- (a) load-cell map against the calibration chain ---------------------------

def chain(plant: ProbePlant, f) -> tuple[float, np.ndarray]:
    """The sensor and calibration chain, one step at a time."""
    cal = plant.cal
    loaded = np.asarray(f, dtype=float) + np.array([0.0, 0.0, cal.tip_weight_n])
    raw = rotation_zyx(plant.euler).T @ loaded + np.asarray(cal.z_offset)
    local = remove_z_offset(ForceReading(raw), cal)
    comp = compensate_tip_weight(local, plant.euler_est, cal)
    return float(comp.f[2]), rotation_zyx(plant.euler_est) @ comp.f


@settings(max_examples=200, deadline=None)
@given(axis=st.tuples(unit, unit, unit).filter(lambda a: math.hypot(*a) > 0.1),
       angle_noise=st.floats(0.0, 0.2, **finite),
       tip_weight=st.floats(0.0, 5.0, **finite),
       z_offset=st.tuples(*[st.floats(-5.0, 5.0, **finite)] * 3),
       force=st.tuples(*[st.floats(-20.0, 20.0, **finite)] * 3),
       seed=st.integers(0, 2**32 - 1))
def test_measure_matches_the_calibration_chain(axis, angle_noise, tip_weight, z_offset,
                                               force, seed):
    cal = CalibrationParams(tip_weight_n=tip_weight, z_offset=z_offset,
                            angle_noise=angle_noise)
    plant = ProbePlant(make_phantom("hemisphere", "flat"), ProbeParams(), cal)
    plant.align((0.0, 0.0, 0.03), axis, np.random.default_rng(seed))
    axial, out = plant.measure(*force)
    want_axial, want_out = chain(plant, force)
    assert abs(axial - want_axial) <= 1e-9
    assert np.max(np.abs(out - want_out)) <= 1e-9


def test_load_cell_gives_the_same_floats_on_arrays():
    plant = ProbePlant(make_phantom("hemisphere", "flat"), ProbeParams(),
                       CalibrationParams(angle_noise=0.05))
    rng = np.random.default_rng(3)
    plant.align((0.0, 0.0, 0.03), (0.3, -0.2, 1.0), rng)
    f = rng.uniform(-10.0, 10.0, (3, 50))
    arrays = plant.load_cell(*f)
    for j in range(f.shape[1]):
        assert plant.load_cell(*(float(c) for c in f[:, j])) == \
            tuple(float(a[j]) for a in arrays)


@settings(max_examples=400, deadline=None)
@given(axis=st.tuples(unit, unit, unit).filter(lambda a: math.hypot(*a) > 0.1),
       angle_noise=st.sampled_from([0.0, 0.02, 0.3, 1.0]),
       tip_weight=st.one_of(st.sampled_from([0.0, 1e3]), st.floats(0.0, 1e3, **finite)),
       along_axis=st.booleans(),
       direction=st.tuples(unit, unit, unit).filter(lambda a: math.hypot(*a) > 0.1),
       fn=st.floats(1e-3, 1e4, **finite),
       seed=st.integers(0, 2**32 - 1))
# no orientation noise and a heavy tip: the reading rounds above the force,
# by more than the slack, which the margin covers
@example(axis=(0.0, 1.0, 1.0), angle_noise=0.0, tip_weight=1e3, along_axis=True,
         direction=(0.0, 0.0, 1.0), fn=1.0, seed=0)
def test_force_floor_bounds_every_axial_reading(axis, angle_noise, tip_weight, along_axis,
                                                direction, fn, seed):
    """``probe_cell`` reads the force rule only where the contact force
    reaches ``force_floor(f_thres)``; with ``f_thres`` at the reading's own
    axial part, the tightest case, the force must reach the floor.  A
    contact force along the true tip axis gives the largest axial part."""
    cal = CalibrationParams(tip_weight_n=tip_weight, angle_noise=angle_noise)
    plant = ProbePlant(make_phantom("hemisphere", "flat"), ProbeParams(), cal)
    plant.align((0.0, 0.0, 0.03), axis, np.random.default_rng(seed))
    d = plant.axis if along_axis else direction
    norm = math.sqrt(d[0] * d[0] + d[1] * d[1] + d[2] * d[2])
    axial = plant.load_cell(*(fn * (c / norm) for c in d))[0]
    assert fn >= plant.force_floor(axial)


# -- (b) array contact law and normal against the scalar ones ------------------

def reference_profile_height(prof, x: float, y: float) -> float:
    """``SurfaceProfile.height`` as it was."""
    if prof.kind == "flat":
        return 0.0
    if prof.kind == "cyl_bump":
        u = x / prof.radius
        s = 1.0 - u * u
        return prof.amplitude * math.sqrt(s) if s > 0.0 else 0.0
    r2 = x * x + y * y
    return prof.amplitude * math.exp(-r2 / (2.0 * prof.sigma * prof.sigma))


def reference_profile_slope(prof, x: float, y: float) -> tuple[float, float]:
    """``SurfaceProfile.slope`` as it was: (dz/dx, dz/dy) of the profile."""
    if prof.kind == "flat":
        return 0.0, 0.0
    if prof.kind == "cyl_bump":
        u = x / prof.radius
        s = 1.0 - u * u
        if s <= 1e-12:
            return 0.0, 0.0
        return -prof.amplitude * u / (prof.radius * math.sqrt(s)), 0.0
    g = reference_profile_height(prof, x, y) / (prof.sigma * prof.sigma)
    return -x * g, -y * g


def reference_contact_force(phantom: Phantom, qx: float, qy: float, probe_z: float,
                            probe_vz: float = 0.0) -> float:
    """The scalar ``Phantom.contact_force`` as it was, normal force only:
    the piecewise spring force along the soft stack, then the hard stop,
    plus damping while descending in contact."""
    cfg = phantom.cfg
    skin_base = cfg.muscle_plane_z + cfg.stack_depth
    d = skin_base + reference_profile_height(cfg.surface_profile, qx, qy) - probe_z
    if d <= 0.0:
        return 0.0
    h = reference_tumor_height(phantom.tumor, qx, qy) if phantom.tumor is not None else 0.0
    d_stop = cfg.stack_depth - h
    if d <= d_stop:
        f = cfg.k_soft * d
    else:
        k_hard = cfg.k_tumor if h > 0.0 else cfg.k_muscle
        f = cfg.k_soft * d_stop + k_hard * (d - d_stop)
    if probe_vz < 0.0:
        f += cfg.contact_damping * (-probe_vz)
    return f


def reference_surface_normal(phantom: Phantom, x: float, y: float) -> tuple[float, float, float]:
    """The scalar ``Phantom.surface_normal`` as it was."""
    gx, gy = reference_profile_slope(phantom.cfg.surface_profile, x, y)
    inv = 1.0 / math.sqrt(gx * gx + gy * gy + 1.0)
    return -gx * inv, -gy * inv, inv


@pytest.mark.parametrize("profile", sorted(PROFILES))
@pytest.mark.parametrize("shape", SHAPES + (None,))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_array_contact_and_normal_match_scalar(shape, profile, data):
    ph = make_phantom(shape, profile)
    n = data.draw(st.integers(1, 40))
    xy = st.floats(-0.03, 0.03, **finite)
    xs = np.array(data.draw(st.lists(xy, min_size=n, max_size=n)))
    ys = np.array(data.draw(st.lists(xy, min_size=n, max_size=n)))
    depth = np.array(data.draw(st.lists(st.floats(-0.005, 0.03, **finite),
                                        min_size=n, max_size=n)))
    vz = data.draw(st.floats(-0.05, 0.05, **finite))
    zs = ph.z_skin_np(xs, ys) - depth
    f = ph.contact_force_np(xs, ys, zs, vz)
    normal = np.column_stack(ph.surface_normal_np(xs, ys))
    skin_base = ph.cfg.muscle_plane_z + ph.cfg.stack_depth
    for j in range(n):
        x, y, z = float(xs[j]), float(ys[j]), float(zs[j])
        assert f[j] == reference_contact_force(ph, x, y, z, vz)
        assert tuple(normal[j]) == reference_surface_normal(ph, x, y)
        # the scalar views read these forms
        assert ph.contact_force(x, y, z, vz) == f[j]
        assert ph.surface_normal(x, y) == tuple(normal[j])
        assert ph.z_skin(x, y) == skin_base + reference_profile_height(
            ph.cfg.surface_profile, x, y)


# -- (c) windowed descent against the scalar descent -----------------------------

def reference_descent(plant, grid, cell, gains, rng):
    """Step-by-step probe descent: (steps, f_z, d_z, p_zi, stop position),
    with all but ``steps`` None when it runs out of travel."""
    phantom, params = plant.phantom, plant.params
    point, normal = cell_to_surface(grid, cell[0], cell[1])
    nx, ny, nz = float(normal[0]), float(normal[1]), float(normal[2])
    r = params.tip_radius
    plant.align(point + (params.hover + r) * normal, (nx, ny, nz), rng)
    step_len = params.indent_speed * gains.period
    travel_limit = params.hover + params.d_thres + 0.005
    px, py, pz = plant.px, plant.py, plant.pz
    vz_query = -params.indent_speed * nz
    traveled = 0.0
    steps = 0
    p_zi = None
    while True:
        cx = px - r * nx
        cy = py - r * ny
        cz = pz - r * nz
        fn = reference_contact_force(phantom, cx, cy, cz, vz_query)
        if fn > 0.0:
            nsx, nsy, nsz = reference_surface_normal(phantom, cx, cy)
            f_axial, _ = plant.measure(fn * nsx, fn * nsy, fn * nsz)
            if p_zi is None:
                p_zi = pz
            d_z = abs(pz - p_zi)
            if f_axial >= params.f_thres or d_z >= params.d_thres:
                return steps, f_axial, d_z, p_zi, (px, py, pz)
        elif traveled > travel_limit:
            return steps, None, None, None, None
        px -= step_len * nx
        py -= step_len * ny
        pz -= step_len * nz
        traveled += step_len
        steps += 1


@settings(max_examples=120, deadline=None)
@given(shape=st.sampled_from(SHAPES), profile=st.sampled_from(sorted(PROFILES)),
       x=st.floats(-0.02, 0.02, **finite), y=st.floats(-0.02, 0.02, **finite),
       lift=st.floats(-0.002, 0.03, **finite),
       tilt=st.floats(0.0, 1.0, **finite), azimuth=st.floats(0.0, 2 * math.pi, **finite),
       f_thres=st.floats(0.05, 12.0, **finite),
       indent_speed=st.sampled_from([0.01, 0.02, 0.05]),
       angle_noise=st.sampled_from([0.0, 0.02, 0.3]),
       tip_weight=st.sampled_from([0.0, 0.35, 2.0]),
       window=st.sampled_from([policy._MAX_WINDOW, 7, 200]),
       seed=st.integers(0, 2**32 - 1))
def test_probe_cell_stops_where_the_scalar_descent_stops(
        shape, profile, x, y, lift, tilt, azimuth, f_thres, indent_speed, angle_noise,
        tip_weight, window, seed):
    ph = make_phantom(shape, profile)
    # one-cell grid: a registered point off the true skin by ``lift``, with a
    # normal tilted up to about 57 degrees, as a noisy scan could give
    normal = np.array([math.sin(tilt) * math.cos(azimuth),
                       math.sin(tilt) * math.sin(azimuth), math.cos(tilt)])
    grid = SurfaceGrid((x, y), 0.002, 0.002, [[ph.z_skin(x, y) + lift]],
                       normal.reshape(1, 1, 3), [[True]])
    params = ProbeParams(f_thres=f_thres, d_thres=0.017, indent_speed=indent_speed)
    cal = CalibrationParams(tip_weight_n=tip_weight, angle_noise=angle_noise)
    gains = ControllerGains()
    ref = reference_descent(ProbePlant(ph, params, cal), grid, (0, 0), gains,
                            np.random.default_rng(seed))
    plant = ProbePlant(ph, params, cal)
    with mock.patch.object(policy, "_MAX_WINDOW", window):
        try:
            res = probe_cell(plant, grid, (0, 0), gains, np.random.default_rng(seed))
        except NoContact as exc:
            event("no contact")
            assert ref[1] is None, ref
            assert int(re.search(r"\((\d+) steps\)", str(exc)).group(1)) == ref[0]
            return
    _, f_z, d_z, p_zi, stop = ref
    assert f_z is not None, "reference ran out of travel"
    if plant.force_floor(params.f_thres) <= 0.0:
        event("every touching step a candidate")
    event("force stop" if f_z >= params.f_thres else "depth stop")
    assert (res.tip, res.p_zi, res.d_z, res.f_z) == (stop, p_zi, d_z, f_z)


# -- (d) specialised contact law against the scalar reference -------------------

def bits(values) -> tuple[str, ...]:
    """Exact float identity, the sign of zero included."""
    return tuple(float(v).hex() for v in values)


@pytest.mark.parametrize("profile", sorted(PROFILES))
@pytest.mark.parametrize("shape", SHAPES + (None,))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_contact_law_matches_contact_force_and_normal(shape, profile, data):
    ph = make_phantom(shape, profile)
    law = ph.contact_law()
    radius = ph.cfg.surface_profile.radius
    # cyl_bump's rim, where s = 1 - (x / radius)^2 is at or just around 1e-12
    rim = [sign * radius * (1.0 - e) for sign in (1.0, -1.0) for e in (0.0, 4e-13, 6e-13)]
    x = data.draw(st.one_of(st.floats(-0.06, 0.06, **finite), st.sampled_from(rim)))
    y = data.draw(st.floats(-0.03, 0.03, **finite))
    where = data.draw(st.sampled_from(["free", "skin", "stop"]))
    if where == "skin":
        z = ph.z_skin(x, y)              # d == 0
    elif where == "stop":
        z = ph.z_skin(x, y) - (ph.cfg.stack_depth - ph.h_tumor(x, y))  # d == d_stop
    else:
        z = ph.z_skin(x, y) - data.draw(st.floats(-0.005, 0.03, **finite))
    vz = data.draw(st.one_of(st.floats(-0.05, 0.05, **finite), st.sampled_from([0.0, -0.0])))
    event(where)
    fn = reference_contact_force(ph, x, y, z, vz)
    if fn > 0.0:
        nx, ny, nz = reference_surface_normal(ph, x, y)
        want = (fn, fn * nx, fn * ny, fn * nz)
    else:
        want = (fn, 0.0, 0.0, 0.0)
    assert bits(law(x, y, z, vz)) == bits(want)


# -- (e) contour_follow against the loop it replaced --------------------------------

def reference_step(px, py, pz, vx, vy, vz, fcx, fcy, fcz, phantom, dt, mass, tip_r,
                   ax, ay, az, grx, gry, grz):
    """One semi-implicit Euler plant step, m a = f_cmd + contact - residual,
    with contact at the tip point along the skin normal.  Returns
    (px, py, pz, vx, vy, vz, in_contact, f_contact, fvx, fvy, fvz)."""
    cx = px - tip_r * ax
    cy = py - tip_r * ay
    cz = pz - tip_r * az
    fn = reference_contact_force(phantom, cx, cy, cz, vz)
    if fn > 0.0:
        nsx, nsy, nsz = reference_surface_normal(phantom, cx, cy)
        fvx, fvy, fvz = fn * nsx, fn * nsy, fn * nsz
    else:
        fvx = fvy = fvz = 0.0
    inv_m = 1.0 / mass
    vx += (fcx + fvx - grx) * inv_m * dt
    vy += (fcy + fvy - gry) * inv_m * dt
    vz += (fcz + fvz - grz) * inv_m * dt
    if vx * vx + vy * vy + vz * vz > policy.V_MAX * policy.V_MAX:
        raise NumericalBlowup(f"plant speed exceeded {policy.V_MAX} m/s")
    px += vx * dt
    py += vy * dt
    pz += vz * dt
    return px, py, pz, vx, vy, vz, fn > 0.0, fn, fvx, fvy, fvz


def reference_follow(plant, grid, start, gains, rng):
    """``contour_follow`` as a plain loop: ``reference_step`` and a full
    load-cell ``measure`` on every tick, and the boundary depth read on
    every tick.  It starts from ``start.tip`` at rest and writes nothing to
    the plant.  Its events show which boundary-test paths an example ran."""
    phantom, params = plant.phantom, plant.params
    if not start.classified_tumor:
        raise OutOfRange("contour following requires a tumor-classified probe")
    theta = float(rng.uniform(0.0, 2.0 * math.pi))
    dir_x, dir_y = math.cos(theta), math.sin(theta)
    dt = gains.period
    inner_n = max(1, int(round(1.0 / (params.osc_rate * dt))))
    outer_dt = inner_n * dt
    depth_bias = params.press_force / gains.k_p
    k_p, k_d, e_lim = gains.k_p, gains.k_d, gains.e_thres
    f_adm2 = policy.admissible_force(gains) ** 2
    f_thres, d_thres = params.f_thres, params.d_thres
    ticks_per_stroke = params.ticks_per_stroke
    mass, tip_r = params.probe_mass, params.tip_radius
    ax, ay, az = plant.axis
    grx, gry, grz = (float(g) for g in params.gravity_residual)
    px, py, pz = start.tip
    vx = vy = vz = 0.0
    cx0, cy0, cz0 = px - tip_r * ax, py - tip_r * ay, pz - tip_r * az
    fn0 = reference_contact_force(phantom, cx0, cy0, cz0, vz)
    ns = reference_surface_normal(phantom, cx0, cy0)
    _, f_vec0 = plant.measure(fn0 * ns[0], fn0 * ns[1], fn0 * ns[2])
    times, poses, forces = [0.0], [(px, py, pz)], [tuple(f_vec0)]
    t = last_contact = 0.0
    outcome = None
    anchor_x = anchor_y = 0.0
    start_x, start_y = px, py
    tick = phase = 0
    reversed_once = do_reverse = latched = False
    armed = True
    min_waypoints = min(10, ticks_per_stroke)
    while outcome is None:
        if t + outer_dt > params.cf_timeout + 1e-12:
            outcome = policy.TIMEOUT
            break
        if do_reverse:
            do_reverse = False
            back_x, back_y = start_x - px, start_y - py
            norm = math.hypot(back_x, back_y)
            if norm > 1e-9:
                dir_x, dir_y = back_x / norm, back_y / norm
            else:
                dir_x, dir_y = -dir_x, -dir_y
            anchor_x, anchor_y = px, py
            phase = ticks_per_stroke // 2
        elif phase == 0:
            anchor_x, anchor_y = px, py
        off = policy.min_jerk_offset((phase + 1) / ticks_per_stroke, params.amplitude)
        pdx, pdy, pdz = anchor_x + dir_x * off, anchor_y + dir_y * off, pz - depth_bias
        f_vec = (0.0, 0.0, 0.0)
        for _ in range(inner_n):
            ex = min(max(pdx - px, -e_lim), e_lim)
            ey = min(max(pdy - py, -e_lim), e_lim)
            ez = min(max(pdz - pz, -e_lim), e_lim)
            fcx = k_p * ex - k_d * vx
            fcy = k_p * ey - k_d * vy
            fcz = k_p * ez - k_d * vz
            if fcx * fcx + fcy * fcy + fcz * fcz > f_adm2:
                raise AdmissibleForceExceeded(
                    f"|f_cmd| exceeded admissible bound {math.sqrt(f_adm2):.1f} N")
            (px, py, pz, vx, vy, vz, in_contact, _, fvx, fvy, fvz) = reference_step(
                px, py, pz, vx, vy, vz, fcx, fcy, fcz, phantom, dt, mass,
                tip_r, ax, ay, az, grx, gry, grz)
            t += dt
            f_axial, f_vec = plant.measure(fvx, fvy, fvz)
            if in_contact:
                last_contact = t
            elif t - last_contact > params.contact_loss_timeout:
                outcome = policy.LOST_CONTACT
                break
            d_z = grid.sample_height(px - tip_r * ax, py - tip_r * ay) - (pz - tip_r * az)
            if d_z > d_thres and f_axial < f_thres:
                if armed:
                    if not reversed_once and tick < ticks_per_stroke:
                        event("reversed")
                        reversed_once = do_reverse = True
                        armed = False
                    elif len(times) >= min_waypoints:
                        outcome = policy.BOUNDARY_REACHED
                        break
                    else:
                        event("latched")
                        latched = True
            elif not armed and not do_reverse and f_axial >= f_thres and d_z < d_thres:
                event("re-armed")
                armed = True
        times.append(t)
        poses.append((px, py, pz))
        forces.append(tuple(f_vec))
        tick += 1
        phase = (phase + 1) % ticks_per_stroke
        if outcome is None and latched and len(times) >= min_waypoints:
            outcome = policy.BOUNDARY_REACHED
    return PalpationTrajectory(np.array(times), np.array(poses), np.array(forces), outcome,
                               start.cell, (dir_x, dir_y), np.array(plant.axis))


def follow_or_error(follow, plant, grid, start, gains, seed):
    try:
        return follow(plant, grid, start, gains, np.random.default_rng(seed))
    except (AdmissibleForceExceeded, NumericalBlowup, OutOfRange) as exc:
        return type(exc), str(exc)


def edge_grid(ph, x, y):
    """21 x 21 cells of the true skin, 2 mm apart, with cell (10, 10) at (x, y)."""
    gx = x - 0.02 + 0.002 * np.arange(21)
    gy = y - 0.02 + 0.002 * np.arange(21)
    mx, my = np.meshgrid(gx, gy, indexing="ij")
    normal = np.stack(ph.surface_normal_np(mx.ravel(), my.ravel()), axis=1)
    return SurfaceGrid((gx[0], gy[0]), 0.002, 0.002, ph.z_skin_np(mx, my),
                       normal.reshape(21, 21, 3), np.ones((21, 21), dtype=bool))


@settings(max_examples=200, deadline=None)
@given(shape=st.sampled_from(SHAPES), profile=st.sampled_from(sorted(PROFILES)),
       r=st.one_of(st.just(0.0), st.floats(0.005, 0.012, **finite)),
       azimuth=st.floats(0.0, 2 * math.pi, **finite),
       angle_noise=st.sampled_from([0.0, 0.02]),
       gravity=st.sampled_from([(0.0, 0.0, 0.0), (0.01, 0.0, 0.02), (-0.3, 0.2, 0.5),
                                (0.0, 0.0, -8.0)]),
       cf_timeout=st.sampled_from([5.0] * 3 + [0.0, 0.02, 0.15]),
       d_thres=st.sampled_from([0.017, 0.013]),
       # mostly the default controller; the others reach both raising guards
       gains=st.sampled_from([ControllerGains()] * 4 + [ControllerGains(k_d=0.0),
                                                        ControllerGains(k_p=4000.0, k_d=2.0)]),
       probe_mass=st.sampled_from([0.1] * 4 + [0.002]),
       # 1 and 3 make min_waypoints equal to ticks_per_stroke
       ticks_per_stroke=st.sampled_from([12] * 2 + [1, 3]),
       seed=st.integers(0, 2**32 - 1))
# OPENING -> TURNING -> RETURNING -> ARMED -> LATCHED (19 ticks) -> boundary
@example(shape="ellipsoid", profile="gauss_bump", r=0.008506565698919407,
         azimuth=1.1520612526577858, angle_noise=0.0, gravity=(0.0, 0.0, 0.0), cf_timeout=5.0,
         d_thres=0.013, gains=ControllerGains(), probe_mass=0.1, ticks_per_stroke=12, seed=259)
# OPENING -> boundary after the opening stroke, at waypoint 19
@example(shape="hemisphere", profile="gauss_bump", r=0.0, azimuth=5.501143899310936,
         angle_noise=0.02, gravity=(0.0, 0.0, 0.0), cf_timeout=5.0, d_thres=0.013,
         gains=ControllerGains(), probe_mass=0.1, ticks_per_stroke=3, seed=2426401943)
# OPENING -> TURNING, back on the inclusion while still TURNING (no re-arm
# before the redirect) -> RETURNING -> ARMED -> boundary
@example(shape="hemisphere", profile="flat", r=0.009571098967754411,
         azimuth=6.208375397697188, angle_noise=0.0, gravity=(-0.3, 0.2, 0.5), cf_timeout=5.0,
         d_thres=0.017, gains=ControllerGains(k_p=4000.0, k_d=2.0), probe_mass=0.1,
         ticks_per_stroke=3, seed=881746527)
# OPENING -> TURNING -> RETURNING -> timeout
@example(shape="hemisphere", profile="gauss_bump", r=0.011974913923579378,
         azimuth=5.140763421071379, angle_noise=0.0, gravity=(0.01, 0.0, 0.02),
         cf_timeout=0.15, d_thres=0.017, gains=ControllerGains(), probe_mass=0.1,
         ticks_per_stroke=3, seed=2963043486)
# OPENING -> TURNING -> RETURNING -> ARMED -> boundary, one tick per stroke
@example(shape="hemisphere", profile="gauss_bump", r=0.009246888700605194,
         azimuth=2.356261098317091, angle_noise=0.02, gravity=(0.01, 0.0, 0.02),
         cf_timeout=5.0, d_thres=0.013, gains=ControllerGains(), probe_mass=0.1,
         ticks_per_stroke=1, seed=2036397013)
def test_contour_follow_matches_the_reference_loop(shape, profile, r, azimuth, angle_noise,
                                                    gravity, cf_timeout, d_thres, gains,
                                                    probe_mass, ticks_per_stroke, seed):
    ph = make_phantom(shape, profile)
    # start cells out to the inclusion's edge, where the boundary test fires
    # early and the reverse and latch paths run
    x, y = r * math.cos(azimuth), r * math.sin(azimuth)
    grid = edge_grid(ph, x, y)
    params = ProbeParams(cf_timeout=cf_timeout, gravity_residual=gravity, d_thres=d_thres,
                         probe_mass=probe_mass, ticks_per_stroke=ticks_per_stroke)
    cal = CalibrationParams(angle_noise=angle_noise)
    plants = [ProbePlant(ph, params, cal) for _ in range(2)]
    starts = [probe_cell(p, grid, (10, 10), gains, np.random.default_rng(seed))
              for p in plants]
    event("classified" if starts[0].classified_tumor else "not classified")
    before = [repr(vars(p)) for p in plants]  # repr gives each float's exact bits
    want = follow_or_error(reference_follow, plants[0], grid, starts[0], gains, seed)
    got = follow_or_error(contour_follow, plants[1], grid, starts[1], gains, seed)
    assert [repr(vars(p)) for p in plants] == before  # a follow writes nothing back
    if isinstance(want, tuple):
        event(want[0].__name__)
        assert got == want
        return
    event(want.outcome)
    assert isinstance(got, PalpationTrajectory)
    assert got.outcome in (policy.BOUNDARY_REACHED, policy.TIMEOUT, policy.LOST_CONTACT)
    if got.outcome == policy.BOUNDARY_REACHED:
        assert len(got) >= min(10, ticks_per_stroke)
    # the loop's own timeout test allows 1e-12 s of rounding in the summed periods
    assert got.times[-1] - got.times[0] <= cf_timeout + 1e-12
    for name in ("times", "poses", "forces", "tip_normal"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    assert (got.outcome, got.direction, got.start_cell) == \
        (want.outcome, want.direction, want.start_cell)


# -- (f) dedup against the nested-loop dedup it replaced ---------------------------

def reference_dedup_indices(points: np.ndarray) -> list[int]:
    """Greedy spatial dedup in input order, with early exits from the
    27-bucket neighbourhood scan."""
    cell = evaluation._DEDUP_RADIUS
    r2 = cell * cell
    buckets: dict[tuple[int, int, int], list[int]] = {}
    kept: list[int] = []
    for i, p in enumerate(points):
        key = (int(math.floor(p[0] / cell)), int(math.floor(p[1] / cell)),
               int(math.floor(p[2] / cell)))
        close = False
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for dz in (-1, 0, 1):
                    for j in buckets.get((key[0] + dx, key[1] + dy, key[2] + dz), ()):
                        q = points[j]
                        if ((p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2
                                + (p[2] - q[2]) ** 2) < r2:
                            close = True
                            break
                    if close:
                        break
                if close:
                    break
            if close:
                break
        if not close:
            kept.append(i)
            buckets.setdefault(key, []).append(i)
    return kept


DEDUP_R = evaluation._DEDUP_RADIUS
# exact duplicates, and partners at the radius and one ulp either side of it
RADIUS_STEPS = [0.0] + [sign * d for sign in (1.0, -1.0)
                        for d in (DEDUP_R, math.nextafter(DEDUP_R, 0.0),
                                  math.nextafter(DEDUP_R, 1.0))]
# bucket edges (multiples of the radius) and free coordinates, both signs
DEDUP_COORD = st.one_of(st.integers(-5, 5).map(lambda k: k * DEDUP_R),
                        st.floats(-1e-3, 1e-3, **finite))
# a point, or a partner of an earlier point offset along one axis; chains of
# partners test that only kept points are bucketed
DEDUP_ITEM = st.tuples(
    st.tuples(DEDUP_COORD, DEDUP_COORD, DEDUP_COORD),
    st.none() | st.tuples(st.integers(0, 39), st.integers(0, 2),
                          st.sampled_from(RADIUS_STEPS)
                          | st.floats(-1.5 * DEDUP_R, 1.5 * DEDUP_R, **finite)))


@settings(max_examples=200, deadline=None)
@given(items=st.lists(DEDUP_ITEM, min_size=1, max_size=40))
def test_dedup_keeps_what_the_reference_keeps(items):
    pts: list[tuple[float, float, float]] = []
    for point, partner in items:
        if partner is not None and pts:
            j, axis, step = partner
            p = list(pts[j % len(pts)])
            p[axis] += step
            point = tuple(p)
        pts.append(point)
    points = np.array(pts)
    assert evaluation._dedup_indices(points) == reference_dedup_indices(points)


def dense_polyline(n: int = 3200, seed: int = 11) -> np.ndarray:
    """``n`` points 0.1 mm apart along a spiral whose laps lie 0.15 mm apart,
    jittered by up to 0.03 mm per axis: long chains of close points along
    and across laps, as contour following leaves them."""
    r0, b = 0.002, 0.00015 / (2 * math.pi)  # r = r0 + b * angle
    r = np.sqrt(r0 * r0 + 2 * b * np.arange(n) * 1e-4)
    angle = (r - r0) / b
    pts = np.column_stack([r * np.cos(angle), r * np.sin(angle), np.full(n, 0.01)])
    return pts + np.random.default_rng(seed).uniform(-3e-5, 3e-5, (n, 3))


def bucket_edge_lattice(seed: int = 3) -> np.ndarray:
    """A 5 x 5 x 5 lattice on bucket edges (multiples of the radius), so
    neighbours lie one radius apart, plus copies shifted by one ulp of the
    radius either way, all in a shuffled order."""
    k = np.arange(-2, 3) * DEDUP_R
    lattice = np.stack(np.meshgrid(k, k, k, indexing="ij"), axis=-1).reshape(-1, 3)
    ulp = math.nextafter(DEDUP_R, 1.0) - DEDUP_R
    pts = np.vstack([lattice, lattice + ulp, lattice - ulp])
    return pts[np.random.default_rng(seed).permutation(len(pts))]


# offsets one radius long where ``dx*dx + ...`` and ``dx**2 + ...`` fall on
# opposite sides of the squared radius (found by a random search here)
SCALAR_TIES = np.array([
    [8.28343764875676e-05, 0.00011358297765880423, 0.00014225812194063116],
    [0.00012633755482476935, -0.0001266179103739797, 8.948031634625151e-05],
    [0.00017799638978742245, -7.40970558326004e-05, -5.316870827455249e-05],
    [0.00019844765166499796, 3.6332508201669793e-06, -2.4603435474042848e-05],
])


@pytest.mark.parametrize("points", [
    pytest.param(dense_polyline(), id="polyline"),
    pytest.param(bucket_edge_lattice(), id="bucket-edges"),
    pytest.param(np.array([[1e-3, -2e-3, 4e-3]]), id="one-point"),
    pytest.param(np.vstack([[0.0, 0.0, 0.0], SCALAR_TIES, -SCALAR_TIES]), id="scalar-ties"),
])
def test_dedup_keeps_what_the_reference_keeps_on_fixed_clouds(points):
    assert evaluation._dedup_indices(points) == reference_dedup_indices(points)


# -- (g) reconstruction mesh against the standalone mesher it replaced ----------

def reference_reconstruct_mesh(cloud: PointCloud) -> SurfaceMesh:
    """Delaunay mesh over the XY projection, without the triangles that have
    any 3D edge longer than 3x the median edge."""
    points = np.asarray(cloud.points, dtype=float).reshape(-1, 3)
    if points.shape[0] < 3:
        raise DegenerateCloud("need at least 3 points")
    try:
        tri = Delaunay(points[:, :2])
    except QhullError as exc:
        raise DegenerateCloud(f"triangulation failed: {exc}") from exc
    simplices = tri.simplices
    if simplices.shape[0] == 0:
        raise DegenerateCloud("no triangles produced")
    edges = np.stack([
        np.linalg.norm(points[simplices[:, 0]] - points[simplices[:, 1]], axis=1),
        np.linalg.norm(points[simplices[:, 1]] - points[simplices[:, 2]], axis=1),
        np.linalg.norm(points[simplices[:, 2]] - points[simplices[:, 0]], axis=1),
    ], axis=1)
    med = np.median(edges)
    keep = (edges <= 3.0 * med).all(axis=1)
    simplices = simplices[keep]
    if simplices.shape[0] == 0:
        raise DegenerateCloud("all triangles dropped by the edge filter")
    return SurfaceMesh(points, simplices)


def no_zero_area_triangles(cloud: PointCloud) -> bool:
    """The reference keeps zero-area triangles, which registration's mesher drops."""
    return len(mesh_from_cloud(cloud).triangles) == len(Delaunay(cloud.points[:, :2]).simplices)


def mesh_arrays(mesh: SurfaceMesh) -> dict[str, np.ndarray]:
    """The mesh's arrays and the vertex normals ``export_mesh_ply`` writes for it."""
    return {"vertices": mesh.vertices, "triangles": mesh.triangles,
            "vertex_normals": _vertex_normals(mesh.vertices, mesh.triangles)}


def assert_same_mesh(cloud: PointCloud) -> None:
    got = mesh_arrays(reconstruct_mesh(cloud))
    want = mesh_arrays(reference_reconstruct_mesh(cloud))
    for name in ("vertices", "triangles", "vertex_normals"):
        assert got[name].dtype == want[name].dtype, name
        assert got[name].tobytes() == want[name].tobytes(), name


@pytest.mark.parametrize("shape", ["hemisphere", "crescent"])
@pytest.mark.parametrize("strategy", ["bo", "rs"])
def test_recon_mesh_matches_the_reference_on_run_clouds(analytic_grid, shape, strategy):
    ph = Phantom(PhantomConfig(), TumorGeometry(shape))
    params = ProbeParams()
    probes, trajs = run_policy(ph, analytic_grid(ph),
                               default_config(strategy=strategy, mode="cf", budget=50), seed=11)
    cloud = extract_contact_points(trajs, probes, params)
    assert len(cloud) > 30 and no_zero_area_triangles(cloud)
    assert_same_mesh(cloud)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 300),
       scale=st.tuples(st.floats(1e-3, 1.0), st.floats(1e-3, 1.0), st.floats(0.0, 1.0)),
       gap=st.floats(0.0, 5.0))
def test_recon_mesh_matches_the_reference_on_random_clouds(seed, n, scale, gap):
    """Uniform clouds, half of them shifted ``gap`` box widths along x, so
    that triangles bridge the gap between two clusters."""
    pts = np.random.default_rng(seed).uniform(0.0, 1.0, (n, 3)) * scale
    pts[: n // 2, 0] += gap * scale[0]
    cloud = PointCloud(pts)
    assume(no_zero_area_triangles(cloud))
    assert_same_mesh(cloud)


# -- (h) barycentric transforms and interpolation against scipy's own path -------

def assert_same_transform(xy: np.ndarray):
    """Compare the transforms; return them, or None when qhull rejects ``xy``."""
    try:
        want = Delaunay(xy)
    except QhullError:
        return None
    got = _Triangulation(xy)
    assert got.simplices.tobytes() == want.simplices.tobytes()
    t_got, t_want = got.transform, want.transform
    assert t_got.dtype == t_want.dtype and t_got.shape == t_want.shape
    assert t_got.tobytes() == t_want.tobytes()  # NaN positions included
    return t_got


@st.composite
def uniform_clouds(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(3, 300))
    scale = draw(st.tuples(st.floats(1e-4, 1.0), st.floats(1e-4, 1.0)))
    return rng.uniform(-0.5, 0.5, (n, 2)) * scale + draw(st.floats(-1.0, 1.0))


@st.composite
def jittered_lattices(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(2, 25))
    spacing = draw(st.floats(1e-4, 0.1))
    jitter = draw(st.sampled_from([0.0, 1e-12, 1e-9, 1e-6, 1e-3, 0.3]))
    u, v = np.meshgrid(np.arange(k), np.arange(draw(st.integers(2, 25))), indexing="ij")
    xy = np.column_stack([u.ravel(), v.ravel()]).astype(float)
    return (xy + rng.uniform(-jitter, jitter, xy.shape)) * spacing


NEAR_LINE_OFFSETS = (0.0, 1e-17, 1e-15, 1e-13, 1e-12)


@st.composite
def near_collinear_clouds(draw):
    """Points scattered within ``offset`` of a line, plus one point off it:
    thin triangles whose condition sits on either side of scipy's limit."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 20))
    offset = draw(st.sampled_from(NEAR_LINE_OFFSETS))
    t = rng.uniform(0.0, 1.0, n)
    slope, shift = draw(st.floats(-3.0, 3.0)), draw(st.floats(-1.0, 1.0))
    line = np.column_stack([t, slope * t + shift + rng.uniform(-offset, offset, n)])
    apex = rng.uniform(-1.0, 2.0, (1, 2))
    return np.vstack([line, apex])


@settings(max_examples=400, deadline=None)
@given(xy=st.one_of(uniform_clouds(), jittered_lattices(), near_collinear_clouds()))
def test_transforms_match_scipy(xy):
    transform = assert_same_transform(xy)
    event("qhull rejects the cloud" if transform is None
          else f"NaN simplices: {bool(np.isnan(transform).any())}")


def test_transforms_match_scipy_on_seeded_near_collinear_clouds():
    """A fixed batch that holds simplices on both sides of the condition limit
    and exactly singular ones, so the NaN rule is always exercised."""
    rng = np.random.default_rng(2024)
    n_nan = n_total = 0
    for i in range(600):
        offset = NEAR_LINE_OFFSETS[i % len(NEAR_LINE_OFFSETS)]
        n = int(rng.integers(2, 12))
        t = rng.uniform(0.0, 1.0, n)
        xy = np.vstack([np.column_stack([t, 0.7 * t + 0.2 + rng.uniform(-offset, offset, n)]),
                        rng.uniform(-1.0, 2.0, (1, 2))])
        transform = assert_same_transform(xy)
        if transform is None:
            continue
        n_nan += int(np.isnan(transform[:, 0, 0]).sum())
        n_total += transform.shape[0]
    assert 0 < n_nan < n_total


def reference_interpolate_grid(mesh: SurfaceMesh, dx: float, dy: float) -> SurfaceGrid:
    """``interpolate_grid`` as it was with scipy's own triangulation."""
    xy = mesh.vertices[:, :2]
    z = mesh.vertices[:, 2]
    xmin, ymin = xy.min(axis=0)
    xmax, ymax = xy.max(axis=0)
    nx = int(np.floor((xmax - xmin) / dx + 1e-9)) + 1
    ny = int(np.floor((ymax - ymin) / dy + 1e-9)) + 1
    if nx < 2 or ny < 2:
        raise ResolutionTooCoarse("grid too small")
    interp = CloughTocher2DInterpolator(xy, z)
    gx = xmin + dx * np.arange(nx)
    gy = ymin + dy * np.arange(ny)
    mx, my = np.meshgrid(gx, gy, indexing="ij")
    height = interp(np.column_stack([mx.ravel(), my.ravel()])).reshape(nx, ny)
    dzdx = _masked_gradient(height, dx, axis=0)
    dzdy = _masked_gradient(height, dy, axis=1)
    valid = np.isfinite(height) & np.isfinite(dzdx) & np.isfinite(dzdy)
    if valid.sum() < 4:
        raise ResolutionTooCoarse("too few valid cells")
    normal = np.stack([-dzdx, -dzdy, np.ones_like(height)], axis=-1)
    with np.errstate(invalid="ignore"):
        normal /= np.linalg.norm(normal, axis=-1, keepdims=True)
    normal[~valid] = np.nan
    height = np.where(valid, height, np.nan)
    return SurfaceGrid((xmin, ymin), dx, dy, height, normal, valid)


def assert_same_grid(mesh: SurfaceMesh, dx: float, dy: float) -> None:
    grids = []
    for build in (interpolate_grid, reference_interpolate_grid):
        try:
            grids.append(build(mesh, dx, dy))
        except ResolutionTooCoarse:
            grids.append(ResolutionTooCoarse)
    got, want = grids
    if want is ResolutionTooCoarse or got is ResolutionTooCoarse:
        assert got is want
        return
    assert got.origin_xy == want.origin_xy and (got.nx, got.ny) == (want.nx, want.ny)
    for name in ("height", "normal", "valid_mask"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


def scan_cloud(shape: str, seed: int, noise: float = 1.0) -> tuple[PointCloud, ExperimentConfig]:
    """The raw depth scan of ``run_trial`` for a default config, with its
    noise scaled by ``noise``."""
    cfg = config_from_flat({"shape": shape, "seed": seed})
    m = cfg.cloud.margin
    region = ((cfg.roi.min_xy[0] - m, cfg.roi.min_xy[1] - m),
              (cfg.roi.max_xy[0] + m, cfg.roi.max_xy[1] + m))
    raw = Phantom(cfg.phantom, cfg.tumor).synth_depth_cloud(
        region, cfg.cloud.density, noise * cfg.cloud.noise_sigma, seed=[seed, _CLOUD_STREAM])
    return raw, cfg


def scan_mesh(shape: str, seed: int) -> tuple[SurfaceMesh, float, float]:
    """The ROI mesh of ``run_trial``'s registration for a default config."""
    raw, cfg = scan_cloud(shape, seed)
    cloud = preprocess_cloud(raw, cfg.cloud.voxel, cfg.cloud.outlier_k, cfg.cloud.outlier_sigma)
    return crop_roi(mesh_from_cloud(cloud), cfg.roi), cfg.grid_dx, cfg.grid_dy


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("seed", [7, 8, 2007])
def test_interpolate_grid_matches_the_reference_on_scans(shape, seed):
    mesh, dx, dy = scan_mesh(shape, seed)
    assert_same_grid(mesh, dx, dy)


@settings(max_examples=100, deadline=None)
@given(xy=st.one_of(uniform_clouds(), jittered_lattices()),
       seed=st.integers(0, 2**32 - 1), cells=st.integers(2, 60))
def test_interpolate_grid_matches_the_reference_on_random_clouds(xy, seed, cells):
    z = np.random.default_rng(seed).uniform(0.0, 1.0, xy.shape[0]) * np.ptp(xy)
    try:
        mesh = mesh_from_cloud(PointCloud(np.column_stack([xy, z])))
    except PalpSimError:
        event("no mesh")
        return
    step = max(np.ptp(xy, axis=0).max(), 1e-300) / cells
    assert_same_grid(mesh, step, step)


# -- (i) voxel centroids and vertex normals against the np.add.at versions -------

def reference_preprocess_cloud(raw: PointCloud, voxel: float, outlier_k: int,
                               outlier_sigma: float) -> PointCloud:
    """``preprocess_cloud`` as it was: voxels keyed by (kx, ky) rows."""
    pts = raw.points
    if voxel > 0:
        keys = np.floor((pts[:, :2] - pts[:, :2].min(axis=0)) / voxel).astype(np.int64)
        uniq, inv = np.unique(keys, axis=0, return_inverse=True)
        sums = np.zeros((uniq.shape[0], 3))
        np.add.at(sums, inv, pts)
        counts = np.bincount(inv, minlength=uniq.shape[0]).astype(float)
        pts = sums / counts[:, None]
    if outlier_k > 0 and pts.shape[0] > outlier_k + 1:
        dists, _ = cKDTree(pts).query(pts, k=outlier_k + 1)
        mean_d = dists[:, 1:].mean(axis=1)
        pts = pts[mean_d <= mean_d.mean() + outlier_sigma * mean_d.std()]
    if pts.shape[0] == 0:
        raise EmptyAfterFilter("all points filtered out")
    return PointCloud(pts)


def reference_vertex_normals(vertices: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    """``_vertex_normals`` as it was: one ``np.add.at`` per triangle column."""
    v0 = vertices[triangles[:, 0]]
    v1 = vertices[triangles[:, 1]]
    v2 = vertices[triangles[:, 2]]
    cross = np.cross(v1 - v0, v2 - v0)
    cross[cross[:, 2] < 0] *= -1.0
    acc = np.zeros_like(vertices)
    for col in range(3):
        np.add.at(acc, triangles[:, col], cross)
    norms = np.linalg.norm(acc, axis=1)
    lonely = norms < 1e-300
    acc[lonely] = (0.0, 0.0, 1.0)
    norms[lonely] = 1.0
    return acc / norms[:, None]


def assert_same_cloud(pts: np.ndarray, voxel: float, outlier_k: int,
                      outlier_sigma: float = 2.0) -> None:
    clouds = []
    for build in (preprocess_cloud, reference_preprocess_cloud):
        try:
            clouds.append(build(PointCloud(pts), voxel, outlier_k, outlier_sigma).points)
        except EmptyAfterFilter:
            clouds.append(EmptyAfterFilter)
    got, want = clouds
    if want is EmptyAfterFilter or got is EmptyAfterFilter:
        assert got is want
        return
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@st.composite
def voxel_clouds(draw):
    """A cloud and its voxel: uniform points, points on voxel edges (integer
    multiples of the voxel before the shift) or points inside one voxel,
    shifted to negative or positive coordinates, with exact duplicates
    appended and shuffled in."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    voxel = draw(st.sampled_from([0.001, 0.002, 0.1, 0.3]) | st.floats(1e-4, 1.0))
    n = draw(st.integers(1, 300))
    kind = draw(st.sampled_from(["uniform", "edges", "one voxel"]))
    if kind == "edges":
        xy = rng.integers(-8, 8, (n, 2)) * voxel
    elif kind == "one voxel":
        xy = rng.uniform(0.0, 0.999 * voxel, (n, 2))
    else:
        xy = rng.uniform(-1.0, 1.0, (n, 2)) * draw(st.floats(voxel, 40.0 * voxel))
    xy = xy + draw(st.sampled_from([0.0, -1.0, -0.5 * voxel]) | st.floats(-2.0, 2.0))
    pts = np.column_stack([xy, rng.normal(0.0, voxel, n)])
    dup = rng.integers(0, n, draw(st.integers(0, n)))
    pts = np.vstack([pts, pts[dup]])
    event(kind)
    return pts[rng.permutation(len(pts))], voxel


@settings(max_examples=400, deadline=None)
@given(cloud=voxel_clouds(), outlier_k=st.sampled_from([0, 0, 1, 8]),
       outlier_sigma=st.floats(0.0, 3.0))
def test_preprocess_cloud_matches_the_row_key_version(cloud, outlier_k, outlier_sigma):
    pts, voxel = cloud
    assert_same_cloud(pts, voxel, outlier_k, outlier_sigma)


@pytest.mark.parametrize("noise", [1.0, 4.0])
@pytest.mark.parametrize("shape", SHAPES)
def test_preprocess_and_normals_match_on_scans(shape, noise):
    raw, cfg = scan_cloud(shape, 7, noise)
    pts, c = raw.points, cfg.cloud
    assert_same_cloud(pts, c.voxel, 0)
    assert_same_cloud(pts, c.voxel, c.outlier_k, c.outlier_sigma)
    mesh = mesh_from_cloud(preprocess_cloud(PointCloud(pts), c.voxel, c.outlier_k,
                                            c.outlier_sigma))
    want = reference_vertex_normals(mesh.vertices, mesh.triangles)
    assert _vertex_normals(mesh.vertices, mesh.triangles).tobytes() == want.tobytes()


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 200),
       keep=st.floats(0.0, 1.0), extra=st.integers(0, 5))
def test_vertex_normals_match_the_add_at_version(seed, n, keep, extra):
    """Delaunay meshes with a random share of their triangles dropped,
    corners permuted (both windings), and ``extra`` vertices no triangle
    uses, so the ``lonely`` branch runs."""
    rng = np.random.default_rng(seed)
    vertices = rng.uniform(-1.0, 1.0, (n + extra, 3))
    try:
        triangles = Delaunay(vertices[:n, :2]).simplices
    except QhullError:
        event("qhull rejects the cloud")
        return
    triangles = triangles[rng.uniform(0.0, 1.0, len(triangles)) < keep]
    triangles = np.take_along_axis(triangles, rng.permuted(
        np.tile([0, 1, 2], (len(triangles), 1)), axis=1), axis=1).astype(np.int64)
    got = _vertex_normals(vertices, triangles)
    want = reference_vertex_normals(vertices, triangles)
    event(f"lonely vertices: {len(triangles) == 0 or len(np.unique(triangles)) < n + extra}")
    assert got.tobytes() == want.tobytes()


# -- (j) per-shape tumor height against the method body it replaced ------------

def reference_tumor_height(tumor: TumorGeometry, x: float, y: float) -> float:
    """``TumorGeometry.height`` as it was: shape dispatch and attribute
    reads on every call."""
    dx = x - tumor.center_xy[0]
    dy = y - tumor.center_xy[1]
    if tumor.shape == "hemisphere":
        s = tumor.radius * tumor.radius - dx * dx - dy * dy
        return math.sqrt(s) if s > 0.0 else 0.0
    if tumor.shape == "ellipsoid":
        ax, ay, az = tumor.semi_axes
        u, v = dx / ax, dy / ay
        s = 1.0 - u * u - v * v
        return az * math.sqrt(s) if s > 0.0 else 0.0
    ex = dx - tumor.inner_offset
    rho_out = math.sqrt(dx * dx + dy * dy)
    rho_in = math.sqrt(ex * ex + dy * dy)
    d_edge = min(tumor.radius - rho_out, rho_in - tumor.inner_radius)
    if d_edge <= 0.0:
        return 0.0
    if d_edge >= tumor.fillet_radius:
        return tumor.top_height
    t = 1.0 - d_edge / tumor.fillet_radius
    return tumor.top_height * math.sqrt(max(0.0, 1.0 - t * t))


def nudge(v: float, ulps: int) -> float:
    for _ in range(abs(ulps)):
        v = math.nextafter(v, math.copysign(math.inf, ulps))
    return v


SIZE = st.floats(0.002, 0.03, **finite)
# where to put the point: footprint rims and, for the crescent, the inner
# (cut) rim and both fillet edges; "free" is anywhere around the footprint
WHERE = {"hemisphere": ["rim", "free"], "ellipsoid": ["rim", "free"],
         "crescent": ["rim", "inner rim", "fillet", "inner fillet", "free"]}


@settings(max_examples=200, deadline=None)
@given(shape=st.sampled_from(SHAPES),
       center=st.tuples(st.floats(-0.02, 0.02, **finite), st.floats(-0.02, 0.02, **finite)),
       semi_axes=st.just((0.018, 0.018, 0.012)) | st.tuples(SIZE, SIZE, SIZE),
       radius=SIZE, width_share=st.floats(0.05, 0.9, **finite),
       inner_offset=st.floats(0.0, 0.012, **finite), fillet=st.floats(2e-4, 4e-3, **finite),
       azimuth=st.floats(0.0, 2 * math.pi, **finite), free=st.tuples(unit, unit),
       ulps=st.tuples(st.integers(-3, 3), st.integers(-3, 3)), data=st.data())
def test_tumor_height_matches_the_reference(shape, center, semi_axes, radius, width_share,
                                            inner_offset, fillet, azimuth, free, ulps, data):
    """Drawn geometries (cf_faults' semi-axes included) at points on an
    edge of the footprint or around it, each coordinate nudged by up to
    3 ulps."""
    tumor = TumorGeometry(shape, radius=radius, center_xy=center, semi_axes=semi_axes,
                          inner_offset=inner_offset, width=width_share * radius,
                          fillet_radius=fillet)
    where = data.draw(st.sampled_from(WHERE[shape]))
    r_in = tumor.inner_radius
    # the edge as an ellipse: x offset from the center, x and y semi-axes
    ox, rx, ry = {"fillet": (0.0, radius - fillet, radius - fillet),
                  "inner rim": (inner_offset, r_in, r_in),
                  "inner fillet": (inner_offset, r_in + fillet, r_in + fillet),
                  }.get(where, (0.0, radius, radius))
    if shape == "ellipsoid":
        rx, ry = semi_axes[:2]
    if where == "free":
        x, y = center[0] + 1.3 * rx * free[0], center[1] + 1.3 * ry * free[1]
    else:
        x, y = center[0] + ox + rx * math.cos(azimuth), center[1] + ry * math.sin(azimuth)
    x, y = nudge(x, ulps[0]), nudge(y, ulps[1])
    want = bits([reference_tumor_height(tumor, x, y)])
    event(f"{shape} {where}, {'outside' if want == bits([0.0]) else 'inside'}")
    assert bits([tumor.height_fn()(x, y)]) == want
    assert bits([tumor.height(x, y)]) == want


# -- (k) SurfaceGrid.sample_height against a plain clamped bilinear formula -------

def reference_sample_height(h: np.ndarray, x0: float, y0: float, dx: float, dy: float,
                            x: float, y: float) -> float:
    """Bilinear interpolation of the node heights ``h`` (at least 2 x 2) at
    (x, y), with the point clamped into the grid; a point on the last row
    or column of nodes lies in the last cell."""
    nx, ny = h.shape
    fx = min(max((x - x0) / dx, 0.0), nx - 1.0)
    fy = min(max((y - y0) / dy, 0.0), ny - 1.0)
    i, j = min(math.floor(fx), nx - 2), min(math.floor(fy), ny - 2)
    tx, ty = fx - i, fy - j
    h00, h01 = float(h[i, j]), float(h[i, j + 1])
    h10, h11 = float(h[i + 1, j]), float(h[i + 1, j + 1])
    return (h00 * (1 - tx) * (1 - ty) + h10 * tx * (1 - ty)
            + h01 * (1 - tx) * ty + h11 * tx * ty)


# where the point lies, per axis: -1 at or below the first node, 0 within
# the grid, 1 at or above the last node
SIDES = {"inside": (0, 0), "edge x-": (-1, 0), "edge x+": (1, 0), "edge y-": (0, -1),
         "edge y+": (0, 1), "corner --": (-1, -1), "corner -+": (-1, 1),
         "corner +-": (1, -1), "corner ++": (1, 1), "last node": None}


def coordinate(data, side: int, lo: float, hi: float) -> float:
    if side == 0:
        return data.draw(st.floats(lo, hi, **finite))
    gap = data.draw(st.floats(0.0, 0.02, **finite))
    return lo - gap if side < 0 else hi + gap


@settings(max_examples=300, deadline=None)
@given(nx=st.integers(2, 6), ny=st.integers(2, 6),
       origin=st.tuples(st.floats(-0.05, 0.05, **finite), st.floats(-0.05, 0.05, **finite)),
       step=st.tuples(st.floats(1e-4, 0.01, **finite), st.floats(1e-4, 0.01, **finite)),
       where=st.sampled_from(sorted(SIDES)), data=st.data())
def test_sample_height_matches_the_clamped_bilinear_formula(nx, ny, origin, step, where, data):
    h = np.array(data.draw(st.lists(st.floats(-0.05, 0.05, **finite), min_size=nx * ny,
                                    max_size=nx * ny))).reshape(nx, ny)
    grid = SurfaceGrid(origin, step[0], step[1], h, np.zeros((nx, ny, 3)),
                       np.ones((nx, ny), dtype=bool))
    top = (origin[0] + (nx - 1) * step[0], origin[1] + (ny - 1) * step[1])
    if SIDES[where] is None:
        x, y = top
    else:
        x, y = (coordinate(data, side, lo, hi) for side, lo, hi in zip(SIDES[where], origin, top))
    event(where)
    want = reference_sample_height(h, origin[0], origin[1], step[0], step[1], x, y)
    assert bits([grid.sample_height(x, y)]) == bits([want])
