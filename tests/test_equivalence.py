"""Property tests: the fast paths of the probe against their references.

(a) ``ProbePlant.measure`` (one affine map per palpation) against the
    step-by-step chain of ``calibration.py``.
(b) The array contact law and surface normal against the scalar ones:
    both do the same operations, so they must agree exactly.
(c) The windowed ``probe_cell`` descent against a step-by-step scalar
    descent, ported here from the loop it replaced.
"""

import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from palpsim import (
    CalibrationParams,
    ControllerGains,
    ForceReading,
    PhantomConfig,
    ProbeParams,
    ProbePlant,
    TumorGeometry,
    compensate_tip_weight,
    cyl_bump,
    flat_profile,
    gauss_bump,
    probe_cell,
    remove_z_offset,
    rotation_zyx,
)
from palpsim import policy
from palpsim.errors import NoContact
from palpsim.phantom import Phantom
from palpsim.registration import SurfaceGrid, cell_to_surface

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


# -- (b) array contact law and normal against the scalar ones ------------------

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
    for j in range(n):
        x, y, z = float(xs[j]), float(ys[j]), float(zs[j])
        assert f[j] == ph.contact_force(x, y, z, vz).normal_force
        assert tuple(normal[j]) == ph.surface_normal(x, y)


# -- (c) windowed descent against the scalar descent -----------------------------

def reference_descent(plant, phantom, grid, cell, params, gains, rng):
    """Step-by-step probe descent: (steps, f_z, d_z, p_zi, stop position),
    with all but ``steps`` None when it runs out of travel."""
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
        fn = phantom.contact_force(cx, cy, cz, vz_query).normal_force
        if fn > 0.0:
            nsx, nsy, nsz = phantom.surface_normal(cx, cy)
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
       f_thres=st.floats(1.0, 12.0, **finite),
       indent_speed=st.sampled_from([0.01, 0.02, 0.05]),
       angle_noise=st.sampled_from([0.0, 0.02]),
       window=st.sampled_from([policy._MAX_WINDOW, 7, 200]),
       seed=st.integers(0, 2**32 - 1))
def test_probe_cell_stops_where_the_scalar_descent_stops(
        shape, profile, x, y, lift, tilt, azimuth, f_thres, indent_speed, angle_noise,
        window, seed):
    ph = make_phantom(shape, profile)
    # one-cell grid: a registered point off the true skin by ``lift``, with a
    # normal tilted up to about 57 degrees, as a noisy scan could give
    normal = np.array([math.sin(tilt) * math.cos(azimuth),
                       math.sin(tilt) * math.sin(azimuth), math.cos(tilt)])
    grid = SurfaceGrid((x, y), 0.002, 0.002, [[ph.z_skin(x, y) + lift]],
                       normal.reshape(1, 1, 3), [[True]])
    params = ProbeParams(f_thres=f_thres, d_thres=0.017, indent_speed=indent_speed)
    cal = CalibrationParams(angle_noise=angle_noise)
    gains = ControllerGains()
    ref = reference_descent(ProbePlant(ph, params, cal), ph, grid, (0, 0), params,
                            gains, np.random.default_rng(seed))
    plant = ProbePlant(ph, params, cal)
    with mock.patch.object(policy, "_MAX_WINDOW", window):
        try:
            res = probe_cell(plant, ph, grid, (0, 0), params, gains,
                             np.random.default_rng(seed))
        except NoContact as exc:
            event("no contact")
            assert ref[1] is None, ref
            assert int(re.search(r"\((\d+) steps\)", str(exc)).group(1)) == ref[0]
            return
    _, f_z, d_z, p_zi, stop = ref
    assert f_z is not None, "reference ran out of travel"
    event("force stop" if f_z >= params.f_thres else "depth stop")
    assert (plant.px, plant.py, plant.pz) == stop
    assert (res.p_zi, res.p_zf, res.d_z, res.f_z) == (p_zi, stop[2], d_z, f_z)
