"""Online palpation: discrete probing with stiffness classification,
then impedance-controlled contour following driven by a min-jerk
oscillation until the inclusion's boundary with the muscle bed.

The plant is a Cartesian point-mass probe stepped by semi-implicit
Euler at the controller period; joint-space dynamics are out of scope.
Only ``ProbePlant.align`` writes the plant: ``probe_cell`` returns its stop
as ``ProbeResult.tip``, and ``contour_follow`` starts there, at rest.
The probe descent is kinematic: numpy gives a window of steps' contact
forces at a time, and the load cell reads only the steps whose force reaches
``ProbePlant.force_floor``, the only ones that can meet the force rule.
The contour-follow loop stays scalar, in plain-float arithmetic: each
1 kHz control step depends on the one before it.  The step is set up
once per palpation: the phantom's specialised ``contact_law``, the plant
step and the load-cell map are inlined, and each waypoint keeps the reading
of its stroke's last control step.  Tick and descent match, bit for bit,
the step-by-step loops and the scalar contact law that
``tests/test_equivalence.py`` keeps as references.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .calibration import CalibrationParams, EulerZYX, euler_from_axis, rotation_rows
from .errors import (
    AdmissibleForceExceeded,
    Exhausted,
    NoContact,
    NumericalBlowup,
    OutOfRange,
    above,
    at_least,
    check_ranges,
)
from .phantom import Phantom
from .registration import SurfaceGrid, cell_to_surface
from .search import Acquisition, GPModel, StiffnessSample, next_cell_bo, next_cell_random

# Palpation strategies / modes.
BO = "bo"
RS = "rs"
CONTOUR_FOLLOWING = "cf"
DISCRETE = "discrete"

# Trajectory outcomes.
BOUNDARY_REACHED = "boundary_reached"
TIMEOUT = "timeout"
LOST_CONTACT = "lost_contact"

# Plant safety bound; exceeding it means the gains are misconfigured.
V_MAX = 5.0  # m/s


@dataclass(frozen=True)
class ControllerGains:
    """Impedance gains: per-axis spring k_p, damper k_d, pose-error clamp
    e_thres, controller period (seconds)."""

    k_p: float = above(0, 1500.0)
    k_d: float = at_least(0, 20.0)
    e_thres: float = above(0, 0.005)
    period: float = above(0, 0.001)

    __post_init__ = check_ranges


@dataclass(frozen=True)
class ProbeParams:
    f_thres: float = above(0, 5.0)          # N, tumor-confirmation force
    d_thres: float = above(0, 0.017)        # m, skin-to-muscle displacement bound
    indent_speed: float = above(0, 0.02)    # m/s, discrete-probe descent rate
    amplitude: float = above(0, 0.002)      # m, min-jerk stroke amplitude
    osc_rate: float = above(0, 80.0)        # Hz, waypoint / stroke-phase rate
    cf_timeout: float = at_least(0, 5.0)    # s, per contour follow
    probe_mass: float = above(0, 0.1)       # kg
    tip_radius: float = at_least(0, 0.0025)  # m, spherical tip
    press_force: float = at_least(0, 6.0)   # N, compressive bias during following
    ticks_per_stroke: int = at_least(1, 12)  # outer ticks per min-jerk sweep
    hover: float = at_least(0, 0.001)       # m, approach height above the surface
    contact_loss_timeout: float = at_least(0, 0.1)  # s
    gravity_residual: tuple[float, float, float] = (0.0, 0.0, 0.0)

    __post_init__ = check_ranges


@dataclass
class ProbeResult:
    cell: tuple[int, int]
    f_z: float                 # N, axial force at stop
    d_z: float                 # m, |tip z - p_zi|
    k: float                   # N/m, f_z / d_z
    classified_tumor: bool
    p_zi: float                # m, probe z at first contact
    tip: tuple[float, float, float]  # m, tip centre at stop
    contact_point: np.ndarray  # tip contact point at stop
    normal: np.ndarray         # tip-axis alignment normal
    f_vec: np.ndarray          # N, calibrated force at stop, inertial


@dataclass
class PalpationTrajectory:
    """Waypoints of one contour-following palpation at the stroke rate."""

    times: np.ndarray     # (n,)
    poses: np.ndarray     # (n, 3) tip-center positions
    forces: np.ndarray    # (n, 3) measured contact force, inertial frame
    outcome: str
    start_cell: tuple[int, int]
    direction: tuple[float, float]
    tip_normal: np.ndarray

    def __len__(self) -> int:
        return self.times.shape[0]

    n_waypoints = property(__len__)

    @property
    def terminal_xy(self) -> tuple[float, float]:
        return float(self.poses[-1, 0]), float(self.poses[-1, 1])

    @property
    def duration(self) -> float:
        return float(self.times[-1] - self.times[0])


def min_jerk_offset(t: float, a: float) -> float:
    """Minimum-jerk stroke offset sweeping -a..+a as t goes 0..1."""
    if t < 0.0 or t > 1.0:
        raise OutOfRange(f"normalized time {t} outside [0, 1]")
    s = t * t * t * (10.0 + t * (-15.0 + 6.0 * t))
    return 2.0 * a * s - a


def impedance_force(p_d, p, v_d, v, gains: ControllerGains) -> np.ndarray:
    """Spring-damper command with the pose error clamped per axis."""
    e = np.clip(np.asarray(p_d, dtype=float) - np.asarray(p, dtype=float),
                -gains.e_thres, gains.e_thres)
    return gains.k_d * (np.asarray(v_d, dtype=float) - np.asarray(v, dtype=float)) + gains.k_p * e


def admissible_force(gains: ControllerGains) -> float:
    """Upper bound on the commanded interaction force under the clamp."""
    return gains.k_p * abs(gains.e_thres) + 2.0 * gains.k_d * abs(gains.e_thres) / gains.period


class ProbePlant:
    """Point-mass probe with a spherical tip and a simulated load cell.

    Holds the aligned pose and tip orientation of the current palpation,
    which only ``align`` writes.  The load cell sees the true contact force
    f plus the tip weight w, in the body frame of the true orientation R_true;
    the calibration chain of ``calibration.py`` rotates back with the
    estimated orientation R_est and removes the weight.  With the
    orientation fixed per palpation that chain is the affine map

        out   = M (f + w z) - w z,   M = R_est R_true^T
        axial = R_est[:, 2] . out

    which ``align`` sets up once and ``measure`` applies to a probe's stop
    and a follow's first waypoint; ``contour_follow`` inlines it for every
    later waypoint.  With ideal parameters (R_est = R_true) it recovers
    the true force.  The static bias ``cal.z_offset`` is added by the
    sensor and subtracted by the chain, so it cancels by construction and
    cannot model a bias fault.  ``probe_cell`` and ``contour_follow`` read
    the phantom and the probe settings from the plant.
    """

    def __init__(self, phantom: Phantom, params: ProbeParams, cal: CalibrationParams):
        self.phantom, self.params, self.cal = phantom, params, cal
        self.align((0.0, 0.0, 1.0), (0.0, 0.0, 1.0))

    # -- pose / orientation --------------------------------------------------

    def align(self, position, axis, rng: Optional[np.random.Generator] = None) -> None:
        """Place the probe, point its tip axis along ``axis`` (outward) and
        set up the load-cell map for this orientation."""
        self.px, self.py, self.pz = (float(position[0]), float(position[1]),
                                     float(position[2]))
        n = math.sqrt(sum(float(a) ** 2 for a in axis))
        self.axis = (float(axis[0]) / n, float(axis[1]) / n, float(axis[2]) / n)
        self.euler = euler_from_axis(self.axis)
        euler_est = self.euler
        if rng is not None and self.cal.angle_noise > 0.0:
            euler_est = EulerZYX(
                self.euler.psi + rng.normal(0.0, self.cal.angle_noise),
                self.euler.theta + rng.normal(0.0, self.cal.angle_noise),
                self.euler.phi + rng.normal(0.0, self.cal.angle_noise),
            )
        self.euler_est = euler_est
        r_true = rotation_rows(self.euler)
        r_est = rotation_rows(euler_est)
        # the leading 0.0 is where sum() would start, so a zero keeps its sign
        self._m = [[0.0 + e[0] * t[0] + e[1] * t[1] + e[2] * t[2] for t in r_true]
                   for e in r_est]
        self._axial = [r_est[0][2], r_est[1][2], r_est[2][2]]
        self._w = float(self.cal.tip_weight_n)

    # -- sensing ---------------------------------------------------------------

    def load_cell(self, fx, fy, fz):
        """The load-cell map on a true inertial contact force.

        Takes floats or equal-shape arrays and does the same arithmetic
        on either.  Returns (axial, out_x, out_y, out_z).
        """
        (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = self._m
        w = self._w
        gz = fz + w
        ox = m00 * fx + m01 * fy + m02 * gz
        oy = m10 * fx + m11 * fy + m12 * gz
        oz = m20 * fx + m21 * fy + m22 * gz - w
        ax, ay, az = self._axial
        return ax * ox + ay * oy + az * oz, ox, oy, oz

    def measure(self, fx: float, fy: float, fz: float) -> tuple[float, np.ndarray]:
        """Read a true inertial contact force through the load cell.

        Returns (axial component along the estimated tip axis, calibrated
        force re-expressed in the inertial frame).
        """
        axial, ox, oy, oz = self.load_cell(fx, fy, fz)
        return axial, np.array([ox, oy, oz])

    def force_floor(self, f_thres: float) -> float:
        """A contact force below which no axial reading reaches ``f_thres``:
        ``out = M f + w (M z - z)`` with M orthogonal and w >= 0, projected on a
        unit axis, so ``axial <= |f| + slack`` with ``slack = w |(m02, m12, m22 - 1)|``.
        The margin 1e-9 (f_thres + w) covers rounding, about 1e-15 (|f| + w)."""
        (_, _, m02), (_, _, m12), (_, _, m22) = self._m
        slack = self._w * math.sqrt(m02 * m02 + m12 * m12 + (m22 - 1.0) * (m22 - 1.0))
        return f_thres - slack - 1e-9 * (f_thres + self._w)


_MAX_WINDOW = 4096  # descent steps evaluated per pass


def probe_cell(plant: ProbePlant, grid: SurfaceGrid, cell: tuple[int, int],
               gains: ControllerGains, rng: Optional[np.random.Generator] = None,
               descents: Optional[dict] = None) -> ProbeResult:
    """Discrete probe: align to the cell normal, indent until the force
    or displacement threshold, classify, and report k = f_z / d_z.

    ``descents`` maps (cell, load-cell map bits) to the stop of each descent
    run on this grid with this plant's phantom and settings and ``gains.period``;
    a hit is ``align`` plus a lookup: ``align`` still draws the angle noise and
    sets the orientation the follow reads.  A descent that raises is not kept.
    The stop is the result's ``tip``, where contour following starts.
    """
    params, r = plant.params, plant.params.tip_radius
    point, normal = cell_to_surface(grid, cell[0], cell[1])
    n = float(normal[0]), float(normal[1]), float(normal[2])
    plant.align(point + (params.hover + r) * normal, n, rng)
    key = None if descents is None else (cell, np.array(  # bits: a zero's sign can reach f_vec
        [*plant._m[0], *plant._m[1], *plant._m[2], *plant._axial, plant._w]).tobytes())
    stop = None if key is None else descents.get(key)
    if stop is None:
        stop = _descend(plant, cell, *n, gains.period)
        if key is not None:
            descents[key] = stop
    px, py, pz, p_zi, f_axial, fx, fy, fz = stop
    d_z = abs(pz - p_zi)
    return ProbeResult(
        cell=(int(cell[0]), int(cell[1])),
        f_z=f_axial,
        d_z=d_z,
        k=f_axial / d_z if d_z > 0.0 else f_axial / (params.indent_speed * gains.period),
        classified_tumor=(f_axial > params.f_thres) and (d_z < params.d_thres),
        p_zi=p_zi,
        tip=(px, py, pz),
        contact_point=np.array([px - r * n[0], py - r * n[1], pz - r * n[2]]),
        normal=np.array(n),
        f_vec=np.array([fx, fy, fz]),
    )


def _descend(plant: ProbePlant, cell, nx: float, ny: float, nz: float, period: float) -> tuple:
    """The stop (px, py, pz, p_zi, f_axial, fx, fy, fz) of the aligned plant's descent
    along -n.  The scalar law and load cell read, in order, only the steps whose force
    reaches ``plant.force_floor(f_thres)`` before the window's first depth or travel
    stop, and give the floats numpy would."""
    phantom, params, r = plant.phantom, plant.params, plant.params.tip_radius
    law, f_lo = phantom.contact_law(), plant.force_floor(params.f_thres)

    step_len = params.indent_speed * period
    travel_limit = params.hover + params.d_thres + 0.005
    # kinematic descent along -normal; the discrete approach move is not
    # part of the contact dynamics under study
    vz_query = -params.indent_speed * nz
    window = min(_MAX_WINDOW, int(travel_limit / step_len) + 2)
    ramp = np.empty((window + 1, 4))
    ramp[1:] = -(step_len * nx), -(step_len * ny), -(step_len * nz), step_len
    px, py, pz = plant.px, plant.py, plant.pz
    traveled = 0.0
    done = 0  # steps taken before this window
    p_zi = None
    while True:
        ramp[0] = px, py, pz, traveled  # the window's start; each later row adds a step
        xs, ys, zs, trav = np.cumsum(ramp, axis=0).T
        z = zs[:-1]
        cx = xs[:-1] - r * nx
        cy = ys[:-1] - r * ny
        cz = z - r * nz
        fn = phantom.contact_force_np(cx, cy, cz, vz_query)
        touch = fn > 0.0
        if p_zi is None and touch.any():
            p_zi = float(z[np.argmax(touch)])
        end = ~touch & (trav[:-1] > travel_limit)
        if p_zi is not None:
            end |= touch & (np.abs(z - p_zi) >= params.d_thres)
        hi = int(np.argmax(end)) if end.any() else window
        i = next((j for j in np.flatnonzero(touch[:hi] & (fn[:hi] >= f_lo)).tolist()
                  if plant.load_cell(*law(float(cx[j]), float(cy[j]), float(cz[j]),
                                          vz_query)[1:])[0] >= params.f_thres), hi)
        if i < window:
            break
        px, py, pz, traveled = xs[-1], ys[-1], zs[-1], trav[-1]
        done += window
    if not touch[i]:
        raise NoContact(f"no contact within {travel_limit * 1e3:.1f} mm of travel at cell "
                        f"{cell} ({done + i} steps)")
    f_axial, f_vec = plant.measure(*law(float(cx[i]), float(cy[i]), float(cz[i]),
                                        vz_query)[1:])
    return float(xs[i]), float(ys[i]), float(zs[i]), p_zi, f_axial, *f_vec.tolist()


def contour_follow(plant: ProbePlant, grid: SurfaceGrid, start: ProbeResult,
                   gains: ControllerGains,
                   rng: np.random.Generator) -> PalpationTrajectory:
    """Trace the inclusion surface with anchored min-jerk strokes.

    Strokes advance along a fixed random XY direction; a downward pose
    bias keeps the press force near ``press_force``.  Termination:
    BOUNDARY_REACHED when the probe sinks past d_thres with the axial
    force below f_thres (checked every control step), TIMEOUT after
    cf_timeout, LOST_CONTACT after contact_loss_timeout out of contact.
    Starts from ``start.tip`` at rest, with the load-cell map of the plant's
    last ``align`` (the probe's), and writes nothing to the plant.
    """
    if not start.classified_tumor:
        raise OutOfRange("contour following requires a tumor-classified probe")
    theta = float(rng.uniform(0.0, 2.0 * math.pi))
    dir_x, dir_y = math.cos(theta), math.sin(theta)

    params, dt = plant.params, gains.period
    inner_n = max(1, int(round(1.0 / (params.osc_rate * dt))))
    outer_dt = inner_n * dt
    depth_bias = params.press_force / gains.k_p
    k_p, k_d, e_lim, e_low = gains.k_p, gains.k_d, gains.e_thres, -gains.e_thres
    f_adm2 = admissible_force(gains) ** 2
    f_thres, d_thres = params.f_thres, params.d_thres
    ticks_per_stroke, amp = params.ticks_per_stroke, params.amplitude
    offsets = [min_jerk_offset((k + 1) / ticks_per_stroke, amp) for k in range(ticks_per_stroke)]
    tip_r = params.tip_radius
    ax, ay, az = plant.axis
    grx, gry, grz = (float(g) for g in params.gravity_residual)
    sample_height = grid.sample_height
    # the control step, set up once: contact law, plant step, load-cell map
    law = plant.phantom.contact_law()
    inv_m = 1.0 / params.probe_mass
    v_max2 = V_MAX * V_MAX
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = plant._m
    a0, a1, a2 = plant._axial
    w = plant._w

    px, py, pz = start.tip
    vx = vy = vz = 0.0

    # tip contact point, kept up to date with the position
    cx = px - tip_r * ax
    cy = py - tip_r * ay
    cz = pz - tip_r * az
    _, f_vec0 = plant.measure(*law(cx, cy, cz, vz)[1:])

    times = [0.0]
    poses = [(px, py, pz)]
    forces = [tuple(f_vec0)]

    t = 0.0
    last_contact = 0.0
    outcome = None
    anchor_x = anchor_y = 0.0
    start_x, start_y = px, py
    phase = 0
    # The boundary test ("deep": depth past d_thres, axial force below
    # f_thres) runs in one of five states.  A start cell at the inclusion
    # edge can be deep within a few control steps, so a deep event in the
    # opening stroke turns travel back toward the follow's start point (a
    # confirmed on-tumor coordinate) rather than end a follow that mapped nothing.
    #   OPENING    live; deep -> TURNING while len(times) <= ticks_per_stroke
    #   TURNING    off; the next stroke start redirects -> RETURNING
    #   RETURNING  off until force >= f_thres and depth < d_thres -> ARMED
    #   ARMED      live; deep ends the follow, or -> LATCHED below min_waypoints
    #   LATCHED    the follow ends at the first stroke end with min_waypoints
    # OPENING never latches: after the opening stroke len(times) >
    # ticks_per_stroke >= min_waypoints, so a deep event there ends the
    # follow.  The depth is read only where a state uses it.
    OPENING, ARMED, LATCHED, TURNING, RETURNING = range(5)
    state = OPENING
    min_waypoints = min(10, ticks_per_stroke)
    while outcome is None:
        if t + outer_dt > params.cf_timeout + 1e-12:
            outcome = TIMEOUT
            break
        if state == TURNING:
            state = RETURNING
            back_x = start_x - px
            back_y = start_y - py
            norm = math.hypot(back_x, back_y)
            if norm > 1e-9:
                dir_x, dir_y = back_x / norm, back_y / norm
            else:
                dir_x, dir_y = -dir_x, -dir_y
            anchor_x, anchor_y = px, py
            phase = ticks_per_stroke // 2  # resume mid-sweep: move inward now
        elif phase == 0:
            anchor_x, anchor_y = px, py
        off = offsets[phase]
        pdx = anchor_x + dir_x * off
        pdy = anchor_y + dir_y * off
        pdz = pz - depth_bias
        for _ in range(inner_n):
            ex = pdx - px
            if ex > e_lim:
                ex = e_lim
            elif ex < e_low:
                ex = e_low
            ey = pdy - py
            if ey > e_lim:
                ey = e_lim
            elif ey < e_low:
                ey = e_low
            ez = pdz - pz
            if ez > e_lim:
                ez = e_lim
            elif ez < e_low:
                ez = e_low
            fcx = k_p * ex - k_d * vx
            fcy = k_p * ey - k_d * vy
            fcz = k_p * ez - k_d * vz
            if fcx * fcx + fcy * fcy + fcz * fcz > f_adm2:
                raise AdmissibleForceExceeded(
                    f"|f_cmd| exceeded admissible bound {math.sqrt(f_adm2):.1f} N"
                )
            # plant step, semi-implicit Euler: m a = f_cmd + contact - residual
            fn, fvx, fvy, fvz = law(cx, cy, cz, vz)
            vx += (fcx + fvx - grx) * inv_m * dt
            vy += (fcy + fvy - gry) * inv_m * dt
            vz += (fcz + fvz - grz) * inv_m * dt
            if vx * vx + vy * vy + vz * vz > v_max2:
                raise NumericalBlowup(f"plant speed exceeded {V_MAX} m/s")
            px += vx * dt
            py += vy * dt
            pz += vz * dt
            cx = px - tip_r * ax
            cy = py - tip_r * ay
            cz = pz - tip_r * az
            t += dt
            # ProbePlant.load_cell, inlined
            gz = fvz + w
            ox = m00 * fvx + m01 * fvy + m02 * gz
            oy = m10 * fvx + m11 * fvy + m12 * gz
            oz = m20 * fvx + m21 * fvy + m22 * gz - w
            f_axial = a0 * ox + a1 * oy + a2 * oz
            if fn > 0.0:
                last_contact = t
            elif t - last_contact > params.contact_loss_timeout:
                outcome = LOST_CONTACT
                break
            # boundary depth d_z = sample_height(cx, cy) - cz
            if f_axial < f_thres:
                if state < TURNING and sample_height(cx, cy) - cz > d_thres:
                    if state == OPENING and len(times) <= ticks_per_stroke:
                        state = TURNING
                    elif len(times) >= min_waypoints:
                        outcome = BOUNDARY_REACHED
                        break
                    else:
                        state = LATCHED
            elif state == RETURNING and sample_height(cx, cy) - cz < d_thres:
                state = ARMED  # back on the inclusion
        times.append(t)
        poses.append((px, py, pz))
        forces.append((ox, oy, oz))  # the reading of the stroke's last control step
        phase = (phase + 1) % ticks_per_stroke
        if outcome is None and state == LATCHED and len(times) >= min_waypoints:
            outcome = BOUNDARY_REACHED

    return PalpationTrajectory(
        times=np.array(times),
        poses=np.array(poses),
        forces=np.array(forces),
        outcome=outcome,
        start_cell=start.cell,
        direction=(dir_x, dir_y),
        tip_normal=np.array(plant.axis),
    )


def run_policy(phantom: Phantom, grid: SurfaceGrid, cfg, seed: int, memo=None
               ) -> tuple[list[ProbeResult], list[PalpationTrajectory]]:
    """Full palpation loop: select cell, probe, grow the GP, optionally follow.

    Reads ``strategy``, ``mode``, ``budget``, ``probe``, ``gains``, ``cal``,
    ``hyper``, ``xi`` and ``n_init`` from ``cfg``, an ``ExperimentConfig``,
    which checked their rules when it was built.  Each selection counts once
    against the budget, in one ``probe_cell`` call.  ``memo`` (one per scene)
    maps (phantom config, tumor, ``probe``, ``gains.period``) to their descent memo,
    and ``"picks"`` to the BO pick memo of ``next_cell_bo``.  Selection, stroke
    directions and angle noise draw from independent seeded streams, so a discrete
    and a contour-following run with the same seed probe identical cells with
    identical results, and the second computes no descent and scans no posterior.
    """
    n_valid = int(grid.valid_mask.sum())
    if cfg.budget > n_valid:
        raise Exhausted(f"budget {cfg.budget} exceeds {n_valid} valid cells")
    rng_select = np.random.default_rng([int(seed), 0])
    rng_stroke = np.random.default_rng([int(seed), 1])
    rng_sense = np.random.default_rng([int(seed), 2])
    plant = ProbePlant(phantom, cfg.probe, cfg.cal)
    descents = None if memo is None else memo.setdefault(
        (phantom.cfg, phantom.tumor, cfg.probe, cfg.gains.period), {})
    picks = None if memo is None else memo.setdefault("picks", {})
    free = grid.valid_mask.copy()  # valid cells not yet probed
    gp = GPModel(cfg.hyper) if cfg.strategy == BO else None  # gains one sample per probe
    best_k = -math.inf
    results: list[ProbeResult] = []
    trajectories: list[PalpationTrajectory] = []
    for i in range(cfg.budget):
        if gp is not None and i >= cfg.n_init:
            cell = next_cell_bo(gp, grid, free, Acquisition(cfg.xi, best_k), rng_select, picks)
        else:
            cell = next_cell_random(grid, free, rng_select)
        free[cell] = False
        res = probe_cell(plant, grid, cell, cfg.gains, rng_sense, descents)
        results.append(res)
        best_k = max(best_k, res.k)
        if gp is not None:
            gp.add(StiffnessSample(cell, res.k))
        if cfg.mode == CONTOUR_FOLLOWING and res.classified_tumor:
            trajectories.append(
                contour_follow(plant, grid, res, cfg.gains, rng_stroke)
            )
    return results, trajectories
