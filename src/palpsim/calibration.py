"""Load-cell force calibration: static bias removal and tip-weight
gravity compensation via local<->inertial rotation transforms.

This module is the reference oracle for the load cell.  The simulated
probe (``policy.ProbePlant``) applies the same chain folded into one
affine map per palpation; tests check that map against these functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FrameMismatch, at_least, check_ranges

LOAD_CELL_LOCAL = "load_cell_local"
INERTIAL = "inertial"


@dataclass(frozen=True)
class EulerZYX:
    """Yaw (psi), pitch (theta), roll (phi) in radians, applied Z-Y-X."""

    psi: float = 0.0
    theta: float = 0.0
    phi: float = 0.0


@dataclass
class ForceReading:
    f: np.ndarray
    frame: str = LOAD_CELL_LOCAL

    def __post_init__(self):
        self.f = np.asarray(self.f, dtype=float).reshape(3)
        if self.frame not in (LOAD_CELL_LOCAL, INERTIAL):
            raise FrameMismatch(f"unknown frame {self.frame!r}")


@dataclass(frozen=True)
class CalibrationParams:
    """tip_weight_n is the tip mass expressed in Newtons (M*g)."""

    tip_weight_n: float = at_least(0, 0.35)
    z_offset: tuple[float, float, float] = (0.0, 0.0, 0.0)
    angle_noise: float = at_least(0, 0.0)  # rad, optional orientation jitter

    __post_init__ = check_ranges


def rotation_zyx(e: EulerZYX) -> np.ndarray:
    """R = Rz(psi) @ Ry(theta) @ Rx(phi); maps body vectors to inertial."""
    return np.array(rotation_rows(e))


def rotation_rows(e: EulerZYX) -> tuple[tuple[float, float, float], ...]:
    """The rows of ``rotation_zyx(e)`` as float tuples."""
    cp, sp = math.cos(e.psi), math.sin(e.psi)
    ct, st = math.cos(e.theta), math.sin(e.theta)
    cr, sr = math.cos(e.phi), math.sin(e.phi)
    return ((cp * ct, cp * st * sr - sp * cr, cp * st * cr + sp * sr),
            (sp * ct, sp * st * sr + cp * cr, sp * st * cr - cp * sr),
            (-st, ct * sr, ct * cr))


def euler_from_axis(axis) -> EulerZYX:
    """Zero-yaw Euler angles whose rotation maps body +z onto ``axis``."""
    ax, ay, az = (float(axis[0]), float(axis[1]), float(axis[2]))
    n = math.sqrt(ax * ax + ay * ay + az * az)
    ax, ay, az = ax / n, ay / n, az / n
    phi = math.asin(max(-1.0, min(1.0, -ay)))
    theta = math.atan2(ax, az)
    return EulerZYX(0.0, theta, phi)


def remove_z_offset(raw: ForceReading, cal: CalibrationParams) -> ForceReading:
    """Subtract the static load-cell bias (local frame only)."""
    if raw.frame != LOAD_CELL_LOCAL:
        raise FrameMismatch(f"expected {LOAD_CELL_LOCAL}, got {raw.frame}")
    return ForceReading(raw.f - np.asarray(cal.z_offset, dtype=float), LOAD_CELL_LOCAL)


def compensate_tip_weight(f_local: ForceReading, e: EulerZYX,
                          cal: CalibrationParams) -> ForceReading:
    """Remove the tip weight seen by the load cell.

    Rotate the local reading into the inertial frame, subtract
    (0, 0, tip_weight_n), rotate back.  Output stays in the local frame.
    """
    if f_local.frame != LOAD_CELL_LOCAL:
        raise FrameMismatch(f"expected {LOAD_CELL_LOCAL}, got {f_local.frame}")
    r = rotation_zyx(e)
    f_inertial = r @ f_local.f
    f_inertial[2] -= cal.tip_weight_n
    return ForceReading(r.T @ f_inertial, LOAD_CELL_LOCAL)

