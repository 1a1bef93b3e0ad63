import math

import numpy as np
import pytest

from palpsim import (
    CalibrationParams,
    EulerZYX,
    ForceReading,
    compensate_tip_weight,
    remove_z_offset,
    rotation_zyx,
)
from palpsim.calibration import INERTIAL, LOAD_CELL_LOCAL, euler_from_axis
from palpsim.errors import FrameMismatch, OutOfRange


def random_euler(rng):
    return EulerZYX(*rng.uniform(-math.pi, math.pi, 3))


class TestRotationZYX:
    def test_identity(self):
        assert np.allclose(rotation_zyx(EulerZYX(0, 0, 0)), np.eye(3), atol=1e-15)

    def test_quarter_turn_about_z(self):
        r = rotation_zyx(EulerZYX(math.pi / 2, 0, 0))
        assert np.allclose(r @ [1, 0, 0], [0, 1, 0], atol=1e-12)

    def test_orthonormal_and_proper(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            r = rotation_zyx(random_euler(rng))
            assert np.allclose(r.T @ r, np.eye(3), atol=1e-12)
            assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)

    def test_composition(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            psi, theta, phi = rng.uniform(-math.pi, math.pi, 3)
            lhs = (rotation_zyx(EulerZYX(psi, 0, 0))
                   @ rotation_zyx(EulerZYX(0, theta, 0))
                   @ rotation_zyx(EulerZYX(0, 0, phi)))
            assert np.allclose(lhs, rotation_zyx(EulerZYX(psi, theta, phi)), atol=1e-12)

    def test_euler_from_axis_maps_z(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            axis = rng.normal(size=3)
            axis[2] = abs(axis[2]) + 0.1
            axis /= np.linalg.norm(axis)
            r = rotation_zyx(euler_from_axis(axis))
            assert np.allclose(r @ [0, 0, 1], axis, atol=1e-12)


class TestCalibrationParams:
    def test_negative_tip_weight_is_out_of_range(self):
        with pytest.raises(OutOfRange):
            CalibrationParams(tip_weight_n=-0.1)


class TestRemoveZOffset:
    def test_offset_equals_reading(self):
        cal = CalibrationParams(z_offset=(1.0, -2.0, 3.0))
        out = remove_z_offset(ForceReading([1.0, -2.0, 3.0]), cal)
        assert np.allclose(out.f, 0.0, atol=1e-15)

    def test_zero_offset_identity(self):
        cal = CalibrationParams()
        out = remove_z_offset(ForceReading([0.5, 0.25, -1.0]), cal)
        assert np.allclose(out.f, [0.5, 0.25, -1.0], atol=1e-15)

    def test_estimated_offset_residual(self):
        # estimate the bias as the mean of noisy no-contact samples
        rng = np.random.default_rng(3)
        true_bias = np.array([0.8, -0.3, 1.7])
        sigma = 0.05
        samples = true_bias + rng.normal(0.0, sigma, (500, 3))
        est = samples.mean(axis=0)
        cal = CalibrationParams(z_offset=tuple(est))
        out = remove_z_offset(ForceReading(true_bias), cal)
        assert np.linalg.norm(out.f) < 3.0 * sigma / math.sqrt(500) * math.sqrt(3)

    def test_frame_checked(self):
        with pytest.raises(FrameMismatch):
            remove_z_offset(ForceReading([0, 0, 0], INERTIAL), CalibrationParams())


class TestCompensateTipWeight:
    def test_gravity_only_reading_cancels(self):
        cal = CalibrationParams(tip_weight_n=2.5)
        out = compensate_tip_weight(ForceReading([0, 0, 2.5]), EulerZYX(0, 0, 0), cal)
        assert np.allclose(out.f, 0.0, atol=1e-15)

    def test_zero_mass_identity(self):
        cal = CalibrationParams(tip_weight_n=0.0)
        rng = np.random.default_rng(4)
        f = rng.normal(size=3)
        out = compensate_tip_weight(ForceReading(f), random_euler(rng), cal)
        assert np.allclose(out.f, f, atol=1e-12)

    def test_forward_model_recovery(self):
        rng = np.random.default_rng(5)
        cal = CalibrationParams(tip_weight_n=1.3)
        for _ in range(100):
            e = random_euler(rng)
            r = rotation_zyx(e)
            f_contact = rng.normal(size=3)
            reading = r.T @ (f_contact + np.array([0.0, 0.0, cal.tip_weight_n]))
            out = compensate_tip_weight(ForceReading(reading), e, cal)
            assert np.allclose(out.f, r.T @ f_contact, atol=1e-12)
            assert out.frame == LOAD_CELL_LOCAL

    def test_round_trip(self):
        rng = np.random.default_rng(6)
        cal = CalibrationParams(tip_weight_n=0.9)
        for _ in range(50):
            e = random_euler(rng)
            r = rotation_zyx(e)
            f = rng.normal(size=3)
            comp = compensate_tip_weight(ForceReading(f), e, cal)
            back = r.T @ (r @ comp.f + np.array([0.0, 0.0, cal.tip_weight_n]))
            assert np.allclose(back, f, atol=1e-12)

    def test_orientation_independence(self):
        # a fixed inertial contact force must compensate identically
        # regardless of probe orientation
        rng = np.random.default_rng(7)
        cal = CalibrationParams(tip_weight_n=0.7)
        f_contact = np.array([0.4, -1.2, 3.3])
        for _ in range(100):
            e = random_euler(rng)
            r = rotation_zyx(e)
            reading = r.T @ (f_contact + np.array([0.0, 0.0, cal.tip_weight_n]))
            comp = compensate_tip_weight(ForceReading(reading), e, cal)
            assert np.allclose(r @ comp.f, f_contact, atol=1e-9)
