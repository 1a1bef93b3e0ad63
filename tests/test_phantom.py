import numpy as np
import pytest

from palpsim import (
    Phantom,
    PhantomConfig,
    TumorGeometry,
    flat_profile,
)
from palpsim.errors import ConfigInvalid, EmptyRegion, NoTumor, OutOfRange


def flat_cfg(**kw):
    kw.setdefault("surface_profile", flat_profile())
    return PhantomConfig(**kw)


# series stiffness 400 N/m, matching the contact-law examples
CFG400 = dict(k_skin=1200.0, k_fat=600.0, k_muscle=2500.0, k_tumor=20000.0)


class TestBuildPhantom:
    def test_hemisphere_apex_height_equals_radius(self):
        ph = Phantom(flat_cfg(), TumorGeometry("hemisphere", radius=0.01))
        z_muscle = ph.z_skin(0.0, 0.0) - ph.cfg.stack_depth
        z_stop = ph.z_stop_np(np.zeros(1), np.zeros(1))[0]
        assert z_stop - z_muscle == pytest.approx(0.01, abs=1e-12)

    def test_no_tumor_outside_footprint(self):
        ph = Phantom(flat_cfg(), TumorGeometry("hemisphere", radius=0.01))
        z_muscle = ph.z_skin(0.05, 0.05) - ph.cfg.stack_depth
        assert ph.z_stop_np(np.full(1, 0.05), np.full(1, 0.05))[0] == z_muscle

    def test_stiffness_ordering_rejected(self):
        with pytest.raises(ConfigInvalid):
            PhantomConfig(k_fat=800.0, k_skin=500.0)

    def test_tumor_taller_than_stack_rejected(self):
        with pytest.raises(ConfigInvalid):
            Phantom(flat_cfg(), TumorGeometry("hemisphere", radius=0.05))

    def test_layer_fields(self):
        cfg = flat_cfg(**CFG400)
        assert cfg.k_soft == pytest.approx(400.0)
        assert cfg.stack_depth == pytest.approx(0.019)


class TestContactForce:
    def test_no_penetration_no_force(self):
        ph = Phantom(flat_cfg(**CFG400))
        assert ph.contact_force(0.0, 0.0, ph.z_skin(0.0, 0.0) + 0.001) == 0.0

    def test_soft_stack_hooke(self):
        ph = Phantom(flat_cfg(**CFG400))
        f = ph.contact_force(0.0, 0.0, ph.z_skin(0.0, 0.0) - 0.005)
        assert f == pytest.approx(2.0, abs=1e-12)
        assert f == pytest.approx(ph.cfg.k_soft * 0.005, abs=1e-12)  # k_soft * d

    def test_hard_stop_over_apex(self):
        ph = Phantom(flat_cfg(**CFG400), TumorGeometry("hemisphere", radius=0.01))
        # stack 19 mm, apex 10 mm -> stop depth 9 mm
        assert ph.cfg.stack_depth - ph.h_tumor(0.0, 0.0) == pytest.approx(0.009)
        f = ph.contact_force(0.0, 0.0, ph.z_skin(0.0, 0.0) - 0.010)
        assert f == pytest.approx(400 * 0.009 + 20000 * 0.001, abs=1e-9)
        assert f == pytest.approx(23.6, abs=1e-9)
        # k_soft * d_stop + k_tumor * (d - d_stop)
        d_stop = ph.cfg.stack_depth - ph.h_tumor(0.0, 0.0)
        assert f == pytest.approx(ph.cfg.k_soft * d_stop + ph.cfg.k_tumor * (0.010 - d_stop),
                                  abs=1e-9)

    def test_hard_stop_muscle_off_footprint(self):
        ph = Phantom(flat_cfg(**CFG400), TumorGeometry("hemisphere", radius=0.01))
        f = ph.contact_force(0.05, 0.0, ph.z_skin(0.05, 0.0) - 0.020)
        # k_soft * stack + k_muscle * (d - stack)
        stack = ph.cfg.stack_depth
        assert f == pytest.approx(ph.cfg.k_soft * stack + ph.cfg.k_muscle * (0.020 - stack),
                                  abs=1e-9)

    def test_damping_only_while_descending(self):
        ph = Phantom(flat_cfg(**CFG400, contact_damping=10.0))
        z = ph.z_skin(0.0, 0.0) - 0.005
        down = ph.contact_force(0.0, 0.0, z, probe_vz=-0.1)
        up = ph.contact_force(0.0, 0.0, z, probe_vz=+0.1)
        assert down == pytest.approx(2.0 + 10.0 * 0.1, abs=1e-12)
        assert up == pytest.approx(2.0, abs=1e-12)

    def test_continuity_at_regime_boundary(self):
        ph = Phantom(flat_cfg(**CFG400), TumorGeometry("hemisphere", radius=0.01))
        z_skin = ph.z_skin(0.0, 0.0)
        d_stop = ph.cfg.stack_depth - ph.h_tumor(0.0, 0.0)
        eps = 1e-9
        below = ph.contact_force(0.0, 0.0, z_skin - (d_stop - eps))
        above = ph.contact_force(0.0, 0.0, z_skin - (d_stop + eps))
        assert abs(above - below) < 1e-4

    def test_monotone_in_penetration(self):
        ph = Phantom(PhantomConfig(), TumorGeometry("crescent"))
        rng = np.random.default_rng(0)
        for _ in range(50):
            x, y = rng.uniform(-0.02, 0.02, 2)
            depths = np.linspace(0.0, 0.025, 200)
            forces = [ph.contact_force(x, y, ph.z_skin(x, y) - d) for d in depths]
            assert np.all(np.diff(forces) >= -1e-12)

    def test_tumor_regime_only_on_footprint(self):
        ph = Phantom(PhantomConfig(), TumorGeometry("hemisphere", radius=0.01))
        rng = np.random.default_rng(1)
        for _ in range(200):
            x, y = rng.uniform(-0.03, 0.03, 2)
            if ph.h_tumor(x, y) > 0.0:
                continue
            # the muscle's hard stop: k_soft * stack + k_muscle * (d - stack)
            f = ph.contact_force(x, y, ph.z_skin(x, y) - 0.022)
            stack = ph.cfg.stack_depth
            assert f == pytest.approx(ph.cfg.k_soft * stack + ph.cfg.k_muscle * (0.022 - stack),
                                      abs=1e-9)

    def test_height_field_ordering(self):
        ph = Phantom(PhantomConfig(), TumorGeometry("crescent"))
        rng = np.random.default_rng(2)
        xs, ys = rng.uniform(-0.05, 0.05, (2, 500))
        z_skin, z_stop = ph.z_skin_np(xs, ys), ph.z_stop_np(xs, ys)
        assert np.all(z_skin - ph.cfg.stack_depth <= z_stop)
        assert np.all(z_stop <= z_skin)


class TestSynthDepthCloud:
    def test_noiseless_flat_plane(self):
        ph = Phantom(flat_cfg(muscle_plane_z=0.1 - 0.019))
        cloud = ph.synth_depth_cloud(((-0.05, -0.05), (0.05, 0.05)), 1e5, 0.0, seed=3)
        assert np.allclose(cloud.points[:, 2], 0.1, atol=1e-12)

    def test_deterministic_under_seed(self):
        ph = Phantom(PhantomConfig())
        a = ph.synth_depth_cloud(((-0.03, -0.03), (0.03, 0.03)), 1e6, 5e-4, seed=42)
        b = ph.synth_depth_cloud(((-0.03, -0.03), (0.03, 0.03)), 1e6, 5e-4, seed=42)
        assert np.array_equal(a.points, b.points)

    def test_noise_level_matches_request(self):
        sigma = 0.0005
        ph = Phantom(flat_cfg())
        cloud = ph.synth_depth_cloud(((-0.05, -0.05), (0.05, 0.05)), 1e6, sigma, seed=4)
        assert len(cloud) >= 9000
        resid = cloud.points[:, 2] - ph.z_skin(0.0, 0.0)
        assert abs(resid.std() - sigma) < 0.1 * sigma

    def test_empty_region_rejected(self):
        ph = Phantom(PhantomConfig())
        with pytest.raises(EmptyRegion):
            ph.synth_depth_cloud(((0.0, 0.0), (0.0, 0.1)), 1e6)
        with pytest.raises(EmptyRegion):
            ph.synth_depth_cloud(((0.0, 0.0), (0.1, 0.1)), 0.0)


class TestGroundTruthCloud:
    def test_hemisphere_points_on_sphere(self):
        ph = Phantom(flat_cfg(), TumorGeometry("hemisphere", radius=0.01))
        cloud = ph.ground_truth_cloud(500, seed=5)
        center = np.array([0.0, 0.0, ph.z_skin(0.0, 0.0) - ph.cfg.stack_depth])
        dist = np.linalg.norm(cloud.points - center, axis=1)
        assert np.all(np.abs(dist - 0.01) <= 0.01 * 1e-7 + 1e-9)

    def test_crescent_avoids_inner_cut(self):
        tum = TumorGeometry("crescent")
        ph = Phantom(flat_cfg(), tum)
        cloud = ph.ground_truth_cloud(800, seed=6)
        inner_center = np.array([tum.inner_offset, 0.0])
        rho_in = np.linalg.norm(cloud.points[:, :2] - inner_center, axis=1)
        assert np.all(rho_in >= tum.inner_radius - 1e-12)

    def test_exact_count(self):
        ph = Phantom(flat_cfg(), TumorGeometry("hemisphere"))
        assert len(ph.ground_truth_cloud(1000, seed=7)) == 1000

    def test_requires_tumor(self):
        ph = Phantom(flat_cfg())
        with pytest.raises(NoTumor):
            ph.ground_truth_cloud(10)

    def test_deterministic(self):
        ph = Phantom(PhantomConfig(), TumorGeometry("crescent"))
        a = ph.ground_truth_cloud(300, seed=8)
        b = ph.ground_truth_cloud(300, seed=8)
        assert np.array_equal(a.points, b.points)


class TestTumorGeometry:
    def test_heights_nonnegative_and_bounded(self):
        rng = np.random.default_rng(9)
        for shape in ("hemisphere", "ellipsoid", "crescent"):
            tum = TumorGeometry(shape)
            xs, ys = rng.uniform(-0.05, 0.05, (2, 400))
            hs = tum.height_np(xs, ys)
            assert np.all(hs >= 0.0)
            assert np.all(hs <= tum.max_height + 1e-12)

    def test_scalar_matches_vectorized(self):
        rng = np.random.default_rng(10)
        for shape in ("hemisphere", "ellipsoid", "crescent"):
            tum = TumorGeometry(shape)
            xs, ys = rng.uniform(-0.03, 0.03, (2, 100))
            vec = tum.height_np(xs, ys)
            scl = np.array([tum.height(x, y) for x, y in zip(xs, ys)])
            assert np.allclose(vec, scl, atol=1e-12)

    def test_crescent_flat_top(self):
        tum = TumorGeometry("crescent")
        # deep inside the crescent body, away from both arcs
        assert tum.height(-0.005, 0.0) == pytest.approx(tum.top_height)

    def test_bad_shapes_rejected(self):
        with pytest.raises(ConfigInvalid):
            TumorGeometry("cube")
        with pytest.raises(OutOfRange):
            TumorGeometry("hemisphere", radius=-1.0)
        with pytest.raises(ConfigInvalid):
            TumorGeometry("crescent", width=0.05, inner_offset=0.0)
