import numpy as np
import pytest
from scipy.spatial.distance import cdist

from palpsim import (
    Phantom,
    PhantomConfig,
    PointCloud,
    ProbeParams,
    TumorGeometry,
    aggregate_trials,
    default_config,
    extract_contact_points,
    flat_profile,
    fscore,
    reconstruct_mesh,
    run_policy,
)
from palpsim.errors import DegenerateCloud, Empty, EmptyCloud, EmptyReconstruction, OutOfRange
from palpsim.evaluation import FScoreReport
from palpsim.policy import PalpationTrajectory, ProbeResult


def fake_traj(poses, forces, outcome="timeout", normal=(0.0, 0.0, 1.0)):
    poses = np.asarray(poses, dtype=float)
    n = poses.shape[0]
    return PalpationTrajectory(
        times=np.arange(n, dtype=float) * 0.0125,
        poses=poses,
        forces=np.asarray(forces, dtype=float),
        outcome=outcome,
        start_cell=(0, 0),
        direction=(1.0, 0.0),
        tip_normal=np.asarray(normal, dtype=float),
    )


def fake_probe(point, classified=True):
    point = np.asarray(point, dtype=float)
    return ProbeResult(cell=(0, 0), f_z=6.0, d_z=0.01, k=600.0,
                       classified_tumor=classified, p_zi=0.0,
                       tip=(point[0], point[1], point[2] + 0.0025), contact_point=point,
                       normal=np.array([0.0, 0.0, 1.0]), f_vec=np.zeros(3))


def brute_force_fscore(recon, gt, r):
    d = cdist(recon, gt)
    precision = float(np.mean(d.min(axis=1) <= r))
    recall = float(np.mean(d.min(axis=0) <= r))
    f = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f


class TestExtractContactPoints:
    def test_below_threshold_is_empty(self):
        traj = fake_traj([[0, 0, 0.01]] * 5, [[0, 0, 2.0]] * 5)
        with pytest.raises(EmptyReconstruction):
            extract_contact_points([traj], [], ProbeParams(f_thres=5.0))

    def test_single_discrete_probe(self):
        out = extract_contact_points([], [fake_probe([0.0, 0.0, 0.019])], ProbeParams())
        assert isinstance(out, PointCloud)
        assert out.points.tolist() == [[0.0, 0.0, 0.019]]

    def test_unclassified_probe_ignored(self):
        with pytest.raises(EmptyReconstruction):
            extract_contact_points([], [fake_probe([0, 0, 0.019], classified=False)],
                                   ProbeParams())

    def test_tip_offset_along_normal(self):
        traj = fake_traj([[0.0, 0.0, 0.0125]], [[0.0, 0.0, 6.0]])
        out = extract_contact_points([traj], [], ProbeParams(f_thres=5.0, tip_radius=0.0025))
        assert np.allclose(out.points[0], [0.0, 0.0, 0.01])

    def test_dedup_under_200um(self):
        poses = [[0.0, 0.0, 0.01], [0.00005, 0.0, 0.01], [0.001, 0.0, 0.01]]
        traj = fake_traj(poses, [[0, 0, 6.0]] * 3)
        out = extract_contact_points([traj], [], ProbeParams(f_thres=5.0, tip_radius=0.0))
        assert len(out.points) == 2

    def test_cf_multiplier_on_shared_seed_runs(self, analytic_grid):
        ph = Phantom(PhantomConfig(surface_profile=flat_profile()),
                           TumorGeometry("hemisphere", radius=0.01))
        grid = analytic_grid(ph)
        params = ProbeParams()
        p_cf, t_cf = run_policy(ph, grid, default_config(strategy="bo", mode="cf", budget=15),
                                seed=4)
        p_d, t_d = run_policy(ph, grid, default_config(strategy="bo", mode="discrete",
                                                       budget=15), seed=4)
        rc_cf = extract_contact_points(t_cf, p_cf, params)
        rc_d = extract_contact_points(t_d, p_d, params)
        assert len(rc_cf) >= 10 * len(rc_d)

    def test_sanity_envelope(self, analytic_grid):
        ph = Phantom(PhantomConfig(), TumorGeometry("hemisphere", radius=0.01))
        grid = analytic_grid(ph)
        params = ProbeParams()
        probes, trajs = run_policy(ph, grid, default_config(strategy="bo", mode="cf", budget=12),
                                   seed=5)
        recon = extract_contact_points(trajs, probes, params)
        for p in recon.points:
            assert p[2] >= ph.z_skin(p[0], p[1]) - ph.cfg.stack_depth - 0.001
            assert p[2] <= ph.z_skin(p[0], p[1]) + 0.001


class TestFScore:
    def test_identical_clouds(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(0, 0.05, (200, 3))
        rep = fscore(PointCloud(pts), PointCloud(pts.copy()), 0.003)
        assert (rep.precision, rep.recall, rep.fscore) == (1.0, 1.0, 1.0)

    def test_disjoint_clouds(self):
        rng = np.random.default_rng(1)
        a = rng.uniform(0, 0.01, (50, 3))
        rep = fscore(PointCloud(a), PointCloud(a + 0.03), 0.003)
        assert (rep.precision, rep.recall, rep.fscore) == (0.0, 0.0, 0.0)

    def test_harmonic_mean_half_recall(self):
        r = 0.003
        gt = np.array([[0.0, 0.0, 0.0], [0.05, 0.0, 0.0]])
        rep = fscore(PointCloud(gt[:1]), PointCloud(gt), r)
        assert rep.precision == 1.0
        assert rep.recall == 0.5
        assert rep.fscore == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_a_point_at_exactly_r_is_covered(self):
        # 0.25 and its square are exact in binary, so each distance is r itself
        recon = np.array([[0.0, 0.0, 0.0]])
        gt = np.array([[0.25, 0.0, 0.0], [0.0, 0.0, 1.0]])
        rep = fscore(PointCloud(recon), PointCloud(gt), 0.25)
        assert (rep.precision, rep.recall) == (1.0, 0.5)
        rep = fscore(PointCloud(gt), PointCloud(recon), 0.25)
        assert (rep.precision, rep.recall) == (0.5, 1.0)
        rep = fscore(PointCloud(recon), PointCloud(gt), np.nextafter(0.25, 0.0))
        assert (rep.precision, rep.recall) == (0.0, 0.0)

    def test_empty_rejected(self):
        with pytest.raises(EmptyCloud):
            fscore(PointCloud(np.zeros((0, 3))), PointCloud(np.zeros((1, 3))), 0.003)

    @pytest.mark.parametrize("r", [0.0, -1.0, float("nan")])
    def test_radius_must_be_positive(self, r):
        a = PointCloud(np.zeros((4, 3)))
        with pytest.raises(OutOfRange):
            fscore(a, a, r)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            n, m = rng.integers(5, 400, 2)
            a = rng.uniform(0, 0.03, (n, 3))
            b = rng.uniform(0, 0.03, (m, 3))
            r = rng.uniform(0.001, 0.01)
            rep = fscore(PointCloud(a), PointCloud(b), r)
            p, rc, f = brute_force_fscore(a, b, r)
            assert rep.precision == p
            assert rep.recall == rc
            assert rep.fscore == f

    def test_monotone_in_r(self):
        rng = np.random.default_rng(3)
        a = rng.uniform(0, 0.02, (300, 3))
        b = rng.uniform(0, 0.02, (250, 3))
        reps = [fscore(PointCloud(a), PointCloud(b), r)
                for r in (0.001, 0.002, 0.003, 0.005)]
        for x, y in zip(reps, reps[1:]):
            assert y.precision >= x.precision
            assert y.recall >= x.recall
            assert y.fscore >= x.fscore

    def test_swap_symmetry(self):
        rng = np.random.default_rng(4)
        a = rng.uniform(0, 0.02, (120, 3))
        b = rng.uniform(0, 0.02, (80, 3))
        ab = fscore(PointCloud(a), PointCloud(b), 0.003)
        ba = fscore(PointCloud(b), PointCloud(a), 0.003)
        assert ab.precision == ba.recall
        assert ab.recall == ba.precision
        assert ab.fscore == pytest.approx(ba.fscore, abs=1e-15)


class TestReconstructMesh:
    def test_coplanar_square(self):
        pts = PointCloud(np.array([[0, 0, 0.1], [0.01, 0, 0.1],
                                   [0, 0.01, 0.1], [0.01, 0.01, 0.1]]))
        mesh = reconstruct_mesh(pts)
        assert mesh.triangles.shape[0] == 2
        assert np.allclose(mesh.vertices[:, 2], 0.1)

    def test_collinear_rejected(self):
        pts = PointCloud(np.column_stack([np.linspace(0, 1, 8), np.zeros(8), np.zeros(8)]))
        with pytest.raises(DegenerateCloud):
            reconstruct_mesh(pts)

    def test_hemisphere_heights_close_to_analytic(self, analytic_grid):
        ph = Phantom(PhantomConfig(surface_profile=flat_profile()),
                           TumorGeometry("hemisphere", radius=0.01))
        grid = analytic_grid(ph)
        params = ProbeParams()
        probes, trajs = run_policy(ph, grid, default_config(strategy="bo", mode="cf", budget=25),
                                   seed=6)
        recon = extract_contact_points(trajs, probes, params)
        mesh = reconstruct_mesh(recon)
        v = mesh.vertices
        assert np.all(np.abs(v[:, 2] - ph.z_stop_np(v[:, 0], v[:, 1])) < 0.002)

    def test_long_edges_dropped(self):
        # two dense clusters far apart: no triangle may bridge the gap
        rng = np.random.default_rng(7)
        a = rng.uniform(0, 0.005, (40, 2))
        b = rng.uniform(0, 0.005, (40, 2)) + np.array([0.05, 0.0])
        pts = np.vstack([a, b])
        mesh = reconstruct_mesh(PointCloud(np.column_stack([pts, np.zeros(80)])))
        for tri in mesh.triangles:
            xs = mesh.vertices[tri, 0]
            assert xs.max() - xs.min() < 0.02


class TestAggregateTrials:
    def _rep(self, f):
        return FScoreReport(f, f, f, 0.003, 10, 10)

    def test_single(self):
        assert aggregate_trials([self._rep(0.5)]) == (0.5, 0.5)

    def test_pair(self):
        mean, best = aggregate_trials([self._rep(0.2), self._rep(0.8)])
        assert mean == pytest.approx(0.5)
        assert best == pytest.approx(0.8)

    def test_empty_rejected(self):
        with pytest.raises(Empty):
            aggregate_trials([])
