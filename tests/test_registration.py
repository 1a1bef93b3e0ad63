import numpy as np
import pytest
from scipy.spatial import Delaunay

from palpsim import (
    CloudParams,
    PointCloud,
    RoiBox,
    cell_to_surface,
    config_from_flat,
    crop_roi,
    interpolate_grid,
    mesh_from_cloud,
    preprocess_cloud,
    run_trial,
)
from palpsim.errors import (
    DegenerateCloud,
    EmptyAfterFilter,
    EmptyRoi,
    InvalidCell,
    OutOfRange,
    ResolutionTooCoarse,
)
from palpsim.experiment import _ground_truth
from palpsim.ply import _vertex_normals

CLOUD = CloudParams()  # the run's defaults


def lattice_cloud(n=40, extent=0.1, z_fn=lambda x, y: np.zeros_like(x)):
    xs = np.linspace(0.0, extent, n)
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    pts = np.column_stack([gx.ravel(), gy.ravel(), z_fn(gx.ravel(), gy.ravel())])
    return PointCloud(pts)


class TestPreprocess:
    def test_planar_data_preserved(self):
        rng = np.random.default_rng(0)
        pts = np.column_stack([rng.uniform(0, 0.1, 5000), rng.uniform(0, 0.1, 5000),
                               np.full(5000, 0.05)])
        out = preprocess_cloud(PointCloud(pts), 0.002, CLOUD.outlier_k, CLOUD.outlier_sigma)
        assert len(out) > 0
        assert np.allclose(out.points[:, 2], 0.05, atol=1e-12)

    def test_isolated_outlier_removed(self):
        rng = np.random.default_rng(1)
        flat = np.column_stack([rng.uniform(0, 0.05, 3000), rng.uniform(0, 0.05, 3000),
                                np.zeros(3000)])
        spike = np.array([[0.025, 0.025, 0.1]])
        out = preprocess_cloud(PointCloud(np.vstack([flat, spike])),
                               voxel=0.001, outlier_k=8, outlier_sigma=2.0)
        assert out.points[:, 2].max() < 0.05

    def test_voxel_count_bound(self):
        rng = np.random.default_rng(2)
        pts = np.column_stack([rng.uniform(0, 0.1, 10000), rng.uniform(0, 0.1, 10000),
                               rng.uniform(0, 0.01, 10000)])
        voxel = 0.002
        # oracle: occupied XY voxel count from the same keying scheme
        keys = np.floor((pts[:, :2] - pts[:, :2].min(axis=0)) / voxel).astype(np.int64)
        occupied = np.unique(keys, axis=0).shape[0]
        out = preprocess_cloud(PointCloud(pts), voxel, 0, CLOUD.outlier_sigma)
        assert len(out) == occupied
        assert len(out) <= 2601

    def test_empty_input_rejected(self):
        with pytest.raises(EmptyAfterFilter):
            preprocess_cloud(PointCloud(np.zeros((0, 3))), CLOUD.voxel, CLOUD.outlier_k,
                             CLOUD.outlier_sigma)

    @pytest.mark.parametrize("voxel", [1e-15, 5e-324])
    def test_voxel_key_overflow_is_out_of_range(self, voxel):
        """1e-15 m over 0.1 m gives 1e14 voxels per axis, whose product passes
        int64; the subnormal voxel makes the voxel index itself infinite."""
        with pytest.raises(OutOfRange, match=r"voxel .* cloud extent of \(0\.1, 0\.1\) m"):
            preprocess_cloud(lattice_cloud(n=5), voxel, 0, CLOUD.outlier_sigma)

    def test_fine_voxel_keeps_every_point(self):
        """1e8 voxels per axis still fit the key: each point is its own voxel,
        in (x, y) order."""
        pts = np.random.default_rng(3).uniform(0.0, 0.1, (200, 3))
        out = preprocess_cloud(PointCloud(pts), 1e-9, 0, CLOUD.outlier_sigma)
        assert out.points.tobytes() == pts[np.lexsort((pts[:, 1], pts[:, 0]))].tobytes()


class TestMeshFromCloud:
    def test_planar_square(self):
        pts = np.array([[0, 0, 0.2], [1, 0, 0.2], [0, 1, 0.2], [1, 1, 0.2]], dtype=float)
        mesh = mesh_from_cloud(PointCloud(pts))
        assert mesh.triangles.shape[0] == 2
        assert np.allclose(_vertex_normals(mesh.vertices, mesh.triangles), [0, 0, 1],
                           atol=1e-12)

    def test_tilted_plane_normals(self):
        rng = np.random.default_rng(3)
        xy = rng.uniform(0, 1, (50, 2))
        pts = np.column_stack([xy, xy[:, 0]])  # z = x
        mesh = mesh_from_cloud(PointCloud(pts))
        expect = np.array([-1.0, 0.0, 1.0]) / np.sqrt(2.0)
        assert np.allclose(_vertex_normals(mesh.vertices, mesh.triangles), expect, atol=1e-9)

    def test_delaunay_euler_count(self):
        rng = np.random.default_rng(4)
        pts = np.column_stack([rng.uniform(0, 1, (1000, 2)), rng.uniform(0, 0.01, 1000)])
        mesh = mesh_from_cloud(PointCloud(pts))
        hull_size = np.unique(Delaunay(pts[:, :2]).convex_hull).size
        assert mesh.triangles.shape[0] == 2 * 1000 - 2 - hull_size

    def test_collinear_rejected(self):
        pts = np.column_stack([np.linspace(0, 1, 10), np.linspace(0, 1, 10), np.zeros(10)])
        with pytest.raises(DegenerateCloud):
            mesh_from_cloud(PointCloud(pts))

    def test_too_few_points_rejected(self):
        with pytest.raises(DegenerateCloud):
            mesh_from_cloud(PointCloud(np.array([[0.0, 0, 0], [1, 1, 0]])))


class TestCropRoi:
    def test_full_extent_noop(self):
        mesh = mesh_from_cloud(lattice_cloud(20))
        out = crop_roi(mesh, RoiBox((-1.0, -1.0), (1.0, 1.0)))
        assert out.triangles.shape[0] == mesh.triangles.shape[0]

    def test_disjoint_roi_rejected(self):
        mesh = mesh_from_cloud(lattice_cloud(10))
        with pytest.raises(EmptyRoi):
            crop_roi(mesh, RoiBox((5.0, 5.0), (6.0, 6.0)))

    def test_half_plane_vertex_count(self):
        mesh = mesh_from_cloud(lattice_cloud(40, extent=0.1))
        out = crop_roi(mesh, RoiBox((-1.0, -1.0), (0.05, 1.0)))
        inside = np.sum(mesh.vertices[:, 0] <= 0.05)
        assert abs(out.vertices.shape[0] - inside) / inside < 0.05

    def test_subcomplex(self):
        mesh = mesh_from_cloud(lattice_cloud(15))
        out = crop_roi(mesh, RoiBox((0.01, 0.01), (0.08, 0.08)))
        src = {
            frozenset(map(tuple, mesh.vertices[tri])) for tri in mesh.triangles
        }
        for tri in out.triangles:
            assert frozenset(map(tuple, out.vertices[tri])) in src

    def test_invalid_box_rejected(self):
        with pytest.raises(EmptyRoi):
            RoiBox((0.0, 0.0), (0.0, 1.0))


class TestInterpolateGrid:
    def test_planar_reproduction(self):
        mesh = mesh_from_cloud(lattice_cloud(30, z_fn=lambda x, y: np.full_like(x, 0.1)))
        grid = interpolate_grid(mesh, 0.004, 0.004)
        valid = grid.valid_mask
        assert valid.sum() >= 4
        assert np.allclose(grid.height[valid], 0.1, atol=1e-9)
        assert np.allclose(grid.normal[valid], [0, 0, 1], atol=1e-6)

    def test_affine_reproduction(self):
        rng = np.random.default_rng(5)
        for _ in range(3):
            a, b, c = rng.uniform(-0.5, 0.5, 3)
            mesh = mesh_from_cloud(
                lattice_cloud(25, z_fn=lambda x, y: a * x + b * y + c))
            grid = interpolate_grid(mesh, 0.005, 0.005)
            v = grid.valid_mask
            gx = grid.origin_xy[0] + grid.dx * np.arange(grid.nx)[:, None]
            gy = grid.origin_xy[1] + grid.dy * np.arange(grid.ny)[None, :]
            expect = a * gx + b * gy + c
            assert np.allclose(grid.height[v], np.broadcast_to(expect, grid.height.shape)[v],
                               atol=1e-9)
            n_expect = np.array([-a, -b, 1.0]) / np.sqrt(a * a + b * b + 1.0)
            assert np.allclose(grid.normal[v], n_expect, atol=1e-6)

    def test_quadratic_bowl_accuracy(self):
        rng = np.random.default_rng(6)
        xy = rng.uniform(0, 0.1, (4000, 2))
        pts = np.column_stack([xy, xy[:, 0] ** 2 + xy[:, 1] ** 2])
        grid = interpolate_grid(mesh_from_cloud(PointCloud(pts)), 0.002, 0.002)
        v = grid.valid_mask.copy()
        v[[0, -1], :] = False  # hull-edge cells can be one-sided
        v[:, [0, -1]] = False
        gx = grid.origin_xy[0] + grid.dx * np.arange(grid.nx)[:, None]
        gy = grid.origin_xy[1] + grid.dy * np.arange(grid.ny)[None, :]
        expect = np.broadcast_to(gx**2 + gy**2, grid.height.shape)
        assert np.max(np.abs(grid.height[v] - expect[v])) < 1e-4

    def test_interpolatory_at_vertices(self):
        # mesh vertices laid exactly on the lattice nodes
        rng = np.random.default_rng(7)
        n = 11
        xs = np.linspace(0.0, 0.05, n)
        gx, gy = np.meshgrid(xs, xs, indexing="ij")
        z = rng.uniform(0.0, 0.01, gx.shape)
        mesh = mesh_from_cloud(PointCloud(
            np.column_stack([gx.ravel(), gy.ravel(), z.ravel()])))
        dx = xs[1] - xs[0]
        grid = interpolate_grid(mesh, dx, dx)
        assert grid.nx == n and grid.ny == n
        assert np.allclose(grid.height, z, atol=1e-9)

    def test_too_coarse_rejected(self):
        mesh = mesh_from_cloud(lattice_cloud(10, extent=0.05))
        with pytest.raises(ResolutionTooCoarse):
            interpolate_grid(mesh, 1.0, 1.0)

    def test_lattice_round_trip(self):
        mesh = mesh_from_cloud(lattice_cloud(20))
        grid = interpolate_grid(mesh, 0.007, 0.007)
        for u, v in [(0, 0), (3, 5), (grid.nx - 1, grid.ny - 1)]:
            if not grid.is_valid(u, v):
                continue
            p, _ = cell_to_surface(grid, u, v)
            assert p[0] == pytest.approx(grid.origin_xy[0] + u * grid.dx, abs=1e-15)
            assert p[1] == pytest.approx(grid.origin_xy[1] + v * grid.dy, abs=1e-15)

    def test_never_reads_scipys_barycentric_transforms(self, monkeypatch):
        """scipy computes ``Delaunay.transform`` with one threaded LAPACK solve
        per simplex; registration must use its own stacked inverse instead."""
        def forbidden(self):
            raise AssertionError("scipy's Delaunay.transform was read")

        monkeypatch.setattr(Delaunay, "transform", property(forbidden))
        mesh = mesh_from_cloud(lattice_cloud(25, z_fn=lambda x, y: x * y))
        assert interpolate_grid(mesh, 0.005, 0.005).valid_mask.sum() >= 4
        cfg = config_from_flat({"trials": 1, "budget": 20, "seed": 3})
        assert run_trial(cfg, _ground_truth(cfg), 0).status == "ok"


class TestCellToSurface:
    def test_flat_grid_normals_and_origin(self):
        mesh = mesh_from_cloud(lattice_cloud(20, z_fn=lambda x, y: np.full_like(x, 0.3)))
        grid = interpolate_grid(mesh, 0.005, 0.005)
        p, n = cell_to_surface(grid, 0, 0)
        assert np.allclose(n, [0, 0, 1], atol=1e-9)
        assert np.allclose(p[:2], grid.origin_xy, atol=1e-15)

    def test_masked_cell_rejected(self):
        # triangular point set: lattice corners fall outside the hull
        rng = np.random.default_rng(8)
        pts = rng.uniform(0, 1, (500, 2))
        pts = pts[pts[:, 0] + pts[:, 1] <= 1.0]  # lower-left triangle
        mesh = mesh_from_cloud(PointCloud(np.column_stack([pts, np.zeros(len(pts))])))
        grid = interpolate_grid(mesh, 0.05, 0.05)
        assert not grid.valid_mask.all()
        u, v = np.argwhere(~grid.valid_mask)[-1]
        with pytest.raises(InvalidCell):
            cell_to_surface(grid, int(u), int(v))
        with pytest.raises(InvalidCell):
            cell_to_surface(grid, grid.nx + 3, 0)

    def test_normals_point_up(self):
        rng = np.random.default_rng(9)
        xy = rng.uniform(0, 0.1, (2000, 2))
        pts = np.column_stack([xy, 0.02 * np.sin(40 * xy[:, 0]) * np.cos(40 * xy[:, 1])])
        grid = interpolate_grid(mesh_from_cloud(PointCloud(pts)), 0.003, 0.003)
        v = grid.valid_mask
        assert np.all(grid.normal[v][:, 2] > 0.0)
