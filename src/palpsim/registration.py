"""Scene registration: raw surface cloud -> filtered cloud -> triangular
mesh -> ROI crop -> interpolated uniform surface grid.

The whole chain assumes a height field (single-valued z over XY), which
holds for a bench phantom scanned from above.  The grid is the
controller's source of truth: each valid cell stores a surface point and
an outward (+z hemisphere) unit normal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CloughTocher2DInterpolator
from scipy.ndimage import distance_transform_edt
from scipy.spatial import Delaunay, QhullError, cKDTree

from .errors import (
    DegenerateCloud,
    EmptyAfterFilter,
    EmptyRoi,
    InvalidCell,
    OutOfRange,
    ResolutionTooCoarse,
    check_ranges,
)
from .phantom import PointCloud


@dataclass
class SurfaceMesh:
    """Triangulated height-field surface: vertex positions and the
    triangles over them.  ``export_mesh_ply`` derives its vertex normals."""

    vertices: np.ndarray       # (n, 3)
    triangles: np.ndarray      # (m, 3) int indices

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=float).reshape(-1, 3)
        self.triangles = np.asarray(self.triangles, dtype=np.int64).reshape(-1, 3)


@dataclass(frozen=True)
class RoiBox:
    """Axis-aligned XY bounding box demarcating the palpation region."""

    min_xy: tuple[float, float]
    max_xy: tuple[float, float]

    def __post_init__(self):
        check_ranges(self)
        if not (self.min_xy[0] < self.max_xy[0] and self.min_xy[1] < self.max_xy[1]):
            raise EmptyRoi(f"roi min {self.min_xy} must be < max {self.max_xy}")

    def contains(self, xy: np.ndarray) -> np.ndarray:
        xy = np.asarray(xy, dtype=float)
        return (
            (xy[..., 0] >= self.min_xy[0]) & (xy[..., 0] <= self.max_xy[0])
            & (xy[..., 1] >= self.min_xy[1]) & (xy[..., 1] <= self.max_xy[1])
        )


class SurfaceGrid:
    """Uniform (dx, dy) lattice over the ROI with per-cell point/normal.

    Cell (u, v) maps to XY = origin + (u*dx, v*dy).  ``valid_mask`` marks
    cells inside the interpolation hull with a well-defined normal.
    ``sample_height`` bilinearly interpolates the (hole-filled) height
    field and is cheap enough for per-control-tick calls.  Its three
    arrays are read-only copies, so they cannot drift from the filled heights.
    """

    def __init__(self, origin_xy, dx: float, dy: float, height: np.ndarray,
                 normal: np.ndarray, valid_mask: np.ndarray):
        self.origin_xy = (float(origin_xy[0]), float(origin_xy[1]))
        self.dx = float(dx)
        self.dy = float(dy)
        self.height = np.array(height, dtype=float)
        self.normal = np.array(normal, dtype=float)
        self.valid_mask = np.array(valid_mask, dtype=bool)
        for a in (self.height, self.normal, self.valid_mask):
            a.flags.writeable = False
        self.nx, self.ny = self.height.shape
        if not self.valid_mask.any():
            raise ResolutionTooCoarse("no valid grid cells")
        # nearest-valid fill so bilinear sampling never sees NaN
        iu, iv = distance_transform_edt(~self.valid_mask, return_distances=False,
                                        return_indices=True)
        self._rows = self.height[iu, iv].tolist()  # plain floats for the hot loop
        # sample_height's clamp limits, top cell and neighbour steps
        self._fx_max, self._fy_max = float(self.nx - 1), float(self.ny - 1)
        self._i_top, self._j_top = max(self.nx - 2, 0), max(self.ny - 2, 0)
        self._di, self._dj = min(self.nx - 1, 1), min(self.ny - 1, 1)

    def valid_cells(self) -> np.ndarray:
        """(k, 2) integer array of valid (u, v) cells in row-major order."""
        return np.argwhere(self.valid_mask)

    def cell_point(self, u: int, v: int) -> np.ndarray:
        return np.array([
            self.origin_xy[0] + u * self.dx,
            self.origin_xy[1] + v * self.dy,
            self.height[u, v],
        ])

    def is_valid(self, u: int, v: int) -> bool:
        return 0 <= u < self.nx and 0 <= v < self.ny and bool(self.valid_mask[u, v])

    def sample_height(self, x: float, y: float) -> float:
        """Bilinear height at (x, y), clamped to the grid extent."""
        x0, y0 = self.origin_xy
        fx = (x - x0) / self.dx
        fy = (y - y0) / self.dy
        if fx < 0.0:
            fx = 0.0
        elif fx > self._fx_max:
            fx = self._fx_max
        if fy < 0.0:
            fy = 0.0
        elif fy > self._fy_max:
            fy = self._fy_max
        i = int(fx)
        if i > self._i_top:
            i = self._i_top
        j = int(fy)
        if j > self._j_top:
            j = self._j_top
        tx = fx - i
        ty = fy - j
        r0 = self._rows[i]
        r1 = self._rows[i + self._di]
        h00 = r0[j]
        h01 = r0[j + self._dj]
        h10 = r1[j]
        h11 = r1[j + self._dj]
        return (h00 * (1 - tx) * (1 - ty) + h10 * tx * (1 - ty)
                + h01 * (1 - tx) * ty + h11 * tx * ty)


def preprocess_cloud(raw: PointCloud, voxel: float, outlier_k: int,
                     outlier_sigma: float) -> PointCloud:
    """Voxel-centroid downsampling followed by statistical outlier removal.

    Voxels are XY pillars: the cloud is a height field, and binning in z
    as well would split the surface across voxel boundaries and emit
    near-coincident XY centroids that break the interpolation stage.
    A point is discarded when its mean distance to its ``outlier_k``
    nearest neighbors exceeds mean + outlier_sigma * std over the cloud.
    """
    pts = raw.points
    if pts.shape[0] == 0:
        raise EmptyAfterFilter("input cloud is empty")
    if voxel > 0:
        with np.errstate(over="ignore"):  # an infinite index is rejected below
            cells = np.floor((pts[:, :2] - pts[:, :2].min(axis=0)) / voxel)
        n_x, n_y = (int(t) + 1 if np.isfinite(t) else 2**63 for t in cells.max(axis=0))
        if n_x * n_y > 2**63 - 1:
            extent = np.ptp(pts[:, :2], axis=0)
            raise OutOfRange(f"voxel {voxel} m is too fine for a cloud extent of "
                             f"({extent[0]:.4g}, {extent[1]:.4g}) m: the voxel key "
                             "would overflow int64")
        # one key per XY pillar; it sorts as the (kx, ky) rows do
        keys = cells.astype(np.int64)
        _, inv = np.unique(keys[:, 0] * n_y + keys[:, 1], return_inverse=True)
        counts = np.bincount(inv).astype(float)
        # bincount sums each column point by point in input order, from 0.0
        sums = np.empty((counts.size, 3))
        for c in range(3):
            sums[:, c] = np.bincount(inv, weights=pts[:, c], minlength=counts.size)
        pts = sums / counts[:, None]
    if outlier_k > 0 and pts.shape[0] > outlier_k + 1:
        tree = cKDTree(pts)
        dists, _ = tree.query(pts, k=outlier_k + 1)
        mean_d = dists[:, 1:].mean(axis=1)  # skip self
        thresh = mean_d.mean() + outlier_sigma * mean_d.std()
        pts = pts[mean_d <= thresh]
    if pts.shape[0] == 0:
        raise EmptyAfterFilter("all points filtered out")
    return PointCloud(pts)


def mesh_from_cloud(cloud: PointCloud) -> SurfaceMesh:
    """Delaunay-triangulate the XY projection and lift to 3D."""
    pts = cloud.points
    if pts.shape[0] < 3:
        raise DegenerateCloud("need at least 3 points")
    try:
        tri = Delaunay(pts[:, :2])
    except QhullError as exc:
        raise DegenerateCloud(f"triangulation failed: {exc}") from exc
    simplices = tri.simplices
    if simplices.shape[0] == 0:
        raise DegenerateCloud("no triangles produced (collinear input?)")
    # drop numerically degenerate (zero-area) triangles
    p = pts[:, :2]
    a = p[simplices[:, 1]] - p[simplices[:, 0]]
    b = p[simplices[:, 2]] - p[simplices[:, 0]]
    area2 = np.abs(a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0])
    scale = max(p.max(axis=0).max() - p.min(axis=0).min(), 1e-300)
    simplices = simplices[area2 > 1e-14 * scale * scale]
    if simplices.shape[0] == 0:
        raise DegenerateCloud("all triangles degenerate")
    return SurfaceMesh(pts, simplices)


def crop_roi(mesh: SurfaceMesh, roi: RoiBox) -> SurfaceMesh:
    """Keep triangles whose three vertices lie inside the ROI; reindex."""
    inside = roi.contains(mesh.vertices[:, :2])
    keep = inside[mesh.triangles].all(axis=1)
    if not keep.any():
        raise EmptyRoi("roi does not intersect the mesh")
    tris = mesh.triangles[keep]
    used = np.unique(tris)
    remap = np.full(mesh.vertices.shape[0], -1, dtype=np.int64)
    remap[used] = np.arange(used.size)
    return SurfaceMesh(mesh.vertices[used], remap[tris])


def _masked_gradient(h: np.ndarray, step: float, axis: int) -> np.ndarray:
    """Central differences where both neighbors exist, one-sided at edges.

    NaN entries in ``h`` mark invalid cells; a cell with no finite
    neighbor along the axis gets NaN slope.
    """
    plus = np.full_like(h, np.nan)
    minus = np.full_like(h, np.nan)
    if axis == 0:
        plus[:-1, :] = h[1:, :]
        minus[1:, :] = h[:-1, :]
    else:
        plus[:, :-1] = h[:, 1:]
        minus[:, 1:] = h[:, :-1]
    ok_p = np.isfinite(plus)
    ok_m = np.isfinite(minus)
    g = np.full_like(h, np.nan)
    both = ok_p & ok_m
    g[both] = (plus[both] - minus[both]) / (2.0 * step)
    fwd = ok_p & ~ok_m
    g[fwd] = (plus[fwd] - h[fwd]) / step
    bwd = ok_m & ~ok_p
    g[bwd] = (h[bwd] - minus[bwd]) / step
    return g


class _Triangulation(Delaunay):
    """``Delaunay`` whose barycentric transforms come from one stacked inverse.

    scipy builds ``transform`` with one LAPACK ``dgetrs`` per simplex, and
    scipy's OpenBLAS runs ``dgetrs`` threaded at any size: each call wakes a
    helper thread that then spins for about 0.1 s, doubling the process's CPU
    time.  numpy's OpenBLAS does not wake its pool for ``np.linalg.inv``,
    which factors each matrix by the same LU, so the floats are scipy's bit
    for bit.
    """

    @property
    def transform(self) -> np.ndarray:
        """Per simplex, ``inv(A)ᵀ`` in rows 0-1 and ``r`` in row 2, where ``r``
        is the third vertex and ``A`` holds the first two minus ``r``.  As in
        scipy, a simplex is all NaN when it is exactly singular or its
        reciprocal 1-norm condition number is under ``1000·eps``."""
        if self._transform is None:
            p = self.points[self.simplices]
            r = p[:, 2]
            a = p[:, :2] - r[:, None, :]
            out = np.full((len(p), 3, 2), np.nan)
            # an exactly singular A would make inv raise for the whole stack
            nonsingular = np.flatnonzero(np.linalg.slogdet(a)[0] != 0)
            a = a[nonsingular]
            inv = np.linalg.inv(a)
            with np.errstate(over="ignore"):
                inv_norm = np.abs(inv).sum(axis=1).max(axis=1)  # 1-norm: max column sum
            rcond = (1.0 / inv_norm) / np.abs(a).sum(axis=1).max(axis=1)  # LAPACK dgecon's order
            keep = rcond >= 1000 * np.finfo(float).eps
            ok = nonsingular[keep]
            out[ok, :2] = inv[keep].transpose(0, 2, 1)
            out[ok, 2] = r[ok]
            self._transform = out
        return self._transform


def interpolate_grid(mesh: SurfaceMesh, dx: float, dy: float) -> SurfaceGrid:
    """C1 cubic (Clough-Tocher) interpolation of mesh heights onto a lattice.

    Lattice nodes outside the mesh hull are flagged invalid; normals come
    from finite differences of the interpolated height field.
    """
    if dx <= 0 or dy <= 0:
        raise ResolutionTooCoarse("dx, dy must be > 0")
    if mesh.vertices.shape[0] < 3:
        raise DegenerateCloud("mesh too small to interpolate")
    xy = mesh.vertices[:, :2]
    z = mesh.vertices[:, 2]
    xmin, ymin = xy.min(axis=0)
    xmax, ymax = xy.max(axis=0)
    nx = int(np.floor((xmax - xmin) / dx + 1e-9)) + 1
    ny = int(np.floor((ymax - ymin) / dy + 1e-9)) + 1
    if nx < 2 or ny < 2:
        raise ResolutionTooCoarse(
            f"grid {nx}x{ny} from spacing ({dx}, {dy}) over extent "
            f"({xmax - xmin:.4f}, {ymax - ymin:.4f})"
        )
    try:
        interp = CloughTocher2DInterpolator(_Triangulation(xy), z)
    except QhullError as exc:
        raise DegenerateCloud(f"interpolation triangulation failed: {exc}") from exc
    gx = xmin + dx * np.arange(nx)
    gy = ymin + dy * np.arange(ny)
    mx, my = np.meshgrid(gx, gy, indexing="ij")
    height = interp(np.column_stack([mx.ravel(), my.ravel()])).reshape(nx, ny)
    dzdx = _masked_gradient(height, dx, axis=0)
    dzdy = _masked_gradient(height, dy, axis=1)
    valid = np.isfinite(height) & np.isfinite(dzdx) & np.isfinite(dzdy)
    if valid.sum() < 4:
        raise ResolutionTooCoarse(f"only {int(valid.sum())} valid cells")
    normal = np.stack([-dzdx, -dzdy, np.ones_like(height)], axis=-1)
    with np.errstate(invalid="ignore"):
        normal /= np.linalg.norm(normal, axis=-1, keepdims=True)
    normal[~valid] = np.nan
    height = np.where(valid, height, np.nan)
    return SurfaceGrid((xmin, ymin), dx, dy, height, normal, valid)


def cell_to_surface(grid: SurfaceGrid, u: int, v: int) -> tuple[np.ndarray, np.ndarray]:
    """Surface point and outward normal of a valid cell."""
    if not grid.is_valid(u, v):
        raise InvalidCell(f"cell ({u}, {v}) is out of range or masked")
    return grid.cell_point(u, v), grid.normal[u, v].copy()
