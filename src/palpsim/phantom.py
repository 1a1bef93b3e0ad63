"""Analytic layered tissue phantom with rigid sub-dermal inclusions.

The phantom replaces bench hardware: a curved skin surface over a
skin/fat stack sitting on a muscle bed, with an optional rigid tumor
height field sandwiched between fat and muscle.  It answers contact
queries with a piecewise Kelvin-Voigt force law and synthesizes both
depth-camera-style surface clouds and ground-truth tumor clouds.

The contact law has two implementations.  ``contact_law`` is the scalar
hot path: the law and the skin normal in one closure, set up for the
profile kind once per palpation, which the 1 kHz contour-follow tick
and the probe descent's few force-rule steps call.  The ``*_np``
methods apply the same arithmetic to arrays: the descent's window of
contact forces, and the clouds.  The scalar ``contact_force``,
``surface_normal`` and ``z_skin`` are one-line views of these two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigInvalid, EmptyRegion, NoTumor, above, at_least, check_ranges

# Surface profile kinds.
FLAT = "flat"
CYL_BUMP = "cyl_bump"
GAUSS_BUMP = "gauss_bump"

# Tumor shapes.
HEMISPHERE = "hemisphere"
ELLIPSOID = "ellipsoid"
CRESCENT = "crescent"

_exp = np.vectorize(math.exp, otypes=[float])


@dataclass(frozen=True)
class SurfaceProfile:
    """Skin surface height offset above the nominal (flat) skin plane.

    kind:
        ``flat``       -- zero everywhere.
        ``cyl_bump``   -- circular-arc ridge running along y:
                          amplitude * sqrt(1 - (x/radius)^2), clamped at 0.
        ``gauss_bump`` -- radial bump amplitude * exp(-(x^2+y^2)/(2 sigma^2)).
    """

    kind: str = FLAT
    amplitude: float = at_least(0, 0.0)
    radius: float = above(0, 0.05)  # cyl_bump footprint half-width
    sigma: float = above(0, 0.02)   # gauss_bump spread

    def __post_init__(self):
        check_ranges(self)
        if self.kind not in (FLAT, CYL_BUMP, GAUSS_BUMP):
            raise ConfigInvalid(f"unknown surface profile kind {self.kind!r}")

    def height_np(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        if self.kind == FLAT:
            return np.zeros_like(np.asarray(xs, dtype=float))
        if self.kind == CYL_BUMP:
            u = np.asarray(xs, dtype=float) / self.radius
            return self.amplitude * np.sqrt(np.maximum(0.0, 1.0 - u * u))
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        r2 = xs * xs + ys * ys
        # math.exp, not np.exp: numpy's exp can differ in the last bit, and
        # the array and scalar contact laws must agree exactly
        return self.amplitude * _exp(-r2 / (2.0 * self.sigma * self.sigma))

    def slope_np(self, xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(dz/dx, dz/dy) of the profile."""
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if self.kind == FLAT:
            return np.zeros_like(xs), np.zeros_like(ys)
        if self.kind == CYL_BUMP:
            u = xs / self.radius
            s = 1.0 - u * u
            live = s > 1e-12
            gx = -self.amplitude * u / (self.radius * np.sqrt(np.where(live, s, 1.0)))
            return np.where(live, gx, 0.0), np.zeros_like(ys)
        g = self.height_np(xs, ys) / (self.sigma * self.sigma)
        return -xs * g, -ys * g


def flat_profile() -> SurfaceProfile:
    return SurfaceProfile(FLAT)


def cyl_bump(amplitude: float = 0.006, radius: float = SurfaceProfile.radius) -> SurfaceProfile:
    return SurfaceProfile(CYL_BUMP, amplitude=amplitude, radius=radius)


def gauss_bump(amplitude: float = 0.006, sigma: float = SurfaceProfile.sigma) -> SurfaceProfile:
    return SurfaceProfile(GAUSS_BUMP, amplitude=amplitude, sigma=sigma)


@dataclass(frozen=True)
class PhantomConfig:
    """Layer thicknesses, stiffnesses, and surface geometry.

    Stiffnesses must satisfy k_fat < k_skin < k_muscle < k_tumor; the
    skin and fat springs act in series, so the effective pre-stop
    stiffness is 1/(1/k_skin + 1/k_fat).
    """

    skin_thickness: float = above(0, 0.004)
    fat_thickness: float = above(0, 0.015)
    k_skin: float = 800.0
    k_fat: float = 400.0
    k_muscle: float = 2500.0
    k_tumor: float = 20000.0
    contact_damping: float = at_least(0, 2.0)
    muscle_plane_z: float = 0.0
    surface_profile: SurfaceProfile = field(default_factory=cyl_bump)

    def __post_init__(self):
        check_ranges(self)
        if not (0 < self.k_fat < self.k_skin < self.k_muscle < self.k_tumor):
            raise ConfigInvalid(
                "stiffness ordering violated: need k_fat < k_skin < k_muscle < k_tumor, got "
                f"fat={self.k_fat} skin={self.k_skin} muscle={self.k_muscle} tumor={self.k_tumor}"
            )

    @property
    def stack_depth(self) -> float:
        """Soft-stack depth from skin surface to the muscle bed."""
        return self.skin_thickness + self.fat_thickness

    @property
    def k_soft(self) -> float:
        """Series stiffness of the skin and fat springs."""
        return 1.0 / (1.0 / self.k_skin + 1.0 / self.k_fat)


@dataclass(frozen=True)
class TumorGeometry:
    """Rigid inclusion resting on the muscle bed, given as a height field.

    shape_params per shape:
        hemisphere -- none (apex height equals ``radius``)
        ellipsoid  -- semi_axes (ax, ay, az) in meters
        crescent   -- inner_offset (shift of the cut circle along +x),
                      width (crescent width at its widest point),
                      top_height (flat plateau height),
                      fillet_radius (quarter-round edge blend)
    """

    shape: str = HEMISPHERE
    radius: float = above(0, 0.01)
    center_xy: tuple[float, float] = (0.0, 0.0)
    semi_axes: tuple[float, float, float] = above(0, (0.015, 0.01, 0.008))
    inner_offset: float = 0.006
    width: float = above(0, 0.008)
    top_height: float = above(0, 0.008)
    fillet_radius: float = above(0, 0.002)

    def __post_init__(self):
        check_ranges(self)
        if self.shape not in (HEMISPHERE, ELLIPSOID, CRESCENT):
            raise ConfigInvalid(f"unknown tumor shape {self.shape!r}")
        if self.shape == CRESCENT and self.inner_radius <= 0:
            raise ConfigInvalid("crescent inner cut radius must be > 0 (width too large)")

    @property
    def inner_radius(self) -> float:
        """Radius of the offset cut circle defining the crescent's inner arc."""
        return self.radius - self.width + self.inner_offset

    @property
    def max_height(self) -> float:
        if self.shape == HEMISPHERE:
            return self.radius
        if self.shape == ELLIPSOID:
            return self.semi_axes[2]
        return self.top_height

    def height(self, x: float, y: float) -> float:
        """Tumor height above the muscle bed; 0 outside the footprint."""
        return self.height_fn()(x, y)

    def height_fn(self):
        """``height`` as a closure ``(x, y) -> float`` over this shape's constants,
        built once per palpation by ``Phantom.contact_law``.  Only + - * / and
        sqrt (no ``**``), which numpy rounds the same way as ``height_np``."""
        (cx, cy), sqrt = self.center_xy, math.sqrt
        if self.shape == HEMISPHERE:
            r2 = self.radius * self.radius

            def height(x, y):
                dx, dy = x - cx, y - cy
                s = r2 - dx * dx - dy * dy
                return sqrt(s) if s > 0.0 else 0.0
        elif self.shape == ELLIPSOID:
            ax, ay, az = self.semi_axes

            def height(x, y):
                u, v = (x - cx) / ax, (y - cy) / ay
                s = 1.0 - u * u - v * v
                return az * sqrt(s) if s > 0.0 else 0.0
        else:  # crescent: outer disk minus offset inner disk, flat top, filleted edge
            radius, offset, r_in = self.radius, self.inner_offset, self.inner_radius
            fillet, top = self.fillet_radius, self.top_height

            def height(x, y):
                dx, dy = x - cx, y - cy
                ex = dx - offset
                d_edge = min(radius - sqrt(dx * dx + dy * dy), sqrt(ex * ex + dy * dy) - r_in)
                if d_edge <= 0.0:
                    return 0.0
                if d_edge >= fillet:
                    return top
                t = 1.0 - d_edge / fillet
                return top * sqrt(max(0.0, 1.0 - t * t))
        return height

    def height_np(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        dx = np.asarray(xs, dtype=float) - self.center_xy[0]
        dy = np.asarray(ys, dtype=float) - self.center_xy[1]
        if self.shape == HEMISPHERE:
            return np.sqrt(np.maximum(0.0, self.radius * self.radius - dx * dx - dy * dy))
        if self.shape == ELLIPSOID:
            ax, ay, az = self.semi_axes
            u, v = dx / ax, dy / ay
            return az * np.sqrt(np.maximum(0.0, 1.0 - u * u - v * v))
        ex = dx - self.inner_offset
        rho_out = np.sqrt(dx * dx + dy * dy)
        rho_in = np.sqrt(ex * ex + dy * dy)
        d_edge = np.minimum(self.radius - rho_out, rho_in - self.inner_radius)
        t = 1.0 - np.clip(d_edge, 0.0, self.fillet_radius) / self.fillet_radius
        h = self.top_height * np.sqrt(np.maximum(0.0, 1.0 - t * t))
        return np.where(d_edge > 0.0, h, 0.0)


@dataclass
class PointCloud:
    """3D points in meters, one row each."""

    points: np.ndarray

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float).reshape(-1, 3)

    def __len__(self) -> int:
        return self.points.shape[0]


class Phantom:
    """Immutable analytic world: height fields plus the contact law.

    Height fields (z up):
        z_skin(x,y)   = muscle_plane_z + stack_depth + profile(x,y)
        z_muscle(x,y) = z_skin(x,y) - stack_depth      (conformal layers)
        z_stop(x,y)   = z_muscle(x,y) + h_tumor(x,y)   (hard-stop surface)

    Safe for concurrent reads; never mutated after construction.
    """

    def __init__(self, cfg: PhantomConfig, tumor: Optional[TumorGeometry] = None):
        if tumor is not None and tumor.max_height > cfg.stack_depth:
            raise ConfigInvalid(
                f"tumor height {tumor.max_height} exceeds soft-stack depth {cfg.stack_depth}"
            )
        self.cfg = cfg
        self.tumor = tumor

    # -- geometry ----------------------------------------------------------

    def z_skin(self, x: float, y: float) -> float:
        return float(self.z_skin_np(x, y))

    def h_tumor(self, x: float, y: float) -> float:
        return self.tumor.height(x, y) if self.tumor is not None else 0.0

    def surface_normal(self, x: float, y: float) -> tuple[float, float, float]:
        """Outward unit normal of the skin surface."""
        return tuple(float(c) for c in self.surface_normal_np(x, y))

    def surface_normal_np(self, xs: np.ndarray, ys: np.ndarray):
        """Outward unit normal of the skin surface: (nx, ny, nz) arrays."""
        gx, gy = self.cfg.surface_profile.slope_np(xs, ys)
        inv = 1.0 / np.sqrt(gx * gx + gy * gy + 1.0)
        return -gx * inv, -gy * inv, inv

    def z_skin_np(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        c = self.cfg
        return c.muscle_plane_z + c.stack_depth + c.surface_profile.height_np(xs, ys)

    def z_stop_np(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        h = self.tumor.height_np(xs, ys) if self.tumor is not None else 0.0
        return self.z_skin_np(xs, ys) - self.cfg.stack_depth + h

    # -- contact -----------------------------------------------------------

    def contact_force(self, qx: float, qy: float, probe_z: float,
                      probe_vz: float = 0.0) -> float:
        """Normal force of ``contact_law`` at one point; 0 out of contact."""
        return self.contact_law()(qx, qy, probe_z, probe_vz)[0]

    def contact_law(self):
        """The contact law and its force along the outward skin normal as
        one closure ``(cx, cy, cz, vz) -> (fn, fx, fy, fz)``, the hot path
        of contour following; all zeros out of contact.

        ``fn`` is a piecewise spring force along the soft stack, then the
        hard stop.  Penetration is the vertical gap below the skin surface.
        Damping (contact_damping * descent speed) applies only while in
        contact and never produces suction.  The slope reuses the
        profile's ``u``/``s`` (cyl_bump) or height (gauss_bump); the
        tumor's height is ``height_fn``.  The ``*_np`` methods do the same
        operations in the same order, so they give the same floats."""
        c = self.cfg
        prof = c.surface_profile
        cyl, gauss = prof.kind == CYL_BUMP, prof.kind == GAUSS_BUMP
        amp, radius = prof.amplitude, prof.radius
        sig2 = prof.sigma * prof.sigma
        two_sig2 = 2.0 * prof.sigma * prof.sigma
        base, stack, k_soft = c.muscle_plane_z + c.stack_depth, c.stack_depth, c.k_soft
        k_tumor, k_muscle, damping = c.k_tumor, c.k_muscle, c.contact_damping
        tumor_height = self.tumor.height_fn() if self.tumor is not None else None
        sqrt, exp = math.sqrt, math.exp

        def law(cx, cy, cz, vz):
            if cyl:
                u = cx / radius
                s = 1.0 - u * u
                root = sqrt(s) if s > 0.0 else 0.0
                hs = amp * root
            elif gauss:
                hs = amp * exp(-(cx * cx + cy * cy) / two_sig2)
            else:
                hs = 0.0
            d = base + hs - cz
            if d <= 0.0:
                return 0.0, 0.0, 0.0, 0.0
            h = tumor_height(cx, cy) if tumor_height is not None else 0.0
            d_stop = stack - h
            if d <= d_stop:
                f = k_soft * d
            else:
                k_hard = k_tumor if h > 0.0 else k_muscle
                f = k_soft * d_stop + k_hard * (d - d_stop)
            if vz < 0.0:
                f += damping * (-vz)
            if cyl and s > 1e-12:
                gx, gy = -amp * u / (radius * root), 0.0
            elif gauss:
                g = hs / sig2
                gx, gy = -cx * g, -cy * g
            else:
                gx, gy = 0.0, 0.0
            inv = 1.0 / sqrt(gx * gx + gy * gy + 1.0)
            return f, f * (-gx * inv), f * (-gy * inv), f * inv

        return law

    def contact_force_np(self, qx: np.ndarray, qy: np.ndarray, probe_z: np.ndarray,
                         probe_vz: float = 0.0) -> np.ndarray:
        """Normal force of the contact law at arrays of query points
        sharing one descent speed; 0 where out of contact."""
        d = self.z_skin_np(qx, qy) - probe_z
        h = (self.tumor.height_np(qx, qy) if self.tumor is not None
             else np.zeros_like(d))
        c = self.cfg
        d_stop = c.stack_depth - h
        k_hard = np.where(h > 0.0, c.k_tumor, c.k_muscle)
        f = np.where(d <= d_stop, c.k_soft * d, c.k_soft * d_stop + k_hard * (d - d_stop))
        if probe_vz < 0.0:
            f = f + c.contact_damping * (-probe_vz)
        return np.where(d > 0.0, f, 0.0)

    # -- synthetic sensing --------------------------------------------------

    def synth_depth_cloud(self, region, density: float, noise_sigma: float = 0.0,
                          seed=0) -> PointCloud:
        """Jittered-lattice samples of the skin surface with isotropic noise.

        region is ((xmin, ymin), (xmax, ymax)).  Deterministic for a
        fixed seed.
        """
        (xmin, ymin), (xmax, ymax) = region
        w, h = xmax - xmin, ymax - ymin
        if density <= 0 or w <= 0 or h <= 0:
            raise EmptyRegion(f"degenerate region {region} or density {density}")
        n_target = density * w * h
        nx = max(1, int(round(math.sqrt(n_target * w / h))))
        ny = max(1, int(round(n_target / nx)))
        rng = np.random.default_rng(seed)
        ix, iy = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
        xs = xmin + (ix.ravel() + rng.uniform(0.0, 1.0, nx * ny)) * (w / nx)
        ys = ymin + (iy.ravel() + rng.uniform(0.0, 1.0, nx * ny)) * (h / ny)
        zs = self.z_skin_np(xs, ys)
        pts = np.column_stack([xs, ys, zs])
        if noise_sigma > 0.0:
            pts = pts + rng.normal(0.0, noise_sigma, pts.shape)
        return PointCloud(pts)

    def ground_truth_cloud(self, samples_n: int, seed=0) -> PointCloud:
        """Uniform-in-XY samples of the exposed upper tumor surface."""
        if self.tumor is None:
            raise NoTumor("phantom has no tumor")
        if samples_n <= 0:
            raise EmptyRegion("samples_n must be >= 1")
        tum = self.tumor
        cx, cy = tum.center_xy
        half = tum.radius
        if tum.shape == ELLIPSOID:
            half = max(tum.semi_axes[0], tum.semi_axes[1])
        rng = np.random.default_rng(seed)
        xs = np.empty(samples_n)
        ys = np.empty(samples_n)
        filled = 0
        while filled < samples_n:
            m = 4 * (samples_n - filled) + 16
            px = rng.uniform(cx - half, cx + half, m)
            py = rng.uniform(cy - half, cy + half, m)
            keep = tum.height_np(px, py) > 0.0
            px, py = px[keep], py[keep]
            take = min(px.size, samples_n - filled)
            xs[filled:filled + take] = px[:take]
            ys[filled:filled + take] = py[:take]
            filled += take
        zs = self.z_stop_np(xs, ys)
        return PointCloud(np.column_stack([xs, ys, zs]))

