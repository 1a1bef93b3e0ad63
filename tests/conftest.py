import numpy as np
import pytest

from palpsim import SurfaceGrid


@pytest.fixture
def analytic_grid():
    """Factory for a grid built straight from phantom geometry (no
    scanning noise), so controller tests have an exact surface oracle."""

    def build(phantom, lo=(-0.02, -0.02), hi=(0.02, 0.02), dx=0.002):
        nx = int(round((hi[0] - lo[0]) / dx)) + 1
        ny = int(round((hi[1] - lo[1]) / dx)) + 1
        gx = lo[0] + dx * np.arange(nx)
        gy = lo[1] + dx * np.arange(ny)
        mx, my = np.meshgrid(gx, gy, indexing="ij")
        height = phantom.z_skin_np(mx.ravel(), my.ravel()).reshape(nx, ny)
        normal = np.stack(phantom.surface_normal_np(mx, my), axis=-1)
        return SurfaceGrid((lo[0], lo[1]), dx, dx, height, normal,
                           np.ones((nx, ny), dtype=bool))

    return build
