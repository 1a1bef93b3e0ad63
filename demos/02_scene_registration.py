"""Register a simulated depth scan into the palpation surface grid.

Pipeline: noisy surface cloud -> voxel downsample + outlier removal ->
Delaunay surface mesh -> ROI crop -> C1 cubic interpolation onto a
uniform grid whose cells carry the surface point and normal the
controller will align to.  Any ASCII PLY scan can replace the synthetic
cloud (see palpsim.read_ply).
"""

import numpy as np

from palpsim import (
    CloudParams,
    Phantom,
    PhantomConfig,
    RoiBox,
    TumorGeometry,
    crop_roi,
    export_mesh_ply,
    interpolate_grid,
    mesh_from_cloud,
    preprocess_cloud,
)

phantom = Phantom(PhantomConfig(), TumorGeometry("hemisphere"))
roi = RoiBox((-0.02, -0.02), (0.02, 0.02))

raw = phantom.synth_depth_cloud(((-0.03, -0.03), (0.03, 0.03)),
                                density=3e6, noise_sigma=0.0005, seed=42)
print(f"raw scan: {len(raw)} points, noise sigma 0.5 mm")

c = CloudParams()
clean = preprocess_cloud(raw, c.voxel, c.outlier_k, c.outlier_sigma)
print(f"after voxel downsample + outlier removal: {len(clean)} points")

mesh = mesh_from_cloud(clean)
print(f"surface mesh: {mesh.vertices.shape[0]} vertices, "
      f"{mesh.triangles.shape[0]} triangles")

cropped = crop_roi(mesh, roi)
print(f"ROI crop {roi.min_xy}..{roi.max_xy}: {cropped.vertices.shape[0]} vertices")

grid = interpolate_grid(cropped, dx=0.002, dy=0.002)
print(f"surface grid: {grid.nx} x {grid.ny} cells, "
      f"{int(grid.valid_mask.sum())} valid")

# registration error against the analytic surface
err = []
for u, v in grid.valid_cells():
    p = grid.cell_point(int(u), int(v))
    err.append(abs(p[2] - phantom.z_skin(p[0], p[1])))
err = np.array(err)
print(f"grid height error vs analytic skin: mean {err.mean() * 1e3:.3f} mm, "
      f"max {err.max() * 1e3:.3f} mm")

export_mesh_ply(cropped, "roi_mesh.ply")
print("wrote cropped ROI mesh to roi_mesh.ply")
