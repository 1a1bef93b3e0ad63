"""One full palpation: discrete probe, then contour following.

After a probe confirms the inclusion (force threshold reached within the
displacement bound), the impedance controller slides the pressed tip
along a min-jerk oscillation until the probe sinks past the displacement
bound with the force below threshold: the inclusion-muscle boundary.
"""

import numpy as np

from palpsim import (
    CalibrationParams,
    CloudParams,
    ControllerGains,
    Phantom,
    PhantomConfig,
    ProbeParams,
    ProbePlant,
    TumorGeometry,
    admissible_force,
    contour_follow,
    crop_roi,
    interpolate_grid,
    mesh_from_cloud,
    preprocess_cloud,
    probe_cell,
    RoiBox,
)

phantom = Phantom(PhantomConfig(), TumorGeometry("hemisphere"))
roi = RoiBox((-0.02, -0.02), (0.02, 0.02))
raw = phantom.synth_depth_cloud(((-0.03, -0.03), (0.03, 0.03)), 3e6, 0.0005, seed=3)
c = CloudParams()
clean = preprocess_cloud(raw, c.voxel, c.outlier_k, c.outlier_sigma)
grid = interpolate_grid(crop_roi(mesh_from_cloud(clean), roi), 0.002, 0.002)

params, gains = ProbeParams(), ControllerGains()
print(f"admissible interaction force bound: {admissible_force(gains):.1f} N")

plant = ProbePlant(phantom, params, CalibrationParams())
cell = (10, 10)  # over the tumor apex for this ROI
res = probe_cell(plant, grid, cell, gains)
print(f"\nprobe at cell {res.cell}: f_z {res.f_z:.2f} N over d_z "
      f"{res.d_z * 1e3:.2f} mm -> k = {res.k:.0f} N/m, "
      f"tumor={res.classified_tumor}")

traj = contour_follow(plant, grid, res, gains, np.random.default_rng(11))
r_end = np.hypot(traj.poses[-1, 0], traj.poses[-1, 1])
print(f"\ncontour follow: {len(traj)} waypoints over "
      f"{traj.times[-1]:.2f} s, outcome={traj.outcome}")
print(f"stroke direction: ({traj.direction[0]:+.2f}, {traj.direction[1]:+.2f})")
print(f"terminal point radius: {r_end * 1e3:.1f} mm "
      f"(footprint radius 10 mm)")

axial = traj.forces @ traj.tip_normal
print(f"axial contact force along the trace: median {np.median(axial):.2f} N, "
      f"final {axial[-1]:.2f} N (drops below {params.f_thres:.0f} N at the edge)")
