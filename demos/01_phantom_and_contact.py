"""Build a layered phantom, poke it, and export ground-truth clouds.

The phantom is a curved skin surface over skin+fat springs in series,
with a rigid tumor height field resting on the muscle bed.  Pressing a
point probe into it follows a piecewise law: soft-stack spring until the
hard stop (tumor or muscle), then a much stiffer spring.
"""

import numpy as np

from palpsim import (
    Phantom,
    PhantomConfig,
    TumorGeometry,
    export_ply,
)

cfg = PhantomConfig()
print(f"layers: skin {cfg.skin_thickness * 1e3:.0f} mm over fat "
      f"{cfg.fat_thickness * 1e3:.0f} mm  (stack {cfg.stack_depth * 1e3:.0f} mm)")
print(f"stiffness k_fat < k_skin < k_muscle < k_tumor: "
      f"{cfg.k_fat:.0f} < {cfg.k_skin:.0f} < {cfg.k_muscle:.0f} < {cfg.k_tumor:.0f} N/m")
print(f"series soft-stack stiffness: {cfg.k_soft:.1f} N/m")

for shape in ("hemisphere", "ellipsoid", "crescent"):
    tumor = TumorGeometry(shape)
    phantom = Phantom(cfg, tumor)

    # tallest point of the inclusion (the crescent's apex is off-center)
    xs = np.linspace(-0.015, 0.015, 121)
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    h = tumor.height_np(gx.ravel(), gy.ravel())
    ax, ay = gx.ravel()[h.argmax()], gy.ravel()[h.argmax()]

    print(f"\n=== {shape} ===")
    print(f"apex at ({ax * 1e3:+.1f}, {ay * 1e3:+.1f}) mm, height "
          f"{h.max() * 1e3:.1f} mm; stop depth there "
          f"{(cfg.stack_depth - phantom.h_tumor(ax, ay)) * 1e3:.1f} mm "
          f"(vs {cfg.stack_depth * 1e3:.0f} mm off-tumor)")

    # force-displacement sweep over the apex vs. 15 mm away
    print("indent depth ->  force over tumor | force off tumor")
    z0_on = phantom.z_skin(ax, ay)
    z0_off = phantom.z_skin(0.015, 0.015)
    for d_mm in (2, 5, 9, 12, 17):
        d = d_mm * 1e-3
        f_on = phantom.contact_force(ax, ay, z0_on - d)
        f_off = phantom.contact_force(0.015, 0.015, z0_off - d)
        print(f"  {d_mm:5.1f} mm     ->  {f_on:7.2f} N        | {f_off:6.2f} N")

    cloud = phantom.ground_truth_cloud(2000, seed=0)
    path = f"gt_{shape}.ply"
    export_ply(cloud, path)
    print(f"wrote {len(cloud)} ground-truth surface points to {path}")
