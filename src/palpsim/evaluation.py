"""Reconstruction harvesting and F-score evaluation.

Contact waypoints from contour-following palpations (plus discrete
probe terminal contacts) become the reconstructed tumor-surface cloud,
a deduplicated ``PointCloud``; precision/recall against a ground-truth
cloud at a distance threshold r give the F-score.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import DegenerateCloud, Empty, EmptyCloud, EmptyReconstruction, OutOfRange
from .phantom import PointCloud
from .policy import PalpationTrajectory, ProbeParams, ProbeResult
from .registration import SurfaceMesh, mesh_from_cloud

_DEDUP_RADIUS = 2e-4  # m, points closer than this collapse to one


@dataclass
class FScoreReport:
    precision: float
    recall: float
    fscore: float
    r: float
    n_recon: int
    n_gt: int


def _dedup_indices(points: np.ndarray) -> list[int]:
    """Indices kept by a greedy spatial dedup in input order (deterministic).

    Pairs first: i < j are close when their ``floor(p / _DEDUP_RADIUS)`` buckets
    differ by at most 1 per axis and ``dx*dx + dy*dy + dz*dz < r2``; sums within
    1e-12 of r2 are re-decided by the scalar ``(x - qx) ** 2 + ...``, as ``**``
    may round differently.  Then greedy: j is dropped when a close i was kept.
    """
    r2 = _DEDUP_RADIUS * _DEDUP_RADIUS
    i, j = cKDTree(points).query_pairs(_DEDUP_RADIUS * (1 + 1e-9), output_type="ndarray").T
    d = points[j] - points[i]
    d2 = d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] + d[:, 2] * d[:, 2]
    keys = np.floor(points / _DEDUP_RADIUS)
    close = (d2 < r2) & (np.abs(keys[j] - keys[i]) <= 1).all(axis=1)
    for k in np.flatnonzero(np.abs(d2 - r2) <= 1e-12 * r2).tolist():
        (x, y, z), (qx, qy, qz) = points[j[k]].tolist(), points[i[k]].tolist()
        close[k] &= (x - qx) ** 2 + (y - qy) ** 2 + (z - qz) ** 2 < r2
    order = np.argsort(j[close], kind="stable")  # each j after all its i are settled
    keep = [True] * len(points)
    for a, b in zip(i[close][order].tolist(), j[close][order].tolist()):
        if keep[a]:
            keep[b] = False
    return [k for k, kept in enumerate(keep) if kept]


def extract_contact_points(trajectories: list[PalpationTrajectory],
                           probe_results: list[ProbeResult],
                           params: ProbeParams) -> PointCloud:
    """Harvest the reconstructed tumor-surface cloud.

    Tumor-classified probes contribute their terminal contact point;
    contour-following waypoints contribute wherever the axial contact
    force stays at or above f_thres (the on-tumor condition, which drops
    the low-force boundary oscillations).  Tip-center poses are offset
    by ``params.tip_radius`` along the indentation direction.
    Near-duplicate points (< 0.2 mm apart) are collapsed.
    """
    chunks = [res.contact_point.reshape(1, 3) for res in probe_results
              if res.classified_tumor]
    for traj in trajectories:
        keep = traj.forces @ traj.tip_normal >= params.f_thres
        if keep.any():
            chunks.append(traj.poses[keep] - params.tip_radius * traj.tip_normal[None, :])
    if not chunks:
        raise EmptyReconstruction("no qualifying contact points")
    stacked = np.vstack(chunks)
    return PointCloud(stacked[_dedup_indices(stacked)])


def fscore(recon: PointCloud, gt: PointCloud, r: float) -> FScoreReport:
    """Precision/recall of mutual nearest-neighbor coverage within r > 0."""
    if not r > 0:
        raise OutOfRange(f"r must be > 0, got {r}")
    if not np.isfinite(r):
        raise OutOfRange(f"r must be finite, got {r}")
    if len(recon) == 0 or len(gt) == 0:
        raise EmptyCloud("both clouds must be nonempty")
    d_recon, _ = cKDTree(gt.points).query(recon.points)
    d_gt, _ = cKDTree(recon.points).query(gt.points)
    precision = float(np.mean(d_recon <= r))
    recall = float(np.mean(d_gt <= r))
    f = 2.0 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return FScoreReport(precision, recall, f, r, len(recon), len(gt))


def reconstruct_mesh(cloud: PointCloud) -> SurfaceMesh:
    """Registration's height-field mesh (``mesh_from_cloud``) over the
    contact points, without the triangles that have any 3D edge longer
    than 3x the median edge, so the mesh does not bridge concave gaps
    (e.g. the crescent bite).
    """
    mesh = mesh_from_cloud(cloud)
    points, simplices = mesh.vertices, mesh.triangles
    edges = np.linalg.norm(points[simplices] - points[np.roll(simplices, -1, axis=1)], axis=2)
    simplices = simplices[(edges <= 3.0 * np.median(edges)).all(axis=1)]
    if simplices.shape[0] == 0:
        raise DegenerateCloud("all triangles dropped by the edge filter")
    return SurfaceMesh(points, simplices)


def aggregate_trials(reports: list[FScoreReport]) -> tuple[float, float]:
    """Arithmetic mean and maximum of the per-trial F-scores."""
    if not reports:
        raise Empty("no reports to aggregate")
    scores = [rep.fscore for rep in reports]
    return float(np.mean(scores)), float(max(scores))
