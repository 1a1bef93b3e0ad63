"""Minimal ASCII PLY reader/writer for clouds and meshes.

Coordinates are written with 6 significant digits, enough for
sub-micrometer round trips at bench scale.
"""

from __future__ import annotations

import numpy as np

from .errors import EmptyCloud, MalformedPly
from .phantom import PointCloud
from .registration import SurfaceMesh


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def export_ply(cloud: PointCloud, path) -> None:
    """Write a point cloud (and normals, if present) as ASCII PLY."""
    if len(cloud) == 0:
        raise EmptyCloud("refusing to write an empty cloud")
    lines = ["ply", "format ascii 1.0", f"element vertex {len(cloud)}",
             "property float x", "property float y", "property float z"]
    if cloud.normals is not None:
        lines += ["property float nx", "property float ny", "property float nz"]
    lines.append("end_header")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
        if cloud.normals is None:
            for p in cloud.points:
                fh.write(f"{_fmt(p[0])} {_fmt(p[1])} {_fmt(p[2])}\n")
        else:
            for p, n in zip(cloud.points, cloud.normals):
                fh.write(f"{_fmt(p[0])} {_fmt(p[1])} {_fmt(p[2])} "
                         f"{_fmt(n[0])} {_fmt(n[1])} {_fmt(n[2])}\n")


def export_mesh_ply(mesh: SurfaceMesh, path) -> None:
    """Write a triangle mesh (vertices + faces) as ASCII PLY."""
    nv = mesh.vertices.shape[0]
    nf = mesh.triangles.shape[0]
    header = [
        "ply", "format ascii 1.0",
        f"element vertex {nv}",
        "property float x", "property float y", "property float z",
        "property float nx", "property float ny", "property float nz",
        f"element face {nf}",
        "property list uchar int vertex_indices",
        "end_header",
    ]
    with open(path, "w") as fh:
        fh.write("\n".join(header) + "\n")
        for p, n in zip(mesh.vertices, mesh.vertex_normals):
            fh.write(f"{_fmt(p[0])} {_fmt(p[1])} {_fmt(p[2])} "
                     f"{_fmt(n[0])} {_fmt(n[1])} {_fmt(n[2])}\n")
        for t in mesh.triangles:
            fh.write(f"3 {t[0]} {t[1]} {t[2]}\n")


def read_ply(path) -> PointCloud:
    """Read the vertex element of an ASCII PLY file.

    Anything else (another format, a broken header, no x/y/z, short or
    non-numeric vertex rows) raises ``MalformedPly``.
    """
    try:
        with open(path) as fh:
            cols = _read_vertex_columns(fh)
    except ValueError as exc:  # UnicodeDecodeError included
        raise MalformedPly(f"{path}: {exc}") from exc
    points = np.column_stack([cols["x"], cols["y"], cols["z"]])
    normals = None
    if {"nx", "ny", "nz"} <= cols.keys():
        normals = np.column_stack([cols["nx"], cols["ny"], cols["nz"]])
        norms = np.linalg.norm(normals, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        normals = normals / norms
    return PointCloud(points, normals)


def _read_vertex_columns(fh) -> dict[str, np.ndarray]:
    if fh.readline().strip() != "ply":
        raise ValueError("not a PLY file")
    n_vertex = None
    props: list[str] = []
    in_vertex = False
    while True:
        line = fh.readline()
        if not line:
            raise ValueError("truncated header")
        line = line.strip()
        if line.startswith("format"):
            if "ascii" not in line:
                raise ValueError("only ascii PLY supported")
        elif line.startswith("element"):
            parts = line.split()
            if len(parts) != 3:
                raise ValueError(f"bad element line {line!r}")
            in_vertex = parts[1] == "vertex"
            if in_vertex:
                n_vertex = int(parts[2])
        elif line.startswith("property") and in_vertex:
            props.append(line.split()[-1])
        elif line == "end_header":
            break
    if n_vertex is None:
        raise ValueError("no vertex element")
    if not {"x", "y", "z"} <= set(props):
        raise ValueError(f"vertex element has no x, y, z: {props}")
    rows = np.empty((n_vertex, len(props)))
    for i in range(n_vertex):
        values = fh.readline().split()
        if len(values) != len(props):
            raise ValueError(f"vertex {i} has {len(values)} values, expected {len(props)}")
        rows[i] = [float(v) for v in values]
    return {name: rows[:, j] for j, name in enumerate(props)}
