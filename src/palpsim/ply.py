"""Minimal ASCII PLY reader/writer for clouds and meshes.

Coordinates are written with 6 significant digits, enough for
sub-micrometer round trips at bench scale.
"""

from __future__ import annotations

import numpy as np

from .errors import EmptyCloud, MalformedPly
from .phantom import PointCloud
from .registration import SurfaceMesh

_ROWS_PER_WRITE = 256  # rows per tolist(), which bounds the temporary lists


def export_ply(cloud: PointCloud, path) -> None:
    """Write a point cloud (and normals, if present) as ASCII PLY."""
    if len(cloud) == 0:
        raise EmptyCloud("refusing to write an empty cloud")
    _write_ply(path, cloud.points, cloud.normals)


def export_mesh_ply(mesh: SurfaceMesh, path) -> None:
    """Write a triangle mesh (vertices + faces) as ASCII PLY."""
    _write_ply(path, mesh.vertices, mesh.vertex_normals, mesh.triangles)


def _write_ply(path, points: np.ndarray, normals: np.ndarray | None,
               faces: np.ndarray | None = None) -> None:
    header = ["ply", "format ascii 1.0", f"element vertex {len(points)}",
              "property float x", "property float y", "property float z"]
    if normals is not None:
        header += ["property float nx", "property float ny", "property float nz"]
        points = np.hstack([points, normals])
    tables = [(" ".join(["%.6g"] * points.shape[1]) + "\n", points)]
    if faces is not None:
        header += [f"element face {len(faces)}", "property list uchar int vertex_indices"]
        tables.append(("3 %d %d %d\n", faces))
    header.append("end_header")
    with open(path, "w") as fh:
        fh.write("\n".join(header) + "\n")
        for row, table in tables:  # one %-format per block of rows
            for i in range(0, len(table), _ROWS_PER_WRITE):
                block = table[i:i + _ROWS_PER_WRITE]
                fh.write(row * len(block) % tuple(block.ravel().tolist()))


def read_ply(path) -> PointCloud:
    """Read the vertex element of an ASCII PLY file.

    A path that cannot be opened, or anything else (another format, a
    broken header, no x/y/z, short, non-numeric or non-finite vertex rows,
    a zero-length normal), raises ``MalformedPly``.
    """
    try:
        with open(path) as fh:
            cols = _read_vertex_columns(fh)
    except OSError as exc:
        raise MalformedPly(f"{path}: cannot read PLY file: {exc.strerror}") from exc
    except ValueError as exc:  # UnicodeDecodeError included
        raise MalformedPly(f"{path}: {exc}") from exc
    points = np.column_stack([cols["x"], cols["y"], cols["z"]])
    normals = None
    if {"nx", "ny", "nz"} <= cols.keys():
        normals = np.column_stack([cols["nx"], cols["ny"], cols["nz"]])
        norms = np.linalg.norm(normals, axis=1, keepdims=True)
        if not norms.all():
            raise MalformedPly(f"{path}: a vertex normal has zero length")
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
        if not np.isfinite(rows[i]).all():
            raise ValueError(f"vertex {i} has a non-finite value")
    return {name: rows[:, j] for j, name in enumerate(props)}
