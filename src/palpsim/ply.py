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
    """Write a point cloud's positions as ASCII PLY."""
    if len(cloud) == 0:
        raise EmptyCloud("refusing to write an empty cloud")
    _write_ply(path, cloud.points)


def export_mesh_ply(mesh: SurfaceMesh, path) -> None:
    """Write a triangle mesh as ASCII PLY: each vertex with the normal that
    ``_vertex_normals`` derives from the mesh's own triangles, then the faces."""
    _write_ply(path, mesh.vertices, _vertex_normals(mesh.vertices, mesh.triangles),
               mesh.triangles)


def _vertex_normals(vertices: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    """Area-weighted incident-triangle normals, flipped to the +z hemisphere."""
    v0 = vertices[triangles[:, 0]]
    v1 = vertices[triangles[:, 1]]
    v2 = vertices[triangles[:, 2]]
    cross = np.cross(v1 - v0, v2 - v0)  # magnitude = 2 * area
    flip = cross[:, 2] < 0
    cross[flip] *= -1.0
    # each vertex sums its triangles' normals in corner-column order 0, 1, 2
    corners = triangles.T.ravel()
    acc = np.empty_like(vertices)
    for c in range(3):
        acc[:, c] = np.bincount(corners, weights=np.tile(cross[:, c], 3),
                                minlength=vertices.shape[0])
    norms = np.linalg.norm(acc, axis=1)
    lonely = norms < 1e-300
    acc[lonely] = (0.0, 0.0, 1.0)
    norms[lonely] = 1.0
    return acc / norms[:, None]


def _write_ply(path, points: np.ndarray, normals: np.ndarray | None = None,
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

    Returns the x, y, z columns as a ``PointCloud``; other vertex
    properties (``nx ny nz`` among them) must be finite and are ignored.
    A path that cannot be opened, or anything else (another format, a
    broken header, no x/y/z, short, missing, non-numeric or non-finite
    vertex rows), raises ``MalformedPly``.
    """
    try:
        with open(path) as fh:
            cols = _read_vertex_columns(fh)
    except OSError as exc:
        raise MalformedPly(f"{path}: cannot read PLY file: {exc.strerror}") from exc
    except ValueError as exc:  # UnicodeDecodeError included
        raise MalformedPly(f"{path}: {exc}") from exc
    return PointCloud(np.column_stack([cols["x"], cols["y"], cols["z"]]))


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
    if n_vertex < 0:
        raise ValueError(f"negative vertex count {n_vertex}")
    rows = []  # grown row by row: the header's count is not trusted with memory
    for i in range(n_vertex):
        values = fh.readline().split()
        if len(values) != len(props):
            raise ValueError(f"vertex {i} has {len(values)} values, expected {len(props)}")
        rows.append([float(v) for v in values])
        if not np.isfinite(rows[i]).all():
            raise ValueError(f"vertex {i} has a non-finite value")
    table = np.array(rows, dtype=float).reshape(n_vertex, len(props))
    return {name: table[:, j] for j, name in enumerate(props)}
