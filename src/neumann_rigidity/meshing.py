"""Triangulations of rectangles and disks, P1 assembly with natural
(no-flux) boundary conditions, and the plain-text mesh/field file formats.

The discrete operator pairs the P1 stiffness matrix with a row-sum lumped
mass vector.  Lumping keeps nodal reaction terms diagonal, so the discrete
zero-average identity sum(m_i * f(u_i)) = 0 holds exactly at converged
steady states.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.spatial import ConvexHull

from .errors import MeshFormatError


@dataclass(frozen=True, eq=False)
class Mesh:
    """Conforming triangulation: node coordinates, CCW triangles, boundary set.

    Attributes
    ----------
    nodes : (n, 2) float array
        Vertex coordinates.
    triangles : (t, 3) int array
        Vertex index triples, counterclockwise.
    boundary_nodes : (b,) int array
        Sorted indices of nodes on the domain boundary.
    """

    nodes: np.ndarray
    triangles: np.ndarray
    boundary_nodes: np.ndarray

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]


@dataclass(frozen=True, eq=False)
class DiscreteOperator:
    """P1 stiffness matrix, lumped mass vector and domain metrics.

    The stiffness matrix is symmetric positive semidefinite with constants
    in its nullspace (the natural encoding of the no-flux condition); the
    lumped mass entries are positive and sum to the polygonal domain area.
    """

    stiffness: sp.csr_matrix
    lumped_mass: np.ndarray
    area: float
    diameter: float
    mesh: Mesh
    # lazily filled cache: eigenpairs keyed by tolerance (linsolve.first_eigenpair)
    # and the bordered system (linsolve.bordered)
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.lumped_mass.shape[0]


def _cross2(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


def _signed_areas(nodes: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    p0 = nodes[triangles[:, 0]]
    p1 = nodes[triangles[:, 1]]
    p2 = nodes[triangles[:, 2]]
    return 0.5 * _cross2(p1 - p0, p2 - p0)


def _boundary_nodes(triangles: np.ndarray) -> np.ndarray:
    """Nodes on edges that belong to exactly one triangle."""
    edges = np.vstack(
        [triangles[:, [0, 1]], triangles[:, [1, 2]], triangles[:, [2, 0]]]
    )
    edges = np.sort(edges, axis=1)
    uniq, counts = np.unique(edges, axis=0, return_counts=True)
    return np.unique(uniq[counts == 1])


def validate_mesh(mesh: Mesh) -> None:
    """Raise if the triangulation is degenerate or non-conforming."""
    areas = _signed_areas(mesh.nodes, mesh.triangles)
    if np.any(areas <= 0.0):
        raise MeshFormatError("triangulation contains inverted or flat triangles")
    if mesh.triangles.min() < 0 or mesh.triangles.max() >= mesh.n_nodes:
        raise MeshFormatError("triangle indices out of range")
    edges = np.vstack(
        [mesh.triangles[:, [0, 1]], mesh.triangles[:, [1, 2]], mesh.triangles[:, [2, 0]]]
    )
    edges = np.sort(edges, axis=1)
    _, counts = np.unique(edges, axis=0, return_counts=True)
    if np.any(counts > 2):
        raise MeshFormatError("non-conforming mesh: an edge is shared by >2 triangles")


def build_rectangle_mesh(nx: int, ny: int, lx: float, ly: float) -> Mesh:
    """Structured triangulation of [0, lx] x [0, ly].

    Each of the nx*ny grid cells is split along its (+1, +1) diagonal into
    two counterclockwise triangles, giving (nx+1)*(ny+1) nodes.

    Parameters
    ----------
    nx, ny : int
        Cells per direction; at least 2 each.
    lx, ly : float
        Side lengths, positive.
    """
    if nx < 2 or ny < 2:
        raise ValueError("nx and ny must both be at least 2")
    if not (lx > 0.0 and ly > 0.0):
        raise ValueError("side lengths must be positive")

    xs = np.linspace(0.0, lx, nx + 1)
    ys = np.linspace(0.0, ly, ny + 1)
    xg, yg = np.meshgrid(xs, ys)  # shape (ny+1, nx+1), row-major in y
    nodes = np.column_stack([xg.ravel(), yg.ravel()])

    def nid(i, j):
        return j * (nx + 1) + i

    tris = []
    for j in range(ny):
        for i in range(nx):
            v00, v10 = nid(i, j), nid(i + 1, j)
            v01, v11 = nid(i, j + 1), nid(i + 1, j + 1)
            tris.append((v00, v10, v11))
            tris.append((v00, v11, v01))
    triangles = np.asarray(tris, dtype=np.int64)
    return Mesh(nodes=nodes, triangles=triangles, boundary_nodes=_boundary_nodes(triangles))


def _stitch_rings(inner: np.ndarray, outer: np.ndarray) -> list[tuple[int, int, int]]:
    """Triangulate the annulus between two uniformly spaced concentric rings.

    Walks both rings by increasing angle, always advancing the pointer whose
    next node comes first, yielding len(inner) + len(outer) triangles.  The
    angle fractions (k+1)/n_in vs (n+1)/n_out are compared by exact integer
    cross-multiplication so ties break identically in every sector and the
    triangulation inherits the full rotational symmetry of the node rings.
    """
    n_in, n_out = len(inner), len(outer)
    tris = []
    k = n = 0  # consumed steps on inner / outer ring
    while k < n_in or n < n_out:
        if n < n_out and (k >= n_in or (n + 1) * n_in <= (k + 1) * n_out):
            tris.append((inner[k % n_in], outer[n % n_out], outer[(n + 1) % n_out]))
            n += 1
        else:
            tris.append((inner[k % n_in], outer[n % n_out], inner[(k + 1) % n_in]))
            k += 1
    return tris


def build_disk_mesh(refinement: int, radius: float = 1.0) -> Mesh:
    """Quasi-uniform triangulation of the regular polygon inscribed in a disk.

    Concentric rings at radii j/R carry 6*j nodes each, with R = 2**(refinement-1)
    rings, so the boundary resolution doubles per refinement level and the
    polygonal area converges to pi*r**2.

    Parameters
    ----------
    refinement : int
        At least 1; refinement 1 is the hexagon fan.
    radius : float
        Disk radius, positive.
    """
    if refinement < 1:
        raise ValueError("refinement must be at least 1")
    if not radius > 0.0:
        raise ValueError("radius must be positive")

    rings = 2 ** (refinement - 1)
    coords = [(0.0, 0.0)]
    ring_ids: list[np.ndarray] = []
    for j in range(1, rings + 1):
        n_j = 6 * j
        theta = 2.0 * np.pi * np.arange(n_j) / n_j
        r_j = radius * j / rings
        start = len(coords)
        coords.extend(zip(r_j * np.cos(theta), r_j * np.sin(theta)))
        ring_ids.append(np.arange(start, start + n_j))

    tris: list[tuple[int, int, int]] = []
    first = ring_ids[0]
    for i in range(6):  # center fan
        tris.append((0, first[i], first[(i + 1) % 6]))
    for j in range(1, rings):
        tris.extend(_stitch_rings(ring_ids[j - 1], ring_ids[j]))

    nodes = np.asarray(coords, dtype=float)
    triangles = np.asarray(tris, dtype=np.int64)
    # enforce counterclockwise orientation
    areas = _signed_areas(nodes, triangles)
    flip = areas < 0.0
    triangles[flip] = triangles[flip][:, [0, 2, 1]]
    return Mesh(nodes=nodes, triangles=triangles, boundary_nodes=_boundary_nodes(triangles))


def assemble(mesh: Mesh) -> DiscreteOperator:
    """Assemble the P1 stiffness matrix and row-sum lumped mass vector.

    Per triangle, the gradient of the barycentric basis at vertex k is the
    rotated opposite edge divided by twice the area, so the local stiffness
    entry (i, j) is dot(e_i, e_j) / (4*area).  Fails on inverted triangles.
    """
    validate_mesh(mesh)
    nodes, triangles = mesh.nodes, mesh.triangles
    p0 = nodes[triangles[:, 0]]
    p1 = nodes[triangles[:, 1]]
    p2 = nodes[triangles[:, 2]]
    areas = 0.5 * _cross2(p1 - p0, p2 - p0)

    edges = np.stack([p2 - p1, p0 - p2, p1 - p0], axis=1)  # (t, 3, 2): edge opposite vertex k
    rows, cols, vals = [], [], []
    for i in range(3):
        for j in range(3):
            rows.append(triangles[:, i])
            cols.append(triangles[:, j])
            vals.append(np.einsum("td,td->t", edges[:, i], edges[:, j]) / (4.0 * areas))
    n = mesh.n_nodes
    a_mat = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)
    ).tocsr()
    asym = abs(a_mat - a_mat.T)
    scale = max(abs(a_mat).max(), 1.0)
    if asym.nnz and asym.max() > 1e-14 * scale:
        raise MeshFormatError("assembled stiffness is not symmetric")
    a_mat = (a_mat + a_mat.T) * 0.5

    lumped = np.zeros(n)
    np.add.at(lumped, triangles.ravel(), np.repeat(areas / 3.0, 3))
    if np.any(lumped <= 0.0):
        raise MeshFormatError("lumped mass has nonpositive entries")

    area, diameter = domain_metrics(mesh)
    return DiscreteOperator(
        stiffness=a_mat, lumped_mass=lumped, area=area, diameter=diameter, mesh=mesh
    )


def domain_metrics(mesh: Mesh) -> tuple[float, float]:
    """Polygonal area (sum of triangle areas) and diameter (max pairwise
    distance over convex-hull vertices)."""
    areas = _signed_areas(mesh.nodes, mesh.triangles)
    hull = ConvexHull(mesh.nodes)
    pts = mesh.nodes[hull.vertices]
    diff = pts[:, None, :] - pts[None, :, :]
    diameter = np.sqrt((diff**2).sum(axis=2)).max()
    return float(areas.sum()), float(diameter)


def mesh_size(mesh: Mesh) -> float:
    """Longest edge length in the triangulation."""
    t = mesh.triangles
    h = 0.0
    for i, j in ((0, 1), (1, 2), (2, 0)):
        d = mesh.nodes[t[:, i]] - mesh.nodes[t[:, j]]
        h = max(h, float(np.sqrt((d**2).sum(axis=1)).max()))
    return h


# -- plain-text file formats -------------------------------------------------
#
# Mesh file:    "nodes <n>" / n lines "x y" / "triangles <t>" / t lines "i j k"
# Field file:   "field <n> epsilon <eps> a <a>" / n lines, one value each


def write_mesh(path, mesh: Mesh) -> None:
    with open(path, "w") as fh:
        fh.write(f"nodes {mesh.n_nodes}\n")
        for x, y in mesh.nodes:
            fh.write(f"{float(x)!r} {float(y)!r}\n")
        fh.write(f"triangles {mesh.n_triangles}\n")
        for i, j, k in mesh.triangles:
            fh.write(f"{i} {j} {k}\n")


def read_mesh(path) -> Mesh:
    try:
        with open(path) as fh:
            tokens = fh.read().split()
    except OSError as exc:
        raise MeshFormatError(f"cannot read mesh file {path}: {exc}") from exc
    try:
        pos = 0
        if tokens[pos] != "nodes":
            raise ValueError("expected 'nodes' header")
        n = int(tokens[pos + 1])
        pos += 2
        nodes = np.array(tokens[pos:pos + 2 * n], dtype=float).reshape(n, 2)
        pos += 2 * n
        if tokens[pos] != "triangles":
            raise ValueError("expected 'triangles' header")
        t = int(tokens[pos + 1])
        pos += 2
        triangles = np.array(tokens[pos:pos + 3 * t], dtype=np.int64).reshape(t, 3)
    except (ValueError, IndexError) as exc:
        raise MeshFormatError(f"malformed mesh file {path}: {exc}") from exc
    mesh = Mesh(nodes=nodes, triangles=triangles, boundary_nodes=_boundary_nodes(triangles))
    validate_mesh(mesh)
    return mesh


def write_field(path, values: np.ndarray, epsilon: float, a: float) -> None:
    values = np.asarray(values, dtype=float)
    with open(path, "w") as fh:
        fh.write(f"field {values.size} epsilon {float(epsilon)!r} a {float(a)!r}\n")
        for v in values:
            fh.write(f"{float(v)!r}\n")


def read_field(path) -> tuple[np.ndarray, float, float]:
    """Read a nodal field file; returns (values, epsilon, a)."""
    try:
        with open(path) as fh:
            header = fh.readline().split()
            body = fh.read().split()
    except OSError as exc:
        raise MeshFormatError(f"cannot read field file {path}: {exc}") from exc
    try:
        if len(header) != 6 or header[0] != "field" or header[2] != "epsilon" or header[4] != "a":
            raise ValueError("bad header")
        n = int(header[1])
        epsilon = float(header[3])
        a = float(header[5])
        if len(body) != n:
            raise ValueError(f"expected {n} values, found {len(body)}")
        values = np.array(body, dtype=float)
    except (ValueError, IndexError) as exc:
        raise MeshFormatError(f"malformed field file {path}: {exc}") from exc
    return values, epsilon, a
