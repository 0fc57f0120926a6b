"""Triangulations of rectangles and disks, P1 assembly with natural
(no-flux) boundary conditions, and the plain-text mesh/field file formats.

A ``Mesh`` checks its triangulation when it is made, so every mesh that
exists is finite, conforming and connected, and its boundary comes from the
same edge census; the builders, ``read_mesh`` and ``assemble`` check
nothing again.

The discrete operator pairs the P1 stiffness matrix with a row-sum lumped
mass vector.  Lumping keeps nodal reaction terms diagonal, so the discrete
zero-average identity sum(m_i * f(u_i)) = 0 holds exactly at converged
steady states.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .errors import MeshFormatError

MAX_DISK_REFINEMENT = 10  # 2**9 rings
# node budget of a built mesh: the disk's 1 + 6*(1 + ... + 2**9) = 787,969 nodes at refinement 10
MAX_NODES = 1 + 3 * 2 ** (MAX_DISK_REFINEMENT - 1) * (2 ** (MAX_DISK_REFINEMENT - 1) + 1)


@dataclass(frozen=True, eq=False)
class Mesh:
    """Conforming, connected triangulation with counterclockwise triangles,
    valid by construction: ``Mesh(nodes, triangles)`` raises
    MeshFormatError if a node coordinate is not finite, or if the
    triangulation is empty, indexes a missing node, spreads too far, has a
    flat or inverted triangle or a needle, or is non-conforming or
    disconnected (checked in that order, so each check may rely on the ones
    before it).  One edge census (``_edge_census``) gives conformity and the
    boundary nodes from its counts, and connectivity from its pattern.  A
    node that no triangle uses is a component of its own.  Connectivity makes the
    constants the whole kernel of the stiffness matrix, so grounding one
    node leaves it positive definite.

    Two rules here are the only scale rules the package states.  The
    upper rule: the squared spread of the nodes, the sum over x and y of
    (max - min)**2, is finite.  It bounds every edge vector, every area,
    every lumped mass and the diameter, so none of them overflows.  The
    lower rule: every signed area is at least 3 * tiny, the smallest
    normal float times three; a triangle below it is "flat", as a third
    of its area is not a normal float.  A lumped mass sums thirds of the
    areas of the triangles at its node, and connectivity puts every node
    on one, so every mass is a positive normal float.  A third rule, the
    needle rule, bounds shape, not scale: for every node, the sum over its
    triangles of max|e|**2/area, e their edge vectors, is finite.  The sum
    is at least 4 times every stiffness entry in the node's row, and twice
    the grounded diagonal 2*A[0,0] at node 0, so no stiffness entry and no
    grounded pivot overflows.

    Attributes
    ----------
    nodes : (n, 2) float array
        Vertex coordinates.
    triangles : (t, 3) int array
        Vertex index triples, counterclockwise.
    boundary_nodes : (b,) int array
        Sorted indices of the nodes on edges that belong to exactly one
        triangle; derived, not passed.
    """

    nodes: np.ndarray
    triangles: np.ndarray
    boundary_nodes: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        nodes, triangles = self.nodes, self.triangles
        if not np.isfinite(nodes).all():
            raise MeshFormatError("node coordinates must be finite")
        if triangles.shape[0] == 0:
            raise MeshFormatError("triangulation has no triangles")
        if triangles.min() < 0 or triangles.max() >= nodes.shape[0]:
            raise MeshFormatError("triangle indices out of range")
        with np.errstate(over="ignore"):
            spread2 = (np.ptp(nodes, axis=0) ** 2).sum()
        if not np.isfinite(spread2):
            raise MeshFormatError("triangle areas overflow: node coordinates are too large")
        edges = _edge_vectors(nodes, triangles)
        areas = _signed_areas(edges)
        if not areas.min() >= 3 * np.finfo(float).tiny:
            raise MeshFormatError("triangulation contains inverted or flat triangles")
        with np.errstate(over="ignore"):  # (3, t): numpy's max over a length-3 last axis is slow
            needles = np.einsum("tkd,tkd->kt", edges, edges, order="C").max(axis=0) / areas
        del edges, areas  # the edge census peaks higher; it need not hold these
        if not np.isfinite(np.bincount(triangles.ravel(), weights=np.repeat(needles, 3))).all():
            raise MeshFormatError("triangulation contains needle triangles: stiffness overflows")
        census = _edge_census(triangles, nodes.shape[0])
        if census.data.max() > 2:
            raise MeshFormatError("non-conforming mesh: an edge is shared by >2 triangles")
        lo, hi = (census == 1).nonzero()
        if lo.size == 0:
            raise MeshFormatError("triangulation has no boundary edge")
        n_parts = connected_components(census, directed=False, return_labels=False)
        if n_parts > 1:
            raise MeshFormatError(f"triangulation is not connected: {n_parts} components")
        object.__setattr__(self, "boundary_nodes", np.union1d(lo, hi).astype(np.int64))

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
    # lazily filled cache: the first eigenpair (linsolve.first_eigenpair)
    # and the bordered system (linsolve.bordered).  Not an __init__ field, so
    # dataclasses.replace gives the new operator an empty cache of its own
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.lumped_mass.shape[0]

    def __getstate__(self) -> dict:
        # the cache is derived data, many times the operator's size; a loaded
        # copy rebuilds it on first use, deterministically
        return {**self.__dict__, "_cache": {}}


def _edge_vectors(nodes: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    """The (t, 3, 2) edge vectors of the triangles: entry k is the edge
    opposite vertex k, p[k+2] - p[k+1] with vertex indices taken mod 3."""
    edges = np.take(nodes, triangles[:, [2, 0, 1]], axis=0)
    edges -= np.take(nodes, triangles[:, [1, 2, 0]], axis=0)
    return edges


def _signed_areas(edges: np.ndarray) -> np.ndarray:
    """Signed triangle areas from ``_edge_vectors``: half the cross product
    of the edges opposite vertices 1 and 2, positive for a counterclockwise
    triangle.  Finite for every mesh, by ``Mesh``'s spread rule."""
    e1, e2 = edges[:, 1], edges[:, 2]
    return 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])


def _edge_census(triangles: np.ndarray, n: int) -> sp.csr_matrix:
    """The edge census: an (n, n) sparse matrix whose entry (lo, hi), lo < hi,
    counts the triangles on the edge lo-hi.  Building it sums the duplicate
    int32 entries of the 3t sorted edge pairs, gathered into one (3t, 2)
    array, so each stored value is an exact count, and its pattern is the
    node graph of the triangulation.
    """
    t = triangles.shape[0]
    pairs = np.empty((3 * t, 2), dtype=triangles.dtype)
    for i, (a, b) in enumerate(((0, 1), (1, 2), (2, 0))):
        pairs[i * t:(i + 1) * t, 0] = triangles[:, a]
        pairs[i * t:(i + 1) * t, 1] = triangles[:, b]
    pairs.sort(axis=1)
    return sp.csr_matrix((np.ones(3 * t, dtype=np.int32), (pairs[:, 0], pairs[:, 1])),
                         shape=(n, n))


def check_rectangle_args(nx: int, ny: int, lx: float, ly: float) -> None:
    """Raise ValueError unless ``build_rectangle_mesh`` accepts these arguments."""
    if nx < 2 or ny < 2:
        raise ValueError("nx and ny must both be at least 2")
    if (nx + 1) * (ny + 1) > MAX_NODES:
        raise ValueError(f"(nx+1)*(ny+1) must not exceed {MAX_NODES} nodes")
    if not (lx > 0.0 and ly > 0.0):
        raise ValueError("side lengths must be positive")


def check_disk_args(refinement: int, radius: float) -> None:
    """Raise ValueError unless ``build_disk_mesh`` accepts these arguments."""
    if not 1 <= refinement <= MAX_DISK_REFINEMENT:
        raise ValueError(f"refinement must lie in [1, {MAX_DISK_REFINEMENT}]")
    if not radius > 0.0:
        raise ValueError("radius must be positive")


def build_rectangle_mesh(nx: int, ny: int, lx: float, ly: float) -> Mesh:
    """Structured triangulation of [0, lx] x [0, ly].

    Each of the nx*ny grid cells is split along its (+1, +1) diagonal into
    two counterclockwise triangles, giving (nx+1)*(ny+1) nodes.

    Parameters
    ----------
    nx, ny : int
        Cells per direction; at least 2 each, with at most MAX_NODES nodes.
    lx, ly : float
        Side lengths, positive.
    """
    check_rectangle_args(nx, ny, lx, ly)

    xs = np.linspace(0.0, lx, nx + 1)
    ys = np.linspace(0.0, ly, ny + 1)
    xg, yg = np.meshgrid(xs, ys)  # shape (ny+1, nx+1), row-major in y
    nodes = np.column_stack([xg.ravel(), yg.ravel()])

    # lower-left node of each cell, j outer and i inner
    v00 = (np.arange(ny, dtype=np.int64)[:, None] * (nx + 1) + np.arange(nx)).ravel()
    v10, v01 = v00 + 1, v00 + nx + 1
    v11 = v01 + 1
    triangles = np.column_stack([v00, v10, v11, v00, v11, v01]).reshape(-1, 3)
    return Mesh(nodes, triangles)


def build_disk_mesh(refinement: int, radius: float = 1.0) -> Mesh:
    """Quasi-uniform triangulation of the regular polygon inscribed in a disk.

    Concentric rings at radii j/R carry 6*j nodes each, with R = 2**(refinement-1)
    rings, so the boundary resolution doubles per refinement level and the
    polygonal area converges to pi*r**2.  Node 0 is the centre and ring j
    starts at node 1 + 3*j*(j-1), its nodes by increasing angle.

    The centre fan joins node 0 to ring 1.  Annulus j, between ring j
    (``inner``, n_in = 6*j nodes) and ring j+1 (``outer``, n_out = 6*(j+1)),
    takes one triangle per step along either ring, walking both by
    increasing angle, with node indices taken round each ring: after k
    inner and n outer steps, the outer step comes next when its end angle
    fraction (n+1)/n_out is at most the inner one's (k+1)/n_in.  The
    fractions are compared as the exact integers (n+1)*n_in and
    (k+1)*n_out, so ties break identically in every sector and the
    triangulation has the full rotational symmetry of the rings.  No step
    is walked one at a time: a step's place in its annulus is its index on
    its own ring plus the number of steps on the other ring that come
    before it, a floor division of the same integers.  An outer
    step gives (inner[k], outer[n], outer[n+1]), which runs along the outer
    ring by increasing angle with the inner node on the centre side; an
    inner step gives (inner[k], outer[n], inner[k+1]), which goes out and
    comes back to the inner ring at the larger angle.  Both are
    counterclockwise, as is the fan, so no orientation pass runs; ``Mesh``
    would still reject a clockwise triangle.

    Parameters
    ----------
    refinement : int
        From 1 to MAX_DISK_REFINEMENT; refinement 1 is the hexagon fan.
    radius : float
        Disk radius, positive.
    """
    check_disk_args(refinement, radius)

    def node(j, p):  # node p of ring j, counted round the ring
        return 1 + 3 * j * (j - 1) + p % (6 * j)

    rings = 2 ** (refinement - 1)
    j = np.arange(1, rings + 1)
    ring = np.repeat(j, 6 * j)  # the ring of nodes 1, 2, ...
    pos = np.arange(1, ring.size + 1) - node(ring, 0)  # their places in it
    theta = 2.0 * np.pi * pos / (6 * ring)
    r = radius * ring / rings
    nodes = np.vstack([(0.0, 0.0), np.column_stack([r * np.cos(theta), r * np.sin(theta)])])

    # annulus j's steps are triangles 6*j**2 on, in walk order: outer step n
    # follows the k inner steps with (k+1)*n_out < (n+1)*n_in, inner step k
    # the n outer steps with (n+1)*n_in <= (k+1)*n_out, and n_in/n_out = j/(j+1)
    triangles = np.empty((6 * rings**2, 3), dtype=np.int64)
    triangles[:6] = np.column_stack([np.zeros(6, dtype=np.int64), np.arange(1, 7),
                                     np.arange(1, 7) % 6 + 1])  # the centre fan
    j, n = ring[6:] - 1, pos[6:]  # one outer step per node of rings 2..R
    k = ((n + 1) * j - 1) // (j + 1)
    triangles[6 * j**2 + k + n] = np.column_stack([node(j, k), node(j + 1, n), node(j + 1, n + 1)])
    j, k = ring[:-6 * rings], pos[:-6 * rings]  # one inner step per node of rings 1..R-1
    n = (k + 1) * (j + 1) // j
    triangles[6 * j**2 + k + n] = np.column_stack([node(j, k), node(j + 1, n), node(j, k + 1)])
    return Mesh(nodes, triangles)


def assemble(mesh: Mesh) -> DiscreteOperator:
    """Assemble the P1 stiffness matrix and row-sum lumped mass vector.

    Per triangle, the gradient of the barycentric basis at vertex k is the
    rotated opposite edge divided by twice the area, so the local stiffness
    entry (i, j) is dot(e_i, e_j) / (4*area).  It checks nothing: the mesh
    checked its triangles when it was made, so every area and every lumped
    mass is a finite, positive normal float, and the diameter and every
    stiffness entry are finite.
    """
    triangles = mesh.triangles
    edges = _edge_vectors(mesh.nodes, triangles)
    areas = _signed_areas(edges)
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
    # exactly symmetric as summed: entry (i, j) adds the same products as
    # (j, i), over at most two triangles.  The cell diagonals of a structured
    # mesh sum to stored zeros, and reverse Cuthill-McKee orders the band
    # from the stored pattern, so drop them
    a_mat.eliminate_zeros()
    a_mat.sum_duplicates()  # a no-op that sets scipy's lazy format flags, so pickles keep a size

    lumped = np.bincount(triangles.ravel(), weights=np.repeat(areas / 3.0, 3), minlength=n)
    return DiscreteOperator(stiffness=a_mat, lumped_mass=lumped, area=float(areas.sum()),
                            diameter=_diameter(mesh), mesh=mesh)


def _diameter(mesh: Mesh) -> float:
    """Largest distance between boundary nodes (a polygon's diameter joins
    two of its vertices).  Squared distances are taken
    a block of rows at a time against the rows that follow, keeping memory
    O(block*b); sqrt is applied once, to the largest."""
    x, y = mesh.nodes[mesh.boundary_nodes].T
    block = 64
    d2 = max(
        (((x[s:s + block, None] - x[s:])**2 + (y[s:s + block, None] - y[s:])**2).max()
         for s in range(0, len(x), block)),
        default=0.0,
    )
    return float(np.sqrt(d2))


def mesh_size(mesh: Mesh) -> float:
    """Longest edge length in the triangulation."""
    edges = _edge_vectors(mesh.nodes, mesh.triangles)
    return float(np.sqrt((edges**2).sum(axis=2)).max())


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
        if len(tokens) != pos + 3 * t:
            raise ValueError(f"{len(tokens) - pos - 3 * t} tokens after the last triangle")
    except (ValueError, IndexError) as exc:
        raise MeshFormatError(f"malformed mesh file {path}: {exc}") from exc
    return Mesh(nodes, triangles)


def write_field(path, values: np.ndarray, epsilon: float, a: float) -> None:
    values = np.asarray(values, dtype=float)
    with open(path, "w") as fh:
        fh.write(f"field {values.size} epsilon {float(epsilon)!r} a {float(a)!r}\n")
        fh.write("".join(f"{v!r}\n" for v in values.tolist()))


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
        if not np.isfinite(values).all():
            raise ValueError("field values must be finite")
    except (ValueError, IndexError) as exc:
        raise MeshFormatError(f"malformed field file {path}: {exc}") from exc
    return values, epsilon, a
