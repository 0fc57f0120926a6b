"""Mesh generation, P1 assembly, domain metrics, and the file formats."""

import numpy as np
import pytest

from neumann_rigidity import (
    Mesh,
    assemble,
    build_disk_mesh,
    build_rectangle_mesh,
    read_field,
    read_mesh,
    write_field,
    write_mesh,
)
from neumann_rigidity.errors import MeshFormatError
from neumann_rigidity.meshing import (
    MAX_DISK_REFINEMENT,
    MAX_NODES,
    _edge_census,
    _edge_vectors,
    _signed_areas,
    mesh_size,
)

from conftest import renumbered

# three counterclockwise triangles on the edge (0, 1)
OVERSHARED_NODES = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, -1.0], [0.5, 2.0]])
OVERSHARED_TRIANGLES = np.array([[0, 1, 2], [1, 0, 3], [0, 1, 4]])

# two triangles that share no node
DISJOINT_NODES = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [2.0, 0.0], [3.0, 0.0], [2.0, 1.0]])
DISJOINT_TRIANGLES = np.array([[0, 1, 2], [3, 4, 5]])


def _l_shape():
    """[0, 2]^2 without its open upper-right quadrant, on an 8x8 grid."""
    square = build_rectangle_mesh(8, 8, 2.0, 2.0)
    centroids = square.nodes[square.triangles].mean(axis=1)
    kept = square.triangles[~np.all(centroids > 1.0, axis=1)]
    used, triangles = np.unique(kept, return_inverse=True)
    return Mesh(square.nodes[used], triangles.reshape(-1, 3))


def _ring_walk_disk(refinement, radius):
    """The disk's nodes and triangles made one ring and one triangle at a
    time: the reference that ``build_disk_mesh`` must equal bit for bit."""
    rings = 2 ** (refinement - 1)
    coords = [(0.0, 0.0)]
    ring_ids = []
    for j in range(1, rings + 1):
        n_j = 6 * j
        theta = 2.0 * np.pi * np.arange(n_j) / n_j
        r_j = radius * j / rings
        start = len(coords)
        coords.extend(zip(r_j * np.cos(theta), r_j * np.sin(theta)))
        ring_ids.append(np.arange(start, start + n_j))
    first = ring_ids[0]
    tris = [(0, first[i], first[(i + 1) % 6]) for i in range(6)]
    for inner, outer in zip(ring_ids, ring_ids[1:]):
        n_in, n_out = len(inner), len(outer)
        k = n = 0  # steps taken on the inner / outer ring
        while k < n_in or n < n_out:
            if n < n_out and (k >= n_in or (n + 1) * n_in <= (k + 1) * n_out):
                tris.append((inner[k % n_in], outer[n % n_out], outer[(n + 1) % n_out]))
                n += 1
            else:
                tris.append((inner[k % n_in], outer[n % n_out], inner[(k + 1) % n_in]))
                k += 1
    return np.asarray(coords, dtype=float), np.asarray(tris, dtype=np.int64)


def _write_mesh_text(path, nodes, triangles):
    lines = [f"nodes {len(nodes)}"] + [f"{float(x)!r} {float(y)!r}" for x, y in nodes]
    lines += [f"triangles {len(triangles)}"] + [" ".join(map(str, t)) for t in triangles]
    path.write_text("\n".join(lines) + "\n")


class TestRectangleMesh:
    def test_counts_2x2(self):
        mesh = build_rectangle_mesh(2, 2, 1.0, 1.0)
        assert mesh.n_nodes == 9
        assert mesh.n_triangles == 8
        op = assemble(mesh)
        assert op.lumped_mass.sum() == pytest.approx(1.0, abs=1e-14)

    def test_rejects_single_cell(self):
        with pytest.raises(ValueError):
            build_rectangle_mesh(1, 1, 1.0, 1.0)
        with pytest.raises(ValueError):
            build_rectangle_mesh(2, 2, 0.0, 1.0)

    def test_partition_of_unity_64(self, square64):
        assert square64.lumped_mass.sum() == pytest.approx(1.0, abs=1e-12)

    def test_boundary_nodes(self):
        mesh = build_rectangle_mesh(4, 4, 1.0, 1.0)
        on_boundary = np.any(
            np.isclose(mesh.nodes, 0.0) | np.isclose(mesh.nodes, 1.0), axis=1
        )
        assert set(mesh.boundary_nodes) == set(np.nonzero(on_boundary)[0])

    def test_conforming(self):
        # every interior edge lies on two triangles, the 2*(5+3) boundary edges on one
        mesh = build_rectangle_mesh(5, 3, 2.0, 1.0)
        counts = _edge_census(mesh.triangles, mesh.n_nodes).data
        assert counts.max() == 2
        assert np.count_nonzero(counts == 1) == 16

    def test_rejects_node_budget(self):
        # 888*889 = 789,432 nodes: raised before any array is made
        assert MAX_NODES == 787_969
        with pytest.raises(ValueError, match="787969 nodes"):
            build_rectangle_mesh(887, 888, 1.0, 1.0)

    @pytest.mark.parametrize("nx, ny", [(2, 2), (5, 3), (3, 7)])
    def test_triangles_match_cell_loop(self, nx, ny):
        mesh = build_rectangle_mesh(nx, ny, 1.0, 1.0)
        reference = []
        for j in range(ny):
            for i in range(nx):
                v00, v10 = j * (nx + 1) + i, j * (nx + 1) + i + 1
                v01, v11 = v00 + nx + 1, v10 + nx + 1
                reference += [(v00, v10, v11), (v00, v11, v01)]
        assert mesh.triangles.dtype == np.int64
        assert np.array_equal(mesh.triangles, np.array(reference))
        assert np.all(_signed_areas(_edge_vectors(mesh.nodes, mesh.triangles)) > 0.0)


EDGE_COUNT_MESHES = {
    "rect2x2": lambda: build_rectangle_mesh(2, 2, 1.0, 1.0),
    "rect5x3": lambda: build_rectangle_mesh(5, 3, 2.0, 1.0),
    "rect20": lambda: build_rectangle_mesh(20, 20, 1.0, 1.0),
    "disk1": lambda: build_disk_mesh(1, 1.0),
    "disk4": lambda: build_disk_mesh(4, 1.0),
    "disk6": lambda: build_disk_mesh(6, 1.0),
    "renumbered20": lambda: renumbered(build_rectangle_mesh(20, 20, 1.0, 1.0), 3),
}


class TestEdgeCounts:
    @pytest.mark.parametrize("name", sorted(EDGE_COUNT_MESHES))
    def test_matches_row_unique(self, name):
        mesh = EDGE_COUNT_MESHES[name]()
        t = mesh.triangles
        edges = np.vstack([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])
        ref_edges, ref_counts = np.unique(np.sort(edges, axis=1), axis=0, return_counts=True)
        census = _edge_census(t, mesh.n_nodes).tocoo()  # canonical csr: row-major, sorted
        assert np.array_equal(census.row, ref_edges[:, 0])
        assert np.array_equal(census.col, ref_edges[:, 1])
        assert np.array_equal(census.data, ref_counts)


class TestDiskMesh:
    def test_coarse_hexagon(self):
        mesh = build_disk_mesh(1, 1.0)
        area = assemble(mesh).area
        assert mesh.n_triangles == 6
        assert area == pytest.approx(6 * 0.5 * np.sin(np.pi / 3), abs=1e-12)
        assert area < np.pi

    def test_refined_area_and_diameter(self, disk6):
        assert abs(disk6.area - np.pi) / np.pi < 0.005
        assert abs(disk6.diameter - 2.0) / 2.0 < 0.01

    def test_diameter_from_refinement_4(self, disk4):
        assert abs(disk4.diameter - 2.0) / 2.0 < 0.01

    def test_inscribed_polygon_area_formula(self):
        # boundary ring of 2**(r-1) rings carries 6*2**(r-1) nodes
        for refinement in (2, 3):
            mesh = build_disk_mesh(refinement, 1.0)
            n_b = 6 * 2 ** (refinement - 1)
            area = assemble(mesh).area
            assert area == pytest.approx(0.5 * n_b * np.sin(2 * np.pi / n_b), rel=1e-12)

    def test_rejects_zero_refinement(self):
        with pytest.raises(ValueError):
            build_disk_mesh(0, 1.0)

    def test_rejects_refinement_above_cap(self):
        # raised before any node is made: refinement 16 would be ~3.2e9 nodes
        with pytest.raises(ValueError, match="refinement"):
            build_disk_mesh(MAX_DISK_REFINEMENT + 1, 1.0)

    def test_nodes_inside_disk(self):
        mesh = build_disk_mesh(3, 2.5)
        r = np.sqrt((mesh.nodes**2).sum(axis=1))
        assert np.all(r <= 2.5 + 1e-12)

    @pytest.mark.parametrize("refinement, radius", [(r, 1.0) for r in range(1, 9)] + [(3, 2.5)])
    def test_matches_ring_walk(self, refinement, radius):
        mesh = build_disk_mesh(refinement, radius)
        nodes, triangles = _ring_walk_disk(refinement, radius)
        rings = 2 ** (refinement - 1)
        assert mesh.triangles.dtype == np.int64
        assert mesh.n_nodes == 1 + 3 * rings * (rings + 1)
        assert mesh.n_triangles == 6 * rings**2
        assert np.array_equal(mesh.nodes, nodes)
        assert np.array_equal(mesh.triangles, triangles)

    def test_rotation_symmetry(self):
        # the triangulation maps to itself under a 60 degree rotation
        mesh = build_disk_mesh(3, 1.0)
        c, s = np.cos(np.pi / 3), np.sin(np.pi / 3)
        rot = mesh.nodes @ np.array([[c, -s], [s, c]]).T
        from scipy.spatial import cKDTree

        d, idx = cKDTree(mesh.nodes).query(rot)
        assert d.max() < 1e-12
        tri_set = {frozenset(t) for t in mesh.triangles.tolist()}
        mapped = {frozenset(idx[t].tolist()) for t in mesh.triangles.tolist()}
        assert mapped == tri_set


class TestAssembly:
    def test_constants_in_nullspace(self, square64):
        ones = np.ones(square64.n)
        assert np.abs(square64.stiffness @ ones).max() <= 1e-13

    def test_reference_triangle_local_stiffness(self):
        mesh = Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), np.array([[0, 1, 2]]))
        assert np.array_equal(mesh.boundary_nodes, [0, 1, 2])
        op = assemble(mesh)
        expected = 0.5 * np.array([[2.0, -1.0, -1.0], [-1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]])
        assert np.allclose(op.stiffness.toarray(), expected, atol=1e-14)
        assert np.allclose(op.lumped_mass, 0.5 / 3.0)

    def test_patch_linear_field(self, square32):
        u = square32.mesh.nodes[:, 0].copy()
        assert u @ square32.stiffness.dot(u) == pytest.approx(1.0, abs=1e-12)

    def test_symmetry(self, square32):
        asym = abs(square32.stiffness - square32.stiffness.T)
        assert asym.nnz == 0 or asym.max() <= 1e-15

    def test_exactly_symmetric_without_stored_zeros(self, tmp_path):
        path = tmp_path / "l_shape.mesh"
        write_mesh(path, _l_shape())
        for mesh in (build_rectangle_mesh(20, 12, 2.0, 1.0), build_disk_mesh(3, 1.0),
                     read_mesh(path)):
            a_mat = assemble(mesh).stiffness
            assert (a_mat != a_mat.T).nnz == 0
            assert (a_mat.data == 0).sum() == 0

    def test_positive_semidefinite(self, square20, rng):
        for _ in range(10):
            x = rng.standard_normal(square20.n)
            assert x @ square20.stiffness.dot(x) >= -1e-12

    def test_positive_lumped_mass(self, disk4):
        assert np.all(disk4.lumped_mass > 0.0)
        assert disk4.lumped_mass.sum() == pytest.approx(disk4.area, rel=1e-14)

    def test_rejects_inverted_triangle(self):
        with pytest.raises(MeshFormatError, match="inverted"):
            Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                 np.array([[0, 2, 1]]))  # clockwise

    def test_flat_means_a_third_of_the_area_is_not_normal(self):
        # the triangle (0,0), (1,0), (0, 2h) has area h
        tiny = np.finfo(float).tiny

        def one_triangle(h):
            return Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0 * h]]), np.array([[0, 1, 2]]))

        with pytest.raises(MeshFormatError, match="inverted or flat triangles"):
            one_triangle(2.0 * tiny)
        assert np.all(assemble(one_triangle(4.0 * tiny)).lumped_mass >= tiny)

    def test_needle_means_a_stiffness_bound_overflows(self):
        # the triangle (0,0), (1000,0), (0,h) has max|e|**2/area = 2e3/h + h/500,
        # finite for h = 2e-305 and past the largest float for h = 1e-305
        def one_triangle(h):
            return Mesh(np.array([[0.0, 0.0], [1000.0, 0.0], [0.0, h]]), np.array([[0, 1, 2]]))

        with pytest.raises(MeshFormatError, match="needle triangles"):
            one_triangle(1e-305)
        stiffness = assemble(one_triangle(2e-305)).stiffness
        assert np.isfinite(stiffness.data).all() and stiffness.diagonal().max() > 1e307

    def test_galerkin_energy_cos(self, square64):
        u = np.cos(np.pi * square64.mesh.nodes[:, 0])
        energy = u @ square64.stiffness.dot(u)
        assert abs(energy - np.pi**2 / 2) / (np.pi**2 / 2) < 0.005

    def test_mass_quadrature_x_squared(self, square64):
        g = square64.mesh.nodes[:, 0] ** 2
        assert abs(np.dot(square64.lumped_mass, g) - 1.0 / 3.0) < 1e-3

    def test_energy_error_order(self, square32, square64):
        # halving h should shrink the stiffness-energy defect about 4x
        exact = np.pi**2 / 2
        errs = []
        for op in (square32, square64):
            u = np.cos(np.pi * op.mesh.nodes[:, 0])
            errs.append(abs(u @ op.stiffness.dot(u) - exact))
        assert errs[1] < errs[0]
        assert errs[0] / errs[1] > 3.0


class TestDomainMetrics:
    def test_unit_square(self):
        op = assemble(build_rectangle_mesh(8, 8, 1.0, 1.0))
        assert op.area == pytest.approx(1.0, abs=1e-13)
        assert op.diameter == pytest.approx(np.sqrt(2.0), abs=1e-13)

    def test_rectangle_2x1(self):
        op = assemble(build_rectangle_mesh(8, 4, 2.0, 1.0))
        assert op.area == pytest.approx(2.0, abs=1e-13)
        assert op.diameter == pytest.approx(np.sqrt(5.0), abs=1e-13)

    @pytest.mark.parametrize("name", ["rect20", "rect7x3", "disk4", "disk6", "lshape"])
    def test_diameter_equals_row_by_row_max(self, name):
        mesh = {
            "rect20": lambda: build_rectangle_mesh(20, 20, 1.0, 1.0),
            "rect7x3": lambda: build_rectangle_mesh(7, 3, 1.7, 0.6),
            "disk4": lambda: build_disk_mesh(4, 1.0),
            "disk6": lambda: build_disk_mesh(6, 1.0),
            "lshape": _l_shape,
        }[name]()
        pts = mesh.nodes[mesh.boundary_nodes]
        reference = max(np.sqrt(((pts - p)**2).sum(axis=1)).max() for p in pts)
        assert assemble(mesh).diameter == float(reference)

    def test_mesh_size_square(self):
        h = mesh_size(build_rectangle_mesh(10, 10, 1.0, 1.0))
        assert h == pytest.approx(np.sqrt(2.0) / 10.0, rel=1e-12)

    @pytest.mark.parametrize("name", ["disk4", "lshape", "renumbered20"])
    def test_mesh_size_and_areas_equal_row_by_row(self, name):
        mesh = {
            "disk4": lambda: build_disk_mesh(4, 1.0),
            "lshape": _l_shape,
            "renumbered20": lambda: renumbered(build_rectangle_mesh(20, 20, 1.0, 1.0), 3),
        }[name]()
        lengths, areas = [], []
        for i0, i1, i2 in mesh.triangles:
            p0, p1, p2 = mesh.nodes[i0], mesh.nodes[i1], mesh.nodes[i2]
            lengths += [np.sqrt(((p - q)**2).sum()) for p, q in ((p0, p1), (p1, p2), (p2, p0))]
            u, v = p1 - p0, p2 - p0
            areas.append(0.5 * (u[0] * v[1] - u[1] * v[0]))
        assert mesh_size(mesh) == float(max(lengths))
        assert np.array_equal(_signed_areas(_edge_vectors(mesh.nodes, mesh.triangles)), areas)


class TestFileFormats:
    def test_mesh_roundtrip(self, tmp_path):
        mesh = build_disk_mesh(2, 1.5)
        path = tmp_path / "disk.mesh"
        write_mesh(path, mesh)
        back = read_mesh(path)
        assert np.array_equal(back.nodes, mesh.nodes)
        assert np.array_equal(back.triangles, mesh.triangles)
        assert np.array_equal(back.boundary_nodes, mesh.boundary_nodes)

    def test_field_roundtrip(self, tmp_path, rng):
        values = rng.standard_normal(37)
        path = tmp_path / "u.field"
        write_field(path, values, epsilon=0.25, a=2.0)
        back, eps, a = read_field(path)
        assert np.array_equal(back, values)
        assert eps == 0.25 and a == 2.0

    def test_field_header_format(self, tmp_path):
        path = tmp_path / "u.field"
        write_field(path, np.array([1.0, 2.0]), epsilon=1.0, a=2.0)
        assert path.read_text().splitlines()[0] == "field 2 epsilon 1.0 a 2.0"

    def test_truncated_field_rejected(self, tmp_path):
        path = tmp_path / "bad.field"
        path.write_text("field 5 epsilon 1.0 a 2.0\n0.1\n0.2\n")
        with pytest.raises(MeshFormatError):
            read_field(path)

    def test_malformed_mesh_rejected(self, tmp_path):
        path = tmp_path / "bad.mesh"
        path.write_text("vertices 3\n0 0\n1 0\n0 1\n")
        with pytest.raises(MeshFormatError):
            read_mesh(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(MeshFormatError):
            read_mesh(tmp_path / "nope.mesh")

    def test_field_body_is_one_repr_per_line(self, tmp_path, rng):
        values = np.concatenate([rng.standard_normal(5), [0.0, -0.0, 1e300, 5e-324]])
        path = tmp_path / "u.field"
        write_field(path, values, epsilon=0.5, a=3.0)
        assert path.read_text().splitlines()[1:] == [repr(float(v)) for v in values]

    @pytest.mark.parametrize("triangles, message", [
        ([[0, 1, 3]], "out of range"),
        ([[0, 1, -1]], "out of range"),
        ([], "no triangles"),
    ], ids=["index_ge_n", "negative_index", "zero_triangles"])
    def test_bad_triangles_rejected(self, tmp_path, triangles, message):
        path = tmp_path / "bad.mesh"
        _write_mesh_text(path, [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)], triangles)
        with pytest.raises(MeshFormatError, match=message):
            read_mesh(path)

    @pytest.mark.parametrize("x", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_node_rejected(self, tmp_path, x):
        # a NaN area is never <= 0, so the coordinates are checked first
        path = tmp_path / "bad.mesh"
        _write_mesh_text(path, [(0.0, 0.0), (1.0, 0.0), (x, 1.0)], [[0, 1, 2]])
        with pytest.raises(MeshFormatError, match="coordinates must be finite"):
            read_mesh(path)


class TestConformity:
    def test_validate_rejects_edge_on_three_triangles(self):
        with pytest.raises(MeshFormatError, match="shared by >2 triangles"):
            Mesh(OVERSHARED_NODES, OVERSHARED_TRIANGLES)

    def test_read_rejects_edge_on_three_triangles(self, tmp_path):
        path = tmp_path / "overshared.mesh"
        _write_mesh_text(path, OVERSHARED_NODES, OVERSHARED_TRIANGLES)
        with pytest.raises(MeshFormatError, match="shared by >2 triangles"):
            read_mesh(path)


class TestConnectivity:
    def test_validate_rejects_two_components(self):
        with pytest.raises(MeshFormatError, match="not connected: 2 components"):
            Mesh(DISJOINT_NODES, DISJOINT_TRIANGLES)

    def test_validate_rejects_unused_node(self):
        # a node no triangle uses would leave a zero row in the stiffness
        with pytest.raises(MeshFormatError, match="not connected: 2 components"):
            Mesh(DISJOINT_NODES[:4], DISJOINT_TRIANGLES[:1])

    def test_read_rejects_two_components(self, tmp_path):
        path = tmp_path / "disjoint.mesh"
        _write_mesh_text(path, DISJOINT_NODES, DISJOINT_TRIANGLES)
        with pytest.raises(MeshFormatError, match="not connected"):
            read_mesh(path)

    def test_assemble_rejects_two_disjoint_squares(self):
        square = build_rectangle_mesh(4, 4, 1.0, 1.0)
        triangles = np.vstack([square.triangles, square.triangles + square.n_nodes])
        with pytest.raises(MeshFormatError, match="not connected: 2 components"):
            Mesh(np.vstack([square.nodes, square.nodes + [2.0, 0.0]]), triangles)
