"""Projected solves on the mean-zero subspace and the first eigenpair."""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import eigh
from scipy.linalg.lapack import dgbtrf, dpbtrf
from scipy.sparse.csgraph import reverse_cuthill_mckee
from scipy.sparse.linalg import splu

import neumann_rigidity.linsolve as linsolve
from neumann_rigidity import (
    BorderedSystem,
    assemble,
    bordered,
    build_disk_mesh,
    build_rectangle_mesh,
    find_xi,
    first_eigenpair,
    multi_start,
    newton_solve,
    project_mean_zero,
    smallest_nonzero_eigen,
    solve_projected,
    stability_indicator,
    weighted_mean,
)
from neumann_rigidity.errors import NoConvergenceError
from neumann_rigidity.linsolve import restricted_smallest_eigen

from conftest import renumbered

J11_PRIME_SQ = 1.8411837813406593**2  # first nonzero disk eigenvalue (radius 1)


class TestProjectMeanZero:
    def test_constant_maps_to_zero(self):
        m = np.array([0.5, 1.5, 2.0])
        assert np.allclose(project_mean_zero(np.full(3, 7.0), m), 0.0, atol=1e-14)

    def test_idempotent(self, rng):
        m = rng.uniform(0.1, 1.0, 50)
        x = project_mean_zero(rng.standard_normal(50), m)
        assert np.allclose(project_mean_zero(x, m), x, atol=1e-15)

    def test_hand_example(self):
        out = project_mean_zero(np.array([2.0, 0.0]), np.array([1.0, 1.0]))
        assert np.allclose(out, [1.0, -1.0])


class TestSolveProjected:
    def test_zero_rhs(self, square20):
        x = solve_projected(bordered(square20), np.zeros(square20.n))
        assert np.all(x == 0.0)

    def test_roundtrip(self, square20, rng):
        m = square20.lumped_mass
        y = project_mean_zero(rng.standard_normal(square20.n), m)
        b = square20.stiffness.dot(y)
        x = solve_projected(bordered(square20), b)
        assert np.abs(x - y).max() <= 1e-8 * (1.0 + np.abs(y).max())

    def test_result_mean_zero(self, square20, rng):
        m = square20.lumped_mass
        b = square20.stiffness.dot(project_mean_zero(rng.standard_normal(square20.n), m))
        x = solve_projected(bordered(square20), b)
        assert abs(np.dot(m, x)) <= 1e-10 * m.sum()

    def test_incompatible_rhs_projected_first(self, square20, rng):
        # a right-hand side with nonzero total load: the solver measures the
        # residual against the compatible projection
        m = square20.lumped_mass
        b = m * rng.standard_normal(square20.n) + 3.0 * m
        x = solve_projected(bordered(square20), b)
        b_proj = b - (b.sum() / m.sum()) * m
        res = np.linalg.norm(square20.stiffness.dot(x) - b_proj)
        assert res <= 1e-11 * np.linalg.norm(b_proj)

    def test_block_rhs_matches_columns(self, square20, rng):
        m = square20.lumped_mass
        b = m[:, None] * rng.standard_normal((square20.n, 3))
        x = solve_projected(bordered(square20), b)
        for j in range(3):
            x_j = solve_projected(bordered(square20), b[:, j])
            assert np.abs(x[:, j] - x_j).max() <= 1e-12 * (1.0 + np.abs(x_j).max())

    def test_singular_on_mean_zero_subspace_raises(self):
        # the path Laplacian has the mean-zero eigenvector (1, -1, -1, 1) at
        # eigenvalue 2, so L - 2I is singular there as at a bifurcation point
        lap = sp.csr_matrix(np.array([[1.0, -1.0, 0.0, 0.0], [-1.0, 2.0, -1.0, 0.0],
                                      [0.0, -1.0, 2.0, -1.0], [0.0, 0.0, -1.0, 1.0]]))
        with pytest.raises(NoConvergenceError):
            solve_projected(BorderedSystem(lap, np.ones(4)),
                            np.array([1.0, 0.0, 0.0, -1.0]), d=2.0)

    def test_singular_schur_complement_raises(self):
        # B = A - diag(1, 3) is nonsingular (det -1), so it factors, but
        # m'B^{-1}m = 0: the mean-bordered matrix is singular, and closing
        # the border must say so
        system = BorderedSystem(sp.csr_matrix(np.array([[1.0, -1.0], [-1.0, 1.0]])), np.ones(2))
        factor = system.factor(1.0, np.array([1.0, 3.0]))
        with pytest.raises(NoConvergenceError, match="vanishes"):
            linsolve._mean_bordered(factor, system.m)

    def test_disconnected_poisson_matrix_raises(self):
        # two separate path Laplacians: grounding one node leaves the other
        # component's constant in the kernel
        lap = np.array([[1.0, -1.0], [-1.0, 1.0]])
        with pytest.raises(NoConvergenceError, match="singular"):
            BorderedSystem(sp.csr_matrix(sp.block_diag([lap, lap])), np.ones(4))

    @pytest.mark.parametrize("d", [None, 0.0], ids=["omitted", "zero"])
    def test_scaled_poisson_solve(self, square20, rng, d):
        # scale*A is singular: with d omitted the mean-zero Poisson factor
        # solves it, but a given d, even zero, asks for the plain solve of
        # B, whose band LU must refuse it
        b = square20.lumped_mass * rng.standard_normal(square20.n)
        system = bordered(square20)
        if d is not None:
            with pytest.raises(NoConvergenceError, match="singular"):
                solve_projected(system, b, 0.5, d)
            return
        half = solve_projected(system, b, 0.5, d)
        assert np.abs(half - 2.0 * solve_projected(system, b)).max() <= 1e-12 * np.abs(half).max()


def _fresh_bordered_lu(op, scale, d):
    """MMD_AT_PLUS_A factor of [[scale*A - diag(d), m], [m', 0]] assembled from scratch."""
    border = sp.csc_matrix(op.lumped_mass.reshape(-1, 1))
    b_mat = scale * op.stiffness - sp.diags(d)
    return splu(sp.bmat([[b_mat, border], [border.T, None]], format="csc"),
                permc_spec="MMD_AT_PLUS_A")


def _reaction_diagonals(op):
    """A Newton-like diagonal m*f' and the same diagonal shifted as the
    stability eigensolver shifts it (below -max f')."""
    m = op.lumped_mass
    fp = np.random.default_rng(7).uniform(-1.0, 4.0, op.n)
    shift = -fp.max() - 1.0
    return [m * fp, m * fp + shift * m]


@pytest.fixture(scope="module")
def shuffled20():
    return assemble(renumbered(build_rectangle_mesh(20, 20, 1.0, 1.0), 3))


@pytest.fixture(scope="module")
def disk5():
    return assemble(build_disk_mesh(5, 1.0))


class TestBorderedSystem:
    def test_one_poisson_cholesky_per_operator(self, monkeypatch):
        shapes = []

        def counting_dpbtrf(ab, *args, **kwargs):
            shapes.append(ab.shape)
            return dpbtrf(ab, *args, **kwargs)

        monkeypatch.setattr(linsolve, "dpbtrf", counting_dpbtrf)
        op = assemble(build_rectangle_mesh(20, 20, 1.0, 1.0))  # nothing cached yet
        result = multi_start(0.12, 2.0, op, 12, seed=0)
        assert result.distinct and all(r.diagnostics is not None for r in result.distinct)
        poisson = (linsolve._band(op.stiffness).k + 1, op.n)  # grounded at one node
        assert shapes == [poisson]
        stability_indicator(result.distinct[0].u, 0.12, 2.0, op)
        assert shapes == [poisson, poisson]  # the second is the shifted pencil

    @pytest.mark.parametrize("mesh, which, kind", [
        pytest.param("square20", 0, "lu", id="newton"),
        pytest.param("square20", 1, "lu", id="eigen_shift"),
        pytest.param("square20", 1, "cholesky", id="cholesky"),
        pytest.param("disk5", 0, "lu", id="disk5-newton"),
        pytest.param("disk5", 1, "lu", id="disk5-eigen_shift"),
        pytest.param("disk5", 1, "cholesky", id="disk5-cholesky"),
        pytest.param("shuffled20", 0, "lu", id="shuffled20-newton"),
        pytest.param("shuffled20", 1, "lu", id="shuffled20-eigen_shift"),
        pytest.param("shuffled20", 1, "cholesky", id="shuffled20-cholesky"),
    ])
    def test_factor_matches_fresh_assembly(self, request, rng, mesh, which, kind):
        # Newton solves with the plain band LU of B; the eigensolver's
        # shift-invert operator closes the mean border around the band
        # Cholesky factor of its positive definite shifted pencil, and the
        # border closes around the LU as well
        op = request.getfixturevalue(mesh)
        n = op.n
        d = _reaction_diagonals(op)[which]
        system = bordered(op)
        cached = system.cholesky(0.3, d) if kind == "cholesky" else system.factor(0.3, d)
        if which == 0:
            fresh = splu(sp.csc_matrix(0.3 * op.stiffness - sp.diags(d))).solve
            got_of = cached
        else:
            lu = _fresh_bordered_lu(op, 0.3, d)
            fresh = lambda b: lu.solve(np.concatenate([b, np.zeros((1,) + b.shape[1:])]))[:n]
            got_of = linsolve._mean_bordered(cached, op.lumped_mass)
        for b in (rng.standard_normal(n), rng.standard_normal((n, 2))):
            want = fresh(b)
            assert np.abs(got_of(b) - want).max() <= 1e-10 * np.abs(want).max()

    @pytest.mark.parametrize("scale", [1.0, 0.5])
    @pytest.mark.parametrize("cols", [(), (2,)], ids=["vector", "block"])
    @pytest.mark.parametrize("mesh", ["square20", "disk5", "shuffled20"])
    def test_poisson_factor_matches_fresh_assembly(self, request, rng, mesh, cols, scale):
        # the grounded factor must give the field part of the bordered solve
        op = request.getfixturevalue(mesh)
        n = op.n
        b = rng.standard_normal((n,) + cols)
        fresh = _fresh_bordered_lu(op, scale, np.zeros(n))
        want = fresh.solve(np.concatenate([b, np.zeros((1,) + cols)]))[:n]
        got = solve_projected(bordered(op), b, scale)
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()

    @pytest.mark.parametrize("which", [0, 1], ids=["newton", "eigen_shift"])
    def test_fill_equals_fresh_ordering(self, shuffled20, which, monkeypatch):
        # the band factor's fill is its (3k+1, n) band array; k must be the
        # half-bandwidth of the freshly assembled B in a fresh reverse
        # Cuthill-McKee order, with order[i] read as the old index at
        # position i (the inverse direction leaves k in the hundreds here)
        d = _reaction_diagonals(shuffled20)[which]
        b_mat = sp.csr_matrix(0.3 * shuffled20.stiffness - sp.diags(d))
        order = reverse_cuthill_mckee(b_mat, symmetric_mode=True)
        coo = b_mat[order][:, order].tocoo()
        k = int(np.abs(coo.row - coo.col).max())
        system = bordered(shuffled20)  # the Poisson dpbtrf is made before recording
        shapes = {"dgbtrf": [], "dpbtrf": []}

        def recording(name):
            routine = getattr(linsolve, name)

            def wrapper(ab, *args, **kwargs):
                shapes[name].append(ab.shape)
                return routine(ab, *args, **kwargs)
            return wrapper

        for name in shapes:
            monkeypatch.setattr(linsolve, name, recording(name))
        system.factor(0.3, d)
        assert shapes["dgbtrf"] == [(3 * k + 1, shuffled20.n)]
        if which == 1:  # the positive definite pencil: k+1 rows, no fill
            system.cholesky(0.3, d)
            assert shapes["dpbtrf"] == [(k + 1, shuffled20.n)]

    def test_cholesky_refuses_indefinite_matrix(self, square20):
        d = _reaction_diagonals(square20)[0]  # a Newton Jacobian, indefinite
        with pytest.raises(NoConvergenceError, match="not positive definite"):
            bordered(square20).cholesky(0.3, d)

    def test_shifted_pencils_take_cholesky_and_jacobians_lu(self, square20, monkeypatch):
        bordered(square20)  # the Poisson factor is a dpbtrf too: made before counting
        calls = {"dpbtrf": 0, "dgbtrf": 0}

        def counting(name):
            routine = getattr(linsolve, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return routine(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(linsolve, name, counting(name))
        xi = find_xi(2.0)
        stability_indicator(np.full(square20.n, xi), 0.12, 2.0, square20)
        assert calls == {"dpbtrf": 1, "dgbtrf": 0}
        record = newton_solve(np.full(square20.n, 0.9 * xi), 0.12, 2.0, square20)
        assert record.factorizations < record.newton_iters  # the held factor was reused
        assert calls == {"dpbtrf": 1, "dgbtrf": record.factorizations}

    def test_factor_holds_one_lu_keyed_by_value(self, square20, monkeypatch):
        # the last LU is reused for an equal (scale, d); any other band
        # factorization, a Cholesky included, drops it first
        system = bordered(square20)
        d, other = _reaction_diagonals(square20)
        system.cholesky(0.3, other)  # drop whatever an earlier test left held
        calls = []

        def counting_dgbtrf(*args, **kwargs):
            calls.append(1)
            return dgbtrf(*args, **kwargs)

        monkeypatch.setattr(linsolve, "dgbtrf", counting_dgbtrf)
        made = system.factorizations
        solve = system.factor(0.3, d)
        assert system.factor(0.3, d.copy()) is solve and len(calls) == 1
        system.factor(0.3, other)
        system.factor(0.3, d)
        assert len(calls) == 3
        system.cholesky(0.3, other)
        system.factor(0.3, d)
        assert len(calls) == 4 and system.factorizations - made == 4

    def test_band_order_ignores_node_numbering(self, square20, shuffled20):
        # reverse Cuthill-McKee finds the grid's band whatever the numbering;
        # the shuffled numbering itself spreads entries across the matrix
        coo = shuffled20.stiffness.tocoo()
        assert np.abs(coo.row - coo.col).max() > 300
        assert linsolve._band(square20.stiffness).k == 21
        assert linsolve._band(shuffled20.stiffness).k == 21

    def test_repeat_factor_is_bitwise_identical(self, square20, rng):
        d = _reaction_diagonals(square20)[0]
        b = rng.standard_normal((square20.n, 2))
        system = bordered(square20)
        first = system.factor(0.3, d)(b)
        system.factor(0.7, 2.0 * d)
        assert np.array_equal(system.factor(0.3, d)(b), first)

    def test_pickled_operator_refactors(self, square16):
        import pickle

        pair = first_eigenpair(square16)
        copy = pickle.loads(pickle.dumps(square16))
        assert first_eigenpair(copy).mu1 == pair.mu1
        b = square16.lumped_mass * np.cos(np.arange(square16.n))
        d = square16.lumped_mass * np.sin(np.arange(square16.n))
        for args in ((), (0.5, d)):
            assert np.array_equal(solve_projected(bordered(copy), b, *args),
                                  solve_projected(bordered(square16), b, *args))


    def test_pickled_operator_leaves_cache_behind(self):
        import pickle

        op = assemble(build_rectangle_mesh(16, 16, 1.0, 1.0))
        size = len(pickle.dumps(op))
        first_eigenpair(op)  # fills the bordered system and the eigenpair
        assert len(pickle.dumps(op)) == size
        assert pickle.loads(pickle.dumps(op))._cache == {}

    def test_replaced_operator_gets_fresh_cache(self):
        from dataclasses import replace

        op = assemble(build_rectangle_mesh(8, 8, 1.0, 1.0))
        mu1 = first_eigenpair(op).mu1  # fills the bordered system and the eigenpair
        scaled = replace(op, lumped_mass=4.0 * op.lumped_mass)
        assert first_eigenpair(scaled).mu1 == pytest.approx(mu1 / 4.0, rel=1e-9)
        assert bordered(scaled) is not bordered(op)


class TestSmallestNonzeroEigen:
    def test_unit_square_64(self, square64):
        pair = first_eigenpair(square64)
        assert abs(pair.mu1 - np.pi**2) / np.pi**2 < 0.01
        assert not pair.degenerate  # diagonal split separates the pair by O(h^2)

    def test_rectangle_2x1(self, rect2x1):
        pair = first_eigenpair(rect2x1)
        target = (np.pi / 2.0) ** 2
        assert abs(pair.mu1 - target) / target < 0.01
        assert not pair.degenerate

    def test_disk_refinement_6(self, disk6):
        pair = first_eigenpair(disk6)
        assert abs(pair.mu1 - J11_PRIME_SQ) / J11_PRIME_SQ < 0.02
        assert pair.degenerate  # exactly degenerate by hexagonal mesh symmetry

    def test_eigenpair_normalization(self, square32):
        pair = first_eigenpair(square32)
        m = square32.lumped_mass
        assert abs(np.dot(m, pair.phi1)) <= 1e-10 * m.sum()
        assert np.sqrt(np.sum(m * pair.phi1**2)) == pytest.approx(1.0, rel=1e-12)

    def test_rayleigh_identity(self, square32):
        pair = first_eigenpair(square32)
        m = square32.lumped_mass
        rayleigh = pair.phi1 @ square32.stiffness.dot(pair.phi1) / np.dot(m, pair.phi1**2)
        assert abs(rayleigh - pair.mu1) <= 1e-8 * pair.mu1

    def test_mesh_convergence(self, square16, square32):
        mu16 = first_eigenpair(square16).mu1
        mu32 = first_eigenpair(square32).mu1
        assert abs(mu32 - np.pi**2) < abs(mu16 - np.pi**2)

    def test_direct_call_matches_memoized(self, square20):
        pair = smallest_nonzero_eigen(bordered(square20))
        assert pair.mu1 == first_eigenpair(square20).mu1

    def test_spectral_gap_bound(self, square20, rng):
        # discrete Poincare inequality: Rayleigh quotient of any mean-zero
        # field is at least mu1
        pair = first_eigenpair(square20)
        m = square20.lumped_mass
        for _ in range(100):
            v = project_mean_zero(rng.standard_normal(square20.n), m)
            quotient = v @ square20.stiffness.dot(v) / np.dot(m, v * v)
            assert quotient >= pair.mu1 * (1.0 - 1e-8)

    def test_repeat_call_is_bitwise_identical(self, square20, square16):
        pair = smallest_nonzero_eigen(bordered(square20))
        smallest_nonzero_eigen(bordered(square16))
        again = smallest_nonzero_eigen(bordered(square20))
        assert again.mu1 == pair.mu1
        assert np.array_equal(again.phi1, pair.phi1)

    @pytest.mark.parametrize("mesh", ["square20", "disk5"])
    def test_matches_dense_generalized_eigh(self, request, mesh):
        # the smallest eigenvalue of the dense pencil (A, diag(m)) is the
        # constant mode's zero; the next one is mu1
        op = request.getfixturevalue(mesh)
        dense = eigh(op.stiffness.toarray(), np.diag(op.lumped_mass), eigvals_only=True)
        assert abs(dense[0]) <= 1e-10 * dense[1]
        assert first_eigenpair(op).mu1 == pytest.approx(dense[1], rel=1e-9)

    def test_second_ritz_value_orders(self, rect2x1):
        pair = first_eigenpair(rect2x1)
        assert pair.mu2 is not None and pair.mu2 > pair.mu1
        # next rectangle mode is pi^2 (both (2,0) and (0,1) land there)
        assert abs(pair.mu2 - np.pi**2) / np.pi**2 < 0.02


class TestRestrictedSmallestEigen:
    def test_matches_plain_eigen_for_stiffness(self, square20):
        pair = first_eigenpair(square20)
        lam, _ = restricted_smallest_eigen(bordered(square20), lower_bound=0.0)
        assert lam == pytest.approx(pair.mu1, rel=1e-8)

    def test_shifted_pencil(self, square20):
        # B = A - c*M has restricted eigenvalues mu_k - c
        c = 3.0
        lam, _ = restricted_smallest_eigen(bordered(square20), lower_bound=-c,
                                           d=c * square20.lumped_mass)
        assert lam == pytest.approx(first_eigenpair(square20).mu1 - c, rel=1e-8)

    @pytest.mark.parametrize("above", [5.0, 20.0])
    def test_lower_bound_above_spectrum_raises(self, square20, above):
        # a shift above mu1 makes Lanczos return the eigenvalues nearest to
        # it: mu1 by luck at mu1 + 5, the (1,1) mode near 2*pi^2 at mu1 + 20;
        # the Cholesky factor of the shifted pencil refuses both
        mu1 = first_eigenpair(square20).mu1
        with pytest.raises(NoConvergenceError, match="not positive definite"):
            restricted_smallest_eigen(bordered(square20), lower_bound=mu1 + above)

    def test_arpack_error_raises_no_convergence(self, square20, monkeypatch):
        def failing_eigsh(*args, **kwargs):
            raise linsolve.ArpackError(-9)

        monkeypatch.setattr(linsolve, "eigsh", failing_eigsh)
        with pytest.raises(NoConvergenceError, match="shift-invert Lanczos failed"):
            restricted_smallest_eigen(bordered(square20), lower_bound=0.0)

    def test_returns_mean_zero_eigenvector(self, square20):
        m = square20.lumped_mass
        lam, vec = restricted_smallest_eigen(bordered(square20), lower_bound=0.0)
        assert abs(np.dot(m, vec)) <= 1e-10 * m.sum()
        rayleigh = vec @ square20.stiffness.dot(vec) / np.dot(m, vec * vec)
        assert rayleigh == pytest.approx(lam, rel=1e-8)


class TestNorms:
    def test_weighted_mean_examples(self):
        assert weighted_mean(np.array([0.0, 2.0]), np.array([1.0, 3.0])) == 1.5
