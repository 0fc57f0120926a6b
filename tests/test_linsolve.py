"""Projected solves on the mean-zero subspace and the first eigenpair."""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

import neumann_rigidity.linsolve as linsolve
from neumann_rigidity import (
    BorderedSystem,
    NewtonOpts,
    assemble,
    bordered,
    build_rectangle_mesh,
    first_eigenpair,
    mass_norm,
    multi_start,
    project_mean_zero,
    smallest_nonzero_eigen,
    solve_projected,
    weighted_mean,
)
from neumann_rigidity.errors import NoConvergenceError
from neumann_rigidity.linsolve import restricted_smallest_eigen

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


class TestBorderedSystem:
    def test_one_minimum_degree_ordering_per_operator(self, monkeypatch):
        specs = []

        def counting_splu(k_mat, permc_spec):
            specs.append(permc_spec)
            return splu(k_mat, permc_spec=permc_spec)

        monkeypatch.setattr(linsolve, "splu", counting_splu)
        op = assemble(build_rectangle_mesh(20, 20, 1.0, 1.0))  # nothing cached yet
        result = multi_start(0.12, 2.0, op, 12, seed=0, opts=NewtonOpts())
        assert result.distinct and all(r.diagnostics is not None for r in result.distinct)
        assert specs.count("MMD_AT_PLUS_A") == 1
        assert specs.count("NATURAL") == len(specs) - 1 > 0

    @pytest.mark.parametrize("which", [0, 1], ids=["newton", "eigen_shift"])
    def test_factor_matches_fresh_assembly(self, square20, rng, which):
        n = square20.n
        d = _reaction_diagonals(square20)[which]
        fresh = _fresh_bordered_lu(square20, 0.3, d)
        cached = bordered(square20).factor(0.3, d)
        for b in (rng.standard_normal(n), rng.standard_normal((n, 2))):
            want = fresh.solve(np.concatenate([b, np.zeros((1,) + b.shape[1:])]))[:n]
            got = cached.solve(b)
            assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()

    def test_poisson_factor_matches_fresh_assembly(self, square20, rng):
        n = square20.n
        b = rng.standard_normal(n)
        want = _fresh_bordered_lu(square20, 1.0, np.zeros(n)).solve(np.append(b, 0.0))[:n]
        got = bordered(square20).factor().solve(b)
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()

    @pytest.mark.parametrize("which", [0, 1], ids=["newton", "eigen_shift"])
    def test_fill_equals_fresh_ordering(self, square20, which):
        # the symmetric permutation must send old index i to perm_c[i]; the
        # inverse direction multiplies the fill several times over
        d = _reaction_diagonals(square20)[which]
        fresh = _fresh_bordered_lu(square20, 0.3, d)
        cached = bordered(square20).factor(0.3, d).lu
        assert cached.L.nnz + cached.U.nnz == fresh.L.nnz + fresh.U.nnz

    def test_repeat_factor_is_bitwise_identical(self, square20, rng):
        d = _reaction_diagonals(square20)[0]
        b = rng.standard_normal((square20.n, 2))
        system = bordered(square20)
        first = system.factor(0.3, d).solve(b)
        system.factor(0.7, 2.0 * d)
        assert np.array_equal(system.factor(0.3, d).solve(b), first)

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
        assert mass_norm(pair.phi1, m) == pytest.approx(1.0, rel=1e-12)

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
        pair = smallest_nonzero_eigen(bordered(square20), tol=1e-9)
        assert pair.mu1 == pytest.approx(first_eigenpair(square20).mu1, rel=1e-7)

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

    def test_second_ritz_value_orders(self, rect2x1):
        pair = first_eigenpair(rect2x1)
        assert pair.mu2 is not None and pair.mu2 > pair.mu1
        # next rectangle mode is pi^2 (both (2,0) and (0,1) land there)
        assert abs(pair.mu2 - np.pi**2) / np.pi**2 < 0.02


class TestRestrictedSmallestEigen:
    def test_matches_plain_eigen_for_stiffness(self, square20):
        pair = first_eigenpair(square20)
        lam, _ = restricted_smallest_eigen(bordered(square20), lower_bound=0.0, tol=1e-10)
        assert lam == pytest.approx(pair.mu1, rel=1e-8)

    def test_shifted_pencil(self, square20):
        # B = A - c*M has restricted eigenvalues mu_k - c
        c = 3.0
        lam, _ = restricted_smallest_eigen(bordered(square20), lower_bound=-c,
                                           d=c * square20.lumped_mass, tol=1e-10)
        assert lam == pytest.approx(first_eigenpair(square20).mu1 - c, rel=1e-8)

    def test_returns_mean_zero_eigenvector(self, square20):
        m = square20.lumped_mass
        lam, vec = restricted_smallest_eigen(bordered(square20), lower_bound=0.0)
        assert abs(np.dot(m, vec)) <= 1e-10 * m.sum()
        rayleigh = vec @ square20.stiffness.dot(vec) / np.dot(m, vec * vec)
        assert rayleigh == pytest.approx(lam, rel=1e-8)


class TestNorms:
    def test_weighted_mean_examples(self):
        assert weighted_mean(np.array([0.0, 2.0]), np.array([1.0, 3.0])) == 1.5

    def test_mass_norm(self):
        assert mass_norm(np.array([3.0, 4.0]), np.array([1.0, 1.0])) == 5.0
