"""Direct solves on the weighted-mean-zero subspace and the first nonzero
no-flux eigenvalue by shift-invert Lanczos.

The stiffness matrix of the natural boundary condition annihilates
constants, so linear solves live on the weighted-mean-zero subspace.  One
sparse LU factorization of the bordered matrix

    K = [[B, m], [m', 0]]

does the whole job: its solution of  B x + m*lam = b,  m'x = 0  is the
weighted-mean-zero solution of B x = b with the range-incompatible part of b
(along the mass vector) absorbed by the multiplier lam.  The same factors of
B - shift*M are the shift-invert operator of the eigensolver; they send
constants to zero, which restricts the spectrum to mean-zero fields without
any projection.  The factorization uses SuperLU's minimum-degree ordering
on the pattern of K + K' (``MMD_AT_PLUS_A``): the default column ordering
fills in about a quarter more memory on large meshes, and ordering on K'K
turns the dense border row into a dense block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh, splu

from .errors import NoConvergenceError

_RNG_SEED = 20260810  # deterministic Lanczos start vector


def weighted_mean(u: np.ndarray, m: np.ndarray) -> float:
    """Mass-weighted average sum(m*u)/sum(m)."""
    return float(np.dot(m, u) / m.sum())


def mass_norm(v: np.ndarray, m: np.ndarray) -> float:
    """Quadrature-weighted L2 norm sqrt(sum(m*v**2))."""
    return float(np.sqrt(np.dot(m, v * v)))


def dual_norm(r: np.ndarray, m: np.ndarray) -> float:
    """Mass-weighted norm sqrt(sum(r**2/m)) of a load-type vector.

    Dividing by the mass converts assembled loads back to pointwise scale,
    which makes the value mesh-size independent for smooth defects.
    Saturated residuals overflow to +inf, which callers treat as rejection.
    """
    with np.errstate(over="ignore"):
        return float(np.sqrt(np.sum(r * r / m)))


def project_mean_zero(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Remove the weighted mean: x - (sum(m*x)/sum(m)) * 1."""
    return x - np.dot(m, x) / m.sum()


def _bordered_solver(b_mat: sp.spmatrix, m: np.ndarray):
    """Factor K = [[B, m], [m', 0]] once and return b -> x, the field part of
    K^{-1} [b; 0] for an (n,) or (n, k) right-hand side.

    Raises NoConvergenceError when K is singular, i.e. when B is singular
    on the weighted-mean-zero subspace, or when the solve overflows.
    """
    n = m.shape[0]
    border = sp.csc_matrix(m.reshape(n, 1))
    k_mat = sp.bmat([[b_mat, border], [border.T, None]], format="csc")
    try:
        lu = splu(k_mat, permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
        raise NoConvergenceError(f"bordered matrix is singular: {exc}") from exc

    def solve(b: np.ndarray) -> np.ndarray:
        rhs = np.concatenate([b, np.zeros((1,) + b.shape[1:])])
        x = lu.solve(rhs)[:n]
        if not np.all(np.isfinite(x)):
            raise NoConvergenceError("bordered solve produced non-finite values")
        return x

    return solve


def solve_projected(a_mat: sp.spmatrix, m: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A x = b on the weighted-mean-zero subspace by one bordered LU.

    ``b`` is an (n,) vector or an (n, k) block of right-hand sides sharing
    the factorization.  For a symmetric A with A 1 = 0 the multiplier
    removes exactly the range-incompatible part of b (its plain sum, along
    the mass vector).  Raises NoConvergenceError when A is singular on the
    subspace.
    """
    return _bordered_solver(a_mat, m)(np.asarray(b, dtype=float))


@dataclass(frozen=True)
class EigenPair:
    """First nonzero eigenvalue of the no-flux operator with its mode.

    ``phi1`` has weighted mean zero and weighted norm one.  ``degenerate``
    flags a second eigenvalue within 10*tol of mu1 (disks carry an exactly
    degenerate first pair; on structured square meshes the diagonal split
    direction separates the pair by O(h**2), so the flag stays off there);
    ``mu2``/``phi2`` are the second eigenpair, kept because branch switching
    near a (near-)degenerate first mode needs the whole two-dimensional
    eigenspace.
    """

    mu1: float
    phi1: np.ndarray
    degenerate: bool = False
    mu2: float | None = None
    phi2: np.ndarray | None = None


def _smallest_restricted(b_mat: sp.spmatrix, m: np.ndarray, shift: float,
                         tol: float) -> tuple[np.ndarray, np.ndarray]:
    """The two eigenvalues of the pencil (B, diag(m)) on the mean-zero
    subspace nearest to ``shift``, ascending, with their eigenvectors.

    Shift-invert Lanczos whose inverse is the bordered LU of B - shift*M:
    its range is the mean-zero subspace, and Lanczos in the M inner product
    returns vectors of weighted norm one.  The start vector is seeded, so
    repeated calls give identical results.
    """
    n = m.shape[0]
    solve = _bordered_solver(b_mat - sp.diags(shift * m), m)
    op_inv = LinearOperator((n, n), matvec=solve, dtype=float)
    v0 = project_mean_zero(np.random.default_rng(_RNG_SEED).standard_normal(n), m)
    try:
        theta, vecs = eigsh(b_mat, k=2, M=sp.diags(m), sigma=shift, OPinv=op_inv,
                            v0=v0, tol=tol)
    except ArpackNoConvergence as exc:
        raise NoConvergenceError(f"shift-invert Lanczos did not converge: {exc}") from exc
    order = np.argsort(theta)
    return theta[order], vecs[:, order]


def smallest_nonzero_eigen(a_mat: sp.spmatrix, m: np.ndarray,
                           tol: float = 1e-10) -> EigenPair:
    """First nonzero eigenvalue mu1 of A x = mu * m x with A psd, A 1 = 0.

    Shift-invert Lanczos at shift 0 on the mean-zero subspace; the second
    eigenvalue detects a (near-)degenerate first eigenvalue.
    """
    theta, vecs = _smallest_restricted(a_mat, m, 0.0, tol)
    mu1, mu2 = float(theta[0]), float(theta[1])
    degenerate = abs(mu2 - mu1) <= 10.0 * tol * max(1.0, abs(mu1))
    return EigenPair(mu1=mu1, phi1=vecs[:, 0].copy(), degenerate=degenerate,
                     mu2=mu2, phi2=vecs[:, 1].copy())


def restricted_smallest_eigen(b_mat: sp.spmatrix, m: np.ndarray, lower_bound: float,
                              tol: float = 1e-9) -> tuple[float, np.ndarray]:
    """Smallest mean-zero-subspace eigenvalue of a symmetric pencil (B, diag(m))
    and its eigenvector.

    ``lower_bound`` must be a guaranteed lower bound on the eigenvalue (for
    reaction Jacobians, minus the largest pointwise reaction slope); the
    shift is placed below it with a safety margin, so the eigenvalue nearest
    the shift is the smallest one.
    """
    shift = lower_bound - max(1.0, 0.1 * abs(lower_bound))
    theta, vecs = _smallest_restricted(b_mat, m, shift, tol)
    return float(theta[0]), vecs[:, 0].copy()


def first_eigenpair(op, tol: float = 1e-10) -> EigenPair:
    """Memoized first nonzero eigenpair of a DiscreteOperator."""
    key = ("eig", tol)
    if key not in op._cache:
        op._cache[key] = smallest_nonzero_eigen(op.stiffness, op.lumped_mass, tol=tol)
    return op._cache[key]
