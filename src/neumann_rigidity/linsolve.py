"""Direct solves on the weighted-mean-zero subspace and the first nonzero
no-flux eigenvalue by shift-invert Lanczos.

The stiffness matrix of the natural boundary condition annihilates
constants, so linear solves live on the weighted-mean-zero subspace.  One
sparse LU factorization of the bordered matrix

    K = [[B, m], [m', 0]],   B = scale*A - diag(d),

does the whole job: its solution of  B x + m*lam = b,  m'x = 0  is the
weighted-mean-zero solution of B x = b with the range-incompatible part of b
(along the mass vector) absorbed by the multiplier lam.  The same factors of
B - shift*M are the shift-invert operator of the eigensolver; they send
constants to zero, which restricts the spectrum to mean-zero fields without
any projection.

Every matrix the package solves with (Poisson, Newton Jacobians, shifted
stability pencils) has the form of B above, so all share one sparsity
pattern.  ``bordered(op)`` splits the work into the symbolic phase, done
once per operator, and a numeric phase per matrix.  Once: the Poisson
matrix K(1, 0) is factored with SuperLU's minimum-degree ordering on the
pattern of K + K' (``MMD_AT_PLUS_A``; the default column ordering fills in
about a quarter more memory on large meshes, and ordering on K'K turns the
dense border row into a dense block), that factor is kept for the Poisson
solves and mu1, and its column order lays out the pattern of K
symmetrically permuted.  Per matrix: fill the values into that layout and
factor with the ``NATURAL`` ordering, which gives the same fill without a
minimum-degree pass.  The SuperLU factors do not pickle; a pickled system
carries only its matrix and mass and refactors when it is loaded.
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
    """Remove the weighted mean: x - (sum(m*x)/sum(m)) * 1.

    The computed mean is off by a round-off of order ulp(mean), which for a
    large constant offset dwarfs the fluctuation; a second pass removes the
    mean of the remainder, whose round-off is on the fluctuation's scale.
    """
    v = x - np.dot(m, x) / m.sum()
    return v - np.dot(m, v) / m.sum()


class BorderedFactor:
    """SuperLU factors of one bordered matrix K.

    ``solve`` returns the field part of K^{-1} [b; 0] for an (n,) or (n, k)
    right-hand side.  ``rows`` are the positions of the field rows in the
    matrix that was factored: a slice when K was factored in its own
    order, the permutation when it was laid out symmetrically permuted.
    """

    def __init__(self, lu, rows):
        self.lu = lu
        self._rows = rows

    def solve(self, b: np.ndarray) -> np.ndarray:
        b = np.asarray(b, dtype=float)
        rhs = np.zeros((self.lu.shape[0],) + b.shape[1:])
        rhs[self._rows] = b
        x = self.lu.solve(rhs)[self._rows]
        if not np.all(np.isfinite(x)):
            raise NoConvergenceError("bordered solve produced non-finite values")
        return x


def _factorize(k_mat: sp.csc_matrix, permc_spec: str):
    try:
        return splu(k_mat, permc_spec=permc_spec)
    except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
        raise NoConvergenceError(f"bordered matrix is singular: {exc}") from exc


@dataclass(frozen=True)
class _Layout:
    """CSC pattern of K under a symmetric permutation, with the data
    positions of the diagonal and the border and the values of A."""

    indices: np.ndarray
    indptr: np.ndarray
    a_data: np.ndarray
    diag_pos: np.ndarray
    border_pos: np.ndarray


def _layout(a_mat: sp.spmatrix, new: np.ndarray) -> _Layout:
    """Lay out K = [[A - diag(d), m], [m', 0]] with old index i at new[i].

    The pattern holds the entries of A, the whole diagonal and the border
    column and row; the corner stays structurally zero.
    """
    a_coo = sp.coo_matrix(a_mat)
    n1 = new.shape[0]
    n = n1 - 1
    idx = np.arange(n)
    rows = np.concatenate([a_coo.row, idx, idx, np.full(n, n)])
    cols = np.concatenate([a_coo.col, idx, np.full(n, n), idx])
    keys = new[cols].astype(np.int64) * n1 + new[rows]
    uniq, slot = np.unique(keys, return_inverse=True)
    slot = slot.astype(np.int32)
    return _Layout(
        indices=(uniq % n1).astype(np.int32),
        indptr=np.searchsorted(uniq // n1, np.arange(n1 + 1)).astype(np.int32),
        # bincount sums duplicate entries of a non-canonical A
        a_data=np.bincount(slot[:a_coo.nnz], weights=a_coo.data, minlength=uniq.shape[0]),
        diag_pos=slot[a_coo.nnz:a_coo.nnz + n],
        border_pos=slot[a_coo.nnz + n:],
    )


class BorderedSystem:
    """Symbolic analysis of the bordered matrices

        K(scale, d) = [[scale*A - diag(d), m], [m', 0]]

    of one operator.  Construction factors the Poisson case K(1, 0) with
    SuperLU's minimum-degree ordering on the pattern of K + K'
    (``MMD_AT_PLUS_A``) and keeps that factor.  Every other K shares the
    pattern, so ``factor`` lays its values out in the Poisson factor's
    column order once and factors with the ``NATURAL`` ordering: the same
    fill, without a minimum-degree pass per matrix.
    """

    def __init__(self, a_mat: sp.spmatrix, m: np.ndarray):
        self.a_mat = a_mat
        self.m = np.asarray(m, dtype=float)
        self.n = self.m.shape[0]
        self._border = np.concatenate([self.m, self.m])
        lu = _factorize(self._csc(_layout(a_mat, np.arange(self.n + 1)), 1.0, None),
                        "MMD_AT_PLUS_A")
        self._poisson = BorderedFactor(lu, slice(None, self.n))
        self._perm = lu.perm_c.astype(np.int32)
        self._permuted: _Layout | None = None  # laid out on the first non-Poisson factor

    def __reduce__(self):
        # SuperLU factors do not pickle: a copy (an operator sent to a worker
        # process) refactors from the matrix and the mass when it is loaded
        return BorderedSystem, (self.a_mat, self.m)

    def _csc(self, lay: _Layout, scale: float, d) -> sp.csc_matrix:
        data = scale * lay.a_data
        if d is not None:
            data[lay.diag_pos] -= d
        data[lay.border_pos] = self._border
        return sp.csc_matrix((data, lay.indices, lay.indptr), shape=(self.n + 1,) * 2)

    def factor(self, scale: float = 1.0, d: np.ndarray | float | None = None) -> BorderedFactor:
        """Factors of K(scale, d); the default call returns the Poisson factor.

        Raises NoConvergenceError when K is singular, i.e. when
        scale*A - diag(d) is singular on the weighted-mean-zero subspace.
        """
        if scale == 1.0 and d is None:
            return self._poisson
        if self._permuted is None:
            self._permuted = _layout(self.a_mat, self._perm)
        lu = _factorize(self._csc(self._permuted, scale, d), "NATURAL")
        return BorderedFactor(lu, self._perm[:self.n])


def bordered(op) -> BorderedSystem:
    """Memoized bordered system of a DiscreteOperator's stiffness and mass."""
    if "bordered" not in op._cache:
        op._cache["bordered"] = BorderedSystem(op.stiffness, op.lumped_mass)
    return op._cache["bordered"]


def solve_projected(system: BorderedSystem, b: np.ndarray, scale: float = 1.0,
                    d: np.ndarray | float | None = None) -> np.ndarray:
    """Solve (scale*A - diag(d)) x = b on the weighted-mean-zero subspace by
    one bordered LU; the default is the Poisson problem A x = b, whose
    factor is reused.

    ``b`` is an (n,) vector or an (n, k) block of right-hand sides sharing
    the factorization.  For a symmetric matrix that annihilates constants
    the multiplier removes exactly the range-incompatible part of b (its
    plain sum, along the mass vector).  Raises NoConvergenceError when the
    matrix is singular on the subspace.
    """
    return system.factor(scale, d).solve(b)


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


def _smallest_restricted(system: BorderedSystem, scale: float, d, shift: float,
                         tol: float) -> tuple[np.ndarray, np.ndarray]:
    """The two eigenvalues of the pencil (scale*A - diag(d), diag(m)) on the
    mean-zero subspace nearest to ``shift``, ascending, with their
    eigenvectors.

    Shift-invert Lanczos whose inverse is the bordered LU of
    scale*A - diag(d + shift*m): its range is the mean-zero subspace, and
    Lanczos in the M inner product returns vectors of weighted norm one.
    In this mode ARPACK never multiplies by the pencil matrix itself.  The
    start vector is seeded, so repeated calls give identical results.
    """
    n, m = system.n, system.m
    diag = 0.0 if d is None else d
    pencil = LinearOperator((n, n), matvec=lambda x: scale * system.a_mat.dot(x) - diag * x,
                            dtype=float)
    shifted = d if shift == 0.0 else diag + shift * m
    op_inv = LinearOperator((n, n), matvec=system.factor(scale, shifted).solve, dtype=float)
    x = np.random.default_rng(_RNG_SEED).standard_normal(n)
    v0 = x - weighted_mean(x, m)  # any start in the mean-zero subspace will do
    try:
        theta, vecs = eigsh(pencil, k=2, M=sp.diags(m), sigma=shift, OPinv=op_inv,
                            v0=v0, tol=tol)
    except ArpackNoConvergence as exc:
        raise NoConvergenceError(f"shift-invert Lanczos did not converge: {exc}") from exc
    order = np.argsort(theta)
    return theta[order], vecs[:, order]


def smallest_nonzero_eigen(system: BorderedSystem, tol: float = 1e-10) -> EigenPair:
    """First nonzero eigenvalue mu1 of A x = mu * m x with A psd, A 1 = 0.

    Shift-invert Lanczos at shift 0 on the mean-zero subspace, inverting
    with the Poisson factor; the second eigenvalue detects a
    (near-)degenerate first eigenvalue.
    """
    theta, vecs = _smallest_restricted(system, 1.0, None, 0.0, tol)
    mu1, mu2 = float(theta[0]), float(theta[1])
    degenerate = abs(mu2 - mu1) <= 10.0 * tol * max(1.0, abs(mu1))
    return EigenPair(mu1=mu1, phi1=vecs[:, 0].copy(), degenerate=degenerate,
                     mu2=mu2, phi2=vecs[:, 1].copy())


def restricted_smallest_eigen(system: BorderedSystem, lower_bound: float,
                              scale: float = 1.0, d: np.ndarray | float | None = None,
                              tol: float = 1e-9) -> tuple[float, np.ndarray]:
    """Smallest mean-zero-subspace eigenvalue of the symmetric pencil
    (scale*A - diag(d), diag(m)) and its eigenvector.

    ``lower_bound`` must be a guaranteed lower bound on the eigenvalue (for
    reaction Jacobians, minus the largest pointwise reaction slope); the
    shift is placed below it with a safety margin, so the eigenvalue nearest
    the shift is the smallest one.
    """
    shift = lower_bound - max(1.0, 0.1 * abs(lower_bound))
    theta, vecs = _smallest_restricted(system, scale, d, shift, tol)
    return float(theta[0]), vecs[:, 0].copy()


def first_eigenpair(op) -> EigenPair:
    """Memoized first nonzero eigenpair of a DiscreteOperator."""
    if "eig" not in op._cache:
        op._cache["eig"] = smallest_nonzero_eigen(bordered(op))
    return op._cache["eig"]
