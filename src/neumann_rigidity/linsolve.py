"""Direct solves with B = scale*A - diag(d), and eigenpairs of the pencil
(B, diag(m)) on the mean-zero subspace by shift-invert Lanczos.

Every matrix is factored in one band layout: reverse Cuthill-McKee
ordering, computed once per operator, puts the P1 pattern in a band of
half-width k (21 on the 20x20 square, 65 on 64x64).  A symmetric positive
definite B gets LAPACK's band Cholesky ``dpbtrf`` of its lower triangle in
a (k+1, n) array, solved by ``dpbtrs``; an indefinite B, the Newton
Jacobian, gets the pivoting band LU ``dgbtrf`` in a (3k+1, n) array, about
four times the Cholesky's flops, and a Newton step is one ``dgbtrs`` solve.
A factor is held only as the function b -> x that solves with it (type
``Solve``), for an (n,) vector or an (n, k) block b.

The stiffness matrix A of the natural boundary condition annihilates
constants, so the Poisson matrix B = scale*A (d omitted) is singular and
its solves live on the weighted-mean-zero subspace: they return the field
part of the bordered system

    K = [[scale*A, m], [m', 0]],

whose solution of  scale*A x + m*lam = b,  m'x = 0  is the
weighted-mean-zero solution of scale*A x = b with the range-incompatible
part of b (along the mass vector) absorbed by the multiplier lam.  Since
1'A = 0 the multiplier is lam = sum(b)/sum(m) in closed form.  The Poisson
matrix is grounded at node 0 by a penalty on the diagonal,
A + c*e0*e0' with c = A[0, 0], which is positive definite on a connected
mesh and is band-Cholesky factored once per operator.  For the compatible
r = b - lam*m its solution has x[0] = 0 and A x = r (sum the equations:
c*x[0] = 1'r = 0), and removing the weighted mean of x gives the bordered
solution (Bochev & Lehoucq, SIAM Review 47(1), 2005).  That solve,
``BorderedSystem.poisson``, serves the Poisson problems and mu1;
``solve_projected`` is the one place that picks it (d omitted) or the band
LU solve (d given).

One shift-invert Lanczos routine (ARPACK mode 3; Lehoucq, Sorensen & Yang,
ARPACK Users' Guide, SIAM 1998) returns the k eigenpairs nearest a shift,
and each caller hands it its inverse, its k and its start vector: mu1
passes the Poisson solve times a power of two near 1/max(m) at shift 0
with k = 2 and a seeded random start,
and the stability indicator the solve with the shifted pencil below the
spectrum with k = 1 and a start near the eigenvector.  It runs on the
symmetric standard form M^{1/2} K^{-1} M^{1/2} of the pencil, M = diag(m),
so ARPACK makes no products with M, with a basis of 2k + 4 vectors.
Those shifted pencils are positive definite, so they get the band
Cholesky, and a failed Cholesky says that the shift was not below the
spectrum.  Only that shift-invert operator needs the mean border
[[B, m], [m', 0]]: it is closed by the Schur complement s = m'B^{-1}m,
x = y - B^{-1}m (m'y)/s with y = B^{-1}b, which sends constants to zero
and so restricts the spectrum to mean-zero fields without any
projection; that K is singular exactly when s = 0.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dgbtrf, dgbtrs, dpbtrf, dpbtrs
from scipy.sparse.csgraph import reverse_cuthill_mckee
from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

from .errors import NoConvergenceError

_RNG_SEED = 20260810  # deterministic Lanczos start vector
MU1_TOL = 1e-10       # Lanczos tolerance of mu1, and of its degeneracy test
INDICATOR_TOL = 1e-9  # Lanczos tolerance of the restricted smallest eigenvalue
_EPS = np.finfo(float).eps
Solve = Callable[[np.ndarray], np.ndarray]  # a factor, as the solve b -> x with it


def weighted_mean(u: np.ndarray, m: np.ndarray) -> float:
    """Mass-weighted average sum(m*u)/sum(m)."""
    return float(np.dot(m, u) / m.sum())


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


def _finite(x: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(x)):
        raise NoConvergenceError("linear solve produced non-finite values")
    return x


@dataclass(frozen=True)
class _Layout:
    """Flat positions of A's entries (values ``a_data``) and of the
    diagonal (indexed by old node) in a Fortran (rows, n) band array."""

    rows: int
    a_pos: np.ndarray
    a_data: np.ndarray
    diag_pos: np.ndarray

    def fill(self, scale: float, d: np.ndarray | float) -> np.ndarray:
        """The band array of B = scale*A - diag(d).

        Raises NoConvergenceError when a diagonal entry is not finite.  For
        A positive semidefinite, |A_ij| <= max(A_ii, A_jj), so a finite
        diagonal bounds every band entry.
        """
        n = self.diag_pos.shape[0]
        flat = np.zeros(self.rows * n)
        flat[self.a_pos] = scale * self.a_data
        flat[self.diag_pos] -= d
        if not np.isfinite(flat[self.diag_pos]).all():
            raise NoConvergenceError("scale*A - diag(d) overflows: band entries are not finite")
        return flat.reshape(n, -1).T  # column-major (rows, n), factored in place


@dataclass(frozen=True)
class _Band:
    """Reverse Cuthill-McKee band order of A: ``order[i]`` is the old index
    at band position i and ``k`` the half-bandwidth.  ``lu`` lays out all
    2k+1 diagonals for ``dgbtrf`` in (3k+1, n), below k rows of pivoting
    fill; ``lower`` lays out the diagonal and the k below it for
    ``dpbtrf`` in (k+1, n)."""

    order: np.ndarray
    k: int
    lu: _Layout
    lower: _Layout


def _band(a_mat: sp.spmatrix) -> _Band:
    a_coo = sp.coo_matrix(a_mat)
    a_coo.sum_duplicates()
    order = reverse_cuthill_mckee(sp.csr_matrix(a_coo), symmetric_mode=True)
    new = np.empty_like(order)
    new[order] = np.arange(order.shape[0])
    new = new.astype(np.int64)
    row, col = new[a_coo.row], new[a_coo.col]
    k = int(np.abs(row - col).max(initial=0))

    def layout(rows: int, top: int, keep) -> _Layout:
        # entry (i, j) sits in column j at band row top + i - j
        r, c = row[keep], col[keep]
        return _Layout(rows, top + r - c + rows * c, a_coo.data[keep], top + rows * new)

    return _Band(order=order, k=k, lu=layout(3 * k + 1, 2 * k, slice(None)),
                 lower=layout(k + 1, 0, row >= col))


def _band_solve(order: np.ndarray, lapack_solve: Solve) -> Solve:
    """The solve b -> x with a factor held in band order ``order``: it
    permutes an (n,) or (n, k) right-hand side into that order, makes one
    LAPACK solve call ``lapack_solve(rhs)`` and permutes back."""

    def solve(b: np.ndarray) -> np.ndarray:
        b = np.asarray(b, dtype=float)
        y = lapack_solve(b[order].reshape(b.shape[0], -1))
        x = np.empty_like(y)
        x[order] = y
        return _finite(x.reshape(b.shape))

    return solve


class BorderedSystem:
    """The matrices B = scale*A - diag(d) of one operator, with the mass
    vector m that borders the singular Poisson case.

    Construction lays out A's band in reverse Cuthill-McKee order and
    grounds the Poisson matrix at node 0: it band-Cholesky factors
    A + A[0, 0]*e0*e0', positive definite on a connected mesh, once, for
    ``poisson``, the solve of the bordered [[A, m], [m', 0]] with the
    multiplier sum(b)/sum(m) in closed form.  Every B with a given
    diagonal d fills a band array in the same order: ``factor`` returns
    the solve with LAPACK's band LU ``dgbtrf`` of an indefinite B,
    ``cholesky`` the solve with the band Cholesky ``dpbtrf`` of a positive
    definite one.  Each solve is a function b -> x.  ``unit``, the power
    of two 2**-e with e the binary exponent of max(m), scales the masses
    in ``poisson`` and the Poisson solve in ``smallest_nonzero_eigen`` to
    order one at any mesh size.
    """

    def __init__(self, a_mat: sp.spmatrix, m: np.ndarray):
        self.a_mat = a_mat
        self.m = np.asarray(m, dtype=float)
        self.n = self.m.shape[0]
        self.unit = 2.0 ** -int(np.frexp(self.m.max())[1])  # a power of two near 1/max(m)
        self._band = _band(a_mat)
        self._held = None  # (scale, d, solve) of the last band LU
        self.factorizations = 0  # band LUs made so far
        ground = np.zeros(self.n)
        ground[0] = -a_mat.diagonal()[0]  # B = A + A[0, 0]*e0*e0'
        try:
            self._grounded = self.cholesky(1.0, ground)
        except NoConvergenceError as exc:
            raise NoConvergenceError("grounded Poisson matrix is singular: "
                                     "zero pivot in band Cholesky") from exc

    def poisson(self, b: np.ndarray) -> np.ndarray:
        """The grounded Poisson solve of an (n,) or (n, k) right-hand side
        b: it sets the multiplier lam = sum(b)/sum(m) (exact, since 1'A = 0),
        solves A x = b - lam*m with the Cholesky factor of
        A + A[0, 0]*e0*e0' and removes the weighted mean of x, which gives
        the field part of K^{-1} [b; 0] for K = [[A, m], [m', 0]].

        Both mass-weighted steps use the masses times ``unit``, of order one
        on a mesh of any size, so their sums and dot products overflow only
        when the result does.  A power of two scales exactly: lam*m and the
        mean are bitwise those of the unscaled masses wherever those are
        finite.
        """
        b = np.asarray(b, dtype=float)
        m = self.unit * self.m
        with np.errstate(over="ignore", invalid="ignore"):  # _finite reports overflow
            x = self._grounded(b - np.multiply.outer(m, b.sum(axis=0) / m.sum()))
            return _finite(x - np.dot(m, x) / m.sum())

    def factor(self, scale: float, d: np.ndarray | float) -> Solve:
        """The solve with the band LU of B = scale*A - diag(d), for any d,
        even an all-zero one: one ``dgbtrs`` call per right-hand side block.

        The last LU is held, keyed on (scale, d) by value, and a call with
        the same key returns its solve without factoring again.  Any other
        band factorization drops it first, so at most one LU is alive.

        Raises NoConvergenceError when it finds B numerically singular: a
        zero pivot, or min|U_ii| <= n*eps*max|U_ii|.
        """
        if self._held is not None and self._held[0] == scale \
                and np.array_equal(self._held[1], d):
            return self._held[2]
        self._held = None
        k = self._band.k
        band = self._band.lu.fill(scale, d)
        self.factorizations += 1
        lu, piv, info = dgbtrf(band, k, k, overwrite_ab=1)
        pivots = np.abs(lu[2 * k])
        if info > 0 or not pivots.min() > self.n * _EPS * pivots.max():
            raise NoConvergenceError("matrix is singular: zero pivot in band LU")
        solve = _band_solve(self._band.order,
                            lambda rhs: dgbtrs(lu, k, k, rhs, piv, overwrite_b=1)[0])
        self._held = (scale, np.array(d, dtype=float), solve)
        return solve

    def cholesky(self, scale: float, d: np.ndarray | float) -> Solve:
        """The solve with the band Cholesky factor L L' of
        B = scale*A - diag(d), one ``dpbtrs`` call per right-hand side block.
        B must be positive definite, as the stability eigensolver's shifted
        pencils are when their shift lies below the pencil spectrum.

        Raises NoConvergenceError when ``dpbtrf`` finds B not positive
        definite.
        """
        self._held = None
        chol, info = dpbtrf(self._band.lower.fill(scale, d), lower=1, overwrite_ab=1)
        if info > 0:
            raise NoConvergenceError("shifted pencil is not positive definite: "
                                     "lower_bound is not below the spectrum")
        return _band_solve(self._band.order,
                           lambda rhs: dpbtrs(chol, rhs, lower=1, overwrite_b=1)[0])


def bordered(op) -> BorderedSystem:
    """Memoized bordered system of a DiscreteOperator's stiffness and mass."""
    if "bordered" not in op._cache:
        op._cache["bordered"] = BorderedSystem(op.stiffness, op.lumped_mass)
    return op._cache["bordered"]


def solve_projected(system: BorderedSystem, b: np.ndarray, scale: float = 1.0,
                    d: np.ndarray | float | None = None) -> np.ndarray:
    """Solve (scale*A - diag(d)) x = b; the one place that picks a solve.

    With d omitted this is the Poisson problem scale*A x = b on the
    weighted-mean-zero subspace: the grounded Poisson solve
    ``system.poisson``, from the factor made once per operator, divided
    by scale.  Its multiplier removes exactly the range-incompatible part
    of b (its plain sum, along the mass vector).  With d given it is the
    plain solve x = B^{-1} b of B = scale*A - diag(d) with its band LU
    (``system.factor(scale, d)(b)``), which is reused while (scale, d)
    repeats, and it raises NoConvergenceError when B is numerically
    singular.  ``b`` is an (n,) vector or an (n, k) block of right-hand
    sides sharing the factorization.
    """
    if d is None:
        return system.poisson(b) / scale
    return system.factor(scale, d)(b)


@dataclass(frozen=True)
class EigenPair:
    """First nonzero eigenvalue of the no-flux operator with its mode.

    ``phi1`` has weighted mean zero and weighted norm one.  ``degenerate``
    flags a second eigenvalue within 10*MU1_TOL*mu1 of mu1, a relative gap,
    so a scaled domain keeps its flag (disks carry an exactly
    degenerate first pair; on structured square meshes the diagonal split
    direction separates the pair by O(h**2), so the flag stays off there);
    ``mu2``/``phi2`` are the second eigenpair, kept because branch switching
    near a (near-)degenerate first mode needs the whole two-dimensional
    eigenspace.
    """

    mu1: float
    phi1: np.ndarray
    degenerate: bool
    mu2: float
    phi2: np.ndarray


def _mean_bordered(solve: Solve, m: np.ndarray) -> Solve:
    """The solve of K = [[B, m], [m', 0]] from a solve with B: the field
    part x = y - y_m (m'y)/s of K^{-1} [b; 0], with y = B^{-1} b,
    y_m = B^{-1} m and the Schur complement s = m'y_m.  Its range is the
    weighted-mean-zero subspace.

    Raises NoConvergenceError when K is singular, i.e. when
    |s| <= n*eps*|m|'|y_m|.
    """
    y_m = solve(m)
    s = float(np.dot(m, y_m))
    if not abs(s) > m.shape[0] * _EPS * float(np.dot(np.abs(m), np.abs(y_m))):
        raise NoConvergenceError("bordered matrix is singular: m'B^-1 m vanishes")

    def solve_k(b: np.ndarray) -> np.ndarray:
        y = solve(b)
        return _finite(y - np.multiply.outer(y_m, np.dot(m, y) / s))

    return solve_k


def _nearest_eigenpairs(system: BorderedSystem, solve: Solve, shift: float, k: int,
                        tol: float, start: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The k eigenpairs of a pencil (B, diag(m)) on the mean-zero subspace
    nearest to ``shift``, ascending, by Lanczos from ``start``.

    ``solve`` applies K^{-1} = (B - shift*diag(m))^{-1} restricted to the
    mean-zero subspace, which is its range.  ARPACK mode 3 runs on the
    symmetric standard form M^{1/2} K^{-1} M^{1/2}, M = diag(m), whose
    eigenvectors y give the pencil's as x = M^{-1/2} y, of weighted norm
    one; its basis holds ncv = 2k + 4 vectors.  The start's weighted mean
    is removed first, and a fixed start gives identical results.
    """
    n, m = system.n, system.m
    root = np.sqrt(m)
    op_inv = LinearOperator((n, n), matvec=lambda y: root * solve(root * y.reshape(n)),
                            dtype=float)
    try:
        # mode 3 reads its A argument only for the shape and dtype
        theta, vecs = eigsh(op_inv, k=k, sigma=shift, OPinv=op_inv, ncv=min(n, 2 * k + 4),
                            v0=root * (start - weighted_mean(start, m)), tol=tol)
    except ArpackError as exc:  # non-convergence included
        raise NoConvergenceError(f"shift-invert Lanczos failed: {exc}") from exc
    order = np.argsort(theta)
    return theta[order], vecs[:, order] / root[:, None]


def _seeded_start(n: int) -> np.ndarray:
    """The deterministic random start of a Lanczos run with no better guess."""
    return np.random.default_rng(_RNG_SEED).standard_normal(n)


def smallest_nonzero_eigen(system: BorderedSystem) -> EigenPair:
    """First nonzero eigenvalue mu1 of A x = mu * m x with A psd, A 1 = 0.

    Shift-invert Lanczos at shift 0 on the mean-zero subspace, to MU1_TOL,
    inverting with the Poisson solve times c = ``system.unit``, a power of
    two near 1/max(m); the second eigenvalue detects a (near-)degenerate
    first eigenvalue.  The Lanczos sees the eigenvalues c/mu, which are of
    order one on a mesh of any size (mu scales as 1/area, m as area), and
    returns mu/c, which c multiplies back exactly.  Unscaled, the eigenvalues
    1/mu of a small domain fall below ARPACK's convergence floor, which
    measures the residual against max(eps**(2/3), |Ritz value|) (``dsconv``),
    so mu1 would stop early, and on a domain near the smallest that ``Mesh``
    accepts (the 20x20 square of side 1e-152) ARPACK would fail outright.
    """
    c = system.unit
    theta, vecs = _nearest_eigenpairs(system, lambda b: c * system.poisson(b), 0.0, 2,
                                      MU1_TOL, _seeded_start(system.n))
    mu1, mu2 = c * float(theta[0]), c * float(theta[1])
    degenerate = abs(mu2 - mu1) <= 10.0 * MU1_TOL * mu1
    return EigenPair(mu1=mu1, phi1=vecs[:, 0].copy(), degenerate=degenerate,
                     mu2=mu2, phi2=vecs[:, 1].copy())


def restricted_smallest_eigen(system: BorderedSystem, lower_bound: float,
                              scale: float = 1.0,
                              d: np.ndarray | float = 0.0,
                              start: np.ndarray | None = None) -> tuple[float, np.ndarray]:
    """Smallest mean-zero-subspace eigenvalue of the symmetric pencil
    (scale*A - diag(d), diag(m)) and its eigenvector, to INDICATOR_TOL.

    Lanczos runs from ``start``, or from the seeded random vector when it
    is omitted; a start near the eigenvector saves shift-invert solves.

    ``lower_bound`` must bound the whole pencil spectrum from below, the
    constant direction included, not only the mean-zero part (for reaction
    Jacobians, minus the largest pointwise reaction slope does).  The shift
    is placed below it with a safety margin, so the shifted pencil is
    positive definite and the eigenvalue nearest the shift is the smallest
    one; the solve with its band Cholesky factor, closed by the mean
    border, is the shift-invert operator.  The Cholesky certifies the
    margin, and a ``lower_bound`` that is not below the spectrum raises
    NoConvergenceError.  So does a margin that the round-off of scale*A
    would swamp, margin*min(m) <= n*eps*scale*max(A_ii), where a failed
    or passed Cholesky says nothing about the bound.
    """
    m = system.m
    margin = max(1.0, 0.1 * abs(lower_bound))
    if not margin * m.min() > system.n * _EPS * scale * system.a_mat.diagonal().max():
        raise NoConvergenceError("shift margin is below the round-off of scale*A: "
                                 "the shifted pencil cannot be certified")
    shift = lower_bound - margin
    solve = _mean_bordered(system.cholesky(scale, d + shift * m), m)
    theta, vecs = _nearest_eigenpairs(system, solve, shift, 1, INDICATOR_TOL,
                                      _seeded_start(system.n) if start is None else start)
    return float(theta[0]), vecs[:, 0].copy()


def first_eigenpair(op) -> EigenPair:
    """Memoized first nonzero eigenpair of a DiscreteOperator."""
    if "eig" not in op._cache:
        op._cache["eig"] = smallest_nonzero_eigen(bordered(op))
    return op._cache["eig"]
