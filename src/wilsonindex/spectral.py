"""Exact inertia of Hermitian matrices and supporting spectral routines.

`inertia` is the one entry point; it picks the path by dimension:

* up to `_DENSE_LIMIT` (the oracle): Householder tridiagonalization
  followed by Sturm-sequence counting, which yields exact eigenvalue-sign
  counts and the gap by bisection without computing any eigenvalue;
* above it (`inertia_ldl`): one sparse LDL* factorization (SuperLU with a
  symmetric minimum-degree ordering and no off-diagonal pivoting),
  inertia read off the pivots (Sylvester's law of inertia) and the gap
  found by shift-invert Arnoldi on the same factor.  If the factor is
  rejected or the gap does not converge, the dense oracle's result is
  returned instead.

`inertia_bunch_kaufman` (dense LDL* with diagonal pivoting) is a
counts-only second reference that no production path calls.  The paths
must agree wherever they run.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

_TINY = np.finfo(float).tiny
# largest dimension `inertia` handles on the dense path
_DENSE_LIMIT = 4096
# copies of an n x n complex matrix the dense paths may hold at once
_DENSE_COPIES = 3


class ResourceError(MemoryError):
    """A dense copy of the operator would not fit in available memory."""


@dataclass(frozen=True)
class Inertia:
    """Counts of positive / negative / zero eigenvalues.

    gap is the smallest |eigenvalue| (0 if singular up to tol, nan from
    the counts-only `inertia_bunch_kaufman`); tol is the
    zero-classification threshold that was used; method names the path:
    "sturm", "bunch-kaufman", "ldl", or "sturm (ldl rejected: <reason>)"
    when the sparse factor or its gap was not accepted.
    """

    n_plus: int
    n_minus: int
    n_zero: int
    gap: float
    tol: float
    method: str = ""

    @property
    def dim(self) -> int:
        return self.n_plus + self.n_minus + self.n_zero


def half_signature(i: Inertia):
    """I = (n_plus - n_minus)/2; requires an invertible matrix."""
    if i.n_zero != 0:
        raise ValueError("invariant undefined for singular A")
    v = Fraction(i.n_plus - i.n_minus, 2)
    return int(v) if v.denominator == 1 else v


def _available_memory() -> int | None:
    """Bytes the kernel reports as MemAvailable, None where it is unknown."""
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    return None


def _as_dense(H) -> np.ndarray:
    n = np.shape(H)[0]
    need = _DENSE_COPIES * n * n * 16
    avail = _available_memory()
    if avail is not None and need > avail:
        raise ResourceError(
            f"dense dim-{n} operator needs {need / 2 ** 30:.2f} GiB "
            f"({_DENSE_COPIES} copies), {avail / 2 ** 30:.2f} GiB available")
    return np.asarray(H.toarray() if sp.issparse(H) else H, dtype=complex)


def _absmax(A) -> float:
    if sp.issparse(A):
        return float(abs(A).max()) if A.nnz else 0.0
    return float(np.max(np.abs(A))) if A.size else 0.0


def _check_hermitian(A, htol: float = 1e-10) -> None:
    """Raise unless A = A* to htol * max(1, max |A_ij|); sparse A stays sparse."""
    if _absmax(A - A.conj().T) > htol * max(1.0, _absmax(A)):
        raise ValueError("input matrix is not Hermitian")


def _default_tol(A) -> float:
    norm_inf = float(abs(A).sum(axis=1).max()) if A.shape[0] else 1.0
    return 1e-8 * max(norm_inf, 1.0)


def _tridiagonalize(A: np.ndarray):
    """Householder reduction to real symmetric tridiagonal (d, e)."""
    n = A.shape[0]
    if n == 1:
        return np.array([A[0, 0].real]), np.zeros(0)
    hetrd, hetrd_lwork = sla.get_lapack_funcs(("hetrd", "hetrd_lwork"), (A,))
    # the optimal workspace lets LAPACK run its blocked reduction
    lwork, _ = hetrd_lwork(n, lower=0)
    _, d, e, _, info = hetrd(A, lower=0, lwork=int(lwork.real))
    if info != 0:
        raise RuntimeError(f"tridiagonalization failed (info={info})")
    return d, e


def _sturm_count(d: np.ndarray, e: np.ndarray, x: float) -> int:
    """Number of eigenvalues of tridiag(d, e) strictly below x."""
    count = 0
    q = d[0] - x
    if q < 0:
        count += 1
    for i in range(1, len(d)):
        denom = q if q != 0.0 else -_TINY
        q = d[i] - x - e[i - 1] ** 2 / denom
        if q < 0:
            count += 1
    return count


def _sturm_gap(d: np.ndarray, e: np.ndarray, tol: float) -> float:
    """Smallest |eigenvalue| by bisection on Sturm counts around 0."""
    n = len(d)
    hi = float(np.max(np.abs(d)) + 2 * (np.max(np.abs(e)) if len(e) else 0.0)) + 1.0

    def inside(t):
        return _sturm_count(d, e, t) - _sturm_count(d, e, -t)

    if inside(tol) > 0:
        # something within (-tol, tol): refine below tol anyway
        hi = tol
    lo = 0.0
    if inside(hi) == 0:
        # count at x is "strictly below x": an eigenvalue exactly at +hi
        # can be missed, widen once
        hi *= 2
        if inside(hi) == 0:
            return hi
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if inside(mid) > 0:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-9 * max(hi, 1.0) + 1e-300:
            break
    return hi


def _sturm_inertia(H, tol: float | None = None) -> Inertia:
    """Dense oracle: tridiagonalize, then Sturm counts at +-tol."""
    A = _as_dense(H)
    _check_hermitian(A)
    n = A.shape[0]
    if tol is None:
        tol = _default_tol(A)
    if tol <= 0:
        raise ValueError("tol must be positive")
    d, e = _tridiagonalize(A)
    n_below_minus = _sturm_count(d, e, -tol)
    n_below_plus = _sturm_count(d, e, tol)
    n_minus = n_below_minus
    n_zero = n_below_plus - n_below_minus
    n_plus = n - n_below_plus
    gap = 0.0 if n_zero > 0 else _sturm_gap(d, e, tol)
    return Inertia(n_plus, n_minus, n_zero, gap, tol, "sturm")


def inertia(H, tol: float | None = None) -> Inertia:
    """Inertia and gap of a Hermitian matrix: the dense Sturm oracle up to
    dimension `_DENSE_LIMIT`, one sparse LDL* factor (`inertia_ldl`) above."""
    if np.shape(H)[0] > _DENSE_LIMIT:
        return inertia_ldl(H, tol)
    return _sturm_inertia(H, tol)


def _pivot_eigs(D: np.ndarray):
    """Eigenvalues of the 1x1/2x2 pivot block diagonal from Bunch-Kaufman."""
    n = D.shape[0]
    out = []
    i = 0
    while i < n:
        if i + 1 < n and D[i + 1, i] != 0:
            a = D[i, i].real
            b = D[i + 1, i + 1].real
            c = abs(D[i + 1, i])
            mid = 0.5 * (a + b)
            rad = np.hypot(0.5 * (a - b), c)
            out.extend([mid - rad, mid + rad])
            i += 2
        else:
            out.append(D[i, i].real)
            i += 1
    return np.array(out)


def inertia_bunch_kaufman(H, tol: float | None = None) -> Inertia:
    """Counts-only reference: inertia via dense Bunch-Kaufman LDL* with
    diagonal pivoting, by Sylvester's law inertia(H) = inertia(D).

    The gap is not computed (nan).  No production path calls this; it
    cross-checks the other two paths.
    """
    A = _as_dense(H)
    _check_hermitian(A)
    n = A.shape[0]
    if tol is None:
        tol = _default_tol(A)
    _, D, _ = sla.ldl(A, hermitian=True)
    eigs = _pivot_eigs(D)
    n_plus = int(np.sum(eigs > tol))
    n_minus = int(np.sum(eigs < -tol))
    n_zero = n - n_plus - n_minus
    return Inertia(n_plus, n_minus, n_zero, float("nan"), tol, "bunch-kaufman")


def _ldl(M: sp.csc_matrix, tol: float):
    """Pivot-free sparse LDL* of Hermitian M: (factor, real pivots), or
    RuntimeError naming why the factor is rejected.

    SuperLU factors P M P^T = L U under a symmetric minimum-degree
    ordering; without off-diagonal pivoting U = D L*, so by Sylvester's
    law the pivots diag U carry the signs of the eigenvalues of M.  That
    holds only if the row and column permutations agree and the pivots are
    real; small pivots and a bad solve residual mean the factor is too
    unstable to trust.
    """
    try:
        lu = spla.splu(M, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0,
                       options={"SymmetricMode": True})
    except RuntimeError as exc:  # exactly singular pivot
        raise RuntimeError(f"factorization failed: {exc}") from exc
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise RuntimeError("row pivoting made the permutation non-symmetric")
    piv = lu.U.diagonal()
    scale = max(1.0, _absmax(M))
    im = float(np.max(np.abs(piv.imag)))
    if im > 1e-8 * scale:
        raise RuntimeError(f"complex pivot (|Im| = {im:.1e})")
    piv = piv.real
    small = float(np.min(np.abs(piv)))
    if small <= tol:
        raise RuntimeError(f"pivot {small:.1e} within tol {tol:.1e}")
    # fixed seed: the probe, and so the accept decision, is reproducible
    rng = np.random.default_rng(0)
    b = rng.standard_normal(M.shape[0]) + 1j * rng.standard_normal(M.shape[0])
    y = lu.solve(b)
    resid = float(np.linalg.norm(M @ y - b))
    if resid > tol * float(np.linalg.norm(y)):
        raise RuntimeError(f"probe residual {resid:.1e}")
    return lu, piv


def _shift_invert_gap(M: sp.csc_matrix, solve) -> float:
    """Smallest |eigenvalue| of Hermitian M by shift-invert Arnoldi at 0,
    where solve(b) = M^-1 b.  Raises RuntimeError (ArpackError is one) if
    the iteration does not converge."""
    # k=2: the spectrum near 0 is typically a symmetric +-lambda pair,
    # which shift-invert ARPACK cannot separate with k=1
    # modest maxiter: the assembled operators have dense spectrum at the
    # gap edge, where ARPACK stalls; give up quickly
    op = spla.LinearOperator(M.shape, matvec=solve, dtype=M.dtype)
    vals, vecs = spla.eigsh(M, k=2, sigma=0.0, which="LM", OPinv=op,
                            maxiter=300)
    i = int(np.argmin(np.abs(vals)))
    lam = float(vals[i])
    resid = float(np.linalg.norm(M @ vecs[:, i] - lam * vecs[:, i]))
    if resid > 1e-6 * max(_absmax(M), 1.0):
        raise RuntimeError(f"unconverged gap (residual {resid:.1e})")
    return abs(lam)


def inertia_ldl(H, tol: float | None = None) -> Inertia:
    """Inertia and gap of a sparse Hermitian matrix from one sparse LDL*
    factorization, without a dense copy.

    The counts are the signs of the pivots (see `_ldl`) and the gap comes
    from shift-invert Arnoldi on the same factor (below dimension 64, from
    the dense tridiagonal).  Every accepted pivot exceeds tol in modulus,
    so n_zero is 0.  If the factor is rejected or the gap does not
    converge, the result is the dense Sturm oracle's and method records
    the reason.
    """
    M = sp.csc_matrix(H, dtype=complex)
    _check_hermitian(M)
    if tol is None:
        tol = _default_tol(M)
    if tol <= 0:
        raise ValueError("tol must be positive")
    try:
        lu, piv = _ldl(M, tol)
        gap = (_sturm_inertia(M, tol).gap if M.shape[0] < 64
               else _shift_invert_gap(M, lu.solve))
    except RuntimeError as exc:
        # a rejected factor or an unconverged gap; MemoryError propagates
        return replace(_sturm_inertia(M, tol),
                       method=f"sturm (ldl rejected: {exc})")
    n_plus = int(np.sum(piv > 0))
    return Inertia(n_plus, len(piv) - n_plus, 0, gap, tol, "ldl")


def min_abs_eigenvalue(H) -> float:
    """Smallest |eigenvalue| of a Hermitian matrix, relative accuracy 1e-6:
    the gap of `inertia(H)` (0 if H is singular up to the default tol)."""
    return inertia(H).gap


def fourier_diagonalize(f, cl, mu: float) -> np.ndarray:
    """Eigenvalue multiset of the trivial-field operator via the symbol.

    For the translation-invariant (trivial) gauge field the assembled
    operator block-diagonalizes over discrete momenta k in (Z/N)^d / N;
    returns the sorted union of symbol eigenvalues, each with
    multiplicity rank.
    """
    from .wilson import symbol

    if not np.all(f.links == np.eye(f.rank)):
        raise ValueError("oracle requires translation invariance")
    N, d = f.geometry.N, f.geometry.d
    k = np.indices((N,) * d).reshape(d, -1).T / N
    vals = np.linalg.eigvalsh(symbol(cl, k, mu))
    return np.sort(np.tile(vals, f.rank).ravel())
