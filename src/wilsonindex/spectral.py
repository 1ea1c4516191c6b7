"""Exact inertia of Hermitian matrices and supporting spectral routines.

Two independent algorithms are provided:

* dense path (reference): Householder tridiagonalization followed by
  Sturm-sequence counting, which yields exact eigenvalue-sign counts
  without computing any eigenvalue;
* factorization path (performance): Bunch-Kaufman symmetric-indefinite
  triangular factorization with diagonal pivoting, inertia read off the
  1x1/2x2 pivot blocks (Sylvester's law of inertia).

The two must agree wherever both run.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class Inertia:
    """Counts of positive / negative / zero eigenvalues.

    gap is the smallest |eigenvalue| (0 if singular up to tol); tol is the
    zero-classification threshold that was used.
    """

    n_plus: int
    n_minus: int
    n_zero: int
    gap: float
    tol: float

    @property
    def dim(self) -> int:
        return self.n_plus + self.n_minus + self.n_zero


def half_signature(i: Inertia):
    """I = (n_plus - n_minus)/2; requires an invertible matrix."""
    if i.n_zero != 0:
        raise ValueError("invariant undefined for singular A")
    v = Fraction(i.n_plus - i.n_minus, 2)
    return int(v) if v.denominator == 1 else v


def _as_dense(H) -> np.ndarray:
    if sp.issparse(H):
        return H.toarray()
    return np.asarray(H, dtype=complex)


def _check_hermitian(H, htol: float = 1e-10) -> np.ndarray:
    A = _as_dense(H)
    scale = max(1.0, float(np.max(np.abs(A))) if A.size else 0.0)
    if np.max(np.abs(A - A.conj().T)) > htol * scale:
        raise ValueError("input matrix is not Hermitian")
    return A


def _default_tol(A: np.ndarray) -> float:
    norm_inf = float(np.max(np.sum(np.abs(A), axis=1))) if A.size else 1.0
    return 1e-8 * max(norm_inf, 1.0)


def _tridiagonalize(A: np.ndarray):
    """Householder reduction to real symmetric tridiagonal (d, e)."""
    n = A.shape[0]
    if n == 1:
        return np.array([A[0, 0].real]), np.zeros(0)
    (hetrd,) = sla.get_lapack_funcs(("hetrd",), (A,))
    _, d, e, _, info = hetrd(A, lower=0)
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


def inertia(H, tol: float | None = None) -> Inertia:
    """Reference dense inertia: tridiagonalize, then Sturm counts at +-tol."""
    A = _check_hermitian(H)
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
    return Inertia(n_plus, n_minus, n_zero, gap, tol)


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


def inertia_bunch_kaufman(H, tol: float | None = None,
                          compute_gap: bool = True) -> Inertia:
    """Inertia via Bunch-Kaufman LDL* with diagonal pivoting.

    Sylvester's law: inertia(H) = inertia(D).  The gap, when requested,
    comes from shift-invert iteration on the sparse matrix (falls back to
    the dense Sturm bisection on failure).
    """
    A = _check_hermitian(H)
    n = A.shape[0]
    if tol is None:
        tol = _default_tol(A)
    _, D, _ = sla.ldl(A, hermitian=True)
    eigs = _pivot_eigs(D)
    n_plus = int(np.sum(eigs > tol))
    n_minus = int(np.sum(eigs < -tol))
    n_zero = n - n_plus - n_minus
    gap = 0.0
    if n_zero == 0 and compute_gap:
        gap = min_abs_eigenvalue(H, method="iterative")
    return Inertia(n_plus, n_minus, n_zero, gap, tol)


def min_abs_eigenvalue(H, method: str = "bisection") -> float:
    """Smallest |eigenvalue| of a Hermitian matrix, relative accuracy 1e-6."""
    if method == "bisection":
        A = _check_hermitian(H)
        d, e = _tridiagonalize(A)
        tol = _default_tol(A)
        g = _sturm_gap(d, e, tol)
        # _sturm_gap returns 'hi' of the bracket; below tol means zero mode
        return 0.0 if g <= tol else g
    if method == "iterative":
        M = H if sp.issparse(H) else sp.csr_matrix(_as_dense(H))
        if M.shape[0] < 64:
            return min_abs_eigenvalue(_as_dense(M), method="bisection")
        try:
            # k=2: the spectrum near 0 is typically a symmetric +-lambda
            # pair, which shift-invert ARPACK cannot separate with k=1
            # modest maxiter: the assembled operators have dense spectrum
            # at the gap edge, where ARPACK stalls; fall back quickly
            vals, vecs = spla.eigsh(M.tocsc(), k=2, sigma=0.0, which="LM",
                                    maxiter=300)
            i = int(np.argmin(np.abs(vals)))
            lam = float(vals[i])
            resid = float(np.linalg.norm(M @ vecs[:, i] - lam * vecs[:, i]))
            scale = float(abs(M).max())
            if resid > 1e-6 * max(scale, 1.0):
                raise RuntimeError("unconverged")
            return abs(lam)
        except (RuntimeError, spla.ArpackError):
            # singular LU, ArpackNoConvergence or the residual check above:
            # fall back to bisection; anything else (e.g. MemoryError) is raised
            return min_abs_eigenvalue(_as_dense(H), method="bisection")
    raise ValueError(f"unknown method {method!r}")


def fourier_diagonalize(f, cl, mu: float) -> np.ndarray:
    """Eigenvalue multiset of the trivial-field operator via the symbol.

    For the translation-invariant (trivial) gauge field the assembled
    operator block-diagonalizes over discrete momenta k in (Z/N)^d / N;
    returns the sorted union of symbol eigenvalues, each with
    multiplicity rank.
    """
    from .wilson import symbol

    eye = np.eye(f.rank)
    if not all(
        np.array_equal(f.links[s, j], eye)
        for s in range(f.geometry.n_sites)
        for j in range(f.geometry.d)
    ):
        raise ValueError("oracle requires translation invariance")
    N, d = f.geometry.N, f.geometry.d
    vals = []
    for coords in f.geometry.all_sites():
        k = np.array(coords) / N
        vals.append(np.tile(np.linalg.eigvalsh(symbol(cl, k, mu)), f.rank))
    return np.sort(np.concatenate(vals))
