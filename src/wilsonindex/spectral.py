"""Exact inertia of Hermitian matrices and supporting spectral routines.

`inertia` is the one entry point; it picks the path by dimension:

* up to `_DENSE_LIMIT` (the oracle): one backward-stable LAPACK
  Hermitian eigensolve (`heevr`: Householder tridiagonalization, then
  `sterf`), whose eigenvalues give the sign counts and the gap;
* above it (`inertia_ldl`): one sparse LDL* factorization (SuperLU with a
  symmetric minimum-degree ordering and no off-diagonal pivoting),
  inertia read off the pivots (Sylvester's law of inertia) and the gap
  found by ARPACK's complex Arnoldi (what `eigsh` runs for complex input)
  in shift-invert mode on the same factor.  If the factor is rejected or
  the gap does not converge, the dense oracle's result is returned
  instead.

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
    "dense", "bunch-kaufman", "ldl", or "dense (ldl rejected: <reason>)"
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


def _tol(A, tol: float | None) -> float:
    """tol, which must be positive, or by default 1e-8 * max(||A||_inf, 1)."""
    if tol is None:
        norm_inf = float(abs(A).sum(axis=1).max()) if A.shape[0] else 1.0
        return 1e-8 * max(norm_inf, 1.0)
    if tol <= 0:
        raise ValueError("tol must be positive")
    return tol


def _dense_inertia(H, tol: float | None) -> Inertia:
    """Dense oracle: every eigenvalue from one Hermitian LAPACK eigensolve
    (heevr), classified as below -tol, at or above tol, or zero."""
    A = _as_dense(H)
    _check_hermitian(A)
    tol = _tol(A, tol)
    # overwrite only our own copy, never the caller's array
    w = sla.eigvalsh(A, overwrite_a=A is not H, check_finite=False)
    n_minus = int(np.sum(w < -tol))
    n_plus = int(np.sum(w >= tol))
    n_zero = len(w) - n_plus - n_minus
    gap = 0.0 if n_zero > 0 else float(np.min(np.abs(w)))
    return Inertia(n_plus, n_minus, n_zero, gap, tol, "dense")


def inertia(H, tol: float | None = None) -> Inertia:
    """Inertia and gap of a Hermitian matrix: the dense oracle up to
    dimension `_DENSE_LIMIT`, one sparse LDL* factor (`inertia_ldl`) above."""
    if np.shape(H)[0] > _DENSE_LIMIT:
        return inertia_ldl(H, tol)
    return _dense_inertia(H, tol)


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
    tol = _tol(A, tol)
    _, D, _ = sla.ldl(A, hermitian=True)
    eigs = _pivot_eigs(D)
    n_plus = int(np.sum(eigs > tol))
    n_minus = int(np.sum(eigs < -tol))
    n_zero = n - n_plus - n_minus
    return Inertia(n_plus, n_minus, n_zero, float("nan"), tol, "bunch-kaufman")


def _ldl(M: sp.csc_matrix, tol: float):
    """Pivot-free sparse LDL* of Hermitian M: (factor, real pivots, seeded
    probe vector), or RuntimeError naming why the factor is rejected.

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
    # fixed seed: the probe, and so the accept decision, is reproducible;
    # it is also the gap's start vector
    rng = np.random.default_rng(0)
    b = rng.standard_normal(M.shape[0]) + 1j * rng.standard_normal(M.shape[0])
    y = lu.solve(b)
    resid = float(np.linalg.norm(M @ y - b))
    if resid > tol * float(np.linalg.norm(y)):
        raise RuntimeError(f"probe residual {resid:.1e}")
    return lu, piv, b


def _shift_invert_gap(M: sp.csc_matrix, solve, v0: np.ndarray) -> float:
    """Smallest |eigenvalue| of Hermitian M by ARPACK in shift-invert mode
    at 0, where solve(b) = M^-1 b, from the start vector v0.  Raises
    RuntimeError (ArpackError is one) if the iteration does not converge."""
    # k=1: the lowest level is often degenerate, and k=2 converges a copy
    # that only rounding brings in, at several times the cost, or stalls;
    # one value of a +-lambda pair has the modulus.  tol=1e-8 is relative
    # to 1/|lambda| (ARPACK's stopping test), inside the promised 1e-6.
    # v0 is seeded, unlike scipy's default, so the gap is reproducible.
    # modest maxiter: the assembled operators have dense spectrum at the
    # gap edge, where ARPACK stalls; give up quickly
    op = spla.LinearOperator(M.shape, matvec=solve, dtype=M.dtype)
    vals, vecs = spla.eigsh(M, k=1, sigma=0.0, which="LM", OPinv=op,
                            tol=1e-8, v0=v0, maxiter=300)
    lam, x = float(vals[0]), vecs[:, 0]
    resid = float(np.linalg.norm(M @ x - lam * x))
    if resid > 1e-6 * max(_absmax(M), 1.0):
        raise RuntimeError(f"unconverged gap (residual {resid:.1e})")
    return abs(lam)


def inertia_ldl(H, tol: float | None = None) -> Inertia:
    """Inertia and gap of a sparse Hermitian matrix from one sparse LDL*
    factorization, without a dense copy.

    The counts are the signs of the pivots (see `_ldl`) and the gap comes
    from ARPACK's complex Arnoldi in shift-invert mode on the same factor
    (below dimension 64, from the dense eigenvalues).  Every accepted
    pivot exceeds tol in modulus, so n_zero is 0.  If the factor is
    rejected or the gap does not converge, the result is the dense
    oracle's and method records the reason.
    """
    M = sp.csc_matrix(H, dtype=complex)
    _check_hermitian(M)
    tol = _tol(M, tol)
    try:
        lu, piv, v0 = _ldl(M, tol)
        gap = (_dense_inertia(M, tol).gap if M.shape[0] < 64
               else _shift_invert_gap(M, lu.solve, v0))
    except RuntimeError as exc:
        # a rejected factor or an unconverged gap; MemoryError propagates
        return replace(_dense_inertia(M, tol),
                       method=f"dense (ldl rejected: {exc})")
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
