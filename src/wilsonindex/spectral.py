"""Exact inertia of Hermitian matrices and supporting spectral routines.

`inertia` is the one entry point; it picks the path by dimension:

* up to `_DENSE_LIMIT` (the oracle): one backward-stable LAPACK
  Hermitian eigensolve (`heevr`: Householder tridiagonalization, then
  `sterf`), whose eigenvalues give the sign counts and the gap;
* above it (`inertia_ldl`): an exact block elimination, then one dense
  Bunch-Kaufman LDL* of what is left.  An independent set I of rows with
  large real diagonal is eliminated first; those rows meet each other
  only on the diagonal h_I, so by Haynsworth's inertia additivity
  inertia(H) = inertia(diag(h_I)) + inertia(S) for the Schur complement
  S = H_CC - H_CI diag(h_I)^-1 H_IC of the other rows C.  S is densified
  once and factored by LAPACK `hetrf` (Bunch and Kaufman's diagonal
  pivoting), whose 1x1 and 2x2 pivot blocks carry the signs of S
  (Sylvester's law of inertia).  The factor is converted in place, as
  LAPACK's syconv does, into P S P^T = L D L* with unit lower triangular
  L, and the gap is found by ARPACK's complex Arnoldi (what `eigsh` runs
  for complex input) in shift-invert mode, each solve being P, two BLAS
  trsv calls on L and the 1x1/2x2 solves of D (no hetrs).  If the
  factor is rejected or the gap does not converge, the dense oracle's
  result is returned instead.

  Only rows whose diagonal reaches _THETA * ||H||_inf are eliminated.
  For the assembled operator, whose on-site entries are +-(mu - d), that
  is half the rows unless |mu - d| < _THETA * ||H||_inf; then I is empty
  and the whole operator is densified and factored.  The dense S holds
  16 |C|^2 bytes (8 |C|^2 if real), and its factor costs O(|C|^3) and
  each solve O(|C|^2), however sparse H is: this, not the sparsity of H,
  bounds the size.

`inertia_bunch_kaufman` is the counts alone: the factor step of
`inertia_ldl` (elimination, hetrf, the pivot and probe checks) without the
gap step, so no eigensolve and no Krylov iteration; it serves invariants
that need only the signs, such as `ktheory.acm_invariant`.  It is not
independent of `inertia_ldl`; the dense eigensolve is the one independent
oracle, and the paths must agree wherever they run.

Every path takes a complex matrix whose imaginary parts are all 0 (the
operator and Bott matrix of `ktheory.clock_shift`; lattice operators are
complex) in real arithmetic, `syevr`/`sytrf`/real ARPACK Lanczos, at a
quarter of the flops and half the bytes (`_real_if_real`).
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
# copies of an n x n matrix the dense paths may hold at once
_DENSE_COPIES = 3
# a row is eliminated before the dense factor only if its real diagonal
# has modulus at least _THETA * ||H||_inf; then ||S||_inf is at most
# (1 + 1/_THETA) ||H||_inf, a growth the probe residual check still sees
_THETA = 0.01


class ResourceError(MemoryError):
    """A dense copy of the operator would not fit in available memory."""


@dataclass(frozen=True)
class Inertia:
    """Counts of positive / negative / zero eigenvalues.

    gap is the smallest |eigenvalue| (0 if singular up to tol, nan from
    the counts-only `inertia_bunch_kaufman`); tol is the
    zero-classification threshold that was used; method names the path:
    "dense" (the eigensolve oracle), "ldl" (diagonal elimination plus
    Bunch-Kaufman on the Schur complement, `inertia_ldl`), "bunch-kaufman"
    (the same factor, counts only), or "dense (ldl rejected: <reason>)"
    when that factor or its gap was not accepted.
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


def _reserve(n: int, copies: int, what: str, dtype=complex) -> None:
    """Raise ResourceError unless `copies` dense n x n matrices of dtype
    (by its itemsize: 16 bytes complex, 8 real) fit in available memory."""
    need = copies * n * n * np.dtype(dtype).itemsize
    avail = _available_memory()
    if avail is not None and need > avail:
        raise ResourceError(
            f"dense dim-{n} {what} needs {need / 2 ** 30:.2f} GiB "
            f"({copies} x {n}^2 {np.dtype(dtype)}), "
            f"{avail / 2 ** 30:.2f} GiB available")


def _real_if_real(A):
    """A's real part, copied, if A is complex and every imaginary part is
    exactly 0, else A; a sparse A is checked as CSR on its stored entries."""
    if sp.issparse(A):
        A = A.tocsr()
    if np.iscomplexobj(A) and not (A.data if sp.issparse(A) else A).imag.any():
        return A.real.copy()
    return A


def _as_dense(H) -> np.ndarray:
    H = _real_if_real(H)
    dtype = complex if np.iscomplexobj(H) else float
    _reserve(np.shape(H)[0], _DENSE_COPIES, "operator", dtype)
    return np.asarray(H.toarray() if sp.issparse(H) else H, dtype=dtype)


def _absmax(A) -> float:
    if sp.issparse(A):
        return float(abs(A).max()) if A.nnz else 0.0
    return float(np.max(np.abs(A))) if A.size else 0.0


def _check_hermitian(A, htol: float = 1e-10) -> None:
    """Raise unless A = A* to htol * max(1, max |A_ij|); sparse A stays sparse."""
    if _absmax(A - A.conj().T) > htol * max(1.0, _absmax(A)):
        raise ValueError("input matrix is not Hermitian")


def _norm_inf(A) -> float:
    return float(abs(A).sum(axis=1).max()) if A.shape[0] else 0.0


def _tol(A, tol: float | None) -> float:
    """tol, which must be positive, or by default 1e-8 * max(||A||_inf, 1)."""
    if tol is None:
        return 1e-8 * max(_norm_inf(A), 1.0)
    if tol <= 0:
        raise ValueError("tol must be positive")
    return tol


def _dense_inertia(H, tol: float | None) -> Inertia:
    """Dense oracle: every eigenvalue from one LAPACK eigensolve (heevr,
    syevr if real), classified as below -tol, at or above tol, or zero."""
    # checked as given, so a sparse H is checked sparse
    _check_hermitian(H)
    tol = _tol(H, tol)
    A = _as_dense(H)
    # overwrite only our own copy, never the caller's array
    w = sla.eigvalsh(A, overwrite_a=A is not H, check_finite=False)
    n_minus = int(np.sum(w < -tol))
    n_plus = int(np.sum(w >= tol))
    n_zero = len(w) - n_plus - n_minus
    gap = 0.0 if n_zero > 0 else float(np.min(np.abs(w)))
    return Inertia(n_plus, n_minus, n_zero, gap, tol, "dense")


def inertia(H, tol: float | None = None) -> Inertia:
    """Inertia and gap of a Hermitian matrix: the dense oracle up to
    dimension `_DENSE_LIMIT`, one block LDL* factor (`inertia_ldl`) above."""
    if np.shape(H)[0] > _DENSE_LIMIT:
        return inertia_ldl(H, tol)
    return _dense_inertia(H, tol)


def _pivot_eigs(diag: np.ndarray, sub: np.ndarray, starts: np.ndarray):
    """Eigenvalues of a Hermitian block diagonal D with 1x1 and 2x2 blocks,
    from its diagonal, its subdiagonal and the first rows of the 2x2
    blocks (the subdiagonal is read only there)."""
    w = diag.real.copy()
    a, b = w[starts], w[starts + 1]
    mid = 0.5 * (a + b)
    rad = np.hypot(0.5 * (a - b), np.abs(sub[starts]))
    w[starts], w[starts + 1] = mid - rad, mid + rad
    return w


def _independent_rows(M: sp.csr_matrix, floor: float) -> np.ndarray:
    """Rows I of M, no two coupled by an off-diagonal entry, each with a
    diagonal whose real part has modulus at least floor (the Hermitian
    check bounds the imaginary part): the set a greedy scan in index
    order picks, found in rounds without a per-row loop.  In each round
    every undecided row whose undecided neighbours all have larger index
    joins I, and its neighbours leave."""
    coo = M.tocoo()
    off = coo.row != coo.col
    # both directions, so a pattern that is only Hermitian to tol is covered
    r = np.concatenate([coo.row[off], coo.col[off]])
    c = np.concatenate([coo.col[off], coo.row[off]])
    # 0 undecided, 1 in I, 2 out
    state = np.where(np.abs(M.diagonal().real) >= floor, 0, 2)
    while np.any(state == 0):
        live = (state[r] == 0) & (state[c] == 0)
        r, c = r[live], c[live]
        blocked = np.zeros(len(state), dtype=bool)
        blocked[r[c < r]] = True
        join = (state == 0) & ~blocked
        state[join] = 1
        state[c[join[r]]] = 2
    return np.flatnonzero(state == 1)


def _shift_invert_gap(M: sp.csr_matrix, solve, v0: np.ndarray) -> float:
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


def _bunch_kaufman(S: np.ndarray):
    """(pivot eigenvalues, solve) of dense Hermitian S, factored in place
    by LAPACK hetrf (sytrf if real) into L D L*; D's 1x1 and 2x2 blocks
    carry the signs of S (Sylvester), and solve(b) = S^-1 b.  The factor
    is converted in place (LAPACK's syconv) to P S P^T = L D L* with unit
    lower triangular L, so a solve is P, two BLAS trsv and D."""
    if not len(S):
        # LAPACK takes no empty matrix; S is empty when M is diagonal
        return np.empty(0), lambda b: b
    name = "hetrf" if np.iscomplexobj(S) else "sytrf"
    trf, trf_lwork = sla.get_lapack_funcs((name, name + "_lwork"), (S,))
    lwork, _ = trf_lwork(len(S), lower=1)
    # info > 0 flags an exactly zero block of D, which the tol test rejects
    LD, ipiv, _ = trf(S, lower=1, lwork=int(lwork.real), overwrite_a=1)
    trsv = sla.get_blas_funcs("trsv", (LD,))
    # ipiv < 0 marks both rows of each 2x2 block of D, so every other one
    # starts a block
    starts = np.flatnonzero(ipiv < 0)[::2]
    eigs = _pivot_eigs(np.diagonal(LD), np.diagonal(LD, -1), starts)
    # take D out of L: 1 stands in for the 2x2 blocks' diagonal in d
    d = LD.diagonal().real.copy()
    a, c, e = d[starts], d[starts + 1], LD[starts + 1, starts]
    LD[starts + 1, starts] = 0
    det = a * c - np.abs(e) ** 2
    d[starts] = d[starts + 1] = 1.0
    # block k swapped row r[k] (k, or k + 1 for a 2x2 block) with p[k] only
    # in the columns right of k; swap the columns left of k too, in order,
    # so L is one triangle (r = p, no swap, for a 2x2 block's second row)
    p, r, perm = np.abs(ipiv) - 1, np.arange(len(LD)), np.arange(len(LD))
    r[starts], r[starts + 1] = starts + 1, p[starts + 1]
    for k in np.flatnonzero(p != r):
        LD[[r[k], p[k]], :k] = LD[[p[k], r[k]], :k]
        perm[[r[k], p[k]]] = perm[[p[k], r[k]]]
    unperm = np.argsort(perm)

    def solve(b):
        y = trsv(LD, b[perm], lower=1, diag=1) / d
        y1, y2 = y[starts], y[starts + 1]
        y[starts] = (c * y1 - e.conj() * y2) / det
        y[starts + 1] = (a * y2 - e * y1) / det
        return trsv(LD, y, lower=1, trans=2, diag=1)[unperm]

    return eigs, solve


def _ldl_factor(M: sp.csr_matrix, tol: float):
    """(pivot eigenvalues, solve, probe) of Hermitian M: the pivots' signs
    are those of its eigenvalues and solve(b) = M^-1 b; RuntimeError
    names why the factor is rejected.

    The rows I of `_independent_rows` (floor _THETA * ||M||_inf) meet M
    only on the diagonal h_I, so eliminating them is exact; by Haynsworth
    inertia(M) = inertia(diag(h_I)) + inertia(S) with S the Schur
    complement of the other rows C.  S is densified once, factored in place
    by LAPACK hetrf (Bunch-Kaufman, backward stable) into L D L*, and the
    signs of S are those of D's 1x1 and 2x2 blocks.  A pivot within tol
    or a bad solve residual on the seeded probe means the factor is not
    trusted.  If no row reaches the floor, I is empty and S is all of M.
    """
    n = M.shape[0]
    I = _independent_rows(M, _THETA * _norm_inf(M))
    C = np.setdiff1d(np.arange(n), I)
    h = M.diagonal()[I].real
    M_C = M[C]
    M_CI, M_IC = M_C[:, I], M[I][:, C]
    S = M_C[:, C] - M_CI @ sp.diags(1.0 / h) @ M_IC
    _reserve(len(C), 1, "Schur complement", M.dtype)
    eigs_S, solve_S = _bunch_kaufman(S.toarray(order="F"))
    piv = np.concatenate([h, eigs_S])
    small = float(np.min(np.abs(piv)))
    if small <= tol:
        raise RuntimeError(f"pivot {small:.1e} within tol {tol:.1e}")

    def solve(b):
        x = np.empty_like(b, dtype=M.dtype)
        y = b[I] / h
        x[C] = solve_S(b[C] - M_CI @ y)
        x[I] = y - (M_IC @ x[C]) / h
        return x

    # fixed seed: the probe, and so the accept decision, is reproducible;
    # it is also the gap's start vector (its real part for a real M)
    rng = np.random.default_rng(0)
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    b = b if np.iscomplexobj(M) else b.real.copy()
    y = solve(b)
    resid = float(np.linalg.norm(M @ y - b))
    if resid > tol * float(np.linalg.norm(y)):
        raise RuntimeError(f"probe residual {resid:.1e}")
    return piv, solve, b


def _ldl_gap(M: sp.csr_matrix, tol: float, solve, probe: np.ndarray) -> float:
    """Gap of M from `_ldl_factor`'s solve and probe; dense below dim 64."""
    if M.shape[0] < 64:
        return _dense_inertia(M, tol).gap
    return _shift_invert_gap(M, solve, probe)


def _from_factor(H, tol: float | None, gap: bool) -> Inertia:
    """Counts from the signs of `_ldl_factor`'s pivots (each exceeds tol,
    so n_zero is 0) and, with `gap`, the `_ldl_gap`; if either is
    rejected, the dense oracle's result with the reason in method."""
    M = _real_if_real(sp.csr_matrix(H, dtype=complex))
    _check_hermitian(M)
    tol = _tol(M, tol)
    try:
        piv, solve, probe = _ldl_factor(M, tol)
        lam = _ldl_gap(M, tol, solve, probe) if gap else float("nan")
    except RuntimeError as exc:
        # a rejected factor or an unconverged gap; MemoryError propagates
        reason = str(exc)
    else:
        n_plus = int(np.sum(piv > 0))
        return Inertia(n_plus, len(piv) - n_plus, 0, lam, tol,
                       "ldl" if gap else "bunch-kaufman")
    # outside the handler, so the traceback no longer holds the factor;
    # nor does solve, if the gap was rejected
    solve = None
    return replace(_dense_inertia(M, tol), method=f"dense (ldl rejected: {reason})")


def inertia_ldl(H, tol: float | None = None) -> Inertia:
    """Inertia and gap of a sparse Hermitian matrix from one block LDL*
    factor: the factor step (`_ldl_factor`), which densifies only the Schur
    complement, then the gap step (`_ldl_gap`), ARPACK in shift-invert
    mode on the same factor.  If the factor is rejected or the gap does
    not converge, the result is the dense oracle's, with the reason in
    method."""
    return _from_factor(H, tol, gap=True)


def inertia_bunch_kaufman(H, tol: float | None = None) -> Inertia:
    """Counts only, from the factor step of `inertia_ldl` alone: no gap
    (nan), so no eigensolve or Krylov iteration.  H may be dense or sparse
    and is not changed.  A rejected factor gives the dense oracle's counts,
    with the reason in method."""
    return _from_factor(H, tol, gap=False)


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
