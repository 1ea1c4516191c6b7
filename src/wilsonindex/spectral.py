"""Exact inertia of Hermitian matrices and supporting spectral routines.

`inertia` is the one entry point.  It takes a matrix whole or as the
diagonal blocks of a block-diagonal one (the parity blocks of
`wilson.parity_blocks`), picks the path by the total dimension and runs
every block through it alone, with all of its checks:

* up to `_DENSE_LIMIT` (the oracle): one backward-stable LAPACK
  Hermitian eigensolve (`heevr`: Householder tridiagonalization, or
  `hbevd` on a narrow band: band reduction; then `sterf`), whose
  eigenvalues give the sign counts and the gap;
* above it (`inertia_ldl`): an exact block elimination, then one dense
  Bunch-Kaufman LDL* of what is left.  One greedy scan in index order
  picks rows I with large real diagonal h_I, no two coupled, and they are
  eliminated first: by Haynsworth's inertia additivity
  inertia(H) = inertia(diag(h_I)) + inertia(S) for the Schur complement
  S = H_CC - H_CI diag(h_I)^-1 H_IC of the other rows C.  S is densified
  once in single precision (complex64) and factored by LAPACK `chetrf`
  (Bunch and Kaufman's diagonal pivoting), whose 1x1 and 2x2 pivot
  blocks carry the signs of S (Sylvester's law of inertia).  LAPACK's
  syconv converts the factor in place into P S P^T = L D L* with unit
  lower triangular L, one laswp gives P, and the gap is found by ARPACK's
  complex Arnoldi (what `eigsh` runs for complex input) in shift-invert
  mode.  Each solve is P, two BLAS trsv calls on L and the 1x1/2x2
  solves of D (no hetrs) in single precision, refined in double against
  the sparse H (iterative refinement: Carson and Higham, SIAM J. Sci.
  Comput. 40 (2018)).  The single factor is exact for a nearby H + E.
  There is one refined solve, and its first correction, made on every
  call, must contract by at least 100x: that factor estimates
  ||(H + E)^-1 E||, and while it is below 1 no eigenvalue crosses 0
  between H and H + E.  The probe is its first call, on a seeded vector.
  If the factor is rejected or the gap does not converge, the dense
  oracle's result is returned instead.  So an H whose gap is below about
  1e-6 of its norm, where single precision cannot resolve it, goes to the
  oracle.

  Only rows whose diagonal reaches _THETA * ||H||_inf are eliminated.
  For the assembled operator, whose on-site entries are +-(mu - d), that
  is half the rows unless |mu - d| < _THETA * ||H||_inf; then I is empty
  and the whole operator is densified and factored.  The dense S holds
  8 |C|^2 bytes (4 |C|^2 if real), and its factor costs O(|C|^3) and
  each solve O(|C|^2), however sparse H is: this, not the sparsity of H,
  bounds the size.

`inertia_bunch_kaufman` is the counts alone: the factor step of
`inertia_ldl` (elimination, chetrf, the probe's refined solve) without
the gap step, so no eigensolve and no Krylov iteration; it serves
invariants that need only the signs, such as `ktheory.acm_invariant`.
It is not independent of `inertia_ldl`; the dense eigensolve is the one
independent oracle, and the paths must agree wherever they run.

The oracle's one eigensolve, `_eigenvalues`, also serves the Bott
cross-check (`ktheory.bott_index_tuple`), which solves the tuple operator
that `ktheory.acm_invariant` factors.  A sparse matrix whose
half-bandwidth w in reverse Cuthill-McKee order has _BAND_RATIO * w <= dim
(the tuple operator of `ktheory.clock_shift`) goes to LAPACK's band solver,
any other to `eigvalsh`.

Every dense LAPACK call runs on one copy of its matrix, made in Fortran
order and overwritten in place: f2py copies a C-ordered array before
LAPACK sees it, so a `toarray()` in C order would double the peak.
`_reserve` checks the oracle's copy and the Schur complement before they
are made, against MemAvailable and, under a soft address-space limit
(RLIMIT_AS, as every CLI command runs), against that limit less VmSize and
`_BLAS_MARGIN`; any other allocation that does not fit raises numpy's
MemoryError.

Every path takes a complex matrix whose imaginary parts are all 0 (the
tuple operator of `ktheory.clock_shift`; lattice operators are complex)
in real arithmetic, `syevr`/`ssytrf`/real ARPACK Lanczos, at a quarter
of the flops and half the bytes (`_real_if_real`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import reverse_cuthill_mckee

try:
    import resource
except ImportError:  # not Unix: no address-space limit to read
    resource = None

# largest dimension `inertia` handles on the dense path
_DENSE_LIMIT = 4096
# the oracle takes the band when _BAND_RATIO * w <= dim; the band solver
# measured slower than the dense one below dim/w ~ 16-20, so 32 keeps a margin
_BAND_RATIO = 32
# a row is eliminated before the dense factor only if its real diagonal
# has modulus at least _THETA * ||H||_inf; then ||S||_inf is at most
# (1 + 1/_THETA) ||H||_inf, a growth the contraction check still sees
_THETA = 0.01
# corrections a refined solve makes at most
_REFINE = 3
# largest accepted ||dx|| / ||x|| of the first correction, which every
# refined solve makes and checks, the probe's included
_CONTRACTION = 1e-2
# address space a dense LAPACK call takes beyond its matrix: OpenBLAS maps
# a work buffer of about 32 MiB on first use, and a factor that cannot map
# it spins or exits instead of raising (chetrf under RLIMIT_AS, on a d=4
# N=8 parity block and on a d=4 N=5 tuple operator: 34 MiB left beyond
# the Schur complement ran, 31 MiB spun, with 1 or 2 OpenBLAS threads)
_BLAS_MARGIN = 48 * 2 ** 20


class ResourceError(MemoryError):
    """A dense copy of a matrix would not fit in available memory."""


@dataclass(frozen=True)
class Inertia:
    """Counts of positive / negative / zero eigenvalues.

    gap is the smallest |eigenvalue| (0 if singular up to tol, nan from
    the counts-only `inertia_bunch_kaufman`); tol is the
    zero-classification threshold that was used (one for every block);
    method names the path:
    "dense" (the eigensolve oracle), "ldl" (diagonal elimination plus
    Bunch-Kaufman on the Schur complement, `inertia_ldl`), "bunch-kaufman"
    (the same factor, counts only), or "dense (ldl rejected: <reason>)"
    when that factor or its gap was not accepted; for blocks whose paths
    differ, "block 0: <method>; block 1: <method>".
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


def _proc_bytes(path: str, key: str) -> int | None:
    """`key`'s kB figure in a /proc file, in bytes; None where unknown."""
    try:
        with open(path) as fh:
            for line in fh:
                if line.startswith(key + ":"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    return None


def _available_memory() -> int | None:
    """Bytes one more dense matrix may take: MemAvailable and, under a soft
    RLIMIT_AS, at most that limit less VmSize and `_BLAS_MARGIN`; None
    where neither is known."""
    avail = _proc_bytes("/proc/meminfo", "MemAvailable")
    soft = resource.getrlimit(resource.RLIMIT_AS)[0] if resource else None
    used = _proc_bytes("/proc/self/status", "VmSize")
    if soft is None or soft == resource.RLIM_INFINITY or used is None:
        return avail
    room = max(soft - used - _BLAS_MARGIN, 0)
    return room if avail is None else min(avail, room)


def _reserve(n: int, what: str, dtype=complex) -> None:
    """Raise ResourceError unless one dense n x n matrix of dtype fits in
    available memory."""
    need = n * n * np.dtype(dtype).itemsize
    avail = _available_memory()
    if avail is not None and need > avail:
        raise ResourceError(
            f"dense dim-{n} {what} needs {need / 2 ** 30:.2f} GiB "
            f"({n}^2 {np.dtype(dtype)}), {avail / 2 ** 30:.2f} GiB available")


def _real_if_real(A):
    """A's real part if A is complex and every imaginary part is exactly 0,
    else A; a sparse A is checked as CSR on its stored entries and its real
    part copied, a dense A's real part is a view (`_as_dense` copies it)."""
    if sp.issparse(A):
        A = A.tocsr()
    if np.iscomplexobj(A) and not (A.data if sp.issparse(A) else A).imag.any():
        return A.real.copy() if sp.issparse(A) else A.real
    return A


def _as_dense(H) -> np.ndarray:
    """The one dense copy of H that LAPACK overwrites, in Fortran order:
    reserved, then H checked Hermitian, then copied.  A dense H already in
    that order and dtype is returned as is."""
    dtype = complex if np.iscomplexobj(H) else float
    _reserve(np.shape(H)[0], "operator", dtype)
    _check_hermitian(H)
    return np.asarray(H.toarray(order="F") if sp.issparse(H) else H,
                      dtype=dtype, order="F")


def _absmax(A) -> float:
    a = A.data if sp.issparse(A) else A
    return float(np.max(np.abs(a))) if a.size else 0.0


def _check_hermitian(A) -> None:
    """Raise unless A = A* to 1e-10 * max(1, max |A_ij|); sparse A stays sparse."""
    D = A.conj().T.tocsr() - A if sp.issparse(A) else A - A.conj().T
    # not >, so a nan entry is rejected too
    if not _absmax(D) <= 1e-10 * max(1.0, _absmax(A)):
        raise ValueError("input matrix is not Hermitian")


def _norm_inf(A) -> float:
    return float(abs(A).sum(axis=1).max()) if A.shape[0] else 0.0


def _tol(A) -> float:
    """The zero-classification threshold 1e-8 * max(||A||_inf, 1)."""
    return 1e-8 * max(_norm_inf(A), 1.0)


def _eigenvalues(H) -> np.ndarray:
    """Every eigenvalue of Hermitian H (ValueError if it is not), real if
    `_real_if_real` makes H real: `sbevd` (`hbevd`) on the (w + 1) x dim
    lower band of a narrow sparse H in reverse Cuthill-McKee order, a
    permutation that changes no eigenvalue, else `eigvalsh` (`syevr`,
    `heevr`) on `_as_dense`'s reserved copy."""
    H = _real_if_real(H)
    if sp.issparse(H):
        n = H.shape[0]
        perm = reverse_cuthill_mckee(H, symmetric_mode=True)
        pos = np.empty_like(perm)
        pos[perm] = np.arange(n, dtype=perm.dtype)
        C = H.tocoo()
        i, j = pos[C.row], pos[C.col]
        w = int(np.max(np.abs(i - j), initial=0))
        if _BAND_RATIO * w <= n:
            _check_hermitian(H)
            # lower band storage, ab[i - j, j] = H_ij for i >= j in the new order
            low = i >= j
            ab = np.zeros((w + 1, n), dtype=H.dtype, order="F")
            ab[(i - j)[low], j[low]] = C.data[low]
            return sla.eig_banded(ab, lower=True, eigvals_only=True,
                                  overwrite_a_band=True, check_finite=False)
        # the band's indices are not needed: freed before the dense copy
        del C, i, j
    A = _as_dense(H)
    # overwrite only our own copy, never the caller's array
    return sla.eigvalsh(A, overwrite_a=A is not H, check_finite=False)


def _dense_inertia(H, tol: float | None = None) -> Inertia:
    """Dense oracle: every eigenvalue from `_eigenvalues`, classified as
    below -tol, at or above tol, or zero; tol is `_tol(H)` unless given."""
    w = _eigenvalues(H)
    tol = _tol(H) if tol is None else tol
    n_minus = int(np.sum(w < -tol))
    n_plus = int(np.sum(w >= tol))
    n_zero = len(w) - n_plus - n_minus
    gap = 0.0 if n_zero > 0 else float(np.min(np.abs(w)))
    return Inertia(n_plus, n_minus, n_zero, gap, tol, "dense")


def inertia(*blocks, tol: float | None = None) -> Inertia:
    """Inertia and gap of a Hermitian matrix, given whole or as the
    diagonal blocks of a block-diagonal one: the dense oracle if the total
    dimension is at most `_DENSE_LIMIT`, else one block LDL* factor
    (`inertia_ldl`), for every block alike and with all of its checks.

    tol, the zero threshold, is given by a caller that knows the norm of
    the matrix the blocks came from (`ktheory.lattice_index` passes its
    operator's); else it is `_tol` of the block-diagonal matrix, whose
    ||.||_inf is its largest block's.  Every block is classified with it.
    The counts add up and the gap is the least block gap; method is the
    blocks' common method, else each block's.  A block's ResourceError
    names the block."""
    n = sum(np.shape(B)[0] for B in blocks)
    if tol is None and len(blocks) > 1:
        tol = max(_tol(B) for B in blocks)
    parts = []
    for i, B in enumerate(blocks):
        try:
            parts.append(_dense_inertia(B, tol) if n <= _DENSE_LIMIT else inertia_ldl(B, tol))
        except ResourceError as exc:
            if len(blocks) == 1:
                raise
            raise ResourceError(f"block {i} of the dim-{n} operator: {exc}") from exc
    methods = [p.method for p in parts]
    return Inertia(
        sum(p.n_plus for p in parts), sum(p.n_minus for p in parts),
        sum(p.n_zero for p in parts), min(p.gap for p in parts), parts[0].tol,
        methods[0] if len(set(methods)) == 1
        else "; ".join(f"block {i}: {m}" for i, m in enumerate(methods)))


def _independent_rows(M: sp.csr_matrix, floor: float) -> np.ndarray:
    """Rows I of M, no two coupled by an off-diagonal entry, each with a
    diagonal whose real part is nonzero (also when floor is 0, as for
    M = 0) and has modulus at least floor (the Hermitian check bounds the
    imaginary part), by a greedy scan in index order: a row still free
    joins I and its neighbours stop being free.  Its work is linear in
    nnz; it measured faster at every size than vectorised rounds, which
    need one per chosen row on a path-like pattern (47 vs 166-190 ms at d=4 N=10)."""
    # the stored pattern in both directions, so a pattern that is only
    # Hermitian to tol is covered; its diagonal only unfrees a chosen row
    P = sp.csr_matrix((np.ones(M.nnz), M.indices, M.indptr), shape=M.shape)
    P = P + P.T
    h = np.abs(M.diagonal().real)
    free = (h >= floor) & (h > 0)
    chosen = np.zeros(len(h), dtype=bool)
    for i in np.flatnonzero(free):
        if free[i]:
            chosen[i] = True
            free[P.indices[P.indptr[i]:P.indptr[i + 1]]] = False
    return np.flatnonzero(chosen)


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
    _, vecs = spla.eigsh(M, k=1, sigma=0.0, which="LM", OPinv=op,
                         tol=1e-8, v0=v0, maxiter=300)
    # the Rayleigh quotient in double: its error is quadratic in x's, so
    # the refined solves' looser residual (tol) does not reach the gap
    x = vecs[:, 0]
    Mx = M @ x
    lam = float(np.vdot(x, Mx).real / np.vdot(x, x).real)
    resid = float(np.linalg.norm(Mx - lam * x))
    if resid > 1e-6 * max(_absmax(M), 1.0):
        raise RuntimeError(f"unconverged gap (residual {resid:.1e})")
    return abs(lam)


def _bunch_kaufman(S: np.ndarray):
    """(pivot eigenvalues, solve) of dense Hermitian S, factored in place
    by LAPACK hetrf (sytrf if real) into L D L*; D's 1x1 and 2x2 blocks
    carry the signs of S (Sylvester), and solve(b) = S^-1 b.  LAPACK's
    syconv converts the factor in place to P S P^T = L D L* with unit
    lower triangular L and laswp gives P, so a solve is P, two BLAS trsv
    and D.  The routines follow S's dtype (chetrf/ssytrf for the single
    precision S of `_ldl_factor`); b is cast to it, and so is the result."""
    if not len(S):
        # LAPACK takes no empty matrix; S is empty when M is diagonal
        return np.empty(0), lambda b: b
    name = "hetrf" if np.iscomplexobj(S) else "sytrf"
    trf, trf_lwork = sla.get_lapack_funcs((name, name + "_lwork"), (S,))
    lwork, _ = trf_lwork(len(S), lower=1)
    # info > 0 flags an exactly zero block of D, which _ldl_factor rejects
    LD, ipiv, _ = trf(S, lower=1, lwork=int(lwork.real), overwrite_a=1)
    # in place to P S P^T = L D L* with unit lower triangular L: syconv
    # moves the 2x2 blocks' subdiagonal into e and swaps the rows of L left
    # of each interchange, as hetrf swapped them only right of it
    LD, e, _ = sla.get_lapack_funcs("syconv", (LD,))(
        LD, ipiv, lower=1, way=0, overwrite_a=1)
    trsv = sla.get_blas_funcs("trsv", (LD,))
    # ipiv < 0 marks both rows of each 2x2 block of D, so every other one
    # starts a block; a block [[a, e*], [e, c]] is read once, for its
    # eigenvalues mid -+ rad and for its closed-form solve
    starts = np.flatnonzero(ipiv < 0)[::2]
    d = LD.diagonal().real.copy()
    a, c, e = d[starts], d[starts + 1], e[starts]
    mid, rad = 0.5 * (a + c), np.hypot(0.5 * (a - c), np.abs(e))
    eigs = d.copy()
    eigs[starts], eigs[starts + 1] = mid - rad, mid + rad
    det = a * c - np.abs(e) ** 2
    # 1 stands in for the 2x2 blocks' diagonal in d
    d[starts] = d[starts + 1] = 1.0
    # P: row k swaps with |ipiv[k]| - 1 in turn, but a 2x2 block's
    # interchange is its second row's, so its first row pivots on itself
    piv = np.abs(ipiv) - 1
    piv[starts] = starts
    perm = sla.get_lapack_funcs("laswp", dtype=float)(
        np.arange(len(LD), dtype=float)[:, None], piv)[:, 0].astype(int)
    unperm = np.argsort(perm)

    def solve(b):
        y = trsv(LD, b[perm].astype(LD.dtype), lower=1, diag=1) / d
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
    complement of the other rows C.  If no row reaches the floor, I is
    empty and S is all of M.  S is densified once in single precision
    (complex64, float32 if M is real) and factored in place by
    `_bunch_kaufman`; with the exact elimination this is a factor F of
    M + E, E its backward error, and the signs of its pivots are the
    inertia of M + E (Sylvester, Haynsworth).

    solve is one refined solve: x = F^-1 b, then x += F^-1 (b - Mx) against
    the sparse double M, at most _REFINE times, until ||b - Mx|| <= tol ||x||.
    The first correction dx is always made, and rho = ||dx|| / ||x||
    estimates ||(M + E)^-1 E||_2 = ||I - F^-1 M||_2; every call rejects F
    unless rho <= _CONTRACTION.  While ||(M + E)^-1 E||_2 < 1, M + tE is
    nonsingular for every t in [0, 1], so no eigenvalue crosses 0 between
    M and M + E and the pivots' signs are M's.  A singular M gives rho near
    1.  The probe is solve's first call, on a seeded vector, so the counts
    are accepted only if that call passes both checks.
    """
    n = M.shape[0]
    I = _independent_rows(M, _THETA * _norm_inf(M))
    C = np.setdiff1d(np.arange(n), I)
    h = M.diagonal()[I].real
    M_CI, M_IC = M[C][:, I], M[I][:, C]
    low = np.complex64 if np.iscomplexobj(M) else np.float32
    # cast as soon as it is formed, so the sparse S in double is gone
    # before the dense copy is made
    S = (M[C][:, C] - M_CI @ sp.diags(1.0 / h) @ M_IC).astype(low)
    _reserve(len(C), "Schur complement", low)
    eigs_S, solve_S = _bunch_kaufman(S.toarray(order="F"))
    piv = np.concatenate([h, eigs_S])
    if not piv.all():
        # an exactly singular D (info > 0 from the factor) has no solve
        raise RuntimeError("zero pivot")

    def solve_low(b):
        x = np.empty_like(b, dtype=M.dtype)
        y = b[I] / h
        x[C] = solve_S(b[C] - M_CI @ y)
        x[I] = y - (M_IC @ x[C]) / h
        return x

    def solve(b):
        x = solve_low(b)
        r = b - M @ x
        for k in range(_REFINE):
            dx = solve_low(r)
            x = x + dx
            if k == 0:
                rho = float(np.linalg.norm(dx) / np.linalg.norm(x))
                # not <=, so a nan from an overflowed solve is rejected too
                if not rho <= _CONTRACTION:
                    raise RuntimeError(f"contraction {rho:.1e} above {_CONTRACTION:g}")
            r = b - M @ x
            resid = float(np.linalg.norm(r))
            if resid <= tol * float(np.linalg.norm(x)):
                return x
        raise RuntimeError(f"solve residual {resid:.1e}")

    # fixed seed: the probe, and so the accept decision, is reproducible;
    # it is also the gap's start vector (its real part for a real M)
    rng = np.random.default_rng(0)
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    b = b if np.iscomplexobj(M) else b.real.copy()
    solve(b)
    return piv, solve, b


def _ldl_gap(M: sp.csr_matrix, solve, probe: np.ndarray) -> float:
    """Gap of M from `_ldl_factor`'s solve and probe; dense below dim 64."""
    if M.shape[0] < 64:
        return _dense_inertia(M).gap
    return _shift_invert_gap(M, solve, probe)


def _from_factor(H, gap: bool, tol: float | None = None) -> Inertia:
    """Counts from the signs of `_ldl_factor`'s pivots (an accepted factor
    is of a nonsingular matrix, so n_zero is 0) and, with `gap`, the
    `_ldl_gap`; if either is rejected, the dense oracle's result with the
    reason in method.  tol is `_tol(H)` unless given."""
    M = _real_if_real(sp.csr_matrix(H, dtype=complex))
    _check_hermitian(M)
    tol = _tol(M) if tol is None else tol
    try:
        piv, solve, probe = _ldl_factor(M, tol)
        lam = _ldl_gap(M, solve, probe) if gap else float("nan")
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
    method.  tol is `_tol(H)` unless given."""
    return _from_factor(H, True, tol)


def inertia_bunch_kaufman(H) -> Inertia:
    """Counts only, from the factor step of `inertia_ldl` alone: no gap
    (nan), so no eigensolve or Krylov iteration.  H may be dense or sparse
    and is not changed.  A rejected factor gives the dense oracle's counts,
    with the reason in method."""
    return _from_factor(H, gap=False)


def min_abs_eigenvalue(H) -> float:
    """Smallest |eigenvalue| of a Hermitian matrix, relative accuracy 1e-6:
    the gap of `inertia(H)` (0 if H is singular up to `_tol`)."""
    return inertia(H).gap
