"""Independent correctness checks for the benchmark's operations.

Nothing here calls the function whose result it checks.  Each checker
returns a list of problems; an empty list means the result is correct.
The oracles are written from the definitions, not from the package:

* the index of a constant-flux bundle is the Pfaffian of its flux matrix,
  which for K = k12 e12 + k34 e34 is k12 * k34;
* the degree of the normalized Wilson symbol map equals the signed count
  of corner momenta k in {0, 1/2}^d with 2 * (#half components) < mu;
* the Bott index of an almost-commuting unitary pair is the
  half-signature of the Pauli-coupled Hermitian matrix, from a full dense
  eigendecomposition;
* the reference gaps of the d=4 index workload come from a dense
  eigensolve of an operator assembled here (see make_reference.py).
"""

from __future__ import annotations

import csv
import math

import numpy as np
import scipy.sparse as sp

GAP_RTOL = 1e-6
CURVATURE_RTOL = 1e-9


# ---------------------------------------------------------------------------
# oracles


def pfaffian_2x2_blocks(k12: int, k34: int) -> int:
    return k12 * k34


def corner_degree(d: int, mu: float) -> int:
    return sum((-1) ** c * math.comb(d, c) for c in range(d + 1) if 2 * c < mu)


def bott_index(U1: np.ndarray, U2: np.ndarray, m: float) -> int:
    """Half-signature of X (x) s1 + Y (x) s2 + Z (x) s3 with X = Im U1,
    Y = Im U2, Z = Re U1 + Re U2 - 2 + m."""
    n = U1.shape[0]
    X = (U1 - U1.conj().T) / 2j
    Y = (U2 - U2.conj().T) / 2j
    Z = (U1 + U1.conj().T) / 2 + (U2 + U2.conj().T) / 2 + (m - 2) * np.eye(n)
    B = np.block([[Z, X - 1j * Y], [X + 1j * Y, -Z]])
    eigs = np.linalg.eigvalsh(B)
    if np.min(np.abs(eigs)) < 1e-10:
        raise ValueError("Bott matrix is singular")
    return int(np.sum(eigs > 0) - np.sum(eigs < 0)) // 2


def clifford_generators(d: int):
    """Anti-Hermitian c_1..c_d with c_j c_k + c_k c_j = -2 delta_jk and a
    Hermitian grading anticommuting with all of them (Jordan-Wigner)."""
    s1 = np.array([[0, 1], [1, 0]], dtype=complex)
    s2 = np.array([[0, -1j], [1j, 0]])
    s3 = np.diag([1.0 + 0j, -1.0])
    one = np.eye(2)
    half = d // 2

    def chain(k, mid):
        mats = [s3] * k + [mid] + [one] * (half - k - 1)
        out = np.ones((1, 1), dtype=complex)
        for a in mats:
            out = np.kron(out, a)
        return out

    gens = []
    for k in range(half):
        gens.append(1j * chain(k, s1))
        gens.append(1j * chain(k, s2))
    grading = np.ones((1, 1), dtype=complex)
    for _ in range(half):
        grading = np.kron(grading, s3)
    return gens, grading


def flux_wilson_operator(d: int, N: int, flux: dict, mu: float) -> sp.csr_matrix:
    """Massive hermitian Wilson-Dirac operator of a U(1) constant-flux
    bundle, assembled from the definition.

    flux maps 0-based planes (j, l), j < l, to integer fluxes.  The
    transport U_l(x) carries phase 2 pi k x_j / N^2 and U_j(x) carries the
    boundary twist -2 pi k x_l / N on the slice x_j = N - 1, so every
    (j, l) plaquette has phase 2 pi k / N^2 and each 2-torus carries flux
    k.  (U_j psi)(x + e_j) = U_j(x) psi(x).
    """
    coords = np.indices((N,) * d).reshape(d, -1)
    n = coords.shape[1]
    theta = np.zeros((d, n))
    for (j, l), k in flux.items():
        theta[l] += 2 * np.pi * k * coords[j] / N ** 2
        theta[j] -= np.where(coords[j] == N - 1, 2 * np.pi * k * coords[l] / N, 0.0)
    gens, grading = clifford_generators(d)
    site = np.arange(n)
    ident = sp.identity(n, dtype=complex, format="csr")
    H = sp.csr_matrix((n * grading.shape[0],) * 2, dtype=complex)
    wilson = (mu - d) * ident
    for j in range(d):
        shifted = coords.copy()
        shifted[j] = (shifted[j] + 1) % N
        target = np.ravel_multi_index(tuple(shifted), (N,) * d)
        U = sp.csr_matrix((np.exp(1j * theta[j]), (target, site)), shape=(n, n))
        Ud = U.conj().T.tocsr()
        H = H + sp.kron((U - Ud) * 0.5, gens[j], format="csr")
        wilson = wilson + (U + Ud) * 0.5
    return (H + sp.kron(wilson, grading, format="csr")).tocsr()


def dense_gap(H) -> float:
    """Smallest |eigenvalue| from a full dense Hermitian eigensolve."""
    A = H.toarray() if sp.issparse(H) else np.asarray(H)
    return float(np.min(np.abs(np.linalg.eigvalsh(A))))


# ---------------------------------------------------------------------------
# checkers


def rel_close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def check_index(report, k12: int, k34: int, ref_gap: float) -> list:
    problems = []
    want = pfaffian_2x2_blocks(k12, k34)
    if report.invariant != want:
        problems.append(f"index {report.invariant} != Pf(K) = {want}")
    if not rel_close(report.inertia.gap, ref_gap, GAP_RTOL):
        problems.append(f"gap {report.inertia.gap!r} != dense reference {ref_gap!r}")
    return problems


def check_sweep_csv(text: str, N: int, values, first_text: str | None) -> list:
    """Every row ok with I equal to the swept flux value, rows in input
    order, and the CSV byte-identical to the first op of the run."""
    problems = []
    lines = text.splitlines()
    if not lines or lines[0] != "d,N,flux,m,mode,I,gap,curvature,continuum,agrees,status":
        problems.append("missing or altered CSV header")
    rows = list(csv.DictReader(lines))
    if len(rows) != len(values):
        problems.append(f"{len(rows)} rows for {len(values)} sweep values")
    for row, k in zip(rows, values):
        if row.get("status") != "ok":
            problems.append(f"K={k}: status {row.get('status')!r}")
        if row.get("I") != str(k):
            problems.append(f"K={k}: I = {row.get('I')!r}")
        if row.get("N") != str(N):
            problems.append(f"K={k}: N = {row.get('N')!r}")
    if first_text is not None and text != first_text:
        problems.append("CSV differs from the first op of this run")
    return problems


def check_degree(value, d: int, mu: float) -> list:
    want = corner_degree(d, mu)
    return [] if value == want else [f"degree {value} != corner count {want}"]


def check_acm(result, unitaries, m: float, expected: int | None) -> list:
    """result = (acm invariant, program's Bott cross-check)."""
    acm, bott_prog = result
    problems = []
    want = bott_index(unitaries[0], unitaries[1], m)
    if acm != want:
        problems.append(f"acm invariant {acm} != Bott index {want}")
    if bott_prog != want:
        problems.append(f"program Bott cross-check {bott_prog} != {want}")
    if expected is not None and acm != expected:
        problems.append(f"acm invariant {acm} != flux {expected}")
    return problems


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    a = np.ascontiguousarray(a, dtype=complex)
    b = np.ascontiguousarray(b, dtype=complex)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def check_round_trip(read_back: np.ndarray, original: np.ndarray, what: str) -> list:
    return [] if same_bits(read_back, original) else [f"{what} round trip not bit-identical"]


def check_hermitian(H) -> list:
    diff = (H - H.conj().T).tocsr()
    diff.eliminate_zeros()
    return [] if diff.nnz == 0 else [f"assembled H not Hermitian ({diff.nnz} entries)"]


def check_gauge_invariance(before: float, after: float) -> list:
    if rel_close(before, after, CURVATURE_RTOL):
        return []
    return [f"curvature estimate not gauge invariant: {float(before)!r} -> {float(after)!r}"]
