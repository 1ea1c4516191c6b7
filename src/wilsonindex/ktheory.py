"""Topological invariants: the lattice index, the continuum (Pfaffian)
index of constant-flux bundles, the degree of the normalized symbol map,
the a-priori gap bound, and the invariant of almost-commuting unitary
tuples.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .clifford import CliffordRep, clifford_rep
from .gauge import FluxMatrix, GaugeField, estimate_curvature_norm, shift_unitaries
from .spectral import Inertia, half_signature, inertia, min_abs_eigenvalue
from .wilson import assemble, symbol_gap, wilson_matrix

# Global orientation sign relating the lattice invariant to the Pfaffian
# index, calibrated once from the d=2, N=16, K_12=1, m=1 instance under
# the fixed Clifford basis of clifford_rep().  Never adjusted afterwards.
SIGMA = 1


class SingularOperatorError(RuntimeError):
    pass


class ParameterRangeError(ValueError):
    """A mass parameter outside the window its mass mode allows."""


@dataclass(frozen=True)
class IndexReport:
    invariant: int
    inertia: Inertia
    mass_mode: str
    mu: float
    curvature_estimate: float
    bound_margin: float
    continuum_index: int | None = None
    agrees: bool | None = None


@dataclass(frozen=True)
class BoundReport:
    lambda_min: float
    rhs: float
    margin: float
    status: str  # "pass" | "fail" | "vacuous"


@dataclass(frozen=True)
class UnitaryTuple:
    """d almost-commuting n x n unitaries; epsilon is measured, not asserted."""

    d: int
    n: int
    unitaries: tuple = field(repr=False)
    epsilon: float = 0.0

    @staticmethod
    def from_matrices(mats, utol: float = 1e-12) -> "UnitaryTuple":
        mats = tuple(np.asarray(m, dtype=complex) for m in mats)
        n = mats[0].shape[0]
        eye = np.eye(n)
        for U in mats:
            if U.shape != (n, n) or np.max(np.abs(U.conj().T @ U - eye)) > utol:
                raise ValueError("tuple entries must be unitary")
        eps = 0.0
        for j in range(len(mats)):
            for l in range(j + 1, len(mats)):
                eps = max(eps, np.linalg.norm(
                    mats[j] @ mats[l] - mats[l] @ mats[j], 2))
        return UnitaryTuple(d=len(mats), n=n, unitaries=mats, epsilon=eps)


def continuum_index(K: FluxMatrix) -> int:
    """Pfaffian of the integer flux matrix, by recursive expansion."""
    if K.d % 2 != 0:
        raise ValueError("even dimension required")
    return _pfaffian(K.K, list(range(K.d)))


def _pfaffian(K: np.ndarray, idx) -> int:
    if not idx:
        return 1
    i0 = idx[0]
    total = 0
    for pos, j in enumerate(idx[1:], start=1):
        a = int(K[i0, j])
        if a == 0:
            continue
        rest = [q for q in idx if q != i0 and q != j]
        total += (-1) ** (pos - 1) * a * _pfaffian(K, rest)
    return total


def _continuum_from_sectors(sectors) -> int:
    return sum(continuum_index(K) for K in sectors)


def lattice_index(f: GaugeField, m: float, mode: str = "cutoff") -> IndexReport:
    """I(D_W + m gamma) of the assembled operator, with diagnostics."""
    d = f.geometry.d
    cl = clifford_rep(d)
    a = f.geometry.spacing
    curvature = estimate_curvature_norm(f)
    if mode == "cutoff":
        if not 0 < m < 2:
            raise ParameterRangeError("parameter out of range: cutoff mode needs 0 < m < 2")
        mu = m
    elif mode == "constant":
        if m <= 0:
            raise ParameterRangeError("parameter out of range: constant mode needs m > 0")
        if m ** 2 <= 4 * d ** 2 * curvature:
            warnings.warn(
                "constant mass below the invertibility threshold "
                "2 d sqrt(||R||); no guarantee", stacklevel=2)
        mu = m * a
    else:
        raise ValueError(f"unknown mass mode {mode!r}")
    op = assemble(f, cl, mu, mass_mode=mode)
    inert = inertia(op.matrix)
    if inert.n_zero > 0:
        raise SingularOperatorError("singular operator: shrink a or change m")
    invariant = half_signature(inert)
    # a-priori bound margin in dimensionless units (kappa = 1 for cutoff,
    # kappa = 1/a for constant; bound scaled by a^2 accordingly)
    rhs = mu ** 2 - 4 * d ** 2 * curvature * a ** 2
    margin = inert.gap ** 2 - rhs
    continuum = None
    agrees = None
    if f.flux_sectors is not None:
        # every corner k in {0, 1/2}^d with 2c < mu (a doubler) adds (-1)^c Pf
        continuum = corner_count_degree(d, mu) * _continuum_from_sectors(f.flux_sectors)
        agrees = bool(invariant == SIGMA * continuum)
    return IndexReport(
        invariant=int(invariant),
        inertia=inert,
        mass_mode=mode,
        mu=mu,
        curvature_estimate=curvature,
        bound_margin=margin,
        continuum_index=continuum,
        agrees=agrees,
    )


def mass_mode_equivalence(f: GaugeField, m_cutoff: float, m_const: float) -> bool:
    """True iff the cutoff-mass and constant-mass indices agree."""
    r1 = lattice_index(f, m_cutoff, mode="cutoff")
    r2 = lattice_index(f, m_const, mode="constant")
    return r1.invariant == r2.invariant


# ---------------------------------------------------------------------------
# degree of the normalized symbol map F: T^d -> S^d


def _symbol_map(k: np.ndarray, mu: float):
    """F(k) = ((W + mu)/f, sin_1/f, ..., sin_d/f) and the Jacobian of its
    sphere part with respect to k, for n momenta k of shape (n, d):
    F0 (n,), Fv (n, d) and J (n, d, d)."""
    s = np.sin(2 * np.pi * k)
    c = np.cos(2 * np.pi * k)
    w = np.sum(c - 1.0, axis=-1) + mu
    f = np.sqrt(np.sum(s ** 2, axis=-1) + w ** 2)
    F0 = w / f
    Fv = s / f[:, None]
    # df/dk_l = 2 pi s_l (c_l - w)/f
    dfdk = 2 * np.pi * s * (c - w[:, None]) / f[:, None]
    J = (-s[:, :, None] * dfdk[:, None, :]) / (f ** 2)[:, None, None]
    diag = np.arange(k.shape[1])
    J[:, diag, diag] += 2 * np.pi * c / f[:, None]
    return F0, Fv, J


def _newton_roots(d: int, mu: float, target_vec: np.ndarray, target_sign: float,
                  resolution: int):
    """(key, det J) of each distinct preimage, in the order of the first
    seed reaching it; all resolution^d seeds take damped Newton steps at once."""
    k = np.stack(
        np.meshgrid(*([np.arange(resolution) / resolution] * d), indexing="ij"),
        axis=-1,
    ).reshape(-1, d)
    active = np.ones(len(k), dtype=bool)
    converged = np.zeros(len(k), dtype=bool)
    for _ in range(60):
        idx = np.flatnonzero(active)
        if not idx.size:
            break
        _, Fv, J = _symbol_map(k[idx], mu)
        r = Fv - target_vec
        done = np.linalg.norm(r, axis=-1) < 1e-12
        converged[idx[done]] = True
        # an exactly singular Jacobian drops its seed; masked before the
        # stacked solve, which would raise for the whole batch
        step_ok = ~done & (np.linalg.det(J) != 0)
        active[idx[~step_ok]] = False
        idx, J, r = idx[step_ok], J[step_ok], r[step_ok]
        step = np.linalg.solve(J, r[:, :, None])[:, :, 0]
        norm = np.linalg.norm(step, axis=-1)
        clip = norm > 0.25
        step[clip] *= (0.25 / norm[clip])[:, None]
        k[idx] = (k[idx] - step) % 1.0
    k = k[converged]
    F0, _, J = _symbol_map(k, mu)
    chart = F0 * target_sign > 0
    keys, J = np.round(k[chart] % 1.0, 6) % 1.0, J[chart]
    roots = []
    while len(keys):
        roots.append((tuple(keys[0]), float(np.linalg.det(J[0]))))
        far = ~np.all(np.abs((keys - keys[0] + 0.5) % 1.0 - 0.5) < 1e-5, axis=-1)
        keys, J = keys[far], J[far]
    return roots


def _degree_once(d: int, mu: float, resolution: int, rng) -> int:
    target_vec = np.zeros(d)
    target_sign = 1.0
    for attempt in range(5):
        roots = _newton_roots(d, mu, target_vec, target_sign, resolution)
        dets = [det for _, det in roots]
        if all(abs(v) > 1e-8 for v in dets):
            return int(sum(np.sign(v) for v in dets))
        # degenerate preimage: nudge the target within the F0 > 0 chart
        target_vec = 0.05 * rng.standard_normal(d)
        target_vec /= max(1.0, 4 * np.linalg.norm(target_vec))
    raise RuntimeError("failed to certify a regular value for the degree")


def symbol_degree(d: int, mu: float, resolution: int = 8) -> int:
    """Degree of F: T^d -> S^d by signed preimage counting at a regular
    value (default (1,0,...,0)); runs two seeding resolutions and demands
    the same integer."""
    if d % 2 != 0 or d < 2:
        raise ValueError("even dimension required")
    if symbol_gap(clifford_rep(d), mu) < 1e-9:
        raise ValueError("mass sits on a window boundary")
    rng = np.random.default_rng(20240801)
    deg1 = _degree_once(d, mu, resolution, rng)
    deg2 = _degree_once(d, mu, 2 * resolution, rng)
    if deg1 != deg2:
        raise RuntimeError(
            f"degree not resolution-independent: {deg1} vs {deg2}")
    return deg1


def corner_count_degree(d: int, mu: float) -> int:
    """Independent oracle: preimages of (1,0,...,0) are the corner momenta
    k in {0, 1/2}^d with 2*#(half components) < mu, each contributing
    (-1)^(#half components).

    Satisfies deg(d, mu) = -deg(d, 2d - mu): the half-period translation
    k -> k + (1/2, ..., 1/2) sends F_mu to -F_{2d-mu}, and the antipodal
    map of S^d has degree -1 for even d."""
    import math

    return sum(
        (-1) ** c * math.comb(d, c) for c in range(d + 1) if 2 * c < mu
    )


# ---------------------------------------------------------------------------
# a-priori gap bound (kappa-interpolated operator)


def verify_gap_bound(f: GaugeField, cl: CliffordRep, m: float,
                     kappa: float) -> BoundReport:
    """Check lambda_min((kappa pi(D_W) + m gamma)^2) >= m^2 - 4 d^2 ||R||."""
    N = f.geometry.N
    if not m <= kappa <= N:
        raise ValueError("kappa must lie in [m, N]")
    d = f.geometry.d
    op = assemble(f, cl, 0.0)
    n_site = f.geometry.n_sites * f.rank
    gamma_big = sp.kron(sp.identity(n_site, format="csr"), cl.grading, format="csr")
    A = (kappa * op.matrix + m * gamma_big).tocsr()
    lam = min_abs_eigenvalue(A)
    curvature = estimate_curvature_norm(f)
    # curvature error terms total 4 d^2 ||R|| a^2 kappa^2 <= 4 d^2 ||R||
    rhs = m ** 2 - 4 * d ** 2 * curvature * f.geometry.spacing ** 2 * kappa ** 2
    margin = lam ** 2 - rhs
    if rhs < 0:
        status = "vacuous"
    else:
        status = "pass" if margin >= -1e-9 else "fail"
    return BoundReport(lambda_min=lam, rhs=rhs, margin=margin, status=status)


# ---------------------------------------------------------------------------
# almost-commuting unitary tuples


def acm_invariant(t: UnitaryTuple, m: float) -> int:
    """I of sum_j (U_j - U_j*)/2 (x) c_j + (sum_j((U_j+U_j*)/2 - 1) + m) (x) gamma.

    In d=2 this always matches the Bott index (`bott_index_tuple`), but it
    is +-1 only when the tuple is close enough to commuting for m; for
    `clock_shift(3)` at m=1 it is 0."""
    if t.d % 2 != 0:
        raise ValueError("even dimension required")
    if not 0 < m < 2:
        raise ValueError("mass must lie in (0, 2)")
    H = wilson_matrix(t.unitaries, clifford_rep(t.d), m)
    inert = inertia(H)
    if inert.n_zero > 0:
        raise SingularOperatorError(
            "invariant undefined at this (tuple, m); "
            "tuple may be too far from commuting")
    return int(half_signature(inert))


def clock_shift(n: int) -> UnitaryTuple:
    """The canonical almost-commuting pair: clock diag(1, z, ..., z^(n-1))
    and the cyclic shift, with commutator norm ||[U, V]|| = |z - 1|
    = 2 sin(pi/n), z = exp(2 pi i/n)."""
    if n < 2:
        raise ValueError("n must be >= 2")
    zeta = np.exp(2j * np.pi / n)
    clock = np.diag(zeta ** np.arange(n))
    shift = np.roll(np.eye(n, dtype=complex), 1, axis=0)
    return UnitaryTuple.from_matrices([clock, shift])


def gauge_tuple(f: GaugeField) -> UnitaryTuple:
    """The link-times-shift unitaries of a gauge field as a UnitaryTuple."""
    return UnitaryTuple.from_matrices(shift_unitaries(f))


def bott_index_pauli(X: np.ndarray, Y: np.ndarray, Z: np.ndarray) -> int:
    """Independent d=2 oracle: half-signature of the Pauli-coupled matrix
    X (x) s1 + Y (x) s2 + Z (x) s3 of an almost-commuting Hermitian triple,
    computed from a full dense eigendecomposition."""
    s1 = np.array([[0, 1], [1, 0]], dtype=complex)
    s2 = np.array([[0, -1j], [1j, 0]])
    s3 = np.array([[1, 0], [0, -1]], dtype=complex)
    B = np.kron(X, s1) + np.kron(Y, s2) + np.kron(Z, s3)
    eigs = np.linalg.eigvalsh(B)
    if np.min(np.abs(eigs)) < 1e-10:
        raise SingularOperatorError("Bott matrix is singular")
    n_pos = int(np.sum(eigs > 0))
    n_neg = int(np.sum(eigs < 0))
    assert (n_pos - n_neg) % 2 == 0
    return (n_pos - n_neg) // 2


def bott_index_tuple(t: UnitaryTuple, m: float) -> int:
    """Loring-style Bott index of a d=2 tuple via the Hermitian triple
    (Im U_1, Im U_2, Re U_1 + Re U_2 - 2 + m)."""
    if t.d != 2:
        raise ValueError("Bott-index oracle is d=2 only")
    U1, U2 = t.unitaries
    X = (U1 - U1.conj().T) / 2j
    Y = (U2 - U2.conj().T) / 2j
    Z = (U1 + U1.conj().T) / 2 + (U2 + U2.conj().T) / 2 \
        - 2 * np.eye(t.n) + m * np.eye(t.n)
    return bott_index_pauli(X, Y, Z)