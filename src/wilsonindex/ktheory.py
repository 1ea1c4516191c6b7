"""Topological invariants: the lattice index, the continuum (Pfaffian)
index of constant-flux bundles, the degree of the normalized symbol map,
the a-priori gap bound, and the invariant of almost-commuting unitary
tuples.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .clifford import CliffordRep, clifford_rep
from .gauge import FluxMatrix, GaugeField, estimate_curvature_norm, shift_unitaries
# min_abs_eigenvalue is unused here; perfbench's tracer looks it up by name
from .spectral import (Inertia, _real_if_real, _reserve, half_signature, inertia,  # noqa: F401
                       inertia_bunch_kaufman, min_abs_eigenvalue)
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
    degree: int  # corner_count_degree(d, mu): the window's doubler count
    continuum_index: int | None = None
    agrees: bool | None = None


@dataclass(frozen=True)
class BoundReport:
    lambda_min: float
    rhs: float
    margin: float
    status: str  # "pass" | "fail" | "vacuous"
    method: str  # the path that found lambda_min, as in Inertia.method


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
        if not mats:
            raise ValueError("a tuple needs at least one unitary")
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
    # every corner k in {0, 1/2}^d with 2c < mu (a doubler) adds (-1)^c Pf
    degree = corner_count_degree(d, mu)
    continuum = agrees = None
    if f.flux_sectors is not None:
        continuum = degree * sum(continuum_index(K) for K in f.flux_sectors)
        agrees = bool(invariant == SIGMA * continuum)
    return IndexReport(
        invariant=int(invariant),
        inertia=inert,
        mass_mode=mode,
        mu=mu,
        curvature_estimate=curvature,
        bound_margin=margin,
        degree=degree,
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


def symbol_degree(d: int, mu: float, resolution: int = 8) -> int:
    """Degree of F: T^d -> S^d, F(k) = (W + mu, sin 2 pi k_1, ...,
    sin 2 pi k_d)/f with W = sum_j (cos 2 pi k_j - 1) and f the norm, as
    the signed preimage count of the value (1, 0, ..., 0).

    That value has exactly the corner preimages: sin 2 pi k_j = 0 for
    every j puts k in {0, 1/2}^d, where W + mu = mu - 2c for c half
    components, and F0 > 0 needs mu > 2c.  At such a corner the Jacobian
    of (F_1, ..., F_d) is diag(2 pi cos 2 pi k_j)/|mu - 2c|, whose
    determinant has sign (-1)^c and is never 0; so the value is regular
    and the degree is `corner_count_degree(d, mu)`.  `resolution` has no
    effect; it is accepted for callers of the former Newton search.
    """
    if d % 2 != 0 or d < 2:
        raise ValueError("even dimension required")
    if symbol_gap(clifford_rep(d), mu) < 1e-9:
        raise ValueError("mass sits on a window boundary")
    return corner_count_degree(d, mu)


def corner_count_degree(d: int, mu: float) -> int:
    """Signed corner count: preimages of (1,0,...,0) are the corner momenta
    k in {0, 1/2}^d with 2*#(half components) < mu, each contributing
    (-1)^(#half components) (see `symbol_degree`).

    Satisfies deg(d, mu) = -deg(d, 2d - mu): the half-period translation
    k -> k + (1/2, ..., 1/2) sends F_mu to -F_{2d-mu}, and the antipodal
    map of S^d has degree -1 for even d."""
    return sum(
        (-1) ** c * math.comb(d, c) for c in range(d + 1) if 2 * c < mu
    )


# ---------------------------------------------------------------------------
# a-priori gap bound (kappa-interpolated operator)


def verify_gap_bound(f: GaugeField, cl: CliffordRep, m: float,
                     kappa: float) -> BoundReport:
    """Check lambda_min((kappa pi(D_W) + m gamma)^2) >= m^2 - 4 d^2 ||R||,
    with kappa pi(D_W) + m gamma assembled as kappa (pi(D_W) + (m/kappa) gamma)."""
    N = f.geometry.N
    if not m <= kappa <= N:
        raise ValueError("kappa must lie in [m, N]")
    d = f.geometry.d
    inert = inertia(kappa * assemble(f, cl, m / kappa).matrix)
    lam = inert.gap
    curvature = estimate_curvature_norm(f)
    # curvature error terms total 4 d^2 ||R|| a^2 kappa^2 <= 4 d^2 ||R||
    rhs = m ** 2 - 4 * d ** 2 * curvature * f.geometry.spacing ** 2 * kappa ** 2
    margin = lam ** 2 - rhs
    if rhs < 0:
        status = "vacuous"
    else:
        status = "pass" if margin >= -1e-9 else "fail"
    return BoundReport(lambda_min=lam, rhs=rhs, margin=margin, status=status,
                       method=inert.method)


# ---------------------------------------------------------------------------
# almost-commuting unitary tuples


def acm_invariant(t: UnitaryTuple, m: float) -> int:
    """I of sum_j (U_j - U_j*)/2 (x) c_j + (sum_j((U_j+U_j*)/2 - 1) + m) (x) gamma.

    In d=2 this always matches the Bott index (`bott_index_tuple`), but it
    is +-1 only when the tuple is close enough to commuting for m; for
    `clock_shift(3)` at m=1 it is 0.  It needs only the signs of the
    eigenvalues, so it takes the counts from the production factor
    (`inertia_bunch_kaufman`) and computes no spectrum and no gap; the
    Bott index keeps its own dense eigensolve as the cross-check."""
    if t.d % 2 != 0:
        raise ValueError("even dimension required")
    if not 0 < m < 2:
        raise ValueError("mass must lie in (0, 2)")
    H = wilson_matrix(t.unitaries, clifford_rep(t.d), m)
    inert = inertia_bunch_kaufman(H)
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
    from a full dense eigensolve (scipy's `heevr`, `syevr` if real as for
    `clock_shift`) of its basis permutation [[Z, X - iY], [X + iY, -Z]];
    ResourceError if that and its temporaries would not fit in memory."""
    _reserve(2 * len(Z), 2, "Bott matrix")
    B = _real_if_real(np.block([[Z, X - 1j * Y], [X + 1j * Y, -Z]]))
    eigs = sla.eigvalsh(B, overwrite_a=True, check_finite=False)
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