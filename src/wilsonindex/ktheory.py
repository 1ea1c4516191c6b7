"""Topological invariants: the lattice index, the continuum (Pfaffian)
index of constant-flux bundles, the degree of the normalized symbol map,
the a-priori gap bound, and the invariant of almost-commuting unitary
tuples.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .clifford import clifford_rep
from .gauge import (FluxMatrix, GaugeField, _translations, _unitarity_defect,
                    estimate_curvature_norm, link_shift, symmetry_group)
# min_abs_eigenvalue is unused here; perfbench's tracer looks it up by name
from .spectral import (Inertia, _dense_inertia, _tol, half_signature, inertia,  # noqa: F401
                       inertia_bunch_kaufman, min_abs_eigenvalue)
from .wilson import _blocks, _norm_inf, symbol_gap, wilson_matrix

# Global orientation sign relating the lattice invariant to the Pfaffian
# index, calibrated once from the d=2, N=16, K_12=1, m=1 instance under
# the fixed Clifford basis of clifford_rep().  Never adjusted afterwards.
SIGMA = 1


class SingularOperatorError(RuntimeError):
    pass


class ParameterRangeError(ValueError):
    """A mass or kappa outside the range its computation allows."""


@dataclass(frozen=True)
class IndexReport:
    invariant: int
    inertia: Inertia
    mass_mode: str
    mu: float
    curvature_estimate: float
    degree: int  # corner_count_degree(d, mu): the window's doubler count
    continuum_index: int | None = None
    agrees: bool | None = None
    blocks: tuple = ()  # the dimension of each symmetry block, solved or not


@dataclass(frozen=True)
class BoundReport:
    lambda_min: float
    rhs: float
    margin: float
    status: str  # "pass" | "fail" | "vacuous"
    method: str  # the path that found lambda_min, as in Inertia.method


@dataclass(frozen=True, eq=False)
class UnitaryTuple:
    """d almost-commuting n x n unitaries; d, n and epsilon are read off them."""

    unitaries: tuple = field(repr=False)

    @property
    def d(self) -> int:
        return len(self.unitaries)

    @property
    def n(self) -> int:
        return self.unitaries[0].shape[0]

    @cached_property
    def epsilon(self) -> float:
        """max_{j<l} ||[U_j, U_l]||_2, measured on first read, each
        commutator formed sparse (`_sparse_norm`)."""
        U = [sp.csr_matrix(u) for u in self.unitaries]
        return max((_sparse_norm(U[j] @ U[l] - U[l] @ U[j])
                    for j in range(self.d) for l in range(j + 1, self.d)),
                   default=0.0)

    @staticmethod
    def from_matrices(mats) -> "UnitaryTuple":
        mats = tuple(np.asarray(m, dtype=complex) for m in mats)
        if not mats:
            raise ValueError("a tuple needs at least one unitary")
        shape = mats[0].shape[:1] * 2  # (n, n), or () for a 0-d entry
        # not >, so a nan entry is rejected too; n = 0 has no entry to check
        if (not shape or not shape[0] or any(U.shape != shape for U in mats)
                or not _unitarity_defect(mats) <= 1e-12):
            raise ValueError("tuple entries must be unitary")
        return UnitaryTuple(mats)


def _sparse_norm(C: sp.csr_matrix) -> float:
    """||C||_2, exactly: up to a permutation of rows and columns, C is block
    diagonal over the connected components of its bipartite row/column
    pattern, so its norm is their blocks' largest, from dense singular
    values batched by block shape.  The blocks are 1 x 1 for `clock_shift`
    and r x r for a rank-r `gauge_tuple`; a dense C is one block."""
    C = C.tocoo()
    C.eliminate_zeros()
    n = C.shape[0]
    pattern = sp.csr_matrix((np.ones(C.nnz), (C.row, n + C.col)), shape=(2 * n, 2 * n))
    k, label = connected_components(pattern, directed=False)

    def places(lab):
        """Each index's place among its component's, and each component's count."""
        order = np.argsort(lab, kind="stable")
        place = np.empty(n, dtype=int)
        place[order] = np.arange(n) - np.searchsorted(lab[order], lab[order])
        return place, np.bincount(lab, minlength=k)

    (row, rows), (col, cols) = places(label[:n]), places(label[n:])
    comp = label[C.row]
    shapes = np.stack([rows, cols], axis=1)[comp]
    norm = 0.0
    for shape in np.unique(shapes, axis=0):
        same = (shapes == shape).all(axis=1)
        slot = np.unique(comp[same], return_inverse=True)[1]
        blocks = np.zeros((slot.max() + 1, *shape), dtype=C.dtype)
        blocks[slot, row[C.row[same]], col[C.col[same]]] = C.data[same]
        norm = max(norm, float(np.linalg.svd(blocks, compute_uv=False)[:, 0].max()))
    return norm


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


def _block_inertia(f: GaugeField, cl, mu: float, scale: float = 1.0) -> tuple:
    """(inertia, block dimensions) of H = scale * assemble(f, cl, mu).matrix,
    solved as scale times its `symmetry_blocks`, each classified with the
    whole operator's zero threshold `_tol(H)`: from ||H||_inf, which
    `wilson._norm_inf` reads off the links with no H, if the field has a
    symmetry, else from the one block, H itself.  Of the blocks that the
    field's translations (`gauge._translations`) make equivalent, one is
    built and solved for all; the dimensions are every character's, in
    character order."""
    gens, rf = symmetry_group(f)
    tol = _tol(_norm_inf(f, cl, mu, scale)) if gens else None
    blocks, owner = _blocks(f, cl, mu, gens, rf, _translations(f, gens))
    blocks = [scale * B for B in blocks]
    return (inertia(*blocks, tol=tol, mult=np.bincount(owner).tolist()),
            tuple(blocks[i].shape[0] for i in owner))


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
        # not <=, so nan and +-inf are rejected too
        if not 0 < m < math.inf:
            raise ParameterRangeError(
                "parameter out of range: constant mode needs a finite m > 0")
        # m * m, not m ** 2, which raises OverflowError on a huge float
        if m * m <= 4 * d ** 2 * curvature:
            warnings.warn(
                "constant mass below the invertibility threshold "
                "2 d sqrt(||R||); no guarantee", stacklevel=2)
        mu = m * a
    else:
        raise ValueError(f"unknown mass mode {mode!r}")
    inert, blocks = _block_inertia(f, cl, mu)
    if inert.n_zero > 0:
        raise SingularOperatorError(
            "singular operator: decrease a (increase N) or adjust m")
    invariant = half_signature(inert)
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
        degree=degree,
        continuum_index=continuum,
        agrees=agrees,
        blocks=blocks,
    )


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
    and the degree is `corner_count_degree(d, mu)`.  On a window boundary
    (mu = 2c) the symbol vanishes somewhere and the degree is undefined:
    SingularOperatorError, as for a singular lattice operator.
    A nan or infinite mu is a ParameterRangeError.  `resolution` has no
    effect; it is accepted for callers of the former Newton search.
    """
    if not math.isfinite(mu):
        raise ParameterRangeError("mass must be finite")
    if symbol_gap(clifford_rep(d), mu) < 1e-9:
        raise SingularOperatorError("mass sits on a window boundary")
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


def verify_gap_bound(f: GaugeField, m: float, kappa: float) -> BoundReport:
    """Check lambda_min((kappa pi(D_W) + m gamma)^2) >= m^2 - 4 d^2 ||R||,
    with kappa pi(D_W) + m gamma assembled as kappa (pi(D_W) + (m/kappa) gamma)."""
    N = f.geometry.N
    # negated, so nan is rejected too; 0 < m <= kappa <= N keeps both finite
    if not 0 < m <= kappa <= N:
        raise ParameterRangeError("kappa must lie in [m, N], with m > 0")
    d = f.geometry.d
    inert, _ = _block_inertia(f, clifford_rep(d), m / kappa, kappa)
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

    It is +-1 for a pair only when the tuple is close enough to commuting
    for m; for `clock_shift(3)` at m=1 it is 0.  The operator is the
    tuple's `wilson_matrix`, built sparse.  It needs only the signs of the
    eigenvalues, so it takes the counts from the production factor
    (`inertia_bunch_kaufman`) and computes no spectrum and no gap; the
    cross-check `bott_index_tuple` takes every eigenvalue of the same
    operator from the dense oracle, banded or dense.  ResourceError if the
    factor's dense Schur complement would not fit."""
    cl = clifford_rep(t.d)
    if not 0 < m < 2:
        raise ParameterRangeError("mass must lie in (0, 2)")
    inert = inertia_bunch_kaufman(wilson_matrix(t.unitaries, cl, m))
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
    shift = np.eye(n, k=-1, dtype=complex)
    shift[0, n - 1] = 1
    # unitary by construction, so from_matrices' check is skipped
    return UnitaryTuple((clock, shift))


def gauge_tuple(f: GaugeField) -> UnitaryTuple:
    """The link-times-shift unitaries of a gauge field as a UnitaryTuple."""
    # U_j only permutes fibres and applies links, so its unitarity defect is
    # its links' (to rounding), with no n x n product; not >, so nan fails too
    if not _unitarity_defect(f.links.swapaxes(0, 1)) <= 1e-12:
        raise ValueError("tuple entries must be unitary")
    return UnitaryTuple(tuple(link_shift(f, j).toarray() for j in range(f.geometry.d)))


def bott_index_tuple(t: UnitaryTuple, m: float) -> int:
    """The cross-check of `acm_invariant`, on the inputs it takes (even d,
    0 < m < 2; others raise as there): the half-signature of the same operator,
    `wilson_matrix(t.unitaries, clifford_rep(t.d), m)`, with every
    eigenvalue from the dense oracle `spectral._dense_inertia` (checked
    Hermitian, solved on its band if narrow, as for `clock_shift`, zeros by
    `spectral._tol`).  So it is independent of the factor, not the operator.

    At d=2 it is Loring's Bott index (Loring and Schulz-Baldes,
    arXiv:1701.07455): the operator is (1 (x) s3) B (1 (x) s3) for the
    Bott matrix B = X (x) s1 + Y (x) s2 + Z (x) s3 of the Hermitian triple
    (Im U_1, Im U_2, Re U_1 + Re U_2 - 2 + m), since s3 (i s_j) s3 =
    -i s_j and s3 commutes with gamma = s3.  ResourceError if the dense
    copy would not fit."""
    cl = clifford_rep(t.d)
    if not 0 < m < 2:
        raise ParameterRangeError("mass must lie in (0, 2)")
    inert = _dense_inertia(wilson_matrix(t.unitaries, cl, m))
    if inert.n_zero > 0:
        raise SingularOperatorError("Bott matrix is singular")
    return half_signature(inert)
