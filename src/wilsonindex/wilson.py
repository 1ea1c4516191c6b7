"""Assembly of the massive hermitian Wilson-Dirac operator and the
translation-invariant symbol on the Brillouin torus.

Everything is assembled in dimensionless form:

    H = sum_j (U_j - U_j*)/2 (x) c_j + [sum_j ((U_j + U_j*)/2 - 1) + mu] (x) gamma

where U_j is the link-times-shift unitary of the gauge field
(`gauge.link_shift`) or, for an almost-commuting tuple, the tuple's own
unitaries; `wilson_matrix` builds it for both.  H equals
a * (D_W + (mu/a) gamma), and positive scaling preserves inertia, so the
cutoff-mass regime is mu = m and the constant-mass regime is mu = a*m.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .clifford import CliffordRep
from .gauge import GaugeField, link_shift


@dataclass(frozen=True, eq=False)
class WilsonOperator:
    matrix: sp.csr_matrix = field(repr=False)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def wilson_matrix(unitaries, cl: CliffordRep, mu: float) -> sp.csr_matrix:
    """The module's H for a d-tuple of unitaries U_j, sparse or dense, as
    A + A* + (mu - d)(1 (x) gamma) with A = sum_j U_j (x) (gamma + c_j)/2:
    since c_j* = -c_j, A + A* = sum_j (U_j - U_j*)/2 (x) c_j
    + (U_j + U_j*)/2 (x) gamma.  The result is CSR and Hermitian by
    construction."""
    A = 0
    for U, c in zip(unitaries, cl.generators):
        U = sp.csr_matrix(U, dtype=complex)
        A = A + sp.kron(U, (cl.grading + c) / 2, format="csr")
    ident = sp.identity(A.shape[0] // len(cl.grading), dtype=complex)
    return A + A.conj().T + sp.kron((mu - len(unitaries)) * ident, cl.grading, format="csr")


def assemble(f: GaugeField, cl: CliffordRep, mu: float) -> WilsonOperator:
    """Build the dimensionless massive hermitian Wilson-Dirac matrix."""
    if f.geometry.d != cl.d:
        raise ValueError("gauge field and Clifford representation dimension mismatch")
    return WilsonOperator(wilson_matrix([link_shift(f, j) for j in range(cl.d)], cl, mu))


def symbol(cl: CliffordRep, k, mu: float) -> np.ndarray:
    """The symbol D_hat_W(k) + mu*gamma at momenta k in [0,1)^d: k of shape
    (..., d) gives (..., s, s), a single k one s x s matrix."""
    k = np.asarray(k, dtype=float)
    w = np.sum(np.cos(2 * np.pi * k) - 1.0, axis=-1) + mu
    mat = np.tensordot(1j * np.sin(2 * np.pi * k), np.array(cl.generators), axes=1)
    return mat + w[..., None, None] * cl.grading


def fourier_diagonalize(f, cl, mu: float) -> np.ndarray:
    """Eigenvalue multiset of the trivial-field operator via the symbol.

    For the translation-invariant (trivial) gauge field the assembled
    operator block-diagonalizes over discrete momenta k in (Z/N)^d / N;
    returns the sorted union of symbol eigenvalues, each with
    multiplicity rank.
    """
    if not np.all(f.links == np.eye(f.rank)):
        raise ValueError("oracle requires translation invariance")
    N, d = f.geometry.N, f.geometry.d
    k = np.indices((N,) * d).reshape(d, -1).T / N
    vals = np.linalg.eigvalsh(symbol(cl, k, mu))
    return np.sort(np.tile(vals, f.rank).ravel())


def symbol_gap(cl: CliffordRep, mu: float) -> float:
    """Minimum of the symbol gap over the Brillouin torus, in closed form.

    With u_j = 1 - cos(2 pi k_j) in [0, 2], sin^2(2 pi k_j) = u_j (2 - u_j)
    and the symbol squares to

        |symbol(k)|^2 = mu^2 + (2 - 2 mu) sum_j u_j + 2 sum_{j<l} u_j u_l,

    which is affine in each u_j.  Its minimum over the box [0, 2]^d lies at
    a corner, i.e. at a momentum k in {0, 1/2}^d; with c half components it
    equals (mu - 2c)^2.  Hence gap(d, mu) = min_{c=0..d} |mu - 2c|, which
    closes exactly at the window boundaries mu in {0, 2, ..., 2d}.
    """
    return float(min(abs(mu - 2 * c) for c in range(cl.d + 1)))
