"""Assembly of the massive hermitian Wilson-Dirac operator and the
translation-invariant symbol on the Brillouin torus.

Everything is assembled in dimensionless form:

    H = sum_j (U_j - U_j*)/2 (x) c_j + [sum_j ((U_j + U_j*)/2 - 1) + mu] (x) gamma

where U_j is the link-times-shift unitary of the gauge field
(`gauge.link_shift`) or, for an almost-commuting tuple, the tuple's own
unitaries; `wilson_matrix` builds it for both.  H equals
a * (D_W + (mu/a) gamma), and positive scaling preserves inertia, so the
cutoff-mass regime is mu = m and the constant-mass regime is mu = a*m.

For a field that is its own image by x -> -x in some gauge g
(`gauge.inversion_gauge`), H commutes with the involution
R = (g o -x) (x) gamma, and `parity_blocks` returns H's two half-size
blocks on R's eigenspaces, which `spectral.inertia` takes in place of H.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .clifford import CliffordRep
from .gauge import GaugeField, _inversion, inversion_gauge, link_shift


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


def _parity_bases(f: GaugeField, g: np.ndarray, cl: CliffordRep) -> list:
    """[Q+, Q-]: orthonormal CSR bases of the +1 and -1 eigenspaces of the
    involution R = V (x) gamma, (V psi)(x) = g(-x) psi(-x).

    The columns are (e +- R e)/|e +- R e| for the fibre vectors e at the
    sites x <= -x, in index order, less those that vanish.  At x != -x,
    R e sits at -x, and each e gives one column of each basis.  At a fixed
    site x = -x, where g(x) is a Hermitian involution, the fibre is first
    written in g(x)'s eigenbasis and R is diagonal there (gamma is), so e
    lies in one eigenspace; tr gamma = 0, so both bases get n/2 columns."""
    n_sites, r, s = f.geometry.n_sites, f.rank, len(cl.grading)
    inv = _inversion(f.geometry)
    fixed = inv == np.arange(n_sites)
    T = np.tile(np.eye(r, dtype=complex), (n_sites, 1, 1))
    T[fixed] = np.linalg.eigh(g[fixed])[1]
    T = sp.bsr_matrix((T, np.arange(n_sites), np.arange(n_sites + 1)))
    V = sp.bsr_matrix((g[inv], inv, np.arange(n_sites + 1)))
    R = sp.kron(T.conj().T @ V @ T, cl.grading, format="csc")
    Ts = sp.kron(T, sp.identity(s), format="csr")
    x = np.repeat(np.arange(n_sites) <= inv, r * s)
    bases = []
    for sigma in (1, -1):
        P = (sp.identity(len(x), format="csc") + sigma * R)[:, x]
        # sqrt 2 at a pair of sites; 2, or 0 to rounding, at a fixed site
        norm = np.sqrt(np.asarray(abs(P).power(2).sum(axis=0)).ravel())
        bases.append(Ts @ P[:, norm > 1] @ sp.diags(1 / norm[norm > 1]))
    return bases


def parity_blocks(f: GaugeField, cl: CliffordRep, H: sp.csr_matrix) -> tuple:
    """The diagonal blocks of H = c * assemble(f, cl, mu).matrix (any mu,
    any real c) in a basis that block-diagonalizes it: Q+* H Q+ and
    Q-* H Q- (`_parity_bases`) when the field is its own image by x -> -x
    (`gauge.inversion_gauge`), as every constant-flux field is, since
    R H = H R; else (H,).  Each block is formed on its own, not cut out of
    Q* H Q, whose entries between the blocks are rounding residues, not
    zeros."""
    g = inversion_gauge(f)
    if g is None:
        return (H,)
    return tuple((Q.conj().T @ H @ Q).tocsr() for Q in _parity_bases(f, g, cl))


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
