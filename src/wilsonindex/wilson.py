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

import functools
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .clifford import CliffordRep
from .gauge import GaugeField, link_shift


@dataclass(frozen=True)
class WilsonOperator:
    geometry: object
    rank: int
    clifford: CliffordRep
    mu: float
    mass_mode: str  # "cutoff" | "constant"
    matrix: sp.csr_matrix = field(repr=False)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def wilson_matrix(unitaries, cl: CliffordRep, mu: float):
    """sum_j (U_j - U_j*)/2 (x) c_j + [sum_j ((U_j + U_j*)/2 - 1) + mu] (x) gamma
    for a d-tuple of unitaries U_j: CSR if they are sparse, else dense."""
    if sp.issparse(unitaries[0]):
        kron = functools.partial(sp.kron, format="csr")
        ident = sp.identity(unitaries[0].shape[0], dtype=complex, format="csr")
    else:
        kron, ident = np.kron, np.eye(unitaries[0].shape[0])
    # += adds in place for dense H (one full-size temporary, not two);
    # sparse matrices fall back to H = H + term
    H = 0
    wilson = -len(unitaries) * ident
    for U, c in zip(unitaries, cl.generators):
        Udag = U.conj().T
        H += kron((U - Udag) * 0.5, c)
        wilson = wilson + (U + Udag) * 0.5
    H += kron(wilson + mu * ident, cl.grading)
    return H


def assemble(f: GaugeField, cl: CliffordRep, mu: float,
             mass_mode: str = "cutoff") -> WilsonOperator:
    """Build the dimensionless massive hermitian Wilson-Dirac matrix."""
    if f.geometry.d != cl.d:
        raise ValueError("gauge field and Clifford representation dimension mismatch")
    H = wilson_matrix([link_shift(f, j) for j in range(cl.d)], cl, mu)
    return WilsonOperator(f.geometry, f.rank, cl, float(mu), mass_mode, H)


def matvec(H: WilsonOperator, v: np.ndarray) -> np.ndarray:
    v = np.asarray(v)
    if v.shape[0] != H.dim:
        raise ValueError("vector dimension mismatch")
    return H.matrix @ v


def to_matrix_market(H: WilsonOperator, path) -> None:
    """Export in Matrix Market coordinate format (hermitian storage)."""
    import scipy.io as sio

    sio.mmwrite(path, H.matrix.tocoo(), symmetry="hermitian")


def symbol(cl: CliffordRep, k, mu: float) -> np.ndarray:
    """The symbol D_hat_W(k) + mu*gamma at momentum k in [0,1)^d."""
    k = np.asarray(k, dtype=float)
    mat = np.zeros((cl.dim_s, cl.dim_s), dtype=complex)
    w = 0.0
    for j in range(cl.d):
        mat += cl.generators[j] * (1j * np.sin(2 * np.pi * k[j]))
        w += np.cos(2 * np.pi * k[j]) - 1.0
    mat += (w + mu) * cl.grading
    return mat


def symbol_gap_function(d: int, k_grid: np.ndarray, mu: float) -> np.ndarray:
    """sqrt(sum_j sin^2(2 pi k_j) + (sum_j(cos(2 pi k_j)-1) + mu)^2)
    evaluated on an array of momenta of shape (..., d)."""
    s2 = np.sum(np.sin(2 * np.pi * k_grid) ** 2, axis=-1)
    w = np.sum(np.cos(2 * np.pi * k_grid) - 1.0, axis=-1)
    return np.sqrt(s2 + (w + mu) ** 2)


def _scan_box(d: int, center: np.ndarray, half: float, g: int, mu: float):
    axes = [center[j] + np.linspace(-half, half, g) for j in range(d)]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    vals = symbol_gap_function(d, mesh, mu)
    flat = int(np.argmin(vals))
    idx = np.unravel_index(flat, vals.shape)
    best = np.array([axes[j][idx[j]] for j in range(d)])
    return float(vals[idx]), best


def symbol_gap(cl: CliffordRep, mu: float, grid: int = 64,
               max_refinements: int = 20, rtol: float = 5e-4) -> float:
    """Minimum of the symbol gap over the Brillouin torus.

    Scans a grid^d momentum lattice, then refines locally around the
    minimizer with shrinking boxes until two successive refinements agree
    to three significant digits.  The minimand is smooth, so the coarse
    global scan is enough to locate the basin.
    """
    if grid < 2:
        raise ValueError("grid must be >= 2")
    d = cl.d
    g = grid
    while g ** d > 2 * 10 ** 6 and g > 8:
        g //= 2
    axes = [np.arange(g) / g] * d
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    vals = symbol_gap_function(d, mesh, mu)
    flat = int(np.argmin(vals))
    idx = np.unravel_index(flat, vals.shape)
    best = np.array([idx[j] / g for j in range(d)])
    cur = float(vals[idx])
    half = 1.5 / g
    local_g = 9 if d >= 4 else 33
    for _ in range(max_refinements):
        nxt, best = _scan_box(d, best, half, local_g, mu)
        half /= 3.0
        if abs(nxt - cur) <= rtol * max(abs(nxt), 1e-30) or (
            nxt < 1e-12 and cur < 1e-12
        ):
            return min(nxt, cur)
        cur = min(nxt, cur)
    return cur
