"""U(r) link fields on the finite torus (Z/N)^d.

A gauge field assigns one unitary r x r matrix to every (site, direction)
pair: the parallel transport from the fiber over x to the fiber over
x + e_j.  Constant-flux line bundles are built in closed form with the
standard boundary-twist prescription, so every plaquette in a flux-carrying
coordinate plane has the same phase 2*pi*K_jl/N^2.

`inversion_gauge` finds, and checks on every link, the gauge under which a
field is its own image by x -> -x; every constant-flux field has one, and
`wilson.parity_blocks` splits the operator of such a field in two.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp


@dataclass(frozen=True)
class LatticeGeometry:
    """Finite torus (Z/N)^d with lattice spacing a = 1/N.

    Sites are indexed lexicographically: coordinates (x_1, ..., x_d) map to
    x_1*N^(d-1) + ... + x_d (C order).
    """

    d: int
    N: int

    @property
    def n_sites(self) -> int:
        return self.N ** self.d

    @property
    def spacing(self) -> float:
        return 1.0 / self.N


@dataclass(frozen=True, eq=False)
class FluxMatrix:
    """Antisymmetric integer matrix of first-Chern fluxes per 2-plane."""

    d: int
    K: np.ndarray

    def __post_init__(self):
        K = np.asarray(self.K, dtype=int)
        if K.shape != (self.d, self.d):
            raise ValueError("flux matrix must be d x d")
        if not np.array_equal(K, -K.T):
            raise ValueError("flux matrix must be antisymmetric")
        K.setflags(write=False)
        object.__setattr__(self, "K", K)

    @staticmethod
    def zero(d: int) -> "FluxMatrix":
        return FluxMatrix(d, np.zeros((d, d), dtype=int))

    @staticmethod
    def from_entries(d: int, entries) -> "FluxMatrix":
        """entries: iterable of (j, l, k) with 1-based j < l."""
        K = np.zeros((d, d), dtype=int)
        for j, l, k in entries:
            K[j - 1, l - 1] += k
            K[l - 1, j - 1] -= k
        return FluxMatrix(d, K)

    def __add__(self, other: "FluxMatrix") -> "FluxMatrix":
        if self.d != other.d:
            raise ValueError("flux dimension mismatch")
        return FluxMatrix(self.d, self.K + other.K)


@dataclass(frozen=True, eq=False)
class GaugeField:
    """Link field: links[site, j] is the r x r transport U_j(x).

    flux_sectors records provenance for fields assembled from
    constant-flux line bundles; it feeds the continuum-index prediction
    and is None when unknown.
    """

    geometry: LatticeGeometry
    rank: int
    links: np.ndarray = field(repr=False)
    flux_sectors: tuple | None = None


def make_geometry(d: int, N: int) -> LatticeGeometry:
    if d < 1:
        raise ValueError("dimension must be positive")
    if N < 2:
        raise ValueError("lattice too coarse")
    return LatticeGeometry(d=d, N=N)


def _new_links(geom: LatticeGeometry, rank: int) -> np.ndarray:
    links = np.zeros((geom.n_sites, geom.d, rank, rank), dtype=complex)
    links[:, :] = np.eye(rank)
    return links


def _dag(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a stack of matrices."""
    return a.conj().swapaxes(-1, -2)


def _unitarity_defect(stack) -> float:
    """max |(u u* - 1)_ij| over the stack's first axis, one entry u at a time; nan if any."""
    return float(np.max([np.abs(u @ _dag(u) - np.eye(u.shape[-1])).max() for u in stack]))


def _neighbour(geom: LatticeGeometry, j: int, step: int = 1) -> np.ndarray:
    """Site index of x + step*e_j for every site x (periodic, lexicographic)."""
    sites = np.arange(geom.n_sites).reshape((geom.N,) * geom.d)
    return np.roll(sites, -step, axis=j).ravel()


def _inversion(geom: LatticeGeometry) -> np.ndarray:
    """Site index of -x (mod N) for every site x."""
    sites = np.arange(geom.n_sites).reshape((geom.N,) * geom.d)
    return np.roll(np.flip(sites), 1, axis=tuple(range(geom.d))).ravel()


def _comb_gauge(f: GaugeField, inv: np.ndarray) -> np.ndarray:
    """`inversion_gauge`'s g, unchecked: g(x + e_j) = U_j(i(x + e_j))^-1
    g(x) U_j(x)^-1 from g(0) = 1 along the x_1 axis, then along e_2 from
    each of its sites, and so on."""
    geom, U = f.geometry, f.links
    g = np.tile(np.eye(f.rank, dtype=complex), (geom.n_sites, 1, 1))
    sites = np.arange(geom.n_sites).reshape((geom.N,) * geom.d)
    for j in range(geom.d):
        nb = _neighbour(geom, j)
        for t in range(geom.N - 1):
            # the sites with x_j = t and x_l = 0 for l > j
            x = sites[(slice(None),) * j + (t,) + (0,) * (geom.d - j - 1)].ravel()
            g[nb[x]] = _dag(U[inv[nb[x]], j]) @ g[x] @ _dag(U[x, j])
    return g


def inversion_gauge(f: GaugeField) -> np.ndarray | None:
    """The gauge g, an (n_sites, r, r) stack with g(0) = 1, under which the
    field is its own image by the inversion i(x) = -x:
    U_j(i(x) - e_j)^-1 = g(x + e_j) U_j(x) g(x)^-1 on every link, to 1e-12;
    None if there is none (a perturbed field, for instance).

    The rule fixes g along a comb from the origin (`_comb_gauge`), and
    every link is then checked.  If all hold, g(i(x)) g(x) = 1 (it is 1 at
    x = 0 and transported by every link), so (V psi)(x) = g(i(x)) psi(i(x))
    is an involution that sends each link-times-shift U_j to U_j*."""
    geom, U = f.geometry, f.links
    inv = _inversion(geom)
    g = _comb_gauge(f, inv)
    for j in range(geom.d):
        nb = _neighbour(geom, j)
        # not >, so a nan link fails too
        if not np.abs(_dag(U[inv[nb], j]) - g[nb] @ U[:, j] @ _dag(g)).max() <= 1e-12:
            return None
    return g


def trivial_field(geom: LatticeGeometry, rank: int = 1) -> GaugeField:
    if rank < 1:
        raise ValueError("rank must be >= 1")
    sectors = tuple(FluxMatrix.zero(geom.d) for _ in range(rank))
    return GaugeField(geom, rank, _new_links(geom, rank), sectors)


def constant_flux_field(geom: LatticeGeometry, flux: FluxMatrix) -> GaugeField:
    """U(1) link field of a constant-curvature line bundle.

    Per plane j < l with flux K_jl: the bulk phase sits on U_l and grows
    linearly in x_j, and U_j carries the compensating boundary twist on
    the hyperplane x_j = N-1.  All (j,l)-plaquettes then equal
    exp(2*pi*i*K_jl/N^2) and the total flux per 2-torus slice is
    exp(2*pi*i*K_jl).
    """
    if flux.d != geom.d:
        raise ValueError("flux dimension mismatch")
    N = geom.N
    coords = np.indices((N,) * geom.d).reshape(geom.d, -1)
    theta = np.zeros((geom.n_sites, geom.d))
    for j in range(geom.d):
        for l in range(j + 1, geom.d):
            k = flux.K[j, l]
            if k == 0:
                continue
            theta[:, l] += 2 * np.pi * k * coords[j] / N ** 2
            edge = coords[j] == N - 1
            theta[edge, j] -= 2 * np.pi * k * coords[l, edge] / N
    links = _new_links(geom, 1)
    links[:, :, 0, 0] = np.exp(1j * theta)
    return GaugeField(geom, 1, links, (flux,))


def tensor_field(f: GaugeField, g: GaugeField) -> GaugeField:
    if f.geometry != g.geometry:
        raise ValueError("geometry mismatch")
    rank = f.rank * g.rank
    links = np.einsum("sjab,sjcd->sjacbd", f.links, g.links).reshape(
        f.geometry.n_sites, f.geometry.d, rank, rank
    )
    sectors = None
    if f.flux_sectors is not None and g.flux_sectors is not None:
        sectors = tuple(kf + kg for kf in f.flux_sectors for kg in g.flux_sectors)
    return GaugeField(f.geometry, rank, links, sectors)


def direct_sum_field(f: GaugeField, g: GaugeField) -> GaugeField:
    if f.geometry != g.geometry:
        raise ValueError("geometry mismatch")
    rank = f.rank + g.rank
    links = _new_links(f.geometry, rank)
    links[:, :, : f.rank, : f.rank] = f.links
    links[:, :, f.rank :, f.rank :] = g.links
    sectors = None
    if f.flux_sectors is not None and g.flux_sectors is not None:
        sectors = f.flux_sectors + g.flux_sectors
    return GaugeField(f.geometry, rank, links, sectors)


def perturb_field(f: GaugeField, strength: float, seed: int) -> GaugeField:
    """Multiply every link by exp(i H) with a seeded random Hermitian H,
    ||H|| <= strength.  Generator: numpy default_rng (PCG64)."""
    # not <, so nan and inf are rejected too
    if not 0 <= strength < np.inf:
        raise ValueError("strength must be finite and >= 0")
    if strength == 0:
        return f
    rng = np.random.default_rng(seed)
    n, d, r = f.geometry.n_sites, f.geometry.d, f.rank
    raw = rng.standard_normal((n, d, 2, r, r))
    raw = raw[:, :, 0] + 1j * raw[:, :, 1]
    w, v = np.linalg.eigh((raw + _dag(raw)) / 2)
    # ||H||_2 = max |eigenvalue|; the floor only guards an all-zero draw
    norm = np.maximum(np.abs(w).max(axis=-1, keepdims=True), np.finfo(float).tiny)
    expih = (v * np.exp(1j * w * (strength / norm))[..., None, :]) @ _dag(v)
    return GaugeField(f.geometry, r, f.links @ expih, None)


def plaquette(f: GaugeField, j: int, l: int) -> np.ndarray:
    """Ordered transport around the elementary (j,l) square at every site
    x, as an (n_sites, r, r) stack: along e_j, then e_l, then back along
    e_j and e_l, U_l(x)^-1 U_j(x+e_l)^-1 U_l(x+e_j) U_j(x) read right to
    left.  It transforms as P -> g(x) P g(x)* under `gauge_transform`.
    For the constant-flux field this has phase +2*pi*K_jl/N^2 (0-based
    directions j < l)."""
    U = f.links
    xj = _neighbour(f.geometry, j)
    xl = _neighbour(f.geometry, l)
    return _dag(U[:, l]) @ _dag(U[xl, j]) @ U[xj, l] @ U[:, j]


def estimate_curvature_norm(f: GaugeField) -> float:
    """max over sites and planes of ||P_jl(x) - 1||_2 / a^2."""
    geom = f.geometry
    eye = np.eye(f.rank)
    worst = 0.0
    for j in range(geom.d):
        for l in range(j + 1, geom.d):
            dev = np.linalg.norm(plaquette(f, j, l) - eye, 2, axis=(-2, -1))
            worst = max(worst, float(dev.max()))
    return worst * geom.N ** 2


def gauge_transform(f: GaugeField, g) -> GaugeField:
    """Conjugate by a site-dependent unitary: U_j(x) -> g(x+e_j) U_j(x) g(x)*.

    g: array (n_sites, r, r).  Used to test gauge covariance.
    """
    geom = f.geometry
    g = np.asarray(g)
    links = np.empty_like(f.links)
    for j in range(geom.d):
        links[:, j] = g[_neighbour(geom, j)] @ f.links[:, j] @ _dag(g)
    return GaugeField(geom, f.rank, links, f.flux_sectors)


def link_shift(f: GaugeField, j: int) -> sp.csr_matrix:
    """Sparse link-times-shift unitary U_j on sites (x) C^r:
    (U_j psi)(x + e_j) = U_j(x) psi(x)."""
    n, r = f.geometry.n_sites, f.rank
    # block row y holds U_j(x) in block column x, where y = x + e_j
    src = _neighbour(f.geometry, j, -1)
    return sp.bsr_matrix((f.links[src, j], src, np.arange(n + 1)),
                         shape=(n * r, n * r)).tocsr()

