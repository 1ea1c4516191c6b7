"""U(r) link fields on the finite torus (Z/N)^d.

A gauge field assigns one unitary r x r matrix to every (site, direction)
pair: the parallel transport from the fiber over x to the fiber over
x + e_j.  Constant-flux line bundles are built in closed form with the
standard boundary-twist prescription, so every plaquette in a flux-carrying
coordinate plane has the same phase 2*pi*K_jl/N^2.

`symmetry_gauge` finds, and checks on every link, the gauge under which a
field, or its conjugate, is its own image by a signed axis permutation; it
fixes the gauge outward from the origin by prefix products along each axis
(`_comb`, ceil(log2 N) batched matmuls per axis).  `symmetry_group`
collects the P that pass, the quarter turns of the planes of
K = k12 e12 + k34 e34 (Z4^(d/2)) else the inversion (Z2), and the
antiunitary T that makes `wilson.symmetry_blocks`' character blocks real.
`_translations` finds the half-period magnetic translations that meet each
quarter turn up to a scalar -1 and so make pairs of those blocks
equivalent; it reads that scalar off the turns' gauges first, so it builds
no translation gauge where none can pair blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

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


def _site_map(geom: LatticeGeometry, P, shift=0) -> np.ndarray:
    """Site index of Px + shift (mod N) for every site x, P a d x d signed permutation."""
    x = np.indices((geom.N,) * geom.d).reshape(geom.d, -1)
    return np.ravel_multi_index((np.asarray(P) @ x + np.c_[shift]) % geom.N, (geom.N,) * geom.d)


def _prefix(a: np.ndarray, right: bool = False) -> np.ndarray:
    """Inclusive prefix products along axis 1 of a stack of matrices,
    p_t = a_t ... a_1 a_0, or a_0 a_1 ... a_t if right, by doubling: one
    batched matmul per power of 2 below the length."""
    p, s = a.copy(), 1
    while s < a.shape[1]:
        p[:, s:] = p[:, :-s] @ p[:, s:] if right else p[:, s:] @ p[:, :-s]
        s *= 2
    return p


def _comb(geom: LatticeGeometry, step: list, link: list) -> tuple:
    """(w, L), (n_sites, r, r) stacks that are 1 at the origin and fixed
    outward along each axis in turn (the x_1 axis, then e_2 from each of
    its sites, and so on): w(x + e_j) = A(x) w(x) B(x)* and
    L(x + e_j) = A(x) L(x), A = step[j] and B = link[j] given at every
    site, wherever x_l = 0 for l > j.  On such a line x_0, x_1, ... that is
    w(x_t) = A(x_t-1) ... A(x_0) w(x_0) B(x_0)* ... B(x_t-1)*: two prefix
    products (`_prefix`), for all lines of the axis at once."""
    N, r = geom.N, step[0].shape[-1]
    one = np.eye(r, dtype=complex)
    w = np.tile(one, (geom.n_sites, 1, 1))
    L, sites = w.copy(), np.arange(geom.n_sites).reshape((N,) * geom.d)
    for j in range(geom.d):
        # one row per line: its sites with x_j = 0, ..., N - 1 and x_l = 0 for l > j
        x = sites[(slice(None),) * (j + 1) + (0,) * (geom.d - j - 1)].reshape(-1, N)
        start = np.broadcast_to(one, (len(x), 1, r, r))
        A = _prefix(np.concatenate([start, step[j][x[:, :-1]]], axis=1))
        B = _prefix(np.concatenate([start, _dag(link[j][x[:, :-1]])], axis=1), right=True)
        w[x], L[x] = A @ w[x[:, :1]] @ B, A @ L[x[:, :1]]
    return w, L


def symmetry_gauge(f: GaugeField, P, conj: bool = False, shift=0) -> np.ndarray | None:
    """The gauge w, an (n_sites, r, r) stack with w(0) = 1, under which the
    field is its own image by the signed axis permutation x -> Px + shift
    (the inversion is P = -1, a translation P = 1): with P e_j = s e_k and
    Fx = Px + shift, w(x + e_j) U_j(x) w(x)^-1 is U_k(Fx) if s = 1,
    U_k(F(x + e_j))^-1 if s = -1, on every link to 1e-12; None if there is
    none (a perturbed field, for instance).  With conj, the source link
    U_j(x) is its complex conjugate: the gauge of the antiunitary
    (W psi)(Px) = w(x) conj(psi(x)).

    The rule fixes w along a comb from the origin (`_comb`, by prefix
    products), and every link is then checked.
    If all hold, (W psi)(Fx) = w(x) psi(x) sends each U_j to U_k, or U_k*,
    and W^n = 1 where P^n = 1 and shift = 0: W^n is on-site, commutes with
    every U_j and is 1 at x = 0.  A non-abelian field may need w(0) != 1
    where F moves the origin (or W conjugates): it is solved for."""
    geom, U = f.geometry, f.links
    V = U.conj() if conj else U
    P = np.asarray(P)
    k = np.abs(P).argmax(axis=0)
    Px = _site_map(geom, P, shift)
    nbs = [_neighbour(geom, j) for j in range(geom.d)]
    # the image of each link U_j(x), at every site x
    image = [U[Px, k[j]] if P[k[j], j] > 0 else _dag(U[Px[nb], k[j]])
             for j, nb in enumerate(nbs)]
    e = np.eye(f.rank)
    w, L = _comb(geom, image, [V[:, j] for j in range(geom.d)])
    if (conj or np.any(shift)) and f.rank > 1:
        # w = L w0 L* w for the polar factor w0 of 1 projected on the null
        # space of a w0 = w0 b, all links
        R = _dag(L) @ w
        K = np.concatenate([np.einsum("xac,bd->xabcd", _dag(L[nb]) @ image[j] @ L, e)
                            - np.einsum("ac,xdb->xabcd", e, R[nb] @ V[:, j] @ _dag(R))
                            for j, nb in enumerate(nbs)]).reshape(-1, f.rank ** 2, f.rank ** 2)
        lam, Z = np.linalg.eigh(np.einsum("xji,xjk->ik", K.conj(), K))
        Z = Z[:, lam <= 1e-16 * len(K)]
        u, _, vh = np.linalg.svd((Z @ _dag(Z) @ e.ravel()).reshape(e.shape))
        w = L @ (u @ vh) @ _dag(L) @ w
    for j, nb in enumerate(nbs):
        # not >, so a nan link fails too
        if not np.abs(image[j] - w[nb] @ V[:, j] @ _dag(w)).max() <= 1e-12:
            return None
    # the square of a conjugating W is w(Px) conj(w(x)), on-site: 1 at x = 0
    return None if conj and not np.abs(w[0] @ w[0].conj() - e).max() <= 1e-12 else w


def quarter_turn(d: int, a: int, b: int) -> np.ndarray:
    """The signed permutation e_a -> e_b, e_b -> -e_a (0-based axes)."""
    P = np.eye(d, dtype=int)
    P[[a, b], [a, b]] = 0
    P[b, a], P[a, b] = 1, -1
    return P


def _pairings(axes: list):
    """Every partition of axes into pairs, the consecutive pairs first."""
    if not axes:
        yield []
    for i in range(1, len(axes)):
        for rest in _pairings(axes[1:i] + axes[i + 1:]):
            yield [(axes[0], axes[i])] + rest


def symmetry_group(f: GaugeField) -> tuple:
    """(gens, T): generators (P, symmetry_gauge(f, P)) of the field's
    symmetry group, the quarter turns of the first pairing of the axes into
    planes whose turns all pass, else the inversion alone, else none (none
    at odd d, where -1 reverses orientation), and an antiunitary T = (P, w)
    or None.  A flux K passes with a pairing that no K_jl joins across,
    (1,2)(3,4) for K = k12 e12 + k34 e34 or (1,3)(2,4) for e13 - e24;
    K = e12 + e13 has none.  The turns of one pairing commute, their W's
    too (the commutator is on-site, commutes with every U_j and is 1 at
    x = 0), so the group is Z4^(d/2), or Z2.

    T, sought where there are gens, is the first reflection P = diag(+-1)
    of axes A, |A| = d/2 mod 4, with P Q P = Q^-1 for each generator Q and
    a gauge `symmetry_gauge(f, P, conj=True)`.  Its spinor c_X, X = A xor
    {j : c_j imaginary}, then has c_X conj(c_X) = 1 and inverts each S_Q:
    T^2 = 1 and T R T^-1 = R^-1, as their gauges are 1 at x = 0."""
    d = f.geometry.d
    if d % 2:
        return [], None
    for pairs in _pairings(list(range(d))):
        gens = [(P, symmetry_gauge(f, P)) for P in (quarter_turn(d, a, b) for a, b in pairs)]
        if all(w is not None for _, w in gens):
            break
    else:
        minus = -np.eye(d, dtype=int)
        w = symmetry_gauge(f, minus)
        gens = [] if w is None else [(minus, w)]
    for A in (A for n in range(d // 2 % 4, d + 1, 4) for A in combinations(range(d), n)):
        P = np.diag([-1 if j in A else 1 for j in range(d)])
        if gens and all(np.array_equal(P @ Q @ P, Q.T) for Q, _ in gens):
            w = symmetry_gauge(f, P, conj=True)
            if w is not None:
                return gens, (P, w)
    return gens, None


def _translations(f: GaugeField, gens: list) -> list:
    """Exponent vectors s of the field's half-period magnetic translations
    that pair blocks, for gens (from `symmetry_group`) that are quarter
    turns: in each turn's plane (a, b), at even N, x -> x + t,
    t = (N/2)(e_a + e_b), with gauge `symmetry_gauge(f, 1, shift=t)`, kept
    if every generator R meets it up to a scalar on every site to 1e-12,
    R U_t = c U_t R with c = exp(i pi s_R / 2), and some c is -1.  U_t
    commutes with H and maps block chi onto block chi + s.  As Pt = t
    mod N, the commutator at P(x + t) is w_R(x + t) w_t(x) [w_t(Px)
    w_R(x)]^-1, and c = w_R(t) (x = 0): -1 on the plane's turn where its
    flux is 2 mod 4, 1 where it is 0 mod 4 (s = 0: a translation that pairs
    nothing), +-i where it is odd (no translation).  So c is read off the
    turns' gauges first, and w_t is built and checked only where some c
    is -1."""
    geom, one, shifts = f.geometry, np.eye(f.geometry.d, dtype=int), []
    for P, _ in gens:
        t = (np.diag(P) == 0) * (geom.N // 2)
        if geom.N % 2 or not t.any():
            continue
        c = np.stack([wR[np.ravel_multi_index(t, (geom.N,) * geom.d)] for _, wR in gens])
        s = np.rint(np.angle(c[:, 0, 0]) * 2 / np.pi).astype(int) % 4
        phase = np.exp(0.5j * np.pi * s)[:, None, None] * np.eye(f.rank)
        # not >, so a nan fails too
        if (not (s == 2).any() or not np.abs(c - phase).max() <= 1e-12
                or (wt := symmetry_gauge(f, one, shift=t)) is None):
            continue
        shifted = _site_map(geom, one, t)
        c = np.stack([wR[shifted] @ wt @ _dag(wt[_site_map(geom, Q)] @ wR) for Q, wR in gens])
        if np.abs(c - phase[:, None]).max() <= 1e-12:
            shifts.append(s)
    return shifts


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
    """max over sites and planes of ||P_jl(x) - 1||_2 / a^2; at rank 1 the
    modulus |P_jl(x) - 1|, with no SVD."""
    geom = f.geometry
    eye = np.eye(f.rank)
    worst = 0.0
    for j in range(geom.d):
        for l in range(j + 1, geom.d):
            dev = plaquette(f, j, l) - eye
            if f.rank == 1:
                # as the 1 x 1 SVD takes it (LAPACK's dlapy3), so bit for bit
                # the same: w sqrt(1 + (v/w)^2) for v <= w the two |parts|
                re, im = np.abs(dev[:, 0, 0].real), np.abs(dev[:, 0, 0].imag)
                w = np.maximum(re, im)
                q = np.divide(np.minimum(re, im), w, out=np.zeros_like(w), where=w > 0)
                dev = w * np.sqrt(1 + q * q)
            else:
                dev = np.linalg.norm(dev, 2, axis=(-2, -1))
            # np.maximum, not max, so a nan plaquette gives nan
            worst = np.maximum(worst, dev.max())
    return float(worst) * geom.N ** 2


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

