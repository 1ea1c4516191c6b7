"""Assembly of the massive hermitian Wilson-Dirac operator and the
translation-invariant symbol on the Brillouin torus.

Everything is assembled in dimensionless form:

    H = sum_j (U_j - U_j*)/2 (x) c_j + [sum_j ((U_j + U_j*)/2 - 1) + mu] (x) gamma

where U_j is the link-times-shift unitary of the gauge field
(`gauge.link_shift`) or, for an almost-commuting tuple, the tuple's own
unitaries; `wilson_matrix` builds it for both.  H equals
a * (D_W + (mu/a) gamma), and positive scaling preserves inertia, so the
cutoff-mass regime is mu = m, the constant-mass regime is mu = a*m, and
the gap bound's kappa H(m/kappa) is solved as H(m/kappa), its gap times
kappa: no scaled copy of H or its blocks is made.

For a field that is its own image by signed axis permutations P in some
gauge (`gauge.symmetry_group`), H commutes with each R = W (x) S, W the
gauge-covariant site map x -> Px and S its spinor; H's blocks on the
joint eigenspaces of the R's, one per character of the group (16 at d=4,
4 at d=2, else 2), are real where the field has the antiunitary T.
`symmetry_blocks` returns those that are solved, one of each set that a
translation makes equivalent (`gauge._translations`), and which block
each character has, for `spectral.inertia` to count.  Their zero
threshold is that of ||H||_inf, which `_norm_bound` sums off the links
(an upper bound at N = 2), so a field with the symmetry is never
assembled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

import numpy as np
import scipy.sparse as sp

from .clifford import CliffordRep
from .gauge import GaugeField, _dag, _neighbour, _site_map, _translations, link_shift, symmetry_group


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


def _hops(f: GaugeField, gamma, gens, mu: float, x) -> tuple:
    """(sites, links, spins): the row of H at each site in x as a sum over
    hops of links[k] (x) spins[k] in the block column of sites[k]: the mass
    term on-site, then U_j(x)* (x) (gamma - c_j)/2 to x + e_j and
    U_j(x - e_j) (x) (gamma + c_j)/2 to x - e_j, with gamma and the c_j
    given in the caller's spin basis."""
    geom, U = f.geometry, f.links
    sites, links, spins = [x], [np.eye(f.rank)[None]], [(mu - geom.d) * gamma]
    for j, c in enumerate(gens):
        back = _neighbour(geom, j, -1)[x]
        sites += [_neighbour(geom, j)[x], back]
        links += [_dag(U[x, j]), U[back, j]]
        spins += [(gamma - c) / 2, (gamma + c) / 2]
    return sites, links, spins


def _norm_bound(f: GaugeField, mu: float) -> float:
    """||H||_inf of H = assemble(f, clifford_rep(d), mu).matrix from the
    links, as the largest row sum |mu - d| + sum_j [sum_b |U_j(x)_ba| +
    sum_b |U_j(x - e_j)_ab|] over sites x and fibre rows a.  In
    `clifford_rep`'s basis gamma is diagonal +-1 and each c_j is monomial
    off the diagonal, so every row of (gamma +- c_j)/2 has two entries of
    modulus 1/2, a sum of 1 whatever the spinor row.  For N >= 3 it is
    ||H||_inf in exact arithmetic; at N = 2, where x + e_j = x - e_j and
    the two hops add before the modulus, an upper bound."""
    A, geom = np.abs(f.links), f.geometry
    rows = sum(A[:, j].sum(axis=1) + A[_neighbour(geom, j, -1), j].sum(axis=2) for j in range(geom.d))
    return float(abs(mu - geom.d) + rows.max())


def _spinor(cl: CliffordRep, P: np.ndarray) -> tuple:
    """(S, n): S c_j S^-1 = sum_k P_kj c_k and S gamma = gamma S, scaled so
    that S^n = 1 for the order n of P: gamma for the inversion (n = 2), and
    e^(i pi/4) (1 + c_a c_b)/sqrt 2 for the quarter turn e_a -> e_b
    (n = 4), whose eigenvalues are 1 and i."""
    if np.array_equal(P, -np.eye(cl.d)):
        return cl.grading, 2
    a, b = np.flatnonzero(np.diag(P) == 0)
    a, b = (a, b) if P[b, a] > 0 else (b, a)
    c = cl.generators
    return np.exp(0.25j * np.pi) * (np.eye(cl.dim_s) + c[a] @ c[b]) / np.sqrt(2), 4


def symmetry_blocks(f: GaugeField, cl: CliffordRep, mu: float) -> tuple:
    """(blocks, owner): the diagonal blocks of H = assemble(f, cl, mu).matrix
    that are solved, one per character chi of the field's group G
    (`gauge.symmetry_group`), which commutes with H, but one for each set
    of characters that its translations (`gauge._translations`) make
    equivalent (8 of 16 at d=4 for K = e12 + 2 e34); owner[chi] is the
    index of chi's block.  ((H,), [0]) if G is trivial.  The blocks are
    real symmetric where the field also has the antiunitary T, else
    complex Hermitian.

    Block chi is H where every R_g = W_g (x) S_g is chi(g).  There a vector
    is fixed by its value v at each orbit's least site x0, psi(P_g x0) =
    chi(g)^-1 A_g(x0) v with (R_g psi)(P_g x) = A_g(x) psi(x) =
    (w_g(x) (x) S_g) psi(x), and v lies where x0's stabilizer acts as chi:
    on the whole fibre at a free orbit, else on the eigenvectors of the
    stabilizer's projector (the inversion's fixed sites are the Z2 case).
    So the block is a Wilson operator on the orbits, built from the rows of
    H at the x0: the hop x0 -> y = P_g y0 carries H(x0, y) A_g(y0), times
    chi(g)^-1 sqrt(|orbit of x0| / |orbit of y0|).  The spin basis is first
    turned so that every S_g is diagonal; the c_j stay monomial there
    (cleared of rounding below 1e-12).

    T commutes with H, T^2 = 1 and T R_g T^-1 = R_g^-1, so T keeps each
    block, which is real in a basis that T fixes (Dyson's threefold way):
    (u + Tu)/sqrt 2 and i(u - Tu)/sqrt 2 for each basis vector u of the
    lesser of an orbit o and T(o), a T-fixed basis where T(o) = o.  The
    block's imaginary part, rounding, must be below 1e-12 max |B|
    (ArithmeticError if not); it is dropped, and so are entries below it."""
    gens, rf = symmetry_group(f)
    return _blocks(f, cl, mu, gens, rf, _translations(f, gens))


def _blocks(f: GaugeField, cl: CliffordRep, mu: float, gens: list, rf, shifts=()) -> tuple:
    """(blocks, owner) of `symmetry_blocks` for the field's (gens, T) =
    symmetry_group(f), one block per orbit k -> k + span(shifts) mod orders
    of the characters k, built for its least k, and owner[chi] the index
    of chi's block; with no shifts, one block per character.

    What does not depend on the character is formed once: the hops, the
    merged pattern of M (H on the orbit basis) and T's map of the orbits.
    The bases, one small block of Q per orbit with the stabilizer's
    eigenvectors and T's pairs in it, are formed for the characters whose
    blocks are built, all at once (an eigensolve only at orbits with a
    stabilizer or fixed by T); then, one block at a time, M's data, Q as
    CSR straight from its blocks (real where T is) and the block Q* M Q."""
    if not gens:
        return (assemble(f, cl, mu).matrix,), np.zeros(1, dtype=int)
    geom, r, s, rs = f.geometry, f.rank, cl.dim_s, f.rank * cl.dim_s
    n = geom.n_sites
    spinors, orders = zip(*(_spinor(cl, P) for P, _ in gens))
    # each S + S* has two eigenvalues 2 apart, so powers of 3 separate the
    # joint eigenspaces of the commuting S's
    V = np.linalg.eigh(sum(3 ** a * (S + _dag(S)) for a, S in enumerate(spinors)))[1]

    def spin(A):
        A = _dag(V) @ A @ V
        A[np.abs(A) < 1e-12] = 0
        return A

    # g = prod_a R_a^(k_a) for every k in C order: site map, gauge and
    # spinor diagonal, by R_a R_g = (P_a P_g, w_a(P_g x) w_g(x), S_a S_g)
    perm, w, D = np.arange(n)[None], np.tile(np.eye(r, dtype=complex), (1, n, 1, 1)), np.ones((1, s))
    for (P, wa), S, order in reversed(list(zip(gens, spinors, orders))):
        Pa, Da, ps, ws, Ds = _site_map(geom, P), np.diagonal(spin(S)), [perm], [w], [D]
        for _ in range(order - 1):
            ws.append(wa[ps[-1]] @ ws[-1])
            ps.append(Pa[ps[-1]])
            Ds.append(Da * Ds[-1])
        perm, w, D = np.concatenate(ps), np.concatenate(ws), np.concatenate(Ds)
    k = np.array(list(np.ndindex(*orders)))
    chars = np.exp(2j * np.pi * (k / orders) @ k.T)  # chars[chi, g] = chi(g)
    span = np.zeros((1, len(orders)), dtype=int)
    for sh in shifts:
        span = (span[:, None] + np.arange(max(orders))[:, None] * sh).reshape(-1, len(orders))
    orbit = np.ravel_multi_index(((k[:, None] + span) % orders).T, orders)
    reps_chi, owner = np.unique(orbit.min(axis=0), return_inverse=True)
    # P_h x = x0, the least site of x's orbit, so x = P_g x0 for g = h^-1
    h = perm.argmin(axis=0)
    x0 = perm[h, np.arange(n)]
    reps = np.flatnonzero(x0 == np.arange(n))
    pos = np.empty(n, dtype=int)
    pos[reps] = np.arange(len(reps))
    stab = perm[:, reps] == reps
    n_stab = stab.sum(axis=0)
    # the hops at the x0
    ys, links, spins = _hops(f, spin(cl.grading), [spin(c) for c in cl.generators], mu, reps)
    y = np.stack(ys)
    inv = np.ravel_multi_index((-k % orders).T, orders)
    g, y0 = inv[h[y]], x0[y]
    fibre = np.stack(np.broadcast_arrays(*links)) @ w[g, y0]
    hop = np.stack(spins)[:, None] * D[g][..., None, :]
    T = (fibre[..., :, None, :, None] * hop[..., None, :, None, :]).reshape(*y.shape, rs, rs)
    T *= np.sqrt(n_stab[pos[y0]] / n_stab)[..., None, None]
    t, i, a, b = np.nonzero(T)
    nr = len(reps)
    # M, the operator on the orbit basis, has entry T_e chi(g_e)^-1 at (row_e,
    # col_e) summed over the hops e: its pattern is merged once, entry e
    # adding to stored entry at[e], and only the data is formed per chi
    key, at = np.unique((i * rs + a) * (nr * rs) + pos[y0[t, i]] * rs + b, return_inverse=True)
    indptr = np.searchsorted(key, np.arange(nr * rs + 1) * (nr * rs))
    T, g = T[t, i, a, b], g[t, i]

    def act(g, x):
        """A_g(x) = w_g(x) (x) S_g, S_g the diagonal D[g] in the turned basis."""
        A = np.einsum("...ac,...b,bd->...abcd", w[g, x], D[g], np.eye(s))
        return A.reshape(*A.shape[:-4], rs, rs)

    def basis():
        """(G, own, mask): Q, per built character, has one block per block
        row p, G[p] in block column own[p], of which the columns where
        mask[own[p]] are kept.  Formed for every built character at once;
        what only leads to it is freed on return, before any block."""
        # each x0's basis: the columns of E where `keep`, the eigenvectors of
        # its stabilizer's projector, the identity at a free orbit and
        # solved for at the others
        E = np.tile(np.eye(rs, dtype=complex), (len(reps_chi), nr, 1, 1))
        keep = np.ones((len(reps_chi), nr, rs), dtype=bool)
        bound = np.flatnonzero(n_stab > 1)
        proj = np.tensordot(chars[reps_chi].conj(), stab[:, bound, None, None]
                            * act(np.arange(len(k))[:, None], reps[bound]), 1) / n_stab[bound, None, None]
        lam, E[:, bound] = np.linalg.eigh((proj + _dag(proj)) / 2)
        keep[:, bound] = lam > 0.5
        if rf is None:
            return E, np.arange(nr), keep
        # (T psi)(P_T x) = (w_T(x) (x) S_T) conj(psi(x)): on block chi, v at rep
        # src[p] has the image chi(g2[p]) tau[p] conj(v) at rep p (P_T x_p = P_g x0)
        PT, wT = rf
        X = [c for j, c in enumerate(cl.generators) if (PT[j, j] < 0) == c.real.any()]
        ST = spin(reduce(np.matmul, X, np.eye(s)) @ V.conj() @ _dag(V))
        z = _site_map(geom, PT)[reps]
        src, g2, fixed = pos[x0[z]], inv[h[z]], np.flatnonzero(pos[x0[z]] == np.arange(nr))
        AT = np.einsum("xac,bd->xabcd", wT[z], ST).reshape(nr, rs, rs)
        tau = AT @ act(g2, reps[src]).conj()
        # at p = src[p], the +1 eigenvectors of v -> t conj(v) on (Re v, Im v);
        # else the pair p < src[p] keeps block column p, with v at p and its
        # image at src[p]
        Tu = (chars[reps_chi][:, g2, None, None] * tau)[:, src] @ E.conj()
        home = np.concatenate([E, 1j * E], axis=-1) / np.sqrt(2)
        part = np.concatenate([Tu, -1j * Tu], axis=-1) / np.sqrt(2)
        Ef, kf = E[:, fixed], keep[:, fixed]
        t = _dag(Ef) @ Tu[:, fixed] * kf[..., None, :] * kf[..., None]
        t = np.array([[t.real, t.imag], [t.imag, -t.real]]).transpose(2, 3, 4, 0, 5, 1)
        lamT, Y = np.linalg.eigh(t.reshape(len(E), len(fixed), 2 * rs, 2 * rs))
        home[:, fixed] = Ef @ (Y[..., 0::2, :] + 1j * Y[..., 1::2, :])
        mask = np.tile(keep & (src > np.arange(nr))[:, None], 2)
        mask[:, fixed] = lamT > 0.5
        own = np.minimum(src, np.arange(nr))
        return np.where((own == np.arange(nr))[:, None, None], home, part[:, src]), own, mask

    G, own, mask = basis()
    blocks = []
    for Gc, mc, chi in zip(G, mask, reps_chi):
        data = T * chars[chi, g].conj()
        M = sp.csr_matrix((np.bincount(at, data.real, len(key)) + 1j * np.bincount(at, data.imag, len(key)),
                           key % (nr * rs), indptr), shape=(nr * rs,) * 2)
        kept = np.broadcast_to(mc[own][:, None], Gc.shape)
        col = np.broadcast_to(np.cumsum(mc).reshape(mc.shape)[own][:, None] - 1, Gc.shape)
        Q = sp.csr_matrix((Gc[kept], col[kept], np.r_[0, np.cumsum(kept.sum(axis=-1))]),
                          shape=(nr * rs, np.count_nonzero(mc)))
        Q.eliminate_zeros()
        B = (Q.conj().T @ M @ Q).tocsr()
        if rf is not None:
            big = np.abs(B.data).max(initial=0)
            # not >, so a nan entry fails too
            if not np.abs(B.data.imag).max(initial=0) <= 1e-12 * big:
                raise ArithmeticError("a symmetry block is not real")
            B = B.real
            B.data[np.abs(B.data) < 1e-12 * big] = 0
        B.eliminate_zeros()
        blocks.append(B)
    return tuple(blocks), owner


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
