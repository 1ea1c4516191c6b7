import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from wilsonindex import (
    FluxMatrix,
    assemble,
    clifford_rep,
    constant_flux_field,
    direct_sum_field,
    gauge_transform,
    make_geometry,
    perturb_field,
    symbol,
    symbol_gap,
    trivial_field,
)
from wilsonindex import spectral
from wilsonindex.gauge import _site_map, link_shift, symmetry_group
from wilsonindex.ktheory import clock_shift, gauge_tuple
from wilsonindex.spectral import inertia
from wilsonindex.wilson import (WilsonOperator, _blocks, _norm_bound, _spinor, fourier_diagonalize,
                                symmetry_blocks, wilson_matrix)


def symbol_gap_function(d: int, k_grid: np.ndarray, mu: float) -> np.ndarray:
    """Reference symbol gap sqrt(sum_j sin^2(2 pi k_j)
    + (sum_j(cos(2 pi k_j) - 1) + mu)^2) on momenta of shape (..., d), the
    oracle of the closed-form `symbol_gap`."""
    s2 = np.sum(np.sin(2 * np.pi * k_grid) ** 2, axis=-1)
    w = np.sum(np.cos(2 * np.pi * k_grid) - 1.0, axis=-1)
    return np.sqrt(s2 + (w + mu) ** 2)


def test_assembled_matrix_hermitian():
    f = constant_flux_field(make_geometry(2, 4), FluxMatrix.from_entries(2, [(1, 2, 1)]))
    H = assemble(f, clifford_rep(2), 1.0).matrix.toarray()
    assert np.max(np.abs(H - H.conj().T)) < 1e-12


def test_operator_is_its_matrix():
    assert [f.name for f in dataclasses.fields(WilsonOperator)] == ["matrix"]
    op = assemble(trivial_field(make_geometry(2, 4)), clifford_rep(2), 1.0)
    assert op.dim == op.matrix.shape[0] == 32


def test_dimension_mismatch_rejected():
    f = trivial_field(make_geometry(2, 4))
    with pytest.raises(ValueError, match="dimension mismatch"):
        assemble(f, clifford_rep(4), 1.0)


def test_operator_dimension():
    f = trivial_field(make_geometry(4, 2), rank=3)
    op = assemble(f, clifford_rep(4), 0.5)
    assert op.dim == 2 ** 4 * 3 * 4


def test_symbol_hermitian_and_square_is_gap_squared():
    cl = clifford_rep(4)
    rng = np.random.default_rng(2)
    for _ in range(10):
        k = rng.uniform(0, 1, 4)
        mu = rng.uniform(-1, 3)
        S = symbol(cl, k, mu)
        assert np.max(np.abs(S - S.conj().T)) < 1e-12
        f2 = symbol_gap_function(4, k, mu) ** 2
        assert np.max(np.abs(S @ S - f2 * np.eye(cl.dim_s))) < 1e-10


@pytest.mark.parametrize("d,N,mu", [(2, 2, 0.5), (2, 4, 1.0), (2, 4, 3.0),
                                    (4, 2, 0.5), (4, 2, 1.0)])
def test_trivial_field_eigenvalues_match_momentum_sampling(d, N, mu):
    cl = clifford_rep(d)
    f = trivial_field(make_geometry(d, N), rank=1)
    got = np.sort(np.linalg.eigvalsh(assemble(f, cl, mu).matrix.toarray()))
    want = fourier_diagonalize(f, cl, mu)
    assert np.max(np.abs(got - want)) < 1e-10


def test_symbol_takes_stacked_momenta():
    rng = np.random.default_rng(4)
    for d in (2, 4):
        cl = clifford_rep(d)
        k = rng.uniform(0, 1, (3, 5, d))
        shape = (3, 5, cl.dim_s, cl.dim_s)
        stacked = np.stack([symbol(cl, q, 0.7) for q in k.reshape(-1, d)])
        assert symbol(cl, k, 0.7).shape == shape
        np.testing.assert_allclose(symbol(cl, k, 0.7), stacked.reshape(shape),
                                   rtol=0, atol=1e-14)


def test_momentum_oracle_repeats_each_level_rank_times():
    cl = clifford_rep(2)
    f = trivial_field(make_geometry(2, 4), rank=2)
    got = np.sort(np.linalg.eigvalsh(assemble(f, cl, 1.0).matrix.toarray()))
    want = fourier_diagonalize(f, cl, 1.0)
    assert np.max(np.abs(got - want)) < 1e-10


def _brute_gap(d, mu):
    g = 400 if d == 2 else 24
    axes = [np.arange(g) / g] * d
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    return float(np.min(symbol_gap_function(d, mesh, mu)))


def test_symbol_gap_closed_form_value():
    assert abs(symbol_gap(clifford_rep(2), 1.0) - 1.0) < 1e-6


# every window (0, 2), ..., (2d - 2, 2d) and both sides outside; at d=4,
# mu=6.7668 a scan from an odd grid settles in a local basin
@pytest.mark.parametrize("d,mu", [
    *((2, mu) for mu in (-0.5, 0.3, 0.8, 1.5, 2.5, 3.7, 4.6)),
    *((4, mu) for mu in (-0.5, 0.3, 1.5, 2.5, 3.7, 4.2, 5.5, 6.7668, 7.7,
                         8.6)),
])
def test_symbol_gap_agrees_with_brute_force_scan(d, mu):
    got, want = symbol_gap(clifford_rep(d), mu), _brute_gap(d, mu)
    assert got <= want + 1e-9
    assert abs(got - want) < 5e-3


@pytest.mark.parametrize("d,N", [(2, 4), (2, 8), (4, 2)])
def test_symbol_gap_is_trivial_field_gap(d, N):
    # at even N the lattice momenta include the corners {0, 1/2}^d
    cl = clifford_rep(d)
    f = trivial_field(make_geometry(d, N), rank=1)
    for mu in (0.1, 1.0, 1.9, 2.5, 3.3, 4.2, 7.7):
        gap = inertia(assemble(f, cl, mu).matrix).gap
        assert abs(gap - symbol_gap(cl, mu)) < 1e-10


def test_symbol_gap_positive_inside_windows():
    for d in (2, 4):
        cl = clifford_rep(d)
        for mu in (0.1, 0.5, 1.0, 1.5, 1.9):
            assert symbol_gap(cl, mu) > 0


def test_symbol_gap_collapses_at_window_boundary():
    cl = clifford_rep(2)
    assert symbol_gap(cl, 0.005) < 1e-2
    assert symbol_gap(cl, 1.995) < 1e-2
    for d in (2, 4):
        for c in range(d + 1):
            assert symbol_gap(clifford_rep(d), 2.0 * c) == 0


def test_wilson_matrix_is_csr_for_dense_unitaries():
    cl = clifford_rep(2)
    f = constant_flux_field(make_geometry(2, 4), FluxMatrix.from_entries(2, [(1, 2, 1)]))
    cases = [clock_shift(8).unitaries, gauge_tuple(f).unitaries]
    sparse_cases = [[sp.csr_matrix(U) for U in clock_shift(8).unitaries],
                    [link_shift(f, j) for j in range(2)]]
    for dense, sparse in zip(cases, sparse_cases):
        H = wilson_matrix(dense, cl, 0.7)
        assert H.format == "csr"
        assert np.array_equal(H.toarray(), wilson_matrix(sparse, cl, 0.7).toarray())


def _symmetric_fields():
    geom = make_geometry(2, 4)
    f = direct_sum_field(
        constant_flux_field(geom, FluxMatrix.from_entries(2, [(1, 2, 1)])),
        constant_flux_field(geom, FluxMatrix.from_entries(2, [(1, 2, -2)])))
    rng = np.random.default_rng(5)
    h = np.linalg.qr(rng.standard_normal((16, 2, 2)) + 1j * rng.standard_normal((16, 2, 2)))[0]
    return [
        constant_flux_field(make_geometry(2, 5), FluxMatrix.from_entries(2, [(1, 2, 2)])),
        constant_flux_field(make_geometry(4, 4), FluxMatrix.from_entries(4, [(1, 2, 1), (3, 4, 2)])),
        # rank 2, and after a U(2) gauge transform, whose g is not diagonal
        # at the fixed sites
        f, gauge_transform(f, h),
    ]


@pytest.mark.parametrize("f", _symmetric_fields(), ids=["d2-N5", "d4-N4", "rank2", "rank2-U2"])
def test_parity_bases_block_diagonalize_the_operator(f):
    # the blocks are H in an orthonormal basis that T fixes: together they
    # have H's dimension and every eigenvalue of H, they are real, and no
    # row takes more bytes than H's longest
    cl = clifford_rep(f.geometry.d)
    H = assemble(f, cl, 1.0).matrix
    solved, owner = symmetry_blocks(f, cl, 1.0)
    blocks = [solved[i] for i in owner]
    assert len(blocks) == 2 ** f.geometry.d
    assert sum(B.shape[0] for B in blocks) == H.shape[0]
    assert all(B.dtype == np.float64 for B in blocks)
    got = np.sort(np.concatenate([np.linalg.eigvalsh(B.toarray()) for B in blocks]))
    assert np.abs(got - np.linalg.eigvalsh(H.toarray())).max() < 1e-12
    assert (max(8 * np.diff(B.indptr).max() for B in blocks)
            <= H.data.itemsize * np.diff(H.indptr).max())
    _assert_no_rounding_fill(blocks)


def _assert_no_rounding_fill(blocks):
    """No block stores an entry below 1e-12 of its largest."""
    for B in blocks:
        assert np.abs(B.data).min() >= 1e-12 * np.abs(B.data).max()


def _symmetries(f, cl):
    """R = W (x) S for each generator of f's group, W from its gauge."""
    n, r = f.geometry.n_sites, f.rank
    Rs = []
    for P, w in symmetry_group(f)[0]:
        x = np.argsort(_site_map(f.geometry, P))  # the x with Px = y, for each y
        W = sp.bsr_matrix((w[x], x, np.arange(n + 1)), shape=(n * r, n * r))
        Rs.append(sp.kron(W, _spinor(cl, P)[0], format="csr"))
    return Rs


@pytest.mark.parametrize("d, N, entries", [
    *((2, N, [(1, 2, k)]) for N in (3, 4, 5, 8) for k in range(-2, 3)),
    *((4, N, K) for N in (3, 4, 6) for K in ([(1, 2, 1), (3, 4, 2)], [(1, 3, 1), (2, 4, -1)])),
])
def test_the_quarter_turns_commute_with_the_operator(d, N, entries):
    f = constant_flux_field(make_geometry(d, N), FluxMatrix.from_entries(d, entries))
    cl = clifford_rep(d)
    H = assemble(f, cl, 1.0).matrix
    Rs = _symmetries(f, cl)
    assert len(Rs) == d // 2
    one = sp.identity(H.shape[0])
    for R in Rs:
        assert abs(R @ H - H @ R).max() <= 1e-13
        assert abs(R @ R @ R @ R - one).max() <= 1e-13
    if d == 4:
        assert abs(Rs[0] @ Rs[1] - Rs[1] @ Rs[0]).max() <= 1e-13


def _reflection(f, cl):
    """The unitary part U of T = U conj: W (x) c_X for T's (P, w), where X
    holds the axes that P reflects xor those of the imaginary c_j."""
    P, w = symmetry_group(f)[1]
    X = [c for j, c in enumerate(cl.generators) if (P[j, j] < 0) != (not c.real.any())]
    S = np.eye(cl.dim_s)
    for c in X:
        S = S @ c
    n, r = f.geometry.n_sites, f.rank
    x = np.argsort(_site_map(f.geometry, P))
    return sp.kron(sp.bsr_matrix((w[x], x, np.arange(n + 1)), shape=(n * r, n * r)), S, format="csr")


def _rank_two_fields():
    return [f for f in _symmetric_fields() if f.rank == 2]


@pytest.mark.parametrize("f", [
    *(constant_flux_field(make_geometry(d, N), FluxMatrix.from_entries(d, entries))
      for d, N, entries in [
          *((2, N, [(1, 2, k)]) for N in (3, 4, 5, 8) for k in range(-2, 3)),
          *((4, N, K) for N in (3, 4, 6) for K in ([(1, 2, 1), (3, 4, 2)], [(1, 3, 1), (2, 4, -1)])),
          # only the inversion fixes K = e12 + e13
          (4, 3, [(1, 2, 1), (1, 3, 1)]),
      ]),
    *_rank_two_fields(),
])
def test_the_reflection_is_an_antiunitary_symmetry(f):
    # T = U conj: [T, H] = U conj(H) - H U, T^2 = U conj(U) and
    # T R T^-1 = U conj(R) U*, which must be R^-1 = R* for each generator
    cl = clifford_rep(f.geometry.d)
    H = assemble(f, cl, 1.0).matrix
    U = _reflection(f, cl)
    assert abs(U @ H.conj() - H @ U).max() <= 1e-13
    assert abs(U @ U.conj() - sp.identity(H.shape[0])).max() <= 1e-13
    for R in _symmetries(f, cl):
        assert abs(U @ R.conj() @ U.conj().T - R.conj().T).max() <= 1e-13


@pytest.mark.parametrize("d, N, entries, sizes", [
    (4, 6, [(1, 2, 1), (3, 4, 2)], [324] * 4 + [342] * 4 + [324] * 4 + [306] * 4),
    (2, 24, [(1, 2, 1)], [288, 289, 288, 287]),
    # only the inversion fixes K = e12 + e13: its two eigenspaces
    (4, 3, [(1, 2, 1), (1, 3, 1)], [162, 162]),
])
def test_block_sizes(d, N, entries, sizes):
    f = constant_flux_field(make_geometry(d, N), FluxMatrix.from_entries(d, entries))
    cl = clifford_rep(d)
    H = assemble(f, cl, 1.0).matrix
    blocks, owner = symmetry_blocks(f, cl, 1.0)
    assert [blocks[i].shape[0] for i in owner] == sizes and sum(sizes) == H.shape[0]
    # the real blocks store more entries per row than H, in fewer bytes
    assert all(B.dtype == np.float64 for B in blocks)
    assert all(B.data.itemsize * B.nnz / B.shape[0] <= H.data.itemsize * H.nnz / H.shape[0]
               for B in blocks)
    _assert_no_rounding_fill(blocks)


def test_a_block_that_is_not_real_raises():
    # a T whose gauge is off by a phase at the origin does not commute with
    # H, so the blocks are not real in the basis that it fixes
    f = constant_flux_field(make_geometry(2, 5), FluxMatrix.from_entries(2, [(1, 2, 1)]))
    gens, (P, w) = symmetry_group(f)
    w = w.copy()
    w[0] *= np.exp(0.3j)
    with pytest.raises(ArithmeticError, match="not real"):
        _blocks(f, clifford_rep(2), 1.0, gens, (P, w))


def test_a_field_without_the_symmetry_keeps_its_whole_operator():
    f = perturb_field(constant_flux_field(
        make_geometry(2, 5), FluxMatrix.from_entries(2, [(1, 2, 1)])), 0.05, 2)
    cl = clifford_rep(2)
    H = assemble(f, cl, 1.0).matrix
    (B,), owner = symmetry_blocks(f, cl, 1.0)
    assert owner.tolist() == [0]
    assert B.dtype == np.complex128 and (B != H).nnz == 0


def _norm_fields(d, N):
    """Rank 1, a rank-2 direct sum, its U(2) gauge transform and a U(3)
    transform of a rank-3 sum, whose links' moduli have row sums that are
    not their column sums (a 2 x 2 unitary's are)."""
    geom = make_geometry(d, N)
    K, K2 = ([(1, 2, 1)], [(1, 2, -2)]) if d == 2 else ([(1, 2, 1), (3, 4, 2)], [(1, 2, 1), (3, 4, 4)])
    f = constant_flux_field(geom, FluxMatrix.from_entries(d, K))
    rank2 = direct_sum_field(f, constant_flux_field(geom, FluxMatrix.from_entries(d, K2)))
    rng = np.random.default_rng(N)

    def unitaries(r):
        return np.linalg.qr(rng.standard_normal((geom.n_sites, r, r))
                            + 1j * rng.standard_normal((geom.n_sites, r, r)))[0]

    rank3 = gauge_transform(direct_sum_field(f, rank2), unitaries(3))
    return [f, rank2, gauge_transform(rank2, unitaries(2)), rank3]


@pytest.mark.parametrize("d, N", [(d, N) for d in (2, 4) for N in (2, 3, 4, 5, 6)])
def test_the_norm_from_the_links_is_the_assembled_norm_bit_for_bit(d, N):
    # ||H||_inf summed off the links is the assembled H's: bit for bit at
    # rank 1, to rounding at rank 2 and 3 (after a U(r) transform too),
    # and at N = 2, where the hops to x + e_j and x - e_j add, an upper
    # bound; at mu = d there is no on-site entry
    cl = clifford_rep(d)
    fields = _norm_fields(d, N)
    for f in fields + [perturb_field(g, 0.3, 7) for g in fields]:
        for mu in (0.5, 1.0, 1.5, 3.0, float(d)):
            bound, norm = _norm_bound(f, mu), spectral._norm_inf(assemble(f, cl, mu).matrix)
            if N == 2:
                assert bound >= norm
            elif f.rank == 1:
                assert bound == norm
            else:
                assert bound == pytest.approx(norm, rel=1e-15, abs=0)
