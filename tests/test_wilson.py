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
from wilsonindex.gauge import inversion_gauge, link_shift
from wilsonindex.ktheory import clock_shift, gauge_tuple
from wilsonindex.spectral import inertia
from wilsonindex.wilson import (WilsonOperator, _parity_bases, fourier_diagonalize,
                                parity_blocks, wilson_matrix)


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
    cl = clifford_rep(f.geometry.d)
    H = assemble(f, cl, 1.0).matrix
    n = H.shape[0]
    Qp, Qm = _parity_bases(f, inversion_gauge(f), cl)
    assert Qp.shape == Qm.shape == (n, n // 2)
    Q = sp.hstack([Qp, Qm]).toarray()
    assert np.abs(Q.conj().T @ Q - np.eye(n)).max() < 1e-12
    B = Q.conj().T @ H.toarray() @ Q
    # what lies between the blocks is rounding, and each block is formed
    # on its own
    assert np.abs(B[: n // 2, n // 2:]).max() < 1e-12
    Hp, Hm = parity_blocks(f, cl, H)
    assert np.abs(Hp.toarray() - B[: n // 2, : n // 2]).max() < 1e-12
    assert np.abs(Hm.toarray() - B[n // 2:, n // 2:]).max() < 1e-12


def test_a_field_without_the_symmetry_keeps_its_whole_operator():
    f = perturb_field(constant_flux_field(
        make_geometry(2, 5), FluxMatrix.from_entries(2, [(1, 2, 1)])), 0.05, 2)
    cl = clifford_rep(2)
    H = assemble(f, cl, 1.0).matrix
    assert parity_blocks(f, cl, H) == (H,)
