import numpy as np
import pytest

from wilsonindex import (
    FluxMatrix,
    assemble,
    clifford_rep,
    constant_flux_field,
    make_geometry,
    matvec,
    symbol,
    symbol_gap,
    trivial_field,
)
from wilsonindex.spectral import fourier_diagonalize
from wilsonindex.wilson import symbol_gap_function, to_matrix_market


def test_assembled_matrix_hermitian():
    f = constant_flux_field(make_geometry(2, 4), FluxMatrix.from_entries(2, [(1, 2, 1)]))
    H = assemble(f, clifford_rep(2), 1.0).matrix.toarray()
    assert np.max(np.abs(H - H.conj().T)) < 1e-12


def test_dimension_mismatch_rejected():
    f = trivial_field(make_geometry(2, 4))
    with pytest.raises(ValueError, match="dimension mismatch"):
        assemble(f, clifford_rep(4), 1.0)


def test_operator_dimension():
    f = trivial_field(make_geometry(4, 2), rank=3)
    op = assemble(f, clifford_rep(4), 0.5)
    assert op.dim == 2 ** 4 * 3 * 4


def test_matvec_matches_dense():
    f = constant_flux_field(make_geometry(2, 3), FluxMatrix.from_entries(2, [(1, 2, 1)]))
    op = assemble(f, clifford_rep(2), 1.0)
    rng = np.random.default_rng(1)
    v = rng.standard_normal(op.dim) + 1j * rng.standard_normal(op.dim)
    assert np.allclose(matvec(op, v), op.matrix.toarray() @ v)
    with pytest.raises(ValueError):
        matvec(op, v[:-1])


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


def _brute_gap(d, mu, g=400):
    axes = [np.arange(g) / g] * d
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    return float(np.min(symbol_gap_function(d, mesh, mu)))


def test_symbol_gap_closed_form_value():
    assert abs(symbol_gap(clifford_rep(2), 1.0, grid=512) - 1.0) < 1e-6


def test_symbol_gap_agrees_with_brute_force_scan():
    for mu in (0.3, 0.8, 1.5, 2.5, 3.7):
        got = symbol_gap(clifford_rep(2), mu, grid=64)
        assert got <= _brute_gap(2, mu) + 1e-9
        assert abs(got - _brute_gap(2, mu)) < 5e-3


def test_symbol_gap_positive_inside_windows():
    for d in (2, 4):
        cl = clifford_rep(d)
        for mu in (0.1, 0.5, 1.0, 1.5, 1.9):
            assert symbol_gap(cl, mu, grid=48) > 0


def test_symbol_gap_collapses_at_window_boundary():
    cl = clifford_rep(2)
    assert symbol_gap(cl, 0.005, grid=1024) < 1e-2
    assert symbol_gap(cl, 1.995, grid=1024) < 1e-2


def test_symbol_gap_rejects_tiny_grid():
    with pytest.raises(ValueError):
        symbol_gap(clifford_rep(2), 1.0, grid=1)


def test_matrix_market_export_roundtrip(tmp_path):
    import scipy.io as sio

    f = constant_flux_field(make_geometry(2, 3), FluxMatrix.from_entries(2, [(1, 2, 1)]))
    op = assemble(f, clifford_rep(2), 1.0)
    path = tmp_path / "op.mtx"
    to_matrix_market(op, path)
    back = sio.mmread(path).toarray()
    assert np.max(np.abs(back - op.matrix.toarray())) < 1e-12
