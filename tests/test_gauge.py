import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import expm
from hypothesis import given, settings
from hypothesis import strategies as st

from wilsonindex import (
    FluxMatrix,
    constant_flux_field,
    direct_sum_field,
    estimate_curvature_norm,
    gauge_transform,
    gauge_tuple,
    make_geometry,
    perturb_field,
    plaquette,
    tensor_field,
    trivial_field,
)
from wilsonindex import gauge
from wilsonindex.gauge import _inversion, _neighbour, inversion_gauge, link_shift


def test_geometry_rejects_coarse_lattice():
    with pytest.raises(ValueError, match="lattice too coarse"):
        make_geometry(2, 1)
    with pytest.raises(ValueError):
        make_geometry(0, 4)


@pytest.mark.parametrize("step", [1, -1, 5])
def test_neighbour_is_periodic_c_order(step):
    # site index of x + step*e_j: C-order (lexicographic) and periodic
    g = make_geometry(3, 4)
    coords = np.indices((4, 4, 4)).reshape(3, -1)
    for j in range(3):
        moved = coords + step * np.eye(3, dtype=int)[:, [j]]
        want = np.ravel_multi_index(tuple(moved % 4), (4, 4, 4))
        assert np.array_equal(_neighbour(g, j, step), want)


def test_flux_matrix_validation():
    with pytest.raises(ValueError, match="antisymmetric"):
        FluxMatrix(2, np.array([[0, 1], [1, 0]]))
    with pytest.raises(ValueError):
        FluxMatrix(2, np.zeros((3, 3), dtype=int))
    K = FluxMatrix.from_entries(4, [(1, 2, 3), (3, 4, -1)])
    assert K.K[0, 1] == 3 and K.K[1, 0] == -3
    assert K.K[2, 3] == -1
    S = K + FluxMatrix.from_entries(4, [(1, 2, -3)])
    assert S.K[0, 1] == 0 and S.K[2, 3] == -1


@pytest.mark.parametrize("build, message", [
    (lambda: FluxMatrix.zero(2) + FluxMatrix.zero(4), "flux dimension mismatch"),
    (lambda: trivial_field(make_geometry(2, 4), rank=0), "rank must be >= 1"),
    (lambda: constant_flux_field(make_geometry(2, 4), FluxMatrix.zero(4)),
     "flux dimension mismatch"),
    (lambda: tensor_field(trivial_field(make_geometry(2, 4)),
                          trivial_field(make_geometry(2, 6))), "geometry mismatch"),
    (lambda: direct_sum_field(trivial_field(make_geometry(2, 4)),
                              trivial_field(make_geometry(2, 6))), "geometry mismatch"),
], ids=["flux-add", "rank-0", "flux-field", "tensor", "direct-sum"])
def test_gauge_inputs_are_checked(build, message):
    with pytest.raises(ValueError, match=message):
        build()


@given(st.integers(-5, 5), st.integers(-5, 5))
def test_flux_entries_accumulate(a, b):
    K = FluxMatrix.from_entries(2, [(1, 2, a), (1, 2, b)])
    assert K.K[0, 1] == a + b
    assert np.array_equal(K.K, -K.K.T)


def test_trivial_field_links_are_identity():
    f = trivial_field(make_geometry(2, 4), rank=2)
    assert f.links.shape == (16, 2, 2, 2)
    assert np.array_equal(f.links[3, 1], np.eye(2))
    assert len(f.flux_sectors) == 2


@pytest.mark.parametrize("d,N,k", [(2, 4, 1), (2, 5, 2), (2, 4, -3), (4, 3, 1)])
def test_constant_flux_plaquettes_uniform(d, N, k):
    K = FluxMatrix.from_entries(d, [(1, 2, k)])
    f = constant_flux_field(make_geometry(d, N), K)
    want = np.exp(2j * np.pi * k / N ** 2)
    p = plaquette(f, 0, 1)
    assert p.shape == (N ** d, 1, 1)
    assert np.max(np.abs(p[:, 0, 0] - want)) < 1e-12
    if d > 2:  # flux-free planes stay flat
        assert np.max(np.abs(plaquette(f, 2, 0)[:, 0, 0] - 1)) < 1e-12


def test_total_flux_per_slice():
    # product of all plaquette phases over one 2-torus slice = exp(2 pi i K)
    N, k = 5, 2
    f = constant_flux_field(make_geometry(2, N), FluxMatrix.from_entries(2, [(1, 2, k)]))
    total = np.prod(plaquette(f, 0, 1)[:, 0, 0])
    assert abs(total - np.exp(2j * np.pi * k)) < 1e-10


def test_curvature_estimate_matches_closed_form():
    N = 4
    f = constant_flux_field(make_geometry(2, N), FluxMatrix.from_entries(2, [(1, 2, 1)]))
    want = abs(np.exp(2j * np.pi / N ** 2) - 1) * N ** 2
    assert abs(estimate_curvature_norm(f) - want) < 1e-10
    assert estimate_curvature_norm(trivial_field(make_geometry(2, 4))) == 0.0


def test_tensor_and_direct_sum_sectors():
    g = make_geometry(2, 4)
    f1 = constant_flux_field(g, FluxMatrix.from_entries(2, [(1, 2, 1)]))
    f2 = constant_flux_field(g, FluxMatrix.from_entries(2, [(1, 2, 2)]))
    t = tensor_field(f1, f2)
    assert t.rank == 1 and t.flux_sectors[0].K[0, 1] == 3
    s = direct_sum_field(f1, f2)
    assert s.rank == 2
    assert [K.K[0, 1] for K in s.flux_sectors] == [1, 2]
    # block structure
    assert abs(s.links[0, 0, 0, 1]) == 0.0


def test_perturb_field_seeded_and_unitary():
    f = trivial_field(make_geometry(2, 3), rank=2)
    a = perturb_field(f, 0.1, seed=5)
    b = perturb_field(f, 0.1, seed=5)
    c = perturb_field(f, 0.1, seed=6)
    assert np.array_equal(a.links, b.links)
    assert not np.array_equal(a.links, c.links)
    assert perturb_field(f, 0.0, seed=1) is f
    eye = np.eye(2)
    for site in range(a.geometry.n_sites):
        for j in range(2):
            U = a.links[site, j]
            assert np.max(np.abs(U.conj().T @ U - eye)) < 1e-12
            assert np.linalg.norm(U - eye, 2) <= 0.11
    with pytest.raises(ValueError):
        perturb_field(f, -1.0, seed=0)


@pytest.mark.parametrize("strength", [np.nan, np.inf])
def test_perturb_field_rejects_a_non_finite_strength(strength):
    # either would make every link non-finite
    f = trivial_field(make_geometry(2, 3))
    with pytest.raises(ValueError, match="strength must be finite"):
        perturb_field(f, strength, seed=0)


def test_gauge_transform_preserves_plaquette_spectrum():
    f = constant_flux_field(make_geometry(2, 4), FluxMatrix.from_entries(2, [(1, 2, 1)]))
    rng = np.random.default_rng(0)
    g = np.exp(1j * rng.uniform(0, 2 * np.pi, f.geometry.n_sites)).reshape(-1, 1, 1)
    ft = gauge_transform(f, g)
    assert np.max(np.abs(plaquette(f, 0, 1) - plaquette(ft, 0, 1))) < 1e-12


def test_shift_unitaries_unitary_and_commutator_scale():
    f = constant_flux_field(make_geometry(2, 4), FluxMatrix.from_entries(2, [(1, 2, 1)]))
    U1, U2 = (link_shift(f, j).toarray() for j in range(2))
    eye = np.eye(U1.shape[0])
    assert np.max(np.abs(U1.conj().T @ U1 - eye)) < 1e-12
    comm = np.linalg.norm(U1 @ U2 - U2 @ U1, 2)
    # commutator norm = |exp(2 pi i /N^2) - 1| for unit flux
    assert abs(comm - abs(np.exp(2j * np.pi / 16) - 1)) < 1e-10


@settings(max_examples=10, deadline=None)
@given(st.integers(-3, 3), st.integers(0, 3), st.integers(0, 3))
def test_constant_flux_plaquette_property(k, x, y):
    N = 4
    f = constant_flux_field(make_geometry(2, N), FluxMatrix.from_entries(2, [(1, 2, k)]))
    p = plaquette(f, 0, 1)[x * N + y, 0, 0]
    assert abs(p - np.exp(2j * np.pi * k / N ** 2)) < 1e-12


def _random_unitaries(n, r, seed):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, r, r))
                        + 1j * rng.standard_normal((n, r, r)))
    return q


def _non_abelian_field(d, N, seed=3):
    g = make_geometry(d, N)
    K1 = FluxMatrix.from_entries(d, [(1, 2, 1)])
    K2 = FluxMatrix.from_entries(d, [(1, 2, 2)])
    f = direct_sum_field(constant_flux_field(g, K1), constant_flux_field(g, K2))
    return perturb_field(f, 0.05, seed=seed)


def test_plaquette_and_curvature_gauge_covariant_non_abelian():
    f = _non_abelian_field(2, 6)
    g = _random_unitaries(f.geometry.n_sites, 2, seed=11)
    ft = gauge_transform(f, g)
    assert abs(estimate_curvature_norm(ft) - estimate_curvature_norm(f)) < 1e-9
    want = g @ plaquette(f, 0, 1) @ g.conj().swapaxes(-1, -2)
    assert np.max(np.abs(plaquette(ft, 0, 1) - want)) < 1e-12


def test_link_shift_matches_site_loop():
    # (U_j psi)(x + e_j) = U_j(x) psi(x), written out site by site
    f = _non_abelian_field(3, 3)
    geom, r = f.geometry, f.rank
    n, N = geom.n_sites, geom.N
    dense = gauge_tuple(f).unitaries
    for j in range(3):
        want = np.zeros((n * r, n * r), dtype=complex)
        for x, coords in enumerate(np.ndindex(N, N, N)):
            y = np.ravel_multi_index(tuple((np.array(coords) + np.eye(3, dtype=int)[j]) % N),
                                     (N, N, N))
            want[y * r:(y + 1) * r, x * r:(x + 1) * r] = f.links[x, j]
        assert np.array_equal(link_shift(f, j).toarray(), want)
        # dense ndarrays, bit for bit: perfbench's checks stack them
        assert type(dense[j]) is np.ndarray and np.array_equal(dense[j], want)


def test_perturb_field_matches_per_link_expm():
    # one (r, r) real then one (r, r) imaginary draw per (site, direction)
    f = _non_abelian_field(2, 4, seed=0)
    got = perturb_field(f, 0.1, seed=9)
    rng = np.random.default_rng(9)
    for site in range(f.geometry.n_sites):
        for j in range(2):
            raw = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            herm = (raw + raw.conj().T) / 2
            herm *= 0.1 / np.linalg.norm(herm, 2)
            want = f.links[site, j] @ expm(1j * herm)
            assert np.max(np.abs(got.links[site, j] - want)) < 1e-12


def _flux_field(d, N, entries):
    return constant_flux_field(make_geometry(d, N), FluxMatrix.from_entries(d, entries))


def test_inversion_is_minus_x():
    x = np.indices((4,) * 3).reshape(3, -1)
    assert np.array_equal(_inversion(make_geometry(3, 4)),
                          np.ravel_multi_index(-x % 4, (4,) * 3))


@pytest.mark.parametrize("d, N, entries", [
    (2, 2, [(1, 2, 1)]), (2, 3, [(1, 2, 1)]), (2, 8, [(1, 2, -2)]),
    (4, 4, [(1, 2, 1), (3, 4, 2)]), (4, 3, [(1, 2, 2), (1, 3, 1), (2, 4, -1)]),
])
def test_constant_flux_fields_are_inversion_symmetric(d, N, entries):
    f = _flux_field(d, N, entries)
    g = inversion_gauge(f)
    inv = _inversion(f.geometry)
    n = f.geometry.n_sites
    assert g[0, 0, 0] == 1
    assert np.abs(g[inv] * g - 1).max() < 1e-12
    # (V psi)(x) = g(-x) psi(-x) is an involution that takes U_j to U_j*
    V = sp.csr_matrix((g[inv, 0, 0], (np.arange(n), inv)), shape=(n, n))
    assert abs(V @ V - sp.identity(n)).max() < 1e-12
    for j in range(d):
        U = link_shift(f, j)
        assert abs(V @ U @ V - U.conj().T).max() < 1e-12


def test_the_link_check_rejects_a_flipped_gauge(monkeypatch):
    f = _flux_field(2, 6, [(1, 2, 1)])
    comb = gauge._comb_gauge

    def flipped(*args):
        g = comb(*args)
        g[7] *= -1
        return g

    assert inversion_gauge(f) is not None
    monkeypatch.setattr(gauge, "_comb_gauge", flipped)
    assert inversion_gauge(f) is None
