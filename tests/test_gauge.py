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
from wilsonindex.gauge import (_dag, _neighbour, _site_map, _translations, link_shift,
                               quarter_turn, symmetry_gauge, symmetry_group)


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


@pytest.mark.parametrize("d, N, entries, seed", [
    (2, 24, [(1, 2, 1)], 7), (2, 8, [(1, 2, -5)], 5), (2, 5, [(1, 2, 6)], 16),
    (4, 5, [(1, 2, 1), (3, 4, 2), (1, 3, 1)], 7)])
def test_the_rank_one_curvature_is_the_svds_bit_for_bit(d, N, entries, seed):
    # at rank 1 the estimate takes |P - 1| with no SVD, by the 1 x 1 SVD's
    # own formula, so it is the SVD's to the last bit, perturbed or not
    # (np.abs, a correctly rounded hypot, differs from it in the last bit
    # on the last three fields)
    f = _flux_field(d, N, entries)
    for fld in (f, perturb_field(f, 0.1, seed)):
        want = max(float(np.linalg.norm(plaquette(fld, j, l) - 1, 2, axis=(-2, -1)).max())
                   for j in range(d) for l in range(j + 1, d))
        assert estimate_curvature_norm(fld) == want * N ** 2


def test_a_nan_link_gives_a_nan_curvature():
    # the rank-1 modulus takes no SVD, which would fail on it, so the nan
    # must reach the estimate
    f = _flux_field(2, 6, [(1, 2, 1)])
    links = f.links.copy()
    links[3, 0] = np.nan
    assert np.isnan(estimate_curvature_norm(gauge.GaugeField(f.geometry, 1, links, f.flux_sectors)))


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
    assert np.array_equal(_site_map(make_geometry(3, 4), -np.eye(3, dtype=int)),
                          np.ravel_multi_index(-x % 4, (4,) * 3))


def test_a_quarter_turn_maps_each_site_to_its_image():
    x = np.indices((5,) * 4).reshape(4, -1)
    want = x.copy()
    # e_1 -> e_3 and e_3 -> -e_1
    want[3], want[1] = x[1], -x[3] % 5
    assert np.array_equal(quarter_turn(4, 1, 3) @ np.eye(4, dtype=int)[:, 1], [0, 0, 0, 1])
    assert np.array_equal(_site_map(make_geometry(4, 5), quarter_turn(4, 1, 3)),
                          np.ravel_multi_index(want, (5,) * 4))


def _site_operator(f, P, w, shift=0):
    """(W psi)(Px + shift) = w(x) psi(x) as a sparse matrix on sites (x) C^r."""
    n, r = f.geometry.n_sites, f.rank
    x = np.argsort(_site_map(f.geometry, P, shift))  # the x with Px + shift = y, for each y
    return sp.bsr_matrix((w[x], x, np.arange(n + 1)), shape=(n * r, n * r)).tocsr()


@pytest.mark.parametrize("d, N, entries", [
    (2, 2, [(1, 2, 1)]), (2, 3, [(1, 2, 1)]), (2, 8, [(1, 2, -2)]),
    (4, 4, [(1, 2, 1), (3, 4, 2)]), (4, 3, [(1, 2, 2), (1, 3, 1), (2, 4, -1)]),
])
def test_constant_flux_fields_are_inversion_symmetric(d, N, entries):
    f = _flux_field(d, N, entries)
    minus = -np.eye(d, dtype=int)
    g = symmetry_gauge(f, minus)
    inv = _site_map(f.geometry, minus)
    n = f.geometry.n_sites
    assert g[0, 0, 0] == 1
    assert np.abs(g[inv] * g - 1).max() < 1e-12
    # (V psi)(-x) = g(x) psi(x) is an involution that takes U_j to U_j*
    V = _site_operator(f, minus, g)
    assert abs(V @ V - sp.identity(n)).max() < 1e-12
    for j in range(d):
        U = link_shift(f, j)
        assert abs(V @ U @ V - U.conj().T).max() < 1e-12


@pytest.mark.parametrize("d, N, entries", [
    (2, 3, [(1, 2, 1)]), (2, 8, [(1, 2, -2)]), (4, 3, [(1, 2, 1), (3, 4, 2)]),
    (4, 4, [(1, 3, 1), (2, 4, -1)]),
])
def test_quarter_turns_take_each_shift_to_its_image(d, N, entries):
    # W U_j W^-1 is U_k where P e_j = e_k, U_k* where P e_j = -e_k; W^4 = 1
    f = _flux_field(d, N, entries)
    gens, _ = symmetry_group(f)
    assert len(gens) == d // 2
    for P, w in gens:
        W = _site_operator(f, P, w)
        W4 = W @ W @ W @ W
        assert abs(W4 - sp.identity(f.geometry.n_sites)).max() < 1e-12
        for j in range(d):
            k = np.flatnonzero(P[:, j])[0]
            want = link_shift(f, k) if P[k, j] > 0 else link_shift(f, k).conj().T
            assert abs(W @ link_shift(f, j) @ W.conj().T - want).max() < 1e-12


@pytest.mark.parametrize("d, entries, planes", [
    (2, [(1, 2, 3)], [(0, 1)]),
    (4, [], [(0, 1), (2, 3)]),
    (4, [(1, 2, 1)], [(0, 1), (2, 3)]),
    (4, [(1, 2, -1), (3, 4, 2)], [(0, 1), (2, 3)]),
    (4, [(1, 3, 1), (2, 4, -1)], [(0, 2), (1, 3)]),
    (4, [(1, 4, 2), (2, 3, 1)], [(0, 3), (1, 2)]),
    (4, [(1, 2, 1), (1, 3, 1)], None),
])
def test_the_group_is_the_quarter_turns_of_the_flux_planes(d, entries, planes):
    f = _flux_field(d, 3, entries)
    want = ([quarter_turn(d, a, b) for a, b in planes] if planes
            else [-np.eye(d, dtype=int)])
    gens, reflection = symmetry_group(f)
    assert [P.tolist() for P, _ in gens] == [P.tolist() for P in want]
    # every constant-flux field has the antiunitary T too, a perturbed one
    # neither
    assert reflection is not None
    assert symmetry_group(perturb_field(f, 0.05, 1)) == ([], None)


def test_the_link_check_rejects_a_flipped_gauge():
    # the comb never reads U_1 at the site (0, 1), so the gauge it builds is
    # the same with that link flipped, and only the check on every link
    # sees that it no longer holds there
    f = _flux_field(2, 6, [(1, 2, 1)])
    links = f.links.copy()
    links[1, 0] *= -1
    flipped = gauge.GaugeField(f.geometry, 1, links, f.flux_sectors)
    for P in (quarter_turn(2, 0, 1), -np.eye(2, dtype=int)):
        assert symmetry_gauge(f, P) is not None
        assert symmetry_gauge(flipped, P) is None


def test_the_conjugating_link_check_rejects_a_flipped_gauge():
    # as above, for the conjugating gauge of the reflection x_1 -> -x_1,
    # also at rank 2 after a U(2) gauge transform, where w(0) is solved for
    reflect = np.diag([-1, 1])
    f = _flux_field(2, 6, [(1, 2, 1)])
    rank2 = direct_sum_field(f, _flux_field(2, 6, [(1, 2, -2)]))
    rng = np.random.default_rng(2)
    u2 = np.linalg.qr(rng.standard_normal((36, 2, 2)) + 1j * rng.standard_normal((36, 2, 2)))[0]
    for fld in (f, rank2, gauge_transform(rank2, u2)):
        links = fld.links.copy()
        links[1, 0] *= -1
        flipped = gauge.GaugeField(fld.geometry, fld.rank, links, fld.flux_sectors)
        assert symmetry_gauge(fld, reflect, conj=True) is not None
        assert symmetry_gauge(flipped, reflect, conj=True) is None
        # and the unitary gauge of a reflection does not exist: it would
        # reverse the flux
        assert symmetry_gauge(fld, reflect) is None


def test_a_shifted_site_map_adds_the_shift():
    # the quarter turn takes x to (-x_2, x_1), then the shift (3, 1) is added
    x = np.indices((6,) * 2).reshape(2, -1)
    assert np.array_equal(_site_map(make_geometry(2, 6), quarter_turn(2, 0, 1), [3, 1]),
                          np.ravel_multi_index(((3 - x[1]) % 6, (x[0] + 1) % 6), (6, 6)))


def _half_period(d, N, plane):
    t = np.zeros(d, dtype=int)
    t[list(plane)] = N // 2
    return t


@pytest.mark.parametrize("d, N, entries", [
    *((2, N, [(1, 2, k)]) for N in (8, 24) for k in range(-3, 4)),
    *((4, N, [(1, 2, k12), (3, 4, k34)]) for N, k12, k34 in [
        (6, 1, 2), (6, -1, 2), (6, 1, -2), (6, -1, -2), (8, 1, 2), (8, 1, 6), (8, 1, 4),
        (5, 1, 2), (6, 1, 1), (4, 2, 2)]),
])
def test_a_half_period_translation_exists_where_the_plane_flux_is_even(d, N, entries):
    # x -> x + (N/2)(e_a + e_b) is a symmetry exactly when N and K_ab are
    # even; its phase on the plane's own turn is -1 where K_ab = 2 mod 4
    # and 1 where K_ab = 0 mod 4, and 1 on the other turns; only those
    # with a phase -1 pair blocks, and only they are returned
    f = _flux_field(d, N, entries)
    gens, _ = symmetry_group(f)
    K, one, want = f.flux_sectors[0].K, np.eye(d, dtype=int), []
    for i, (a, b) in enumerate([(0, 1), (2, 3)][:d // 2]):
        w = symmetry_gauge(f, one, shift=_half_period(d, N, (a, b))) if N % 2 == 0 else None
        assert (w is not None) == (N % 2 == 0 and K[a, b] % 2 == 0)
        if w is not None:
            # W commutes with every link shift, so with H
            W = _site_operator(f, one, w, _half_period(d, N, (a, b)))
            for j in range(d):
                U = link_shift(f, j)
                assert abs(W @ U - U @ W).max() < 1e-12
            if K[a, b] % 4 == 2:
                want.append([2 if g == i else 0 for g in range(d // 2)])
    assert [s.tolist() for s in _translations(f, gens)] == want


def test_the_translation_meets_each_turn_up_to_its_phase():
    # R W_t = c W_t R as operators, c = exp(i pi s / 2), at d=4 with a
    # translation in each plane; that of the (3,4) plane has s = 0, pairs
    # no blocks and is not returned
    f = _flux_field(4, 4, [(1, 2, 2), (3, 4, 4)])
    gens, _ = symmetry_group(f)
    assert [s.tolist() for s in _translations(f, gens)] == [[2, 0]]
    one = np.eye(4, dtype=int)
    for plane, s in zip([(0, 1), (2, 3)], [[2, 0], [0, 0]]):
        t = _half_period(4, 4, plane)
        W = _site_operator(f, one, symmetry_gauge(f, one, shift=t), t)
        for (P, w), sg in zip(gens, s):
            R = _site_operator(f, P, w)
            assert abs(R @ W - np.exp(0.5j * np.pi * sg) * W @ R).max() < 1e-12


@pytest.mark.parametrize("d, entries, built", [
    *((2, [(1, 2, k)], 0) for k in (0, 1, -1, 3, -3, 4)), (4, [(1, 2, 1), (3, 4, 4)], 0),
    (2, [(1, 2, 2)], 1), (4, [(1, 2, 2), (3, 4, 2)], 2)])
def test_a_translation_gauge_is_built_only_where_a_turn_has_phase_minus_one(
        monkeypatch, d, entries, built):
    # c = w_R(t) is read off the turns' gauges: 1 where the plane flux is
    # 0 mod 4, +-i where it is odd, and only c = -1 (2 mod 4) needs the
    # translation's gauge, which is then built and checked
    f = _flux_field(d, 8, entries)
    gens, _ = symmetry_group(f)
    shifts, build = [], gauge.symmetry_gauge
    monkeypatch.setattr(gauge, "symmetry_gauge",
                        lambda f, P, conj=False, shift=0: shifts.append(shift) or build(f, P, conj, shift))
    assert len(_translations(f, gens)) == len(shifts) == built


def _walked_comb(geom, step, link):
    """The comb as a walk along each axis, one site at a time."""
    e = np.eye(step[0].shape[-1], dtype=complex)
    w = np.tile(e, (geom.n_sites, 1, 1))
    L, sites = w.copy(), np.arange(geom.n_sites).reshape((geom.N,) * geom.d)
    for j in range(geom.d):
        nb = _neighbour(geom, j)
        for t in range(geom.N - 1):
            x = sites[(slice(None),) * j + (t,) + (0,) * (geom.d - j - 1)].ravel()
            w[nb[x]], L[nb[x]] = step[j][x] @ w[x] @ _dag(link[j][x]), step[j][x] @ L[x]
    return w, L


@pytest.mark.parametrize("N", [5, 6])
def test_the_prefix_product_comb_is_the_walk(monkeypatch, N):
    # every comb symmetry_gauge builds, for the quarter turns, the
    # conjugating reflection and a shift, at rank 1 and at rank 2 after a
    # U(2) transform, at odd and even N, is the walk's to 1e-13
    combs, comb = [], gauge._comb
    monkeypatch.setattr(gauge, "_comb", lambda *a: combs.append((a, comb(*a))) or combs[-1][1])
    f = _flux_field(2, N, [(1, 2, 2)])
    rank2 = direct_sum_field(f, _flux_field(2, N, [(1, 2, -2)]))
    rng = np.random.default_rng(N)
    u2 = np.linalg.qr(rng.standard_normal((N * N, 2, 2)) + 1j * rng.standard_normal((N * N, 2, 2)))[0]
    for fld in (f, gauge_transform(rank2, u2), _flux_field(4, N, [(1, 2, 1), (3, 4, 2)])):
        d = fld.geometry.d
        symmetry_group(fld)
        symmetry_gauge(fld, np.eye(d, dtype=int), shift=_half_period(d, N, (0, 1)))
    assert len(combs) == 3 * 3 + 1
    for args, (w, L) in combs:
        want_w, want_L = _walked_comb(*args)
        assert np.abs(w - want_w).max() < 1e-13 and np.abs(L - want_L).max() < 1e-13


def test_the_link_check_rejects_a_flipped_translation_gauge():
    # the comb reads U_1 at (a, 0) and at its image (a + 3, 3), never at
    # (0, 1): only the check on every link sees the flip there
    f = _flux_field(2, 6, [(1, 2, 2)])
    links = f.links.copy()
    links[1, 0] *= -1
    flipped = gauge.GaugeField(f.geometry, 1, links, f.flux_sectors)
    one, t = np.eye(2, dtype=int), [3, 3]
    assert symmetry_gauge(f, one, shift=t) is not None
    assert symmetry_gauge(flipped, one, shift=t) is None


def test_a_translation_without_a_scalar_phase_is_not_kept():
    # (e12 + 2 e34) + (e12 + 4 e34): both summands have the translation of
    # the (3,4) plane, with phases -1 and 1 on its turn, so the sum has its
    # gauge but no scalar phase
    f = direct_sum_field(_flux_field(4, 6, [(1, 2, 1), (3, 4, 2)]),
                         _flux_field(4, 6, [(1, 2, 1), (3, 4, 4)]))
    gens, _ = symmetry_group(f)
    assert len(gens) == 2
    assert symmetry_gauge(f, np.eye(4, dtype=int), shift=[0, 0, 3, 3]) is not None
    assert _translations(f, gens) == []


def test_fields_without_turns_have_no_translation():
    f = _flux_field(4, 4, [(1, 2, 2), (3, 4, 2)])
    assert _translations(perturb_field(f, 0.05, 1), []) == []
    assert symmetry_group(perturb_field(f, 0.05, 1)) == ([], None)
    # K = 2 e12 + 2 e13 is fixed by the inversion alone
    g = _flux_field(4, 4, [(1, 2, 2), (1, 3, 2)])
    gens, _ = symmetry_group(g)
    assert [P.tolist() for P, _ in gens] == [(-np.eye(4, dtype=int)).tolist()]
    assert _translations(g, gens) == []
