import itertools
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse.linalg as spla

from wilsonindex import (
    FluxMatrix,
    SIGMA,
    SingularOperatorError,
    acm_invariant,
    assemble,
    bott_index_tuple,
    clifford_rep,
    clock_shift,
    constant_flux_field,
    continuum_index,
    corner_count_degree,
    direct_sum_field,
    gauge_transform,
    gauge_tuple,
    half_signature,
    inertia,
    lattice_index,
    make_geometry,
    mass_mode_equivalence,
    min_abs_eigenvalue,
    perturb_field,
    spectral,
    symbol_degree,
    tensor_field,
    trivial_field,
    verify_gap_bound,
)
from wilsonindex.ktheory import UnitaryTuple, bott_index_pauli

import newton_degree as newton


def _flux2(k):
    return FluxMatrix.from_entries(2, [(1, 2, k)])


# ---------------------------------------------------------------------------
# Pfaffian


def _pfaffian_by_matchings(K):
    """Independent oracle: sum over perfect matchings with permutation sign."""
    d = K.shape[0]
    total = 0
    for perm in itertools.permutations(range(d)):
        pairs = [(perm[2 * i], perm[2 * i + 1]) for i in range(d // 2)]
        if any(a > b for a, b in pairs):
            continue
        if any(pairs[i][0] > pairs[i + 1][0] for i in range(len(pairs) - 1)):
            continue
        sign = np.linalg.det(np.eye(d)[list(perm)])
        total += int(round(sign)) * int(np.prod([K[a, b] for a, b in pairs]))
    return total


@pytest.mark.parametrize("seed", range(12))
def test_continuum_index_matches_matching_sum(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.choice([2, 4]))
    A = rng.integers(-3, 4, (d, d))
    K = FluxMatrix(d, A - A.T)
    assert continuum_index(K) == _pfaffian_by_matchings(K.K)


def test_continuum_index_squares_to_determinant():
    rng = np.random.default_rng(3)
    for _ in range(6):
        A = rng.integers(-2, 3, (4, 4))
        K = FluxMatrix(4, A - A.T)
        assert continuum_index(K) ** 2 == int(round(np.linalg.det(K.K)))


def test_continuum_index_odd_dimension_rejected():
    with pytest.raises(ValueError, match="even dimension"):
        continuum_index(FluxMatrix.zero(3))


# ---------------------------------------------------------------------------
# lattice index


def test_trivial_field_has_zero_index():
    r = lattice_index(trivial_field(make_geometry(2, 8)), 1.0)
    assert r.invariant == 0 and r.degree == 1
    assert r.continuum_index == 0 and r.agrees


@pytest.mark.parametrize("k", [-2, -1, 1, 2])
def test_index_equals_flux_two_dimensions(k):
    f = constant_flux_field(make_geometry(2, 8), _flux2(k))
    r = lattice_index(f, 1.0)
    assert r.invariant == SIGMA * k
    assert r.agrees


@pytest.mark.parametrize("k", [1, -2])
def test_constant_mode_above_the_first_window_counts_the_doublers(k):
    # mu = m a = 2.5: the corners (1/2, 0) and (0, 1/2) add -Pf each, so
    # the continuum prediction is deg(2, 2.5) Pf = -Pf
    f = constant_flux_field(make_geometry(2, 8), _flux2(k))
    r = lattice_index(f, 2.5 * 8, mode="constant")
    assert r.mu == 2.5 and r.degree == -1
    assert r.continuum_index == -k
    assert r.invariant == SIGMA * r.continuum_index and r.agrees


def test_second_window_index_at_d4():
    # d=4 at mu = 2.5: deg(4, 2.5) = 1 - 4 = -3, so I = -3 Pf = -6
    K = FluxMatrix.from_entries(4, [(1, 2, 1), (3, 4, 2)])
    f = constant_flux_field(make_geometry(4, 4), K)
    with pytest.warns(UserWarning, match="invertibility threshold"):
        r = lattice_index(f, 2.5 * 4, mode="constant")
    assert r.degree == -3 and r.continuum_index == -6
    assert r.invariant == SIGMA * r.continuum_index and r.agrees


def test_index_is_half_signature_identity():
    f = constant_flux_field(make_geometry(2, 6), _flux2(2))
    r = lattice_index(f, 1.0)
    assert r.invariant == r.inertia.n_plus - r.inertia.dim // 2


def test_large_index_never_densifies(monkeypatch):
    # dim 5184 > spectral._DENSE_LIMIT: one block LDL* factor gives
    # inertia and gap, for the index and for the gap alone.  At m = 1 the
    # on-site entries -+3 are far above the elimination floor, so only the
    # half-size Schur complement is densified, never the full operator.
    # Below the floor (|m - d| < 1% of ||H||_inf) no row is eliminated and
    # the whole operator would be densified for hetrf, though not by
    # _as_dense (test_spectral's test_ldl_below_the_elimination_floor)
    def no_dense(H):
        raise AssertionError(f"dense copy of a dim-{H.shape[0]} operator")

    monkeypatch.setattr(spectral, "_as_dense", no_dense)
    K = FluxMatrix.from_entries(4, [(1, 2, 1), (3, 4, 2)])
    f = constant_flux_field(make_geometry(4, 6), K)
    r = lattice_index(f, 1.0)
    assert r.invariant == 2 and r.agrees
    assert r.inertia.method == "ldl"
    gap = min_abs_eigenvalue(assemble(f, clifford_rep(4), 1.0).matrix)
    assert abs(gap - r.inertia.gap) < 1e-6 * r.inertia.gap


def test_index_gauge_covariant():
    f = constant_flux_field(make_geometry(2, 5), _flux2(1))
    rng = np.random.default_rng(11)
    g = np.exp(1j * rng.uniform(0, 2 * np.pi, f.geometry.n_sites)).reshape(-1, 1, 1)
    assert lattice_index(gauge_transform(f, g), 1.0).invariant \
        == lattice_index(f, 1.0).invariant


def test_index_stable_under_small_perturbation():
    f = constant_flux_field(make_geometry(2, 6), _flux2(1))
    base = lattice_index(f, 1.0).invariant
    for seed in (0, 1):
        fp = perturb_field(f, 0.05, seed=seed)
        assert lattice_index(fp, 1.0).invariant == base


def test_index_additive_under_direct_sum():
    g = make_geometry(2, 6)
    f1 = constant_flux_field(g, _flux2(1))
    f2 = constant_flux_field(g, _flux2(-2))
    r = lattice_index(direct_sum_field(f1, f2), 1.0)
    assert r.invariant == lattice_index(f1, 1.0).invariant \
        + lattice_index(f2, 1.0).invariant
    assert r.continuum_index == -1


def test_index_of_tensor_product_adds_fluxes():
    g = make_geometry(2, 8)
    t = tensor_field(constant_flux_field(g, _flux2(1)),
                     constant_flux_field(g, _flux2(1)))
    assert lattice_index(t, 1.0).invariant == SIGMA * 2


def test_mass_out_of_range_rejected():
    f = trivial_field(make_geometry(2, 4))
    for bad in (0.0, -1.0, 2.0, 5.0):
        with pytest.raises(ValueError, match="parameter out of range"):
            lattice_index(f, bad, mode="cutoff")
    with pytest.raises(ValueError, match="unknown mass mode"):
        lattice_index(f, 1.0, mode="huge")


def test_constant_mass_mode_warns_below_threshold():
    f = constant_flux_field(make_geometry(2, 8), _flux2(1))
    with pytest.warns(UserWarning, match="threshold"):
        lattice_index(f, 1.0, mode="constant")


def test_mass_mode_equivalence():
    f = constant_flux_field(make_geometry(2, 16), _flux2(1))
    assert mass_mode_equivalence(f, 1.0, 11.0)


# ---------------------------------------------------------------------------
# degree of the normalized symbol


@pytest.mark.parametrize("d,mu", [(2, 1.0), (2, -1.0), (2, 3.0), (2, 0.5),
                                  (4, 1.0)])
def test_degree_matches_corner_count(d, mu):
    # the Newton search finds the preimages without assuming the corners
    res = 4 if d == 4 else 6
    want = newton.newton_degree(d, mu, resolution=res)
    assert symbol_degree(d, mu, resolution=res) == corner_count_degree(d, mu) == want


# the half-signature of the assembled operator is deg(d, mu) Pf(K) in every
# mass window: the doubler count of Wilson fermions.  d=4 N=4 is too coarse
# at the outer windows (gap 0.049 against a^2 ||R|| = 0.77), N=6 is not
@pytest.mark.parametrize("d,N,entries,mus", [
    (2, 8, [(1, 2, 1)], (0.5, 1.5, 2.5, 3.5)),
    (2, 8, [(1, 2, -2)], (0.5, 1.5, 2.5, 3.5)),
    (4, 4, [(1, 2, 1), (3, 4, 2)], (1.5, 2.5, 3.5, 4.5, 5.5, 6.5)),
    (4, 6, [(1, 2, 1), (3, 4, 2)], (0.5, 7.5)),
])
def test_index_theorem_in_every_mass_window(d, N, entries, mus):
    K = FluxMatrix.from_entries(d, entries)
    f = constant_flux_field(make_geometry(d, N), K)
    cl = clifford_rep(d)
    got = [half_signature(inertia(assemble(f, cl, mu).matrix)) for mu in mus]
    assert got == [corner_count_degree(d, mu) * continuum_index(K) for mu in mus]


def test_degree_known_values():
    assert corner_count_degree(2, 1.0) == 1
    assert corner_count_degree(4, 1.0) == 1
    assert corner_count_degree(2, -1.0) == 0
    assert corner_count_degree(2, 3.0) == -1
    assert corner_count_degree(4, 3.0) == -3


def test_degree_window_boundary_rejected():
    with pytest.raises(ValueError, match="window boundary"):
        symbol_degree(2, 2.0)
    with pytest.raises(ValueError, match="even dimension"):
        symbol_degree(3, 1.0)


def _reference_symbol_map(k, mu):
    """F0, Fv and J at one momentum k of shape (d,), entry by entry."""
    d = len(k)
    s = np.sin(2 * np.pi * k)
    c = np.cos(2 * np.pi * k)
    w = float(np.sum(c - 1.0) + mu)
    f = float(np.sqrt(np.sum(s ** 2) + w ** 2))
    dfdk = 2 * np.pi * s * (c - w) / f
    J = np.zeros((d, d))
    for j in range(d):
        for l in range(d):
            J[j, l] = (-s[j] * dfdk[l]) / f ** 2
            if j == l:
                J[j, l] += 2 * np.pi * c[j] / f
    return w / f, s / f, J


def _reference_newton_roots(seeds, mu, target_vec, target_sign):
    """One damped Newton loop per seed, roots deduplicated in seed order."""
    roots = []
    for seed in seeds:
        k = seed.astype(float).copy()
        ok = False
        for _ in range(60):
            F0, Fv, J = _reference_symbol_map(k, mu)
            r = Fv - target_vec
            if np.linalg.norm(r) < 1e-12:
                ok = True
                break
            try:
                step = np.linalg.solve(J, r)
            except np.linalg.LinAlgError:
                break
            if np.linalg.norm(step) > 0.25:
                step *= 0.25 / np.linalg.norm(step)
            k = (k - step) % 1.0
        if not ok:
            continue
        F0, Fv, J = _reference_symbol_map(k, mu)
        if F0 * target_sign <= 0:
            continue
        key = tuple(np.round(k % 1.0, 6) % 1.0)
        if any(np.all(np.abs((np.array(key) - np.array(r0) + 0.5) % 1.0 - 0.5)
                      < 1e-5) for r0, _ in roots):
            continue
        roots.append((key, float(np.linalg.det(J))))
    return roots


def _seed_grid(d, resolution):
    axes = [np.arange(resolution) / resolution] * d
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)


# odd resolutions put no seed on the half-period corners, so which seed
# reaches a root first, and the root order, depends on every Newton step
@pytest.mark.parametrize("d,mu,res,target", [
    (2, 1.0, 8, None), (2, 3.0, 8, None), (4, 1.0, 4, None), (4, 5.0, 4, None),
    (2, 3.0, 5, None), (4, 3.0, 3, (0.02, -0.045, -0.065, 0.0)),
])
def test_batched_newton_matches_per_seed_loop(d, mu, res, target):
    target_vec = np.zeros(d) if target is None else np.array(target)
    want = _reference_newton_roots(_seed_grid(d, res), mu, target_vec, 1.0)
    got = newton._newton_roots(d, mu, target_vec, 1.0, res)
    assert [key for key, _ in got] == [key for key, _ in want]
    assert [np.sign(det) for _, det in got] == [np.sign(det) for _, det in want]
    np.testing.assert_allclose([det for _, det in got],
                               [det for _, det in want], rtol=1e-9)


def test_batched_newton_drops_a_singular_seed(monkeypatch):
    # at res=2 with this target each corner seed finds its own root, so
    # the seed at (0, 1/2) dropping out removes exactly its root
    d, mu, res = 2, 3.0, 2
    target_vec = np.array([0.1, 0.05])
    singular = np.array([0.0, 0.5])
    seeds = _seed_grid(d, res)
    full = newton._newton_roots(d, mu, target_vec, 1.0, res)
    symbol_map = newton._symbol_map

    def one_singular(k, mu):
        F0, Fv, J = symbol_map(k, mu)
        J[np.all(k == singular, axis=-1)] = 0.0
        return F0, Fv, J

    monkeypatch.setattr(newton, "_symbol_map", one_singular)
    got = newton._newton_roots(d, mu, target_vec, 1.0, res)
    rest = seeds[~np.all(seeds == singular, axis=-1)]
    want = _reference_newton_roots(rest, mu, target_vec, 1.0)
    assert [key for key, _ in got] == [key for key, _ in want]
    assert len(got) == len(full) - 1
    assert all(root in full for root in got)


# ---------------------------------------------------------------------------
# a-priori gap bound


def test_gap_bound_trivial_field_tight():
    f = trivial_field(make_geometry(2, 8))
    rep = verify_gap_bound(f, clifford_rep(2), 1.0, 1.0)
    assert rep.status == "pass" and rep.method == "dense"
    assert abs(rep.lambda_min - 1.0) < 1e-8  # zero curvature: bound saturates


def test_gap_bound_flux_field():
    f = constant_flux_field(make_geometry(2, 16), _flux2(1))
    rep = verify_gap_bound(f, clifford_rep(2), 1.0, 1.0)
    assert rep.rhs > 0
    assert rep.status == "pass"


def test_gap_bound_vacuous_label():
    f = constant_flux_field(make_geometry(2, 4), _flux2(1))
    rep = verify_gap_bound(f, clifford_rep(2), 1.0, 4.0)
    assert rep.rhs < 0 and rep.status == "vacuous"


def test_gap_bound_kappa_range():
    f = trivial_field(make_geometry(2, 4))
    with pytest.raises(ValueError, match="kappa"):
        verify_gap_bound(f, clifford_rep(2), 1.0, 0.5)
    with pytest.raises(ValueError, match="kappa"):
        verify_gap_bound(f, clifford_rep(2), 1.0, 10.0)


# ---------------------------------------------------------------------------
# almost-commuting unitary tuples


def test_clock_shift_commutator_norm():
    t = clock_shift(8)
    assert abs(t.epsilon - abs(np.exp(2j * np.pi / 8) - 1)) < 1e-12
    with pytest.raises(ValueError):
        clock_shift(1)


@pytest.mark.parametrize("n", range(4, 13))
def test_clock_shift_invariant_matches_independent_oracle(n):
    t = clock_shift(n)
    v = acm_invariant(t, 1.0)
    assert abs(v) == 1
    assert v == bott_index_tuple(t, 1.0)


def test_tuple_form_matches_lattice_form():
    f = constant_flux_field(make_geometry(2, 4), _flux2(1))
    assert acm_invariant(gauge_tuple(f), 1.0) == lattice_index(f, 1.0).invariant
    # non-abelian: the dense tuple path against the sparse lattice path
    g = make_geometry(2, 6)
    f = perturb_field(direct_sum_field(constant_flux_field(g, _flux2(1)),
                                       constant_flux_field(g, _flux2(2))), 0.05, seed=3)
    assert lattice_index(f, 1.0).invariant == 3
    assert acm_invariant(gauge_tuple(f), 1.0) == 3


def test_acm_invariant_computes_no_spectrum(monkeypatch):
    # the counts come from the factor's pivots: no dense eigensolve and no
    # Krylov gap; the Bott oracle runs scipy's eigvalsh, so it runs first
    t = clock_shift(512)
    bott = bott_index_tuple(t, 1.0)

    def no_spectrum(*args, **kwargs):
        raise AssertionError("spectrum computed for a count")

    monkeypatch.setattr(sla, "eigvalsh", no_spectrum)
    monkeypatch.setattr(spla, "eigsh", no_spectrum)
    assert acm_invariant(t, 1.0) == bott == -1


def test_bott_oracle_calls_no_numpy_linalg(monkeypatch):
    # numpy and scipy bundle separate OpenBLAS runtimes; the tuple path
    # keeps its dense LAPACK calls on scipy's, the one the factor uses
    def numpy_lapack(*args, **kwargs):
        raise AssertionError("numpy.linalg called")

    monkeypatch.setattr(np.linalg, "eigvalsh", numpy_lapack)
    monkeypatch.setattr(np.linalg, "eigh", numpy_lapack)
    assert bott_index_tuple(clock_shift(64), 1.0) == -1


def test_bott_block_form_has_the_kronecker_spectrum():
    # the oracle's [[Z, X - iY], [X + iY, -Z]] is a basis permutation of
    # X (x) s1 + Y (x) s2 + Z (x) s3: same eigenvalues, same half-signature
    rng = np.random.default_rng(7)
    U, V = clock_shift(16).unitaries
    noise = rng.standard_normal((3, 16, 16)) + 1j * rng.standard_normal((3, 16, 16))
    X, Y, Z = ((h + h.conj().T) * 1e-3 for h in noise)
    X += (U - U.conj().T) / 2j
    Y += (V - V.conj().T) / 2j
    Z += (U + U.conj().T + V + V.conj().T) / 2 - np.eye(16)
    s1 = np.array([[0, 1], [1, 0]])
    s2 = np.array([[0, -1j], [1j, 0]])
    s3 = np.array([[1, 0], [0, -1]])
    want = sla.eigvalsh(np.kron(X, s1) + np.kron(Y, s2) + np.kron(Z, s3))
    block = sla.eigvalsh(np.block([[Z, X - 1j * Y], [X + 1j * Y, -Z]]))
    assert np.max(np.abs(block - want)) < 1e-12
    n_pos, n_neg = int(np.sum(want > 0)), int(np.sum(want < 0))
    assert bott_index_pauli(X, Y, Z) == (n_pos - n_neg) // 2 == -1


@pytest.mark.parametrize("t, factor, dtype", [
    # clock and shift give a real symmetric operator and Bott matrix
    (clock_shift(64), "dsytrf", np.float64),
    # a flux field's links are complex phases
    (gauge_tuple(constant_flux_field(make_geometry(2, 6), _flux2(1))),
     "zhetrf", np.complex128),
], ids=["clock-shift", "flux-field"])
def test_tuple_path_is_real_exactly_when_the_operator_is(lapack_calls, t, factor, dtype):
    want = acm_invariant(t, 1.0)
    assert lapack_calls.factors == [factor]
    assert bott_index_tuple(t, 1.0) == want != 0
    assert lapack_calls.eigvalsh == [dtype]


def test_bott_matrix_that_does_not_fit_raises(monkeypatch):
    monkeypatch.setattr(spectral, "_available_memory", lambda: 1)
    with pytest.raises(spectral.ResourceError, match="dim-16 Bott matrix"):
        bott_index_tuple(clock_shift(8), 1.0)


def test_acm_invariant_builds_no_dense_operator():
    # the 1024 x 1024 operator of clock_shift(512) is built sparse: the
    # peak stays below one dense copy of it (16 MiB)
    t = clock_shift(512)
    tracemalloc.start()
    try:
        assert acm_invariant(t, 1.0) == -1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 1024 ** 2


def test_commuting_tuple_has_zero_invariant():
    t = UnitaryTuple.from_matrices(
        [np.diag([1, 1j]), np.diag([1j, 1])])
    assert acm_invariant(t, 1.0) == 0
    assert bott_index_tuple(t, 1.0) == 0


def test_acm_parameter_validation():
    t = clock_shift(5)
    with pytest.raises(ValueError, match="mass"):
        acm_invariant(t, 0.0)
    with pytest.raises(ValueError, match="unitary"):
        UnitaryTuple.from_matrices([np.ones((2, 2))])
    with pytest.raises(ValueError, match="even dimension"):
        acm_invariant(UnitaryTuple.from_matrices([np.eye(2)]), 1.0)


def test_bott_oracle_rejects_singular_triple():
    Z = np.zeros((2, 2))
    with pytest.raises(SingularOperatorError):
        bott_index_pauli(Z, Z, Z)
