import dataclasses
import itertools

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from wilsonindex import (
    FluxMatrix,
    ParameterRangeError,
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
    estimate_curvature_norm,
    gauge_transform,
    gauge_tuple,
    half_signature,
    inertia,
    lattice_index,
    make_geometry,
    min_abs_eigenvalue,
    perturb_field,
    spectral,
    symbol_degree,
    tensor_field,
    trivial_field,
    verify_gap_bound,
)
from wilsonindex import ktheory, wilson
from wilsonindex.formats import read_unitary_tuple, write_unitary_tuple
from wilsonindex.gauge import GaugeField, _translations, quarter_turn, symmetry_group
from wilsonindex.ktheory import UnitaryTuple
from wilsonindex.wilson import _blocks, symmetry_blocks, wilson_matrix

import newton_degree as newton


def _flux2(k):
    return FluxMatrix.from_entries(2, [(1, 2, k)])


def _generic_tuple(n):
    """(clock expm(1e-3 i G), shift) for a seeded Hermitian G: dense-stored
    unitaries with every entry nonzero, almost commuting as clock_shift(n)."""
    rng = np.random.default_rng(1)
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    clock, shift = clock_shift(n).unitaries
    return UnitaryTuple.from_matrices(
        [clock @ sla.expm(1e-3j * (G + G.conj().T) / 2), shift])


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


def test_index_at_d6():
    # dim 5832 on the factor path; N is odd, so the torus is not bipartite
    # and the eliminated rows are not a parity class.  (At N=2 the index is
    # 0, too coarse to show the flux.)
    K = FluxMatrix.from_entries(6, [(1, 2, 1), (3, 4, 1), (5, 6, 1)])
    r = lattice_index(constant_flux_field(make_geometry(6, 3), K), 1.0)
    assert r.invariant == 1 == continuum_index(K) and r.agrees
    assert r.inertia.method == "ldl"


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
    assert lattice_index(f, 1.0, mode="cutoff").invariant \
        == lattice_index(f, 11.0, mode="constant").invariant


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
    with pytest.raises(SingularOperatorError, match="window boundary"):
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
    rep = verify_gap_bound(f, 1.0, 1.0)
    assert rep.status == "pass" and rep.method == "dense"
    assert abs(rep.lambda_min - 1.0) < 1e-8  # zero curvature: bound saturates


def test_gap_bound_flux_field():
    f = constant_flux_field(make_geometry(2, 16), _flux2(1))
    rep = verify_gap_bound(f, 1.0, 1.0)
    assert rep.rhs > 0
    assert rep.status == "pass"


def test_gap_bound_vacuous_label():
    f = constant_flux_field(make_geometry(2, 4), _flux2(1))
    rep = verify_gap_bound(f, 1.0, 4.0)
    assert rep.rhs < 0 and rep.status == "vacuous"


def test_gap_bound_kappa_range():
    f = trivial_field(make_geometry(2, 4))
    with pytest.raises(ValueError, match="kappa"):
        verify_gap_bound(f, 1.0, 0.5)
    with pytest.raises(ValueError, match="kappa"):
        verify_gap_bound(f, 1.0, 10.0)


@pytest.mark.parametrize("call", [
    lambda: lattice_index(trivial_field(make_geometry(2, 4)), 2.0),
    lambda: verify_gap_bound(trivial_field(make_geometry(2, 4)), 1.0, 0.5),
    lambda: verify_gap_bound(trivial_field(make_geometry(2, 4)), 1.0, 10.0),
    lambda: acm_invariant(clock_shift(5), 0.0),
    lambda: acm_invariant(clock_shift(5), 2.0),
    lambda: bott_index_tuple(clock_shift(5), 0.0),
    lambda: bott_index_tuple(clock_shift(5), 2.0),
    lambda: bott_index_tuple(clock_shift(5), np.nan),
], ids=["index-mass", "kappa-below-m", "kappa-above-N", "acm-mass-0", "acm-mass-2",
        "bott-mass-0", "bott-mass-2", "bott-mass-nan"])
def test_range_errors_are_typed(call):
    with pytest.raises(ParameterRangeError):
        call()


def test_constant_mass_too_large_to_square_still_runs():
    # 1e200 ** 2 raises OverflowError on a Python float; m = 1e200 is a
    # finite m > 0, so constant mode takes it: mu = m a lies past every
    # window, where the degree and the index are 0
    r = lattice_index(constant_flux_field(make_geometry(2, 4), _flux2(1)), 1e200,
                      mode="constant")
    assert (r.invariant, r.degree, r.mu) == (0, 0, 1e200 / 4)


@pytest.mark.parametrize("call, message", [
    # constant mode, mu = m a = 2: the symbol vanishes at the corner (1/2, 0)
    (lambda: lattice_index(trivial_field(make_geometry(2, 4)), 8.0, mode="constant"),
     "decrease a"),
    # clock_shift(3)'s signature steps from 0 to -2 at m = (3 - sqrt 3)/2
    (lambda: acm_invariant(clock_shift(3), (3 - np.sqrt(3)) / 2), "too far from commuting"),
    (lambda: bott_index_tuple(clock_shift(3), (3 - np.sqrt(3)) / 2), "Bott matrix is singular"),
], ids=["lattice-index", "acm", "bott"])
def test_singular_operators_raise(call, message):
    with pytest.raises(SingularOperatorError, match=message):
        call()


# ---------------------------------------------------------------------------
# almost-commuting unitary tuples


def test_clock_shift_commutator_norm():
    t = clock_shift(8)
    assert abs(t.epsilon - abs(np.exp(2j * np.pi / 8) - 1)) < 1e-12
    with pytest.raises(ValueError):
        clock_shift(1)


@pytest.mark.parametrize("n", [2, 3, 8, 64, 300])
def test_clock_shift_is_unitary(n):
    # clock_shift builds its pair without the runtime unitarity check
    for U in clock_shift(n).unitaries:
        assert np.max(np.abs(U @ U.conj().T - np.eye(n))) < 1e-14


def test_clock_shift_holds_only_its_pair(traced_peak):
    # two 512 x 512 complex128 matrices, 4 MiB each, and no third
    with traced_peak() as peak:
        t = clock_shift(512)
    assert peak.bytes < 2.1 * 16 * 512 ** 2
    assert np.array_equal(t.unitaries[1], np.roll(np.eye(512), 1, axis=0))


def test_tuple_fields_are_its_unitaries():
    assert [f.name for f in dataclasses.fields(UnitaryTuple)] == ["unitaries"]


@pytest.mark.parametrize("build", [
    lambda: FluxMatrix.zero(2),
    lambda: trivial_field(make_geometry(2, 4)),
    lambda: clifford_rep(2),
    lambda: clock_shift(4),
    lambda: assemble(trivial_field(make_geometry(2, 4)), clifford_rep(2), 1.0),
], ids=["FluxMatrix", "GaugeField", "CliffordRep", "UnitaryTuple", "WilsonOperator"])
def test_records_holding_arrays_compare_by_identity(build):
    a, b = build(), build()
    assert a == a and a != b
    assert a in [a] and b not in [a]
    assert hash(a) == hash(a) and len({a, b}) == 2
    # a geometry holds only ints and keeps value equality
    assert make_geometry(2, 4) == make_geometry(2, 4)
    assert hash(make_geometry(2, 4)) == hash(make_geometry(2, 4))


def test_every_exported_name_resolves():
    import wilsonindex

    assert [n for n in wilsonindex.__all__ if not hasattr(wilsonindex, n)] == []


def test_tuple_construction_runs_no_svd(monkeypatch, tmp_path):
    # epsilon is measured on its first read, once, and never while a tuple
    # is built, read from a file or checked for unitarity
    def refuse(*args, **kwargs):
        raise AssertionError("SVD while building a tuple")

    path = tmp_path / "pair.wut"
    write_unitary_tuple(clock_shift(6), path)
    f = constant_flux_field(make_geometry(4, 2),
                            FluxMatrix.from_entries(4, [(1, 2, 1), (3, 4, 1)]))
    monkeypatch.setattr(sla, "svdvals", refuse)
    monkeypatch.setattr(np.linalg, "norm", refuse)
    monkeypatch.setattr(np.linalg, "svd", refuse)
    monkeypatch.setattr(ktheory, "_sparse_norm", refuse)
    built = [clock_shift(64), gauge_tuple(f), read_unitary_tuple(path)]
    monkeypatch.undo()
    calls = []
    measure = ktheory._sparse_norm
    monkeypatch.setattr(ktheory, "_sparse_norm",
                        lambda *a, **kw: calls.append(1) or measure(*a, **kw))
    for t in built:
        calls.clear()
        first = t.epsilon
        assert len(calls) == t.d * (t.d - 1) // 2
        assert t.epsilon == first and len(calls) == t.d * (t.d - 1) // 2
    assert [t.d for t in built] == [2, 4, 2]


def test_replace_describes_the_new_matrices(tmp_path):
    # d, n and epsilon are read off the unitaries, so they cannot go stale
    U = clock_shift(6).unitaries[0]
    t = dataclasses.replace(clock_shift(6), unitaries=(U, U, U))
    assert (t.d, t.n, t.epsilon) == (3, 6, 0.0)
    path = tmp_path / "triple.wut"
    write_unitary_tuple(t, path)
    back = read_unitary_tuple(path)
    assert back.d == 3 and all(np.array_equal(V, U) for V in back.unitaries)


def test_epsilon_that_does_not_fit_raises(headroom):
    # every entry of U is nonzero, so its sparse copy alone is 305 MiB:
    # numpy refuses it under the limit, so the commutator is never formed
    # and nothing is cached
    U = np.full((4000, 4000), 1 / 4000 ** 0.5, dtype=complex)
    t = UnitaryTuple((U, U))
    with headroom(150), pytest.raises(MemoryError):
        t.epsilon
    assert "epsilon" not in vars(t)


def _perturbed_rank2(N):
    g = make_geometry(2, N)
    return perturb_field(direct_sum_field(constant_flux_field(g, _flux2(1)),
                                          constant_flux_field(g, _flux2(-3))),
                         0.1, 3)


@pytest.mark.parametrize("build", [
    lambda: _perturbed_rank2(6),
    lambda: _perturbed_rank2(8),
    lambda: perturb_field(constant_flux_field(
        make_geometry(4, 3), FluxMatrix.from_entries(4, [(1, 2, 1), (3, 4, 2)])),
        0.1, 3),
], ids=["d2-N6-rank2", "d2-N8-rank2", "d4-N3"])
def test_gauge_tuple_epsilon_is_its_curvature(build):
    # [U_j, U_l] maps the fibre over x to the one over x + e_j + e_l by the
    # block U_j(x+e_l) U_l(x) - U_l(x+e_j) U_j(x) = W_x (1 - P_jl(x)), with
    # W_x = U_j(x+e_l) U_l(x) unitary, so ||[U_j, U_l]||_2 is
    # max_x ||P_jl(x) - 1||_2 = a^2 ||R||.  The two sides are computed
    # independently: a dense SVD of each n x n commutator against batched
    # r x r plaquette norms.
    f = build()
    want = estimate_curvature_norm(f) / f.geometry.N ** 2
    assert want > 0
    assert abs(gauge_tuple(f).epsilon - want) <= 1e-12 * want


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


@pytest.mark.parametrize("strength", [0.0, 0.1], ids=["flat", "perturbed"])
@pytest.mark.parametrize("k12, k34", [(1, 2), (2, 1), (-1, 2)])
def test_bott_cross_check_at_d4(k12, k34, strength):
    # the cross-check is the tuple operator on the dense oracle at every
    # even d: dim 1024 here, against the factor, the lattice operator and
    # Pf(K) (degree 1 at m = 1)
    K = FluxMatrix.from_entries(4, [(1, 2, k12), (3, 4, k34)])
    f = perturb_field(constant_flux_field(make_geometry(4, 4), K), strength, 3)
    t = gauge_tuple(f)
    assert bott_index_tuple(t, 1.0) == acm_invariant(t, 1.0) \
        == lattice_index(f, 1.0).invariant == SIGMA * continuum_index(K) == k12 * k34


@pytest.mark.parametrize("spoil", [lambda u: 1.001 * u, lambda u: np.nan * u],
                         ids=["scaled", "nan"])
def test_gauge_tuple_rejects_a_non_unitary_link(spoil):
    # the check runs on the r x r links, not on the n x n unitaries
    f = _perturbed_rank2(6)
    links = f.links.copy()
    links[7, 1] = spoil(links[7, 1])
    with pytest.raises(ValueError, match="tuple entries must be unitary"):
        gauge_tuple(dataclasses.replace(f, links=links))


def test_acm_invariant_computes_no_spectrum(monkeypatch):
    # the counts come from the factor's pivots: no eigensolve, dense or
    # banded, and no Krylov gap; the Bott oracle runs scipy's eig_banded on
    # this narrow band, so it runs first
    t = clock_shift(512)
    bott = bott_index_tuple(t, 1.0)

    def no_spectrum(*args, **kwargs):
        raise AssertionError("spectrum computed for a count")

    monkeypatch.setattr(sla, "eigvalsh", no_spectrum)
    monkeypatch.setattr(sla, "eig_banded", no_spectrum)
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
    # the block form [[Z, X - iY], [X + iY, -Z]] is a basis permutation of
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
    # a tuple's Wilson matrix, conjugated by 1 (x) s3, is its
    # X (x) s1 + Y (x) s2 + Z (x) s3: s3 (i s_j) s3 = -i s_j and s3 commutes
    # with gamma = s3.  The interleaved rows (i, a) -> 2i + a of its block
    # form, entry for entry to rounding (0.0 on the first two)
    for t in (clock_shift(16),
              gauge_tuple(perturb_field(constant_flux_field(make_geometry(2, 6), _flux2(1)),
                                        0.1, 3)),
              _generic_tuple(64)):
        perm = np.concatenate([np.arange(0, 2 * t.n, 2), np.arange(1, 2 * t.n, 2)])
        s3 = np.tile([1.0, -1.0], t.n)
        for m in (0.5, 1.0, 1.5):
            H = wilson_matrix(t.unitaries, clifford_rep(2), m).toarray()
            H = (s3[:, None] * H * s3)[np.ix_(perm, perm)]
            assert np.max(np.abs(H - _bott_matrix(t, m))) <= 1e-15


@pytest.mark.parametrize("t, factor, dtype", [
    # clock and shift give a real symmetric operator and Bott matrix
    (clock_shift(64), ("ssytrf", np.float32), np.float64),
    # a flux field's links are complex phases
    (gauge_tuple(constant_flux_field(make_geometry(2, 6), _flux2(1))),
     ("chetrf", np.complex64), np.complex128),
], ids=["clock-shift", "flux-field"])
def test_tuple_path_is_real_exactly_when_the_operator_is(lapack_calls, t, factor, dtype):
    want = acm_invariant(t, 1.0)
    assert lapack_calls.factors == [factor]
    assert bott_index_tuple(t, 1.0) == want != 0
    # dim 128, half-bandwidth 6 and 23: too small for the band solver
    assert lapack_calls.eigvalsh == [dtype]
    assert lapack_calls.eig_banded == []


def _bott_matrix(t, m):
    """The Bott matrix of a d=2 tuple in block form [[Z, X - iY], [X + iY, -Z]],
    dense, built by hand."""
    U1, U2 = t.unitaries
    X = (U1 - U1.conj().T) / 2j
    Y = (U2 - U2.conj().T) / 2j
    Z = (U1 + U1.conj().T + U2 + U2.conj().T) / 2 + (m - 2) * np.eye(t.n)
    return np.block([[Z, X - 1j * Y], [X + 1j * Y, -Z]])


@pytest.mark.parametrize("t, band", [
    # dim 1024, half-bandwidth 6 in RCM order
    (clock_shift(512), [np.float64]),
    # dim 512, half-bandwidth 63: the band solver would be slower
    (gauge_tuple(constant_flux_field(make_geometry(2, 16), _flux2(2))), []),
], ids=["clock-shift-512", "flux-field-N16"])
def test_bott_oracle_takes_the_band_only_when_narrow(lapack_calls, t, band):
    assert bott_index_tuple(t, 1.0) == acm_invariant(t, 1.0)
    assert lapack_calls.eig_banded == band
    assert lapack_calls.eigvalsh == ([] if band else [np.complex128])


@pytest.mark.parametrize("n", [256, 512])
def test_banded_and_dense_bott_eigenvalues_agree(lapack_calls, n):
    B = _bott_matrix(clock_shift(n), 1.0)
    assert not B.imag.any()
    banded = spectral._eigenvalues(sp.csr_matrix(B.real))
    assert lapack_calls.eig_banded == [np.float64]
    dense = sla.eigvalsh(B)
    assert np.max(np.abs(banded - dense)) <= 1e-12 * max(np.linalg.norm(B, 2), 1.0)


def test_bott_oracle_on_a_large_clock_shift():
    # dim 4096 on the band: the dense oracle's 256 MiB copy is not made
    t = clock_shift(2048)
    assert bott_index_tuple(t, 1.0) == acm_invariant(t, 1.0) == -1


def test_bott_matrix_that_does_not_fit_raises(monkeypatch):
    # the dense branch reserves its one copy before it checks or copies
    B = sp.csr_matrix(_bott_matrix(clock_shift(8), 1.0).real)
    monkeypatch.setattr(spectral, "_available_memory", lambda: 1)
    with pytest.raises(spectral.ResourceError, match="dim-16 operator needs"):
        spectral._eigenvalues(B)


@pytest.mark.parametrize("invariant", [acm_invariant, bott_index_tuple],
                         ids=["acm", "bott"])
def test_dense_tuple_build_that_does_not_fit_raises(headroom, invariant):
    # the DFT matrix has no zero entry, so the sparse build of the dim-4096
    # operator makes arrays of 16 M entries, 256 MiB each: numpy's
    # MemoryError under a 150 MiB limit, before any factor or eigensolve
    F = np.fft.fft(np.eye(2048)) / np.sqrt(2048)
    with headroom(150), pytest.raises(MemoryError):
        invariant(UnitaryTuple((F, F)), 1.0)


@pytest.mark.parametrize("arg, build", [
    (lambda: 20000, clock_shift),
    (lambda: trivial_field(make_geometry(2, 100)), gauge_tuple),
    (lambda: [np.eye(6000)] * 2, UnitaryTuple.from_matrices),
], ids=["clock-shift", "gauge-tuple", "from-matrices"])
def test_tuple_that_does_not_fit_raises(headroom, arg, build):
    # a dense n x n unitary of 5.96 GiB, 1.49 GiB and, cast to complex,
    # 549 MiB: the builders hold no reserve, and numpy refuses the array
    a = arg()
    with headroom(150), pytest.raises(MemoryError):
        build(a)


def test_acm_invariant_builds_no_dense_operator(traced_peak):
    # the 1024 x 1024 operator of clock_shift(512) is built sparse: the
    # peak stays below one dense copy of it (16 MiB)
    t = clock_shift(512)
    with traced_peak() as peak:
        assert acm_invariant(t, 1.0) == -1
    assert peak.bytes < 16 * 1024 ** 2


def test_dense_bott_eigensolve_holds_one_copy(lapack_calls, traced_peak):
    # dim 512, half-bandwidth 65: the dense branch.  The copy is made in
    # Fortran order and LAPACK overwrites it, so f2py makes no second one
    B = sp.csr_matrix(_bott_matrix(
        gauge_tuple(constant_flux_field(make_geometry(2, 16), _flux2(1))), 1.0))
    with traced_peak() as peak:
        spectral._eigenvalues(B)
    assert lapack_calls.eigvalsh == [np.complex128]
    assert peak.bytes <= 1.1 * 16 * 512 ** 2


def test_commuting_tuple_has_zero_invariant():
    t = UnitaryTuple.from_matrices(
        [np.diag([1, 1j]), np.diag([1j, 1])])
    assert acm_invariant(t, 1.0) == 0
    assert bott_index_tuple(t, 1.0) == 0


def test_acm_parameter_validation():
    t = clock_shift(5)
    with pytest.raises(ValueError, match="mass"):
        acm_invariant(t, 0.0)
    # a 0-d entry has no shape[0] to read, and a 0 x 0 one no entry
    for mats in ([np.ones((2, 2))], [1.0], [np.zeros((0, 0))]):
        with pytest.raises(ValueError, match="unitary"):
            UnitaryTuple.from_matrices(mats)
    with pytest.raises(ValueError, match="even dimension"):
        acm_invariant(UnitaryTuple.from_matrices([np.eye(2)]), 1.0)


def test_bott_oracle_rejects_singular_triple(lapack_calls):
    # the tuple (-I, I) at m = 2 has the triple X = Y = 0,
    # Z = -1 + 1 + m - 2 = 0, so its Bott matrix is exactly 0.  m = 2 lies
    # outside bott_index_tuple's window, so the oracle is called directly
    H = wilson_matrix((-np.eye(2), np.eye(2)), clifford_rep(2), 2.0)
    assert spectral._dense_inertia(H).n_zero == 4
    # the zero matrix has half-bandwidth 0, so the band solver ran
    assert lapack_calls.eig_banded == [np.float64]


def _matches_the_whole_operator(f, m, mode="cutoff"):
    """lattice_index on f, whose symmetry blocks it solves, against the dense
    oracle on the whole assembled operator: the same counts and tol, and
    the gap to 1e-12 relative."""
    mu = m if mode == "cutoff" else m * f.geometry.spacing
    want = spectral._dense_inertia(assemble(f, clifford_rep(f.geometry.d), mu).matrix)
    if want.n_zero:
        with pytest.raises(SingularOperatorError):
            lattice_index(f, m, mode)
        return
    got = lattice_index(f, m, mode).inertia
    assert (got.n_plus, got.n_minus, got.n_zero) == (want.n_plus, want.n_minus, 0)
    assert abs(got.gap - want.gap) <= 1e-12 * want.gap
    # each block is classified with the whole operator's zero threshold
    assert got.tol == want.tol


@pytest.mark.filterwarnings("ignore:constant mass below")
@pytest.mark.parametrize("N", [3, 4, 5, 8])
@pytest.mark.parametrize("k", range(-2, 3))
def test_parity_blocks_match_the_whole_operator_at_d2(N, k):
    f = constant_flux_field(make_geometry(2, N), _flux2(k))
    assert [P.tolist() for P, _ in symmetry_group(f)[0]] == [quarter_turn(2, 0, 1).tolist()]
    # constant mode reaches every mass window, mu = m / N
    for mu in (0.5, 1.5, 2.5, 3.5):
        _matches_the_whole_operator(f, mu * N, "constant")


@pytest.mark.parametrize("entries", [
    [(1, 2, 1), (3, 4, 1)], [(1, 2, 1), (3, 4, 2)], [(1, 3, 1), (2, 4, -1), (1, 2, 1)],
    [(1, 3, 1), (2, 4, -1)], [(1, 2, 1), (1, 3, 1)],
])
def test_parity_blocks_match_the_whole_operator_at_d4(entries):
    _matches_the_whole_operator(
        constant_flux_field(make_geometry(4, 4), FluxMatrix.from_entries(4, entries)), 1.0)


@pytest.mark.parametrize("entries", [[(1, 2, 1), (3, 4, 2)], [(1, 3, 1), (2, 4, -1)]])
def test_sixteen_blocks_match_the_whole_operator(entries):
    # odd N, where a site is fixed only by the turns of planes in which it
    # sits at 0 (N=4 is in the test above)
    f = constant_flux_field(make_geometry(4, 3), FluxMatrix.from_entries(4, entries))
    assert len(symmetry_group(f)[0]) == 2
    assert len(lattice_index(f, 1.0).blocks) == 16
    _matches_the_whole_operator(f, 1.0)


def test_parity_blocks_of_transformed_and_rank_two_fields():
    geom = make_geometry(2, 4)
    f = constant_flux_field(geom, _flux2(1))
    rng = np.random.default_rng(11)
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, geom.n_sites)).reshape(-1, 1, 1)
    rank2 = direct_sum_field(f, constant_flux_field(geom, _flux2(-2)))
    u2 = np.linalg.qr(rng.standard_normal((geom.n_sites, 2, 2))
                      + 1j * rng.standard_normal((geom.n_sites, 2, 2)))[0]
    for fld in (gauge_transform(f, phases), rank2, gauge_transform(rank2, u2)):
        assert len(symmetry_group(fld)[0]) == 1
        assert len(lattice_index(fld, 1.0).blocks) == 4
        _matches_the_whole_operator(fld, 1.0)
    assert lattice_index(rank2, 1.0).invariant == -1
    assert lattice_index(gauge_transform(rank2, u2), 1.0).invariant == -1


def test_a_field_without_the_symmetry_is_solved_whole(monkeypatch):
    f = constant_flux_field(make_geometry(2, 6), _flux2(1))
    links = f.links.copy()
    links[7, 1] *= np.exp(1e-6j)
    # assembled once, as its one block, whose tol is the operator's
    calls = []
    assemble_once = wilson.assemble
    monkeypatch.setattr(wilson, "assemble", lambda *a: calls.append(a) or assemble_once(*a))
    for fld in (GaugeField(f.geometry, 1, links, f.flux_sectors), perturb_field(f, 0.05, 3)):
        assert symmetry_group(fld) == ([], None)
        calls.clear()
        r = lattice_index(fld, 1.0)
        assert len(calls) == 1
        assert r.blocks == (fld.geometry.n_sites * 2,)
        assert r.inertia == inertia(assemble_once(fld, clifford_rep(2), 1.0).matrix)


def test_a_field_with_the_symmetry_is_never_assembled(monkeypatch):
    # its zero threshold comes from the links (wilson._norm_bound), so
    # neither lattice_index nor verify_gap_bound assembles H: no link shift
    # U_j is built, under whatever name assemble is called
    calls = []
    shift = wilson.link_shift
    monkeypatch.setattr(wilson, "link_shift", lambda *a: calls.append(a) or shift(*a))
    for f in (constant_flux_field(make_geometry(2, 6), _flux2(1)),
              constant_flux_field(make_geometry(4, 4),
                                  FluxMatrix.from_entries(4, [(1, 2, 1), (3, 4, 2)]))):
        assert symmetry_group(f)[0]
        lattice_index(f, 1.0)
        verify_gap_bound(f, 1.0, 2.0)
    assert calls == []


def test_every_field_has_one_zero_threshold():
    # with the symmetry or without it, the tol is that of the norm summed
    # off the links, which at N = 2 is above the assembled H's
    for f in (constant_flux_field(make_geometry(4, 4), FluxMatrix.from_entries(4, [(1, 2, 1), (3, 4, 2)])),
              perturb_field(constant_flux_field(make_geometry(2, 5), _flux2(1)), 0.05, 2),
              perturb_field(constant_flux_field(make_geometry(2, 2), _flux2(1)), 0.05, 2)):
        assert bool(symmetry_group(f)[0]) == (f.geometry.d == 4)
        assert lattice_index(f, 1.0).inertia.tol == spectral._tol(wilson._norm_bound(f, 1.0))


def test_d4_parity_blocks_take_the_factor_path(lapack_calls):
    # dim 5184 > _DENSE_LIMIT: the 16 blocks, of 306-342 rows, pair up
    # under the translation of the (3,4) plane, and one of each pair is
    # factored; no block goes to the dense oracle
    f = constant_flux_field(make_geometry(4, 6), FluxMatrix.from_entries(4, [(1, 2, 1), (3, 4, 2)]))
    r = lattice_index(f, 1.0)
    assert r.invariant == 2 and r.inertia.method == "ldl"
    assert sorted(set(r.blocks)) == [306, 324, 342] and sum(r.blocks) == 5184
    assert lapack_calls.factors == [("ssytrf", np.float32)] * 8
    assert lapack_calls.eigvalsh == []


def _every_block(f, mu=1.0):
    """The field's inertia with every character block built and solved."""
    cl = clifford_rep(f.geometry.d)
    gens, rf = symmetry_group(f)
    blocks, owner = _blocks(f, cl, mu, gens, rf)
    assert len(blocks) == len(owner) == 2 ** f.geometry.d
    return inertia(*blocks, tol=spectral._tol(spectral._norm_inf(assemble(f, cl, mu).matrix)))


def _paired_fields():
    """(field, blocks solved of 2^d) for fields whose blocks pair up: an
    odd K_12 and K_34 = 2 mod 4 pair 16 blocks into 8, K_12 = K_34 = 2
    into 4 (a translation in each plane), K = 2 mod 4 at d=2 4 into 2."""
    rng = np.random.default_rng(5)
    geom = make_geometry(2, 8)
    rank2 = direct_sum_field(constant_flux_field(geom, _flux2(2)),
                             constant_flux_field(geom, _flux2(-2)))
    u2 = np.linalg.qr(rng.standard_normal((geom.n_sites, 2, 2))
                      + 1j * rng.standard_normal((geom.n_sites, 2, 2)))[0]
    fields = [(constant_flux_field(make_geometry(4, N), FluxMatrix.from_entries(
        4, [(1, 2, k12), (3, 4, k34)])), 4 if k12 == 2 else 8)
        for N in (4, 6) for k12, k34 in ((1, 2), (-1, 2), (1, -2), (-1, -2), (2, 2))]
    return fields + [(constant_flux_field(geom, _flux2(k)), 2) for k in (2, -2)] + [
        (rank2, 2), (gauge_transform(rank2, u2), 2)]


@pytest.mark.parametrize("f, solved", _paired_fields(), ids=[
    *(f"d4-N{N}-{k}" for N in (4, 6) for k in ("1,2", "-1,2", "1,-2", "-1,-2", "2,2")),
    "d2-2", "d2--2", "rank2", "rank2-U2"])
def test_the_blocks_a_translation_pairs_are_solved_once(f, solved):
    # one block per class of characters that the translations make
    # equivalent, its counts taken once per character of the class: the
    # counts of every block, and the gap to 1e-12 relative
    cl = clifford_rep(f.geometry.d)
    blocks, owner = symmetry_blocks(f, cl, 1.0)
    assert len(blocks) == solved and len(owner) == 2 ** f.geometry.d
    want, r = _every_block(f), lattice_index(f, 1.0)
    got = r.inertia
    assert (got.n_plus, got.n_minus, got.n_zero, got.tol) \
        == (want.n_plus, want.n_minus, 0, want.tol)
    assert abs(got.gap - want.gap) <= 1e-12 * want.gap
    # every character's dimension, in character order
    assert r.blocks == tuple(blocks[i].shape[0] for i in owner) \
        == tuple(B.shape[0] for B in _blocks(f, cl, 1.0, *symmetry_group(f))[0])


@pytest.mark.parametrize("N, entries", [
    (5, [(1, 2, 1), (3, 4, 2)]), (6, [(1, 2, 1), (3, 4, 1)]), (8, [(1, 2, 1), (3, 4, 4)])])
def test_without_a_pairing_translation_every_block_is_solved(lapack_calls, N, entries):
    # odd N has no half period, odd fluxes no translation, and that of
    # K_34 = 4 meets each turn with phase 1: all 16 blocks are solved
    f = constant_flux_field(make_geometry(4, N), FluxMatrix.from_entries(4, entries))
    assert not any(s.any() for s in _translations(f, symmetry_group(f)[0]))
    r = lattice_index(f, 1.0)
    assert len(lapack_calls.factors) + len(lapack_calls.eigvalsh) == len(r.blocks) == 16
    want = _every_block(f)
    assert (r.inertia.n_plus, r.inertia.n_minus) == (want.n_plus, want.n_minus)
    assert r.inertia.gap == want.gap


def test_d2_parity_blocks_take_the_dense_path(lapack_calls, monkeypatch):
    # dim 1152: four eigensolves of 287-289 rows in place of one 1152-row one
    shapes = []
    eigenvalues = spectral._eigenvalues
    monkeypatch.setattr(spectral, "_eigenvalues",
                        lambda H: shapes.append(H.shape) or eigenvalues(H))
    r = lattice_index(constant_flux_field(make_geometry(2, 24), _flux2(1)), 1.0)
    assert r.invariant == 1 and r.inertia.method == "dense"
    assert shapes == [(288, 288), (289, 289), (288, 288), (287, 287)]
    assert lapack_calls.eigvalsh == [np.float64] * 4


def test_gap_bound_solves_the_parity_blocks():
    # lambda_min of kappa H(m/kappa) is kappa times the gap of H(m/kappa),
    # which the dense oracle gives: of H at d=2 (the dense path), of every
    # character block at d=4 (the factor path), where a dense copy of H
    # (dim 5184) would take minutes
    d2 = constant_flux_field(make_geometry(2, 8), _flux2(1))
    d4 = constant_flux_field(make_geometry(4, 6), FluxMatrix.from_entries(4, [(1, 2, 1), (3, 4, 2)]))
    for f, blocks, method in (
            (d2, [assemble(d2, clifford_rep(2), 0.5).matrix], "dense"),
            (d4, _blocks(d4, clifford_rep(4), 0.5, *symmetry_group(d4))[0], "ldl")):
        rep = verify_gap_bound(f, 1.0, 2.0)
        want = 2.0 * min(spectral._dense_inertia(B).gap for B in blocks)
        assert rep.method == method and abs(rep.lambda_min - want) <= 1e-12 * want
