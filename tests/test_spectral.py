import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from wilsonindex import (
    FluxMatrix,
    ResourceError,
    assemble,
    clifford_rep,
    constant_flux_field,
    direct_sum_field,
    half_signature,
    inertia,
    inertia_bunch_kaufman,
    inertia_ldl,
    lattice_index,
    make_geometry,
    min_abs_eigenvalue,
    perturb_field,
    spectral,
    trivial_field,
)
from wilsonindex.spectral import Inertia, fourier_diagonalize


def _random_hermitian(n, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return A + A.conj().T


def _eig_counts(A, tol):
    w = np.linalg.eigvalsh(A)
    return (int(np.sum(w > tol)), int(np.sum(w < -tol)),
            int(np.sum(np.abs(w) <= tol)))


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 40), st.integers(0, 10 ** 6))
def test_dense_inertia_matches_eigendecomposition(n, seed):
    A = _random_hermitian(n, seed)
    i = inertia(A)
    assert (i.n_plus, i.n_minus, i.n_zero) == _eig_counts(A, i.tol)
    assert i.dim == n


@pytest.mark.parametrize("seed", range(50))
def test_dense_and_factorization_paths_agree(seed):
    n = 8 + (seed * 7) % 121  # sizes up to 128
    A = _random_hermitian(n, seed)
    i1 = inertia(A)
    i2 = inertia_bunch_kaufman(A)
    assert (i1.n_plus, i1.n_minus, i1.n_zero) == (i2.n_plus, i2.n_minus, i2.n_zero)


def _flux_field(d, N, entries):
    return constant_flux_field(make_geometry(d, N), FluxMatrix.from_entries(d, entries))


@pytest.mark.parametrize("field", [
    pytest.param(lambda: _flux_field(2, 3, [(1, 2, 1)]), id="3"),
    pytest.param(lambda: _flux_field(2, 4, [(1, 2, 1)]), id="4"),
    # odd N: the torus is not bipartite, so the eliminated rows are not
    # simply the even sites
    pytest.param(lambda: _flux_field(2, 5, [(1, 2, 1)]), id="d2-N5-flux1"),
    pytest.param(lambda: _flux_field(4, 3, [(1, 2, 1), (3, 4, 1)]), id="d4-N3-K1,1"),
    # two uncoupled bundles: the pattern of H is a disconnected graph
    pytest.param(lambda: direct_sum_field(
        _flux_field(2, 6, [(1, 2, 1)]), _flux_field(2, 6, [(1, 2, -2)])),
        id="d2-N6-rank2"),
    pytest.param(lambda: trivial_field(make_geometry(2, 6)), id="d2-N6-trivial"),
    pytest.param(lambda: _flux_field(2, 6, [(1, 2, 1)]), id="d2-N6-flux1"),
    pytest.param(lambda: perturb_field(direct_sum_field(
        _flux_field(2, 6, [(1, 2, 1)]), _flux_field(2, 6, [(1, 2, -2)])), 0.05, seed=3),
        id="d2-N6-rank2-perturbed"),
    # the criterion-2 fields at N=4
    *(pytest.param(lambda k=k: _flux_field(4, 4, [(1, 2, k[0]), (3, 4, k[1])]),
                   id=f"d4-N4-K{k[0]},{k[1]}") for k in ((1, 1), (1, 2), (2, -1))),
    # a non-degenerate lowest level
    pytest.param(lambda: perturb_field(_flux_field(4, 4, [(1, 2, 1), (3, 4, 2)]),
                                       0.2, seed=3), id="d4-N4-K1,2-perturbed"),
])
def test_paths_agree_on_assembled_operators(field):
    f = field()
    H = assemble(f, clifford_rep(f.geometry.d), 1.0).matrix
    i1, i2, i3 = inertia(H), inertia_bunch_kaufman(H), inertia_ldl(H)
    counts = (i1.n_plus, i1.n_minus, i1.n_zero)
    assert (i2.n_plus, i2.n_minus, i2.n_zero) == counts
    assert (i3.n_plus, i3.n_minus, i3.n_zero) == counts
    assert abs(i1.gap - i3.gap) < 1e-6 * max(i1.gap, 1e-12)
    assert i1.method == "dense" and i2.method == "bunch-kaufman"
    assert i3.method == "ldl"


def test_sparse_gap_is_reproducible():
    # the start vector is seeded, so an ARPACK call in between changes no bit
    H = assemble(_flux_field(4, 4, [(1, 2, 1), (3, 4, 2)]), clifford_rep(4), 1.0).matrix
    first = inertia_ldl(H)
    spla.eigsh(sp.diags(np.arange(1.0, 101.0)), k=2)
    second = inertia_ldl(H)
    assert first.method == second.method == "ldl"
    assert first.gap == second.gap


@pytest.mark.parametrize("d, N, m", [(4, 6, 1.0), (2, 46, 0.5)])
def test_sparse_gap_on_degenerate_trivial_field(d, N, m):
    # closed form: with a_j = 1 - cos(2 pi k_j) and w = sum_j a_j the symbol
    # gap squared is m^2 + 2(1 - m) w + w^2 - sum_j a_j^2 >= m^2 for
    # 0 < m <= 1, with equality at k = 0, where the symbol m*gamma has the
    # +-m pair; at m = 1 the corners with one k_j = 1/2 reach it too
    H = assemble(trivial_field(make_geometry(d, N)), clifford_rep(d), m).matrix
    assert H.shape[0] > spectral._DENSE_LIMIT
    i = inertia(H)
    assert i.method == "ldl"
    assert abs(i.gap - m) < 1e-6 * m


@pytest.mark.parametrize("N, m", [(24, 1.0), (32, 0.5)])
def test_dense_gap_on_trivial_field(N, m):
    # the closed form above: gap m, here on the dense path
    H = assemble(trivial_field(make_geometry(2, N)), clifford_rep(2), m).matrix
    i = inertia(H)
    assert i.method == "dense"
    assert abs(i.gap - m) < 1e-12


def test_dense_gap_is_even_in_the_flux():
    gaps = [inertia(assemble(_flux_field(2, 24, [(1, 2, k)]), clifford_rep(2),
                             1.0).matrix).gap for k in (1, -1)]
    assert abs(gaps[0] - gaps[1]) < 1e-12


def _greedy_rows(M, floor):
    # reference: the scan in index order that _independent_rows reproduces
    M = sp.csr_matrix(M)
    chosen = np.zeros(M.shape[0], dtype=bool)
    for i in range(M.shape[0]):
        cols = M.indices[M.indptr[i]:M.indptr[i + 1]]
        if abs(M[i, i].real) >= floor and not chosen[cols[cols != i]].any():
            chosen[i] = True
    return np.flatnonzero(chosen)


@pytest.mark.parametrize("field", [
    pytest.param(lambda: _flux_field(2, 5, [(1, 2, 1)]), id="d2-N5"),
    pytest.param(lambda: _flux_field(4, 3, [(1, 2, 1), (3, 4, 1)]), id="d4-N3"),
    pytest.param(lambda: perturb_field(_flux_field(2, 6, [(1, 2, 2)]), 0.3, seed=1),
                 id="d2-N6-perturbed"),
])
@pytest.mark.parametrize("m", [1.0, 1.9])
def test_independent_rows_match_the_greedy_scan(field, m):
    f = field()
    H = assemble(f, clifford_rep(f.geometry.d), m).matrix
    floor = spectral._THETA * spectral._norm_inf(H)
    got = spectral._independent_rows(H.tocsr(), floor)
    assert np.array_equal(got, _greedy_rows(H, floor))
    # no two chosen rows are coupled: H restricted to them is diagonal
    block = H.tocsr()[got][:, got]
    assert block.nnz == np.count_nonzero(block.diagonal())


def test_independent_rows_are_the_even_sites_at_d4_N6():
    H = assemble(_flux_field(4, 6, [(1, 2, 1), (3, 4, 2)]), clifford_rep(4), 1.0).matrix
    floor = spectral._THETA * spectral._norm_inf(H)
    rows = spectral._independent_rows(H.tocsr(), floor)
    sites = rows // 4  # four spinor components per site, site-major
    assert len(rows) == H.shape[0] // 2
    assert np.all(np.indices((6,) * 4).reshape(4, -1).sum(axis=0)[sites] % 2 == 0)


def test_ldl_factors_a_zero_diagonal_with_a_2x2_pivot(monkeypatch):
    # no row has a usable diagonal, so nothing is eliminated and hetrf
    # takes the whole matrix as one 2x2 pivot block
    blocks = []
    pivot_eigs = spectral._pivot_eigs

    def recorded(diag, sub, starts):
        blocks.append((len(diag), list(starts)))
        return pivot_eigs(diag, sub, starts)

    monkeypatch.setattr(spectral, "_pivot_eigs", recorded)
    A = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert len(spectral._independent_rows(A, 1e-2)) == 0
    i = inertia_ldl(A)
    assert (i.n_plus, i.n_minus, i.n_zero) == (1, 1, 0)
    assert abs(i.gap - 1.0) < 1e-6
    assert i.method == "ldl"
    assert blocks == [(2, [0])]


@pytest.mark.parametrize("seed", range(5))
def test_ldl_reads_runs_of_2x2_pivots(seed):
    # a zero diagonal leaves all rows to hetrf, which then takes many 2x2
    # pivots, some of them adjacent: n = 80 >= 64, so the gap is iterative
    rng = np.random.default_rng(seed)
    A = sp.random(80, 80, density=0.05, random_state=rng) * (1 + 1j)
    A = A + A.conj().T
    A.setdiag(0)
    A = sp.csr_matrix(A + sp.kron(sp.identity(40), [[0, 1], [1, 0]]))
    want, got = inertia(A.toarray()), inertia_ldl(A)
    assert (got.n_plus, got.n_minus, got.n_zero, got.method) \
        == (want.n_plus, want.n_minus, want.n_zero, "ldl")
    assert abs(got.gap - want.gap) < 1e-6 * want.gap


@pytest.mark.parametrize("real", [True, False], ids=["float64", "complex128"])
def test_bunch_kaufman_solve_undoes_interchanges_of_both_pivot_kinds(real):
    # small and zero diagonal entries make hetrf (sytrf if real) take 1x1
    # and 2x2 pivots, both with row interchanges; n = 200 exceeds its block
    # size, so its blocked path runs too
    rng = np.random.default_rng(0)
    A = _random_hermitian(200, 0)
    # the real part of a Hermitian matrix is real symmetric
    A = A.real.copy() if real else A
    A[np.diag_indices(200)] *= rng.choice([0.0, 0.05, 3.0], 200)
    trf = "sytrf" if real else "hetrf"
    _, ipiv, _ = sla.get_lapack_funcs(trf, (A,))(A, lower=1)
    p, two = np.abs(ipiv) - 1, ipiv < 0
    starts = np.flatnonzero(two)[::2]
    assert np.any(~two & (p != np.arange(200)))
    assert np.any(p[starts] != starts + 1)
    eigs, solve = spectral._bunch_kaufman(A.copy(order="F"))
    assert np.sum(eigs > 0) == np.sum(np.linalg.eigvalsh(A) > 0)
    b = rng.standard_normal(200) + 1j * rng.standard_normal(200)
    b = b.real.copy() if real else b
    want = np.linalg.solve(A, b)
    assert np.linalg.norm(solve(b) - want) < 1e-12 * np.linalg.norm(want)


def test_real_symmetric_matrix_runs_on_the_real_path(lapack_calls):
    # dim 100 >= 64, so the gap is ARPACK's, here its real Lanczos on the
    # sytrf factor; a complex copy with zero imaginary parts is taken real
    # too, so its result is identical to the last bit
    A = _random_hermitian(100, 5).real.copy()
    w = np.linalg.eigvalsh(A)
    assert np.any(w > 0) and np.any(w < 0)
    got = inertia_ldl(A)
    assert (got.n_plus, got.n_minus, got.n_zero, got.method) \
        == (int(np.sum(w > 0)), int(np.sum(w < 0)), 0, "ldl")
    want = float(np.min(np.abs(w)))
    assert abs(got.gap - want) < 1e-10 * want
    assert inertia_ldl(A.astype(complex)) == got
    assert inertia_ldl(sp.csr_matrix(A, dtype=complex)) == got
    assert lapack_calls.factors == ["dsytrf"] * 3


def test_one_imaginary_entry_keeps_the_complex_path(lapack_calls):
    A = _random_hermitian(100, 5).real.astype(complex)
    A[3, 7] += 1e-3j
    A[7, 3] -= 1e-3j
    assert spectral._real_if_real(A) is A
    assert spectral._real_if_real(sp.csr_matrix(A)).dtype == complex
    got = inertia_ldl(A)
    assert (got.n_plus, got.n_minus, got.n_zero) == _eig_counts(A, got.tol)
    assert got.method == "ldl"
    assert lapack_calls.factors == ["zhetrf"]


def test_real_copies_reserve_half_the_bytes(monkeypatch):
    monkeypatch.setattr(spectral, "_available_memory", lambda: 36 * 36 * 8)
    spectral._reserve(36, 1, "Schur complement", float)
    with pytest.raises(ResourceError, match=r"\(1 x 36\^2 complex128\)"):
        spectral._reserve(36, 1, "Schur complement", complex)


def test_ldl_converts_the_factor_in_place():
    # d=2 at m = 1.5: the 1600 x 1600 Schur complement (16 s^2 = 41 MB)
    # has hundreds of 1x1 and 2x2 interchanges; a second copy of it, or of
    # its factor, would double the peak
    H = assemble(_flux_field(2, 40, [(1, 2, 1)]), clifford_rep(2), 1.5).matrix
    s = H.shape[0] - len(spectral._independent_rows(
        H.tocsr(), spectral._THETA * spectral._norm_inf(H)))
    tracemalloc.start()
    try:
        i = inertia_ldl(H)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert i.method == "ldl"
    assert peak < 1.5 * 16 * s * s


def test_rejected_factor_costs_one_dense_pass(monkeypatch):
    # the trivial field at m = 0 is singular (the symbol vanishes at k = 0):
    # the Schur complement has a zero pivot, so _ldl rejects the factor
    H = assemble(trivial_field(make_geometry(2, 4)), clifford_rep(2), 0.0).matrix
    want = inertia(H)
    assert want.n_zero > 0
    copies = []
    as_dense = spectral._as_dense

    def counted(A):
        copies.append(A.shape)
        return as_dense(A)

    def no_bunch_kaufman(*args, **kwargs):
        raise AssertionError("Bunch-Kaufman is a reference, not a fallback")

    monkeypatch.setattr(spectral, "_as_dense", counted)
    monkeypatch.setattr(spectral, "inertia_bunch_kaufman", no_bunch_kaufman)
    i = inertia_ldl(H)
    assert i.method.startswith("dense (ldl rejected: pivot ")
    assert (i.n_plus, i.n_minus, i.n_zero, i.gap) \
        == (want.n_plus, want.n_minus, want.n_zero, want.gap)
    assert copies == [(32, 32)]


def test_counts_only_path_falls_back_to_the_dense_counts():
    # the singular trivial field at m = 0: the factor is rejected, and the
    # counts, zeros included, are the dense oracle's
    H = assemble(trivial_field(make_geometry(2, 4)), clifford_rep(2), 0.0).matrix
    want, got = inertia(H), inertia_bunch_kaufman(H)
    assert want.n_zero > 0
    assert (got.n_plus, got.n_minus, got.n_zero) \
        == (want.n_plus, want.n_minus, want.n_zero)
    assert got.method.startswith("dense (ldl rejected: pivot")


def test_counts_only_path_leaves_a_dense_input_unchanged():
    # hetrf factors in place, so it must only ever see the path's own copy
    A = _random_hermitian(40, 3)
    before = A.copy()
    i = inertia_bunch_kaufman(A)
    assert i.method == "bunch-kaufman" and np.isnan(i.gap)
    assert np.array_equal(A, before)


def test_schur_copy_that_does_not_fit_raises(monkeypatch):
    # dim 72: 36 rows are eliminated, the rest is a dense 36 x 36 copy
    H = assemble(_flux_field(2, 6, [(1, 2, 1)]), clifford_rep(2), 1.0).matrix
    monkeypatch.setattr(spectral, "_available_memory", lambda: 36 * 36 * 16 - 1)
    with pytest.raises(ResourceError, match="dim-36 Schur complement"):
        inertia_ldl(H)


def test_ldl_on_small_on_site_entries():
    # d=2 at m = 1.9: the diagonal -+0.1 is 2.4% of ||H||_inf = 4.1, just
    # above the elimination floor; ||S||_inf = 88 grows ~20x, within 1 + 1/theta
    r = lattice_index(_flux_field(2, 48, [(1, 2, 3)]), 1.9)
    assert r.inertia.dim > spectral._DENSE_LIMIT
    assert r.inertia.method == "ldl"
    assert r.invariant == r.continuum_index == 3


@pytest.mark.parametrize("N", [24, 48])
def test_ldl_below_the_elimination_floor(N):
    # d=2 at m = 1.98: the on-site entries -+0.02 are below _THETA * ||H||_inf
    # = 0.04, so no row is eliminated and the whole operator is densified
    # and factored by hetrf.  N=24 is checked against the dense oracle;
    # N=48 (dim 4608, where the oracle takes ~20 s) runs through `inertia`
    # and is checked against the index theorem, I = 1 for flux 1, whose
    # counts the oracle reproduces
    f = _flux_field(2, N, [(1, 2, 1)])
    H = assemble(f, clifford_rep(2), 1.98).matrix
    floor = spectral._THETA * spectral._norm_inf(H)
    assert len(spectral._independent_rows(H.tocsr(), floor)) == 0
    n = H.shape[0]
    if n <= spectral._DENSE_LIMIT:
        want, got = inertia(H), inertia_ldl(H)
        assert abs(got.gap - want.gap) < 1e-6 * want.gap
    else:
        want, got = Inertia(n // 2 + 1, n // 2 - 1, 0, 0.0, 0.0), inertia(H)
    assert (got.n_plus, got.n_minus, got.n_zero, got.method) \
        == (want.n_plus, want.n_minus, want.n_zero, "ldl")


def test_ldl_on_a_diagonal_matrix():
    # every row is eliminated, so the Schur complement is empty and
    # LAPACK is not called
    d = np.where(np.arange(5000) % 3 == 0, -1.0, 1.0) * (1 + np.arange(5000) / 5000)
    i = inertia(sp.diags(d))
    assert (i.n_plus, i.n_minus, i.n_zero, i.method) == (3333, 1667, 0, "ldl")
    assert abs(i.gap - 1.0) < 1e-6


def test_dense_paths_refuse_what_does_not_fit(monkeypatch):
    f = _flux_field(2, 6, [(1, 2, 1)])
    H = assemble(f, clifford_rep(2), 1.0).matrix
    want = inertia(H)
    monkeypatch.setattr(spectral, "_available_memory", lambda: 3 * 72 * 72 * 16 - 1)
    with pytest.raises(ResourceError, match="dim-72"):
        inertia(H)
    with pytest.raises(ResourceError):
        min_abs_eigenvalue(H)
    i = inertia_ldl(H)
    assert (i.n_plus, i.n_minus, i.n_zero, i.method) \
        == (want.n_plus, want.n_minus, want.n_zero, "ldl")
    assert abs(i.gap - want.gap) < 1e-6 * want.gap


@pytest.mark.parametrize("seed", range(20))
def test_congruence_invariance(seed):
    # inertia is invariant under A -> S* A S with invertible S
    rng = np.random.default_rng(seed)
    n = rng.integers(4, 64)
    A = _random_hermitian(n, seed + 1000)
    S = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    S += np.sqrt(n) * 2 * np.eye(n)  # keep well-conditioned
    B = S.conj().T @ A @ S
    ia, ib = inertia(A), inertia(B)
    assert (ia.n_plus, ia.n_minus, ia.n_zero) == (ib.n_plus, ib.n_minus, ib.n_zero)


@pytest.mark.parametrize("seed", range(10))
def test_inertia_additive_under_direct_sum(seed):
    A = _random_hermitian(9, seed)
    B = _random_hermitian(14, seed + 99)
    iab = inertia(sla.block_diag(A, B))
    ia, ib = inertia(A), inertia(B)
    assert iab.n_plus == ia.n_plus + ib.n_plus
    assert iab.n_minus == ia.n_minus + ib.n_minus
    assert iab.n_zero == ia.n_zero + ib.n_zero


def test_zero_eigenvalues_detected():
    A = np.diag([2.0, -1.0, 0.0, 0.0, 3.0]).astype(complex)
    i = inertia(A)
    assert (i.n_plus, i.n_minus, i.n_zero) == (2, 1, 2)
    assert i.gap == 0.0
    with pytest.raises(ValueError, match="invariant undefined for singular"):
        half_signature(i)


def test_half_signature_values():
    assert half_signature(Inertia(3, 1, 0, 1.0, 1e-8)) == 1
    from fractions import Fraction

    assert half_signature(Inertia(2, 1, 0, 1.0, 1e-8)) == Fraction(1, 2)


def test_non_hermitian_rejected():
    A = np.array([[0, 1], [2, 0]], dtype=complex)
    with pytest.raises(ValueError, match="not Hermitian"):
        inertia(A)
    with pytest.raises(ValueError, match="not Hermitian"):
        inertia_bunch_kaufman(A)
    with pytest.raises(ValueError, match="not Hermitian"):
        inertia_ldl(sp.csr_matrix(A))
    # real pivots and dim >= 64: the factor is accepted and the gap needs no
    # dense copy, so only the sparse check can reject it
    B = sp.diags(np.where(np.arange(64) % 2, 1.0, -2.0)).tolil()
    B[0, 5] = 0.5
    with pytest.raises(ValueError, match="not Hermitian"):
        inertia_ldl(B.tocsr())


def test_gap_matches_smallest_abs_eigenvalue():
    for seed in range(8):
        A = _random_hermitian(30, seed)
        want = float(np.min(np.abs(np.linalg.eigvalsh(A))))
        i = inertia(A)
        if i.n_zero == 0:
            assert abs(i.gap - want) < 1e-6 * max(want, 1.0)
        assert abs(min_abs_eigenvalue(A) - want) < 1e-6 * max(want, 1.0)


def test_iterative_gap_falls_back_only_on_arpack_failures(monkeypatch):
    f = constant_flux_field(make_geometry(2, 6), FluxMatrix.from_entries(2, [(1, 2, 1)]))
    H = assemble(f, clifford_rep(2), 1.0).matrix
    want = inertia(H)

    def no_convergence(*args, **kwargs):
        raise spla.ArpackNoConvergence("no convergence", np.array([]), np.array([]))

    monkeypatch.setattr(spla, "eigsh", no_convergence)
    i = inertia_ldl(H)
    assert (i.n_plus, i.n_minus, i.n_zero, i.gap) \
        == (want.n_plus, want.n_minus, want.n_zero, want.gap)
    assert i.method == "dense (ldl rejected: ARPACK error -1: no convergence)"

    def out_of_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(spla, "eigsh", out_of_memory)
    with pytest.raises(MemoryError):
        inertia_ldl(H)


def test_momentum_oracle_requires_trivial_field():
    f = constant_flux_field(make_geometry(2, 4), FluxMatrix.from_entries(2, [(1, 2, 1)]))
    with pytest.raises(ValueError, match="translation invariance"):
        fourier_diagonalize(f, clifford_rep(2), 1.0)


@pytest.mark.parametrize("tol", [0.0, -1.0])
@pytest.mark.parametrize("path", [inertia, inertia_ldl, inertia_bunch_kaufman])
def test_every_path_rejects_a_non_positive_tol(path, tol):
    A = np.diag(np.where(np.arange(20) % 2, 1.0, -2.0))
    with pytest.raises(ValueError, match="tol must be positive"):
        path(A, tol=tol)


def test_invalid_tolerance_rejected():
    with pytest.raises(ValueError, match="tol must be positive"):
        inertia(np.eye(3, dtype=complex), tol=0.0)
