import gc

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
    clock_shift,
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
from wilsonindex.spectral import Inertia
from wilsonindex.wilson import fourier_diagonalize, symmetry_blocks, wilson_matrix


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
    assert abs(i1.gap - i3.gap) < 1e-12 * max(i1.gap, 1e-12)
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
    # reference: the greedy scan in index order, one row at a time
    M = sp.csr_matrix(M)
    chosen = np.zeros(M.shape[0], dtype=bool)
    for i in range(M.shape[0]):
        cols = M.indices[M.indptr[i]:M.indptr[i + 1]]
        if abs(M[i, i].real) >= floor and not chosen[cols[cols != i]].any():
            chosen[i] = True
    return np.flatnonzero(chosen)


def _op(f, m):
    return assemble(f, clifford_rep(f.geometry.d), m).matrix


@pytest.mark.parametrize("build", [
    pytest.param(lambda m: _op(_flux_field(2, 5, [(1, 2, 1)]), m), id="d2-N5"),
    pytest.param(lambda m: _op(_flux_field(4, 3, [(1, 2, 1), (3, 4, 1)]), m), id="d4-N3"),
    pytest.param(lambda m: _op(perturb_field(_flux_field(2, 6, [(1, 2, 2)]), 0.3, seed=1), m),
                 id="d2-N6-perturbed"),
    # a cyclic, path-like pattern (232 rows chosen at m = 1)
    pytest.param(lambda m: wilson_matrix(clock_shift(512).unitaries, clifford_rep(2), m),
                 id="clock-shift-512"),
    pytest.param(lambda m: _op(_flux_field(6, 3, [(1, 2, 1), (3, 4, 1), (5, 6, 1)]), m),
                 id="d6-N3"),
])
@pytest.mark.parametrize("m", [1.0, 1.9])
def test_independent_rows_match_the_greedy_scan(build, m):
    H = sp.csr_matrix(build(m))
    floor = spectral._THETA * spectral._norm_inf(H)
    got = spectral._independent_rows(H, floor)
    assert np.array_equal(got, _greedy_rows(H, floor))
    # no two chosen rows are coupled: H restricted to them is diagonal
    block = H[got][:, got]
    assert block.nnz == np.count_nonzero(block.diagonal())
    # maximal: every eligible row left out is coupled to a chosen one
    off = abs(H - sp.diags(H.diagonal())).tocsr()
    chosen = np.zeros(H.shape[0])
    chosen[got] = 1.0
    h = np.abs(H.diagonal().real)
    left_out = (h >= floor) & (h > 0) & (chosen == 0)
    assert np.all((off @ chosen + off.T @ chosen)[left_out] > 0)


def test_independent_rows_are_the_even_sites_at_d4_N6():
    H = assemble(_flux_field(4, 6, [(1, 2, 1), (3, 4, 2)]), clifford_rep(4), 1.0).matrix
    floor = spectral._THETA * spectral._norm_inf(H)
    rows = spectral._independent_rows(H.tocsr(), floor)
    sites = rows // 4  # four spinor components per site, site-major
    assert len(rows) == H.shape[0] // 2
    assert np.all(np.indices((6,) * 4).reshape(4, -1).sum(axis=0)[sites] % 2 == 0)


def test_ldl_factors_a_zero_diagonal_with_a_2x2_pivot():
    # no row has a usable diagonal, so nothing is eliminated and hetrf
    # takes the whole matrix as one 2x2 pivot block; its eigenvalues,
    # +-1, are the pivots
    A = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert len(spectral._independent_rows(sp.csr_matrix(A), 1e-2)) == 0
    _, ipiv, _ = sla.lapack.ssytrf(A.astype(np.float32), lower=1)
    assert list(ipiv) == [-2, -2]
    eigs, _ = spectral._bunch_kaufman(A.astype(np.float32, order="F"))
    assert sorted(eigs) == [-1.0, 1.0]
    i = inertia_ldl(sp.csr_matrix(A))
    assert (i.n_plus, i.n_minus, i.n_zero) == (1, 1, 0)
    assert abs(i.gap - 1.0) < 1e-6
    assert i.method == "ldl"


@pytest.mark.parametrize("zero", [np.zeros((3, 3)), sp.csr_matrix((70, 70))],
                         ids=["dense", "sparse"])
def test_ldl_rejects_the_zero_matrix_without_dividing_by_zero(zero):
    # ||M||_inf = 0 makes the elimination floor 0; a zero diagonal must
    # still not be eliminated (pytest turns the RuntimeWarning of 1/0
    # into an error), so the factor meets a zero pivot
    n = zero.shape[0]
    for i in (inertia_bunch_kaufman(zero), inertia_ldl(zero)):
        assert (i.n_plus, i.n_minus, i.n_zero) == (0, 0, n)
        assert i.method == "dense (ldl rejected: zero pivot)"


@pytest.mark.parametrize("seed", range(5))
def test_ldl_reads_runs_of_2x2_pivots(seed):
    # a zero diagonal leaves all rows to hetrf, which then takes many 2x2
    # pivots, some of them adjacent: n = 240 >= 200, so the gap is iterative
    rng = np.random.default_rng(seed)
    A = sp.random(240, 240, density=0.02, random_state=rng) * (1 + 1j)
    A = A + A.conj().T
    A.setdiag(0)
    A = sp.csr_matrix(A + sp.kron(sp.identity(120), [[0, 1], [1, 0]]))
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
    # dim 240 >= 200, so the gap is ARPACK's, here its real Lanczos on the
    # sytrf factor; a complex copy with zero imaginary parts is taken real
    # too, so its result is identical to the last bit
    A = _random_hermitian(240, 5).real.copy()
    w = np.linalg.eigvalsh(A)
    assert np.any(w > 0) and np.any(w < 0)
    got = inertia_ldl(A)
    assert (got.n_plus, got.n_minus, got.n_zero, got.method) \
        == (int(np.sum(w > 0)), int(np.sum(w < 0)), 0, "ldl")
    want = float(np.min(np.abs(w)))
    assert abs(got.gap - want) < 1e-10 * want
    assert inertia_ldl(A.astype(complex)) == got
    assert inertia_ldl(sp.csr_matrix(A, dtype=complex)) == got
    assert lapack_calls.factors == [("ssytrf", np.float32)] * 3


def test_a_real_sparse_matrix_is_factored_as_it_is(monkeypatch):
    # a real symmetry block (d=4 N=6, 324 rows): the factor gets the
    # input's own float64 CSR, no complex copy of it, and the Inertia is
    # that of its complex128 copy
    f = _flux_field(4, 6, [(1, 2, 1), (3, 4, 2)])
    B = symmetry_blocks(f, clifford_rep(4), 1.0)[0][0]
    assert B.format == "csr" and B.dtype == np.float64
    seen, ldl_factor = [], spectral._ldl_factor
    monkeypatch.setattr(spectral, "_ldl_factor", lambda M, tol: seen.append(M) or ldl_factor(M, tol))
    got = inertia_ldl(B)
    assert seen[0].dtype == np.float64 and np.shares_memory(seen[0].data, B.data)
    assert got.method == "ldl" and inertia_ldl(B.astype(complex)) == got


def test_one_imaginary_entry_keeps_the_complex_path(lapack_calls):
    A = _random_hermitian(100, 5).real.astype(complex)
    A[3, 7] += 1e-3j
    A[7, 3] -= 1e-3j
    assert spectral._real_if_real(A) is A
    assert spectral._real_if_real(sp.csr_matrix(A)).dtype == complex
    got = inertia_ldl(A)
    assert (got.n_plus, got.n_minus, got.n_zero) == _eig_counts(A, got.tol)
    assert got.method == "ldl"
    assert lapack_calls.factors == [("chetrf", np.complex64)]


def test_real_copies_reserve_half_the_bytes(monkeypatch):
    monkeypatch.setattr(spectral, "_available_memory", lambda: 36 * 36 * 8)
    spectral._reserve(36, "Schur complement", float)
    with pytest.raises(ResourceError, match=r"\(36\^2 complex128\)"):
        spectral._reserve(36, "Schur complement", complex)


def test_ldl_converts_the_factor_in_place(traced_peak):
    # d=2 at m = 1.5: the 1600 x 1600 Schur complement (16 s^2 = 41 MB)
    # has hundreds of 1x1 and 2x2 interchanges; a second copy of it, or of
    # its factor, would double the peak
    H = assemble(_flux_field(2, 40, [(1, 2, 1)]), clifford_rep(2), 1.5).matrix
    s = H.shape[0] - len(spectral._independent_rows(
        H.tocsr(), spectral._THETA * spectral._norm_inf(H)))
    with traced_peak() as peak:
        i = inertia_ldl(H)
    assert i.method == "ldl"
    assert peak.bytes < 1.5 * 16 * s * s


def test_schur_complement_is_densified_once_in_single_precision(monkeypatch):
    # S is cast to the factor's precision as soon as it is formed, so no
    # sparse S in double is alive when the one dense copy is made.  At
    # d=2 N=5, 18 of 50 rows are eliminated: S is 32 x 32, and no other
    # sparse matrix of the factor step has its shape
    H = assemble(_flux_field(2, 5, [(1, 2, 1)]), clifford_rep(2), 1.0).matrix
    bunch_kaufman, seen = spectral._bunch_kaufman, []

    def spy(S):
        live = {o.dtype for o in gc.get_objects()
                if sp.issparse(o) and o.shape == S.shape}
        seen.append((S.shape, S.dtype, S.flags.f_contiguous, live))
        return bunch_kaufman(S)

    monkeypatch.setattr(spectral, "_bunch_kaufman", spy)
    assert inertia_ldl(H).method == "ldl"
    assert seen == [((32, 32), np.complex64, True, {np.dtype(np.complex64)})]


def test_rejected_factor_costs_one_dense_pass(monkeypatch):
    # the trivial field at m = 0 is singular (the symbol vanishes at k = 0):
    # the single-precision factor of its Schur complement does not contract
    # the probe's refinement, so _ldl rejects the factor
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
    assert i.method.startswith("dense (ldl rejected: contraction ")
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
    assert got.method.startswith("dense (ldl rejected: contraction")


def test_small_gap_passes_the_contraction_guard():
    # d=2 at m = 1.9999: the on-site entries -+1e-4 are below the floor, so
    # all of H is factored in single precision, and its gap is 1e-4; the
    # factor's backward error is still far below it, so the refinement
    # contracts and the factor is accepted
    H = assemble(_flux_field(2, 24, [(1, 2, 2)]), clifford_rep(2), 1.9999).matrix
    want, got = inertia(H), inertia_ldl(H)
    assert want.gap < 1.1e-4
    assert (got.n_plus, got.n_minus, got.n_zero, got.method) \
        == (want.n_plus, want.n_minus, want.n_zero, "ldl")
    assert abs(got.gap - want.gap) < 1e-6 * want.gap


def test_singular_tuple_operator_gets_the_dense_counts():
    # clock_shift(3) at m = (3 - sqrt 3)/2 sits on the edge of the window
    # where its invariant is +-1, with one eigenvalue exactly 0; the probe's
    # refinement does not contract on the real single-precision factor, so
    # the counts, zero included, are the dense oracle's
    H = wilson_matrix(clock_shift(3).unitaries, clifford_rep(2), (3 - np.sqrt(3)) / 2)
    want, got = inertia(H), inertia_bunch_kaufman(H)
    assert want.n_zero == 1
    assert (got.n_plus, got.n_minus, got.n_zero) \
        == (want.n_plus, want.n_minus, want.n_zero)
    assert got.method.startswith("dense (ldl rejected: contraction")


def test_exactly_singular_pivot_is_rejected_before_any_solve():
    # rows 0 and 3 are eliminated and the Schur complement of rows 1 and 2
    # is exactly 0: a solve would divide by that pivot
    i = inertia_ldl(sp.diags([1.0, 0.0, 0.0, 2.0]))
    assert (i.n_plus, i.n_minus, i.n_zero) == (2, 0, 2)
    assert i.method == "dense (ldl rejected: zero pivot)"


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
    monkeypatch.setattr(spectral, "_available_memory", lambda: 36 * 36 * 8 - 1)
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


@pytest.mark.parametrize("real", [False, True], ids=["complex", "real-valued"])
def test_dense_oracle_holds_one_copy(traced_peak, real):
    # the copy is made in Fortran order and LAPACK overwrites it: a
    # C-ordered copy would be copied once more by f2py.  dim 1152: one
    # copy is 20.25 MiB complex, half that real
    H = assemble(_flux_field(2, 24, [(1, 2, 1)]), clifford_rep(2), 1.0).matrix
    if real:
        H = sp.csr_matrix(H.real, dtype=complex)
    with traced_peak() as peak:
        i = inertia(H)
    n = H.shape[0]
    assert (i.dim, i.method) == (n, "dense")
    assert peak.bytes <= 1.1 * n * n * (8 if real else 16)


def test_dense_oracle_refuses_before_it_allocates(monkeypatch, traced_peak):
    # a dense input: the reserve comes before the Hermitian check, whose
    # A.conj(), difference and abs would otherwise be made first
    A = _random_hermitian(1024, 0)
    monkeypatch.setattr(spectral, "_available_memory", lambda: 1)
    with traced_peak() as peak, pytest.raises(ResourceError, match="dim-1024 operator"):
        inertia(A)
    assert peak.bytes < 16 * 1024 * 1024


def test_oracle_takes_the_band_only_on_a_narrow_sparse_matrix(lapack_calls):
    # the operator of clock_shift(512): dim 1024, half-bandwidth 6 in reverse
    # Cuthill-McKee order, so the band solver runs; the same matrix dense
    # never takes the band
    H = wilson_matrix(clock_shift(512).unitaries, clifford_rep(2), 1.0)
    band, dense = inertia(H), inertia(H.toarray())
    assert lapack_calls.eig_banded == [np.float64]
    assert lapack_calls.eigvalsh == [np.float64]
    assert (band.n_plus, band.n_minus, band.n_zero, band.method) \
        == (dense.n_plus, dense.n_minus, dense.n_zero, "dense")
    assert abs(band.gap - dense.gap) <= 1e-12 * dense.gap
    # the sweep's d=2 N=24 operator, half-bandwidth 95 at dim 1152: dense
    inertia(assemble(_flux_field(2, 24, [(1, 2, 1)]), clifford_rep(2), 1.0).matrix)
    assert lapack_calls.eig_banded == [np.float64]
    assert lapack_calls.eigvalsh == [np.float64, np.complex128]


def test_dense_paths_refuse_what_does_not_fit(monkeypatch):
    # dim 200: the factor's gap is ARPACK's, with no dense copy
    f = _flux_field(2, 10, [(1, 2, 1)])
    H = assemble(f, clifford_rep(2), 1.0).matrix
    want = inertia(H)
    # 1 byte short of the oracle's one dense copy; the Schur complement fits
    monkeypatch.setattr(spectral, "_available_memory", lambda: 200 * 200 * 16 - 1)
    with pytest.raises(ResourceError, match="dim-200"):
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


def test_non_hermitian_rejected(monkeypatch):
    A = np.array([[0, 1], [2, 0]], dtype=complex)
    with pytest.raises(ValueError, match="not Hermitian"):
        inertia(A)
    with pytest.raises(ValueError, match="not Hermitian"):
        inertia_bunch_kaufman(A)
    with pytest.raises(ValueError, match="not Hermitian"):
        inertia_ldl(sp.csr_matrix(A))
    # real pivots and dim >= 200: the factor is accepted and the gap needs
    # no dense copy, so only the sparse check can reject it
    B = sp.diags(np.where(np.arange(200) % 2, 1.0, -2.0)).tolil()
    B[0, 5] = 0.5
    with pytest.raises(ValueError, match="not Hermitian"):
        inertia_ldl(B.tocsr())
    # a nan entry: A - A* is nan there, which no bound may pass
    C = np.eye(3)
    C[1, 1] = np.nan
    for H in (C, sp.csr_matrix(C)):
        with pytest.raises(ValueError, match="not Hermitian"):
            inertia(H)
    # one stored entry changed, not its mirror, on the sparse operators of
    # clock_shift(512) (half-bandwidth 6: the band branch) and of
    # clock_shift(16) (dim 32: the dense branch); each branch checks before
    # it copies (the dense one after reserving its copy), so the eigensolve
    # never runs
    reserve, asked = spectral._reserve, []

    def recorded(n, what, *args, **kwargs):
        asked.append(what)
        return reserve(n, what, *args, **kwargs)

    monkeypatch.setattr(spectral, "_reserve", recorded)
    for n in (512, 16):
        H = wilson_matrix(clock_shift(n).unitaries, clifford_rep(2), 1.0)
        k = np.flatnonzero(H.indices != np.repeat(np.arange(2 * n), np.diff(H.indptr)))[0]
        for entry in (3.0, np.nan):
            B = H.copy()
            B.data[k] += entry
            with pytest.raises(ValueError, match="not Hermitian"):
                inertia(B)
    assert asked == ["operator"] * 2


def test_gap_matches_smallest_abs_eigenvalue():
    for seed in range(8):
        A = _random_hermitian(30, seed)
        want = float(np.min(np.abs(np.linalg.eigvalsh(A))))
        i = inertia(A)
        if i.n_zero == 0:
            assert abs(i.gap - want) < 1e-6 * max(want, 1.0)
        assert abs(min_abs_eigenvalue(A) - want) < 1e-6 * max(want, 1.0)


def test_iterative_gap_falls_back_only_on_arpack_failures(monkeypatch):
    # dim 200: the gap is ARPACK's
    f = constant_flux_field(make_geometry(2, 10), FluxMatrix.from_entries(2, [(1, 2, 1)]))
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


def _solve_mutant(monkeypatch, mutate):
    bunch_kaufman = spectral._bunch_kaufman

    def mutated(S):
        eigs, solve = bunch_kaufman(S)
        return eigs, lambda b: mutate(solve(b))

    monkeypatch.setattr(spectral, "_bunch_kaufman", mutated)


def _scaled_solve(monkeypatch):
    # the refinement step contracts the error only by 10x
    _solve_mutant(monkeypatch, lambda x: 1.1 * x)


def _offset_solve(monkeypatch):
    # an offset, not linear in b: each correction adds it back, so the
    # first correction is small but the residual never falls
    _solve_mutant(monkeypatch, lambda x: x + 1e-3)


def _wrong_eigenpair(monkeypatch):
    def wrong(M, **kwargs):
        x = np.zeros((M.shape[0], 1), dtype=M.dtype)
        x[0] = 1.0
        return np.array([0.5]), x

    monkeypatch.setattr(spla, "eigsh", wrong)


@pytest.mark.parametrize("mutate, reason", [
    (_scaled_solve, "contraction "),
    (_offset_solve, "solve residual"),
    (_wrong_eigenpair, "unconverged gap (residual"),
], ids=["solve", "offset-solve", "eigenpair"])
def test_factor_mutants_are_rejected(monkeypatch, mutate, reason):
    # a factor whose solve is off by 10% fails the contraction guard, one
    # that refinement cannot correct fails the solve residual, and an
    # eigenpair that is not one fails the gap residual; each gives the
    # dense oracle (dim 200, so the gap is ARPACK's)
    f = constant_flux_field(make_geometry(2, 10), FluxMatrix.from_entries(2, [(1, 2, 1)]))
    H = assemble(f, clifford_rep(2), 1.0).matrix
    want = inertia(H)
    mutate(monkeypatch)
    i = inertia_ldl(H)
    assert i.method.startswith(f"dense (ldl rejected: {reason}")
    assert (i.n_plus, i.n_minus, i.n_zero, i.gap) \
        == (want.n_plus, want.n_minus, want.n_zero, want.gap)


def test_a_small_block_whose_counts_are_not_the_oracles_is_rejected(monkeypatch):
    # below 200 rows the gap is the dense oracle's, classified with the
    # caller's tol, and its counts must be the factor's: a factor with one
    # pivot sign flipped is rejected for the oracle's result, and so is a
    # tol above the gap, under which the oracle sees zero eigenvalues; the
    # one eigensolve serves the gap, the check and the result
    f = constant_flux_field(make_geometry(2, 6), FluxMatrix.from_entries(2, [(1, 2, 1)]))
    H = assemble(f, clifford_rep(2), 1.0).matrix
    want = inertia(H)
    calls, dense_inertia = [], spectral._dense_inertia
    monkeypatch.setattr(spectral, "_dense_inertia", lambda *a: calls.append(a) or dense_inertia(*a))
    assert inertia_ldl(H).method == "ldl" and len(calls) == 1
    i = inertia_ldl(H, tol=2 * want.gap)
    assert i.method.startswith("dense (ldl rejected: counts ") and len(calls) == 2
    assert (i.n_zero > 0, i.gap, i.tol) == (True, 0.0, 2 * want.gap)
    bunch_kaufman = spectral._bunch_kaufman

    def flipped(S):
        eigs, solve = bunch_kaufman(S)
        eigs[0] = -eigs[0]
        return eigs, solve

    monkeypatch.setattr(spectral, "_bunch_kaufman", flipped)
    i = inertia_ldl(H)
    assert H.shape[0] == 72 and i.method.startswith("dense (ldl rejected: counts ")
    assert len(calls) == 3
    assert (i.n_plus, i.n_minus, i.n_zero, i.gap, i.tol) \
        == (want.n_plus, want.n_minus, want.n_zero, want.gap, want.tol)


def test_momentum_oracle_requires_trivial_field():
    f = constant_flux_field(make_geometry(2, 4), FluxMatrix.from_entries(2, [(1, 2, 1)]))
    with pytest.raises(ValueError, match="translation invariance"):
        fourier_diagonalize(f, clifford_rep(2), 1.0)


def _blocks(*Hs):
    """Whole operators and their block-diagonal sum."""
    return Hs, sp.block_diag(Hs, format="csr")


def test_blocks_add_counts_and_take_the_least_gap():
    # dense path: the same spectrum as the block-diagonal whole
    (A, B), H = _blocks(_random_hermitian(30, 1), 5 * _random_hermitian(20, 2))
    got, whole = inertia(A, B), inertia(H.toarray())
    assert (got.n_plus, got.n_minus, got.n_zero, got.method) \
        == (whole.n_plus, whole.n_minus, whole.n_zero, "dense")
    assert got.gap == min(inertia(A).gap, inertia(B).gap)
    assert abs(got.gap - whole.gap) <= 1e-12 * whole.gap
    assert got.tol == max(inertia(A).tol, inertia(B).tol)


def test_a_block_stands_for_its_multiplicity(monkeypatch):
    # block i taken mult[i] times: its counts scale, the gap is the least,
    # as if each block were repeated; the path follows the whole
    # dimension, 2 * 30 + 3 * 20 = 120 rows
    (A, B), _ = _blocks(_random_hermitian(30, 1), 5 * _random_hermitian(20, 2))
    assert inertia(A, B, mult=[2, 3]) == inertia(A, A, B, B, B)
    assert inertia(A, B, mult=[2, 3]).method == "dense"
    monkeypatch.setattr(spectral, "_DENSE_LIMIT", 119)
    got, want = inertia(A, B, mult=[2, 3]), inertia(A, A, B, B, B)
    assert got.method == "ldl" and (got.n_plus, got.n_minus) == (want.n_plus, want.n_minus)


@pytest.mark.parametrize("limit, engine", [(128, "_dense_inertia"), (127, "inertia_ldl")])
def test_block_path_follows_the_total_dimension(monkeypatch, limit, engine):
    # two blocks of 64 rows: the dense oracle for both while the total is
    # at most the limit, the factor for both above it, never one of each
    # (the factor's own dense gap below 200 rows is not counted)
    A, B = (assemble(constant_flux_field(make_geometry(2, 8), FluxMatrix.from_entries(
        2, [(1, 2, k)])), clifford_rep(2), 0.5).matrix[:64, :64] for k in (1, -2))
    seen, inside = [], []

    def spy(name, f):
        def run(M, tol=None):
            if not inside:
                seen.append((name, M.shape[0]))
            inside.append(name)
            try:
                return f(M, tol)
            finally:
                inside.pop()
        return run

    for name in ("_dense_inertia", "inertia_ldl"):
        monkeypatch.setattr(spectral, name, spy(name, getattr(spectral, name)))
    monkeypatch.setattr(spectral, "_DENSE_LIMIT", limit)
    got = inertia(A, B)
    assert seen == [(engine, 64), (engine, 64)]
    want = spectral._dense_inertia(sp.block_diag((A, B), format="csr"))
    assert (got.n_plus, got.n_minus, got.n_zero) == (want.n_plus, want.n_minus, want.n_zero)
    assert abs(got.gap - want.gap) <= 1e-6 * want.gap


def test_a_rejected_block_is_named(monkeypatch):
    # the singular trivial field at m = 0 is rejected by the factor (see
    # test_rejected_factor_costs_one_dense_pass); the other block is not
    bad = assemble(trivial_field(make_geometry(2, 4)), clifford_rep(2), 0.0).matrix
    good = _random_hermitian(70, 3)
    monkeypatch.setattr(spectral, "_DENSE_LIMIT", 50)
    got = inertia(good, bad)
    assert got.method.startswith("block 0: ldl; block 1: dense (ldl rejected: contraction ")
    assert got.n_zero == inertia(bad).n_zero > 0 and got.gap == 0


def test_every_block_is_classified_with_one_tol():
    # ||B||_inf = 1000 sets the block-diagonal matrix's tol to 1e-5, under
    # which A's eigenvalue 1e-7 is zero, as in the whole matrix; alone, A's
    # own tol (1e-8) counts it positive
    A, B = np.diag([1e-7, 1.0]), np.diag([1e3, -1e3])
    whole = inertia(sp.block_diag((A, B)).toarray())
    got = inertia(A, B)
    assert (got.n_plus, got.n_minus, got.n_zero, got.tol) \
        == (whole.n_plus, whole.n_minus, whole.n_zero, whole.tol) == (2, 1, 1, 1e-5)
    assert inertia(A).n_zero == 0
    # a given tol, here a larger matrix's, is every block's
    assert inertia(A, B, tol=1e-8).n_zero == 0 and inertia(A, tol=1e-6).n_zero == 1


def test_a_block_that_does_not_fit_is_named(monkeypatch):
    monkeypatch.setattr(spectral, "_available_memory", lambda: 1)
    with pytest.raises(ResourceError,
                       match=r"^block 0 of the dim-5 operator: dense dim-2 operator needs"):
        inertia(np.eye(2), np.eye(3))
    # the dimension counts each block as often as it stands
    with pytest.raises(ResourceError, match=r"^block 0 of the dim-11 operator: dense dim-2 "):
        inertia(np.eye(2), np.eye(3), mult=[4, 1])
    with pytest.raises(ResourceError, match=r"^dense dim-2 operator needs"):
        inertia(np.eye(2))


@pytest.mark.parametrize("soft, vmsize, mapped, want", [
    (None, 1 << 30, False, 8 << 30),
    ((1 << 30) + (200 << 20), None, False, 8 << 30),
    ((1 << 30) + (200 << 20), 1 << 30, False, 152 << 20),
    (1 << 30, 1 << 30, False, 0),
    ((1 << 30) + (200 << 20), 1 << 30, True, 200 << 20),
], ids=["unlimited", "no-vmsize", "limited", "below-margin", "buffer-mapped"])
def test_available_memory_leaves_room_under_an_address_space_limit(
        monkeypatch, soft, vmsize, mapped, want):
    # MemAvailable is 8 GiB; a soft RLIMIT_AS leaves at most itself less
    # VmSize and, until OpenBLAS's buffer is mapped into VmSize, the 48 MiB
    # BLAS margin
    figures = {"MemAvailable": 8 << 30, "VmSize": vmsize}
    monkeypatch.setattr(spectral, "_proc_bytes", lambda path, key: figures[key])
    monkeypatch.setattr(spectral, "_blas_mapped", mapped)
    rlim = spectral.resource.RLIM_INFINITY if soft is None else soft
    monkeypatch.setattr(spectral.resource, "getrlimit", lambda which: (rlim, rlim))
    assert spectral._available_memory() == want


def test_a_dense_call_that_grows_vmsize_marks_the_buffer_mapped(monkeypatch):
    # a call over which VmSize grows by half the margin or more has mapped
    # OpenBLAS's buffer; a smaller growth, or none, has not
    for grow, want in ((spectral._BLAS_MARGIN // 2 - 1, False), (32 << 20, True)):
        vm = iter([1 << 30, (1 << 30) + grow])
        monkeypatch.setattr(spectral, "_proc_bytes", lambda path, key: next(vm))
        monkeypatch.setattr(spectral, "_blas_mapped", False)
        assert spectral._lapack(lambda a, b=0: a + b, 1, b=2) == 3
        assert spectral._blas_mapped is want


def test_a_dense_call_reads_no_vmsize_once_the_buffer_is_mapped(monkeypatch):
    # the flag never clears, so once it is set there is nothing to measure
    reads = []
    monkeypatch.setattr(spectral, "_proc_bytes", lambda path, key: reads.append(key))
    monkeypatch.setattr(spectral, "_blas_mapped", True)
    assert spectral._lapack(lambda a, b=0: a + b, 1, b=2) == 3
    assert reads == [] and spectral._blas_mapped is True
