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
    # an exactly zero pivot: the sparse factor is rejected, the dense oracle runs
    pytest.param(lambda: _flux_field(2, 4, [(1, 2, 1)]), id="4"),
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
    assert i1.method == "dense" and i2.method.startswith("bunch-kaufman")
    assert i3.method == "ldl" or f.geometry.N == 4


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


def test_ldl_rejects_a_row_pivoted_factor():
    # SuperLU swaps rows at the zero pivot, so P A P^T = L D L* no longer holds
    i = inertia_ldl(sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]])))
    assert (i.n_plus, i.n_minus, i.n_zero) == (1, 1, 0)
    assert abs(i.gap - 1.0) < 1e-6
    assert i.method == ("dense (ldl rejected: row pivoting made the "
                        "permutation non-symmetric)")


def test_rejected_factor_costs_one_dense_pass(monkeypatch):
    # d=2 N=4 flux 1: an exactly zero pivot makes _ldl reject the factor
    H = assemble(_flux_field(2, 4, [(1, 2, 1)]), clifford_rep(2), 1.0).matrix
    want = inertia(H)
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
    assert i.method.startswith("dense (ldl rejected: ")
    assert (i.n_plus, i.n_minus, i.n_zero, i.gap) \
        == (want.n_plus, want.n_minus, want.n_zero, want.gap)
    assert copies == [(32, 32)]


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
