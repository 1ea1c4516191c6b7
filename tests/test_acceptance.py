"""End-to-end acceptance gate.

Each test covers one numbered acceptance criterion at its stated
tolerance and prints a single pass/fail line (visible with -s, and in
captured output otherwise).
"""

import sys
import time

import numpy as np
import pytest
import scipy.linalg as sla

import wilsonindex as wi
from wilsonindex.selftest import run_selftest
from wilsonindex.wilson import fourier_diagonalize

from newton_degree import newton_degree


def _report(num, name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {name}"
    if detail:
        line += f"  ({detail})"
    print(line)
    sys.stdout.flush()
    assert ok, line


def _flux2(k):
    return wi.FluxMatrix.from_entries(2, [(1, 2, k)])


def _field2(N, k):
    if k == 0:
        return wi.trivial_field(wi.make_geometry(2, N), rank=1)
    return wi.constant_flux_field(wi.make_geometry(2, N), _flux2(k))


def test_criterion_1_index_theorem_two_dimensions():
    t0 = time.perf_counter()
    ok = True
    for k in range(-3, 4):
        for N in (8, 16, 32):
            r = wi.lattice_index(_field2(N, k), 1.0)
            ok = ok and r.invariant == wi.SIGMA * k
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    _report(1, "index = sigma*K12 for K in -3..3, N in {8,16,32}", ok,
            f"{elapsed:.1f}s")


def test_criterion_2_index_theorem_four_dimensions():
    t0 = time.perf_counter()
    ok = True
    for k12, k34 in ((1, 1), (1, 2), (2, -1)):
        K = wi.FluxMatrix.from_entries(4, [(1, 2, k12), (3, 4, k34)])
        for N in (4, 6):
            f = wi.constant_flux_field(wi.make_geometry(4, N), K)
            r = wi.lattice_index(f, 1.0)
            ok = ok and r.invariant == wi.SIGMA * k12 * k34
            ok = ok and r.continuum_index == k12 * k34
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 600.0
    _report(2, "index = sigma*Pf(K) in d=4, N in {4,6}", ok, f"{elapsed:.1f}s")


def test_criterion_3_momentum_space_oracle():
    worst = 0.0
    for d in (2, 4):
        cl = wi.clifford_rep(d)
        for N in (2, 4):
            f = wi.trivial_field(wi.make_geometry(d, N), rank=1)
            for mu in (0.5, 1.0, 3.0):
                got = np.sort(np.linalg.eigvalsh(
                    wi.assemble(f, cl, mu).matrix.toarray()))
                want = fourier_diagonalize(f, cl, mu)
                worst = max(worst, float(np.max(np.abs(got - want))))
    _report(3, "trivial-field spectrum matches momentum sampling",
            worst < 1e-10, f"max dev {worst:.2e}")


def test_criterion_4_symbol_gap():
    g0 = wi.symbol_gap(wi.clifford_rep(2), 1.0)
    ok = abs(g0 - 1.0) < 1e-6
    for d in (2, 4):
        cl = wi.clifford_rep(d)
        for mu in (0.1, 0.5, 1.0, 1.5, 1.9):
            ok = ok and wi.symbol_gap(cl, mu) > 0
    cl2 = wi.clifford_rep(2)
    near0 = wi.symbol_gap(cl2, 0.005)
    near2 = wi.symbol_gap(cl2, 1.995)
    ok = ok and near0 < 1e-2 and near2 < 1e-2
    _report(4, "symbol gap closed form, positivity, boundary collapse", ok,
            f"gap(2,1)={g0:.8f}, boundary gaps {near0:.2e}/{near2:.2e}")


def test_criterion_5_symbol_degree():
    vals = {
        (2, 1.0): wi.symbol_degree(2, 1.0),
        (4, 1.0): wi.symbol_degree(4, 1.0),
        (2, -1.0): wi.symbol_degree(2, -1.0),
        (2, 3.0): wi.symbol_degree(2, 3.0),
    }
    ok = vals[(2, 1.0)] == 1 and vals[(4, 1.0)] == 1 and vals[(2, -1.0)] == 0
    # symbol_degree is the corner count; the Newton search finds the
    # preimages of a regular value without assuming they are corners
    ok = ok and all(wi.corner_count_degree(d, mu) == newton_degree(d, mu) == v
                    for (d, mu), v in vals.items())
    # The translation tau: k -> k + (1/2, ..., 1/2) of T^d has degree 1. It
    # sends sin_j to -sin_j and W + mu to -(W + 2d - mu), so
    # F_mu o tau = -F_{2d-mu}. The antipodal map of S^d has degree -1 for
    # even d, hence deg(d, mu) = -deg(d, 2d - mu) and deg(2, 3) = -deg(2, 1).
    # Parity agrees: at mu = 3 the regular value (1, 0, 0) has exactly three
    # preimages, the corners (0, 0), (1/2, 0) and (0, 1/2).
    ok = ok and vals[(2, 3.0)] == -vals[(2, 1.0)] == -1
    _report(5, "symbol degree values and oracle agreement", ok,
            f"deg={vals}")


def test_criterion_6_a_priori_gap_bound():
    ok = True
    details = []
    cases = [
        (wi.trivial_field(wi.make_geometry(2, 8)), 1.0, 1.0),
        (wi.trivial_field(wi.make_geometry(2, 8)), 0.5, 2.0),
        (_field2(16, 1), 1.0, 1.0),
        (_field2(32, 1), 1.0, 2.0),
        (_field2(4, 1), 1.0, 4.0),  # coarse: expected vacuous
    ]
    for f, m, kappa in cases:
        rep = wi.verify_gap_bound(f, m, kappa)
        details.append(rep.status)
        if rep.rhs >= 0:
            ok = ok and rep.lambda_min ** 2 >= rep.rhs - 1e-9
            ok = ok and rep.status == "pass"
        else:
            ok = ok and rep.status == "vacuous"
    ok = ok and "vacuous" in details and "pass" in details
    _report(6, "lambda_min^2 >= m^2 - 4d^2||R|| where non-vacuous", ok,
            f"status={details}")


def test_criterion_7_mass_mode_equivalence():
    f = _field2(32, 1)
    curv = wi.estimate_curvature_norm(f)
    m_const = 1.2 * 2 * 2 * np.sqrt(curv)  # above the invertibility threshold
    r_cut = wi.lattice_index(f, 1.0, mode="cutoff")
    r_con = wi.lattice_index(f, m_const, mode="constant")
    ok = r_cut.invariant == r_con.invariant == wi.SIGMA
    _report(7, "constant-mass index equals cutoff-mass index", ok,
            f"m_const={m_const:.2f}, I={r_con.invariant}")


def test_criterion_8_almost_commuting_invariant():
    vals = {}
    ok = True
    for n in range(3, 13):
        t = wi.clock_shift(n)
        v = wi.acm_invariant(t, 1.0)
        vals[n] = v
        ok = ok and v == wi.bott_index_tuple(t, 1.0)
    # ||[U, V]|| = 2 sin(pi/n). From n = 4 on the pair is close enough to
    # commuting that the invariant at m = 1 is one common value of modulus 1.
    common = set(v for n, v in vals.items() if n >= 4)
    ok = ok and len(common) == 1 and all(abs(v) == 1 for v in common)
    # At n = 3 (||[U, V]|| = sqrt 3) the invariant takes the common value
    # only for m in (0.634, 0.942) and is 0 on the rest of (0, 2): m = 1 lies
    # past a spectral crossing (smallest |eigenvalue| 0.042), m = 0.8 inside
    # the window (smallest |eigenvalue| 0.11).
    t3 = wi.clock_shift(3)
    v3 = wi.acm_invariant(t3, 0.8)
    ok = ok and vals[3] == 0 and v3 == wi.bott_index_tuple(t3, 0.8)
    ok = ok and v3 in common
    f = _field2(4, 1)
    ok = ok and wi.acm_invariant(wi.gauge_tuple(f), 1.0) \
        == wi.lattice_index(f, 1.0).invariant
    _report(8, "clock/shift invariant vs independent oracle + lattice form",
            ok, f"I(m=1)={vals}, I(n=3, m=0.8)={v3}")


def test_criterion_9_invariant_suites():
    ok = True
    # Clifford relations at 1e-12
    for d in (2, 4):
        cl = wi.clifford_rep(d)
        eye = np.eye(cl.dim_s)
        for j in range(d):
            for l in range(d):
                anti = cl.generators[j] @ cl.generators[l] \
                    + cl.generators[l] @ cl.generators[j]
                want = -2.0 * eye if j == l else 0.0
                ok = ok and np.max(np.abs(anti - want)) < 1e-12
    # gauge covariance of inertia, exact
    f = _field2(5, 1)
    rng = np.random.default_rng(42)
    g = np.exp(1j * rng.uniform(0, 2 * np.pi, f.geometry.n_sites)).reshape(-1, 1, 1)
    r0, r1 = wi.lattice_index(f, 1.0), wi.lattice_index(wi.gauge_transform(f, g), 1.0)
    ok = ok and (r0.inertia.n_plus, r0.inertia.n_minus) \
        == (r1.inertia.n_plus, r1.inertia.n_minus)
    # additivity + congruence invariance, 20 seeded cases
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 32))
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        A = A + A.conj().T
        B = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        B = B + B.conj().T
        ia, ib = wi.inertia(A), wi.inertia(B)
        isum = wi.inertia(sla.block_diag(A, B))
        ok = ok and isum.n_plus == ia.n_plus + ib.n_plus \
            and isum.n_minus == ia.n_minus + ib.n_minus
        S = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) \
            + 2 * np.sqrt(n) * np.eye(n)
        ic = wi.inertia(S.conj().T @ A @ S)
        ok = ok and (ia.n_plus, ia.n_minus, ia.n_zero) \
            == (ic.n_plus, ic.n_minus, ic.n_zero)
        # dense vs factorization path agreement
        ibk = wi.inertia_bunch_kaufman(A)
        ok = ok and (ia.n_plus, ia.n_minus, ia.n_zero) \
            == (ibk.n_plus, ibk.n_minus, ibk.n_zero)
    # half-signature identity on assembled operators
    for k in (-1, 0, 2):
        r = wi.lattice_index(_field2(6, k), 1.0)
        ok = ok and r.invariant == r.inertia.n_plus - r.inertia.dim // 2
    _report(9, "invariant property suites", ok)


def test_criterion_10_selftest_determinism(tmp_path, capsys):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    ok1 = run_selftest(csv_path=p1)
    ok2 = run_selftest(csv_path=p2)
    identical = p1.read_bytes() == p2.read_bytes()
    _report(10, "selftest CSV bit-identical across runs",
            ok1 and ok2 and identical,
            f"selftest pass={ok1}, identical={identical}")
