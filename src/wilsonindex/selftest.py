"""Reduced-size end-to-end verification run.

Mirrors the acceptance suite at small lattice sizes so the whole run
completes in well under a minute.  Prints one line per check; the CSV
emitted via --csv collects every index measurement in a fixed row order
and is bit-identical across runs (everything downstream of default_rng
seeds is deterministic).
"""

from __future__ import annotations

import numpy as np

from .cli import _row, _write_rows
from .clifford import clifford_rep
from .gauge import (
    FluxMatrix,
    constant_flux_field,
    direct_sum_field,
    gauge_transform,
    make_geometry,
    trivial_field,
)
from .ktheory import (
    acm_invariant,
    bott_index_tuple,
    clock_shift,
    continuum_index,
    corner_count_degree,
    gauge_tuple,
    lattice_index,
    verify_gap_bound,
)
from .spectral import (
    half_signature,
    inertia,
    inertia_bunch_kaufman,
    inertia_ldl,
)
from .wilson import assemble, fourier_diagonalize, symbol_gap


def _flux2(k: int) -> FluxMatrix:
    return FluxMatrix.from_entries(2, [(1, 2, k)])


def run_selftest(csv_path=None) -> bool:
    checks = []
    rows = []

    def record(name, ok, detail=""):
        checks.append(ok)
        tail = f"  ({detail})" if detail else ""
        print(f"{'PASS' if ok else 'FAIL'}  {name}{tail}")

    # 1. two-dimensional index theorem, reduced grid
    ok = True
    vals = []
    for k in (-2, -1, 0, 1, 2):
        f = constant_flux_field(make_geometry(2, 8), _flux2(k))
        r = lattice_index(f, 1.0)
        rows.append(_row(2, 8, _flux2(k), 1.0, r.mass_mode, r))
        vals.append(r.invariant)
        ok = ok and r.invariant == k
    record("index theorem d=2 (N=8, K=-2..2)", ok, f"I={vals}")

    # 2. four-dimensional index theorem, reduced grid
    ok = True
    vals = []
    for k12, k34 in ((1, 1), (1, 2)):
        K = FluxMatrix.from_entries(4, [(1, 2, k12), (3, 4, k34)])
        r = lattice_index(constant_flux_field(make_geometry(4, 4), K), 1.0)
        rows.append(_row(4, 4, K, 1.0, r.mass_mode, r))
        vals.append(r.invariant)
        ok = ok and r.invariant == k12 * k34
    record("index theorem d=4 (N=4)", ok, f"I={vals}")

    # 3. Fourier oracle on the trivial field
    ok = True
    worst = 0.0
    for d, N in ((2, 4), (4, 2)):
        cl = clifford_rep(d)
        f = trivial_field(make_geometry(d, N), rank=1)
        for mu in (0.5, 1.0):
            op = assemble(f, cl, mu)
            got = np.sort(np.linalg.eigvalsh(op.matrix.toarray()))
            want = fourier_diagonalize(f, cl, mu)
            dev = float(np.max(np.abs(got - want)))
            worst = max(worst, dev)
            ok = ok and dev < 1e-10
    record("Fourier diagonalization oracle", ok, f"max dev {worst:.2e}")

    # 4. symbol gap vs the trivial-field spectrum: at even N the lattice
    # momenta include the corners {0, 1/2}^d, where the gap is attained
    ok = True
    worst = 0.0
    for d, N in ((2, 4), (4, 2)):
        cl = clifford_rep(d)
        f = trivial_field(make_geometry(d, N), rank=1)
        for mu in (0.1, 1.0, 1.9):
            g = symbol_gap(cl, mu)
            dev = abs(inertia(assemble(f, cl, mu).matrix).gap - g)
            worst = max(worst, dev)
            ok = ok and g > 0 and dev < 1e-10
    record("symbol gap vs trivial-field spectrum", ok, f"max dev {worst:.2e}")

    # 5. the index theorem in every mass window: the operator's
    # half-signature is the symbol degree (the corner count) times Pf(K)
    ok = True
    vals = []
    cl = clifford_rep(2)
    for k in (1, -2):
        f = constant_flux_field(make_geometry(2, 8), _flux2(k))
        for mu in (0.5, 1.5, 2.5, 3.5):
            v = half_signature(inertia(assemble(f, cl, mu).matrix))
            vals.append(v)
            ok = ok and v == corner_count_degree(2, mu) * continuum_index(_flux2(k))
    record("index theorem in every mass window (d=2, N=8, K=1,-2)", ok,
           f"I={vals}")

    # 6. a-priori gap bound
    ok = True
    statuses = []
    for k in (0, 1):
        f = constant_flux_field(make_geometry(2, 8), _flux2(k))
        rep = verify_gap_bound(f, 1.0, 1.0)
        statuses.append(rep.status)
        ok = ok and rep.status in ("pass", "vacuous")
    record("a-priori gap bound", ok, f"status={statuses}")

    # 7. mass-mode equivalence
    f = constant_flux_field(make_geometry(2, 16), _flux2(1))
    ok = (lattice_index(f, 1.0, mode="cutoff").invariant
          == lattice_index(f, 11.0, mode="constant").invariant)
    record("mass-mode equivalence (d=2, N=16)", ok)

    # 8. almost-commuting tuples: clock/shift vs Bott oracle; tuple vs lattice
    ok = True
    vals = []
    for n in range(4, 9):
        t = clock_shift(n)
        v = acm_invariant(t, 1.0)
        vals.append(v)
        ok = ok and abs(v) == 1 and v == bott_index_tuple(t, 1.0)
    f = constant_flux_field(make_geometry(2, 4), _flux2(1))
    ok = ok and acm_invariant(gauge_tuple(f), 1.0) == lattice_index(f, 1.0).invariant
    record("almost-commuting invariant (clock/shift + lattice)", ok,
           f"I={vals}")

    # 9. structural invariants, spot checks
    cl = clifford_rep(4)
    ok = True
    for j in range(4):
        for l in range(4):
            anti = cl.generators[j] @ cl.generators[l] \
                + cl.generators[l] @ cl.generators[j]
            ok = ok and np.max(np.abs(anti + 2 * (j == l) * np.eye(cl.dim_s))) < 1e-12
    rng = np.random.default_rng(7)
    A = rng.standard_normal((24, 24)) + 1j * rng.standard_normal((24, 24))
    A = A + A.conj().T
    i1, i2 = inertia(A), inertia_bunch_kaufman(A)
    ok = ok and (i1.n_plus, i1.n_minus) == (i2.n_plus, i2.n_minus)
    # the second operator: odd N and rank 2, so the eliminated rows are
    # not the even sites and the pattern has two components
    g5 = make_geometry(2, 5)
    for fld in (constant_flux_field(make_geometry(2, 6), _flux2(1)),
                direct_sum_field(constant_flux_field(g5, _flux2(1)),
                                 constant_flux_field(g5, _flux2(-2)))):
        H = assemble(fld, clifford_rep(2), 1.0).matrix
        i1, i3 = inertia(H), inertia_ldl(H)
        ok = ok and i3.method == "ldl" and (i1.n_plus, i1.n_minus) \
            == (i3.n_plus, i3.n_minus)
    f = constant_flux_field(make_geometry(2, 4), _flux2(1))
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, f.geometry.n_sites))
    g = gauge_transform(f, phases.reshape(-1, 1, 1))
    ok = ok and lattice_index(g, 1.0).invariant == lattice_index(f, 1.0).invariant
    fsum = direct_sum_field(f, trivial_field(make_geometry(2, 4), rank=1))
    ok = ok and (lattice_index(fsum, 1.0).invariant
                 == lattice_index(f, 1.0).invariant)
    r = lattice_index(f, 1.0)
    ok = ok and r.invariant == r.inertia.n_plus - r.inertia.dim // 2
    record("structural invariants (Clifford, inertia, covariance)", ok)

    # 10. determinism: the first row, computed again, is the same row, so
    # it renders the same CSV line
    f = constant_flux_field(make_geometry(2, 8), _flux2(-2))
    again = _row(2, 8, _flux2(-2), 1.0, "cutoff", lattice_index(f, 1.0))
    if csv_path:
        _write_rows(rows, csv_path)
    record("deterministic CSV emission", again == rows[0], f"{len(rows)} rows")

    print(f"{sum(checks)}/{len(checks)} checks passed")
    return all(checks)
