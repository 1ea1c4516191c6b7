"""Tests of the benchmark's checkers and tracer.

    python3 -m pytest -q perfbench

Each checker is handed a deliberately wrong result, and the op must be
counted as attempted and failed, not dropped.
"""

from __future__ import annotations

import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
from run import Stats  # noqa: E402
from tracing import Tracer, union_length  # noqa: E402
from workloads import Op  # noqa: E402

HEADER = "d,N,flux,m,mode,I,gap,curvature,continuum,agrees,status"
GOOD_CSV = HEADER + "\n" + "\n".join(
    f"2,24,\"1,2={k}\",1.0,cutoff,{k},9.9e-01,1.0e+00,{k},true,ok" for k in (1, -2)) + "\n"


def outcome(call, check):
    stats = Stats()
    stats.run_op(Op("op", call, check))
    return stats


def report(invariant, gap):
    return SimpleNamespace(invariant=invariant, inertia=SimpleNamespace(gap=gap))


def test_correct_index_passes():
    s = outcome(lambda: report(2, 0.7431787886075), lambda r: checks.check_index(r, 1, 2, 0.7431787886075))
    assert (s.attempted, s.failed) == (1, 0)


@pytest.mark.parametrize("wrong", [report(-2, 0.7431787886075), report(2, 0.7431797886075)])
def test_wrong_index_or_gap_fails(wrong):
    s = outcome(lambda: wrong, lambda r: checks.check_index(r, 1, 2, 0.7431787886075))
    assert (s.attempted, s.failed) == (1, 1)
    assert len(s.latencies) == 1


def test_raising_op_counts_as_failed():
    def boom():
        raise RuntimeError("singular")

    s = outcome(boom, lambda r: [])
    assert (s.attempted, s.failed) == (1, 1)
    assert "raised RuntimeError" in next(iter(s.problems))


def test_sweep_csv_checks():
    assert checks.check_sweep_csv(GOOD_CSV, 24, [1, -2], None) == []
    assert checks.check_sweep_csv(GOOD_CSV, 24, [1, -2], GOOD_CSV) == []
    altered = GOOD_CSV.replace("9.9e-01", "9.8e-01", 1)
    s = outcome(lambda: altered, lambda t: checks.check_sweep_csv(t, 24, [1, -2], GOOD_CSV))
    assert (s.attempted, s.failed) == (1, 1)
    wrong_index = GOOD_CSV.replace(",-2,9.9", ",2,9.9")
    assert checks.check_sweep_csv(wrong_index, 24, [1, -2], None)
    singular = GOOD_CSV.replace("true,ok\n", "true,singular\n", 1)
    assert checks.check_sweep_csv(singular, 24, [1, -2], None)
    assert checks.check_sweep_csv(GOOD_CSV, 24, [1, -2, 3], None)


def test_round_trip_checks():
    a = np.exp(1j * np.linspace(0, 1, 32)).reshape(2, 4, 4)
    assert checks.check_round_trip(a.copy(), a, "WUT1") == []
    b = a.copy()
    b.flat[5] = np.nextafter(b.flat[5].real, 2.0) + 1j * b.flat[5].imag
    s = outcome(lambda: b, lambda r: checks.check_round_trip(r, a, "WUT1"))
    assert (s.attempted, s.failed) == (1, 1)


def test_hermitian_check():
    H = sp.csr_matrix(np.array([[1.0, 2j], [-2j, 3.0]]))
    assert checks.check_hermitian(H) == []
    bad = sp.csr_matrix(np.array([[1.0, 2j], [2j, 3.0]]))
    assert checks.check_hermitian(bad)


def test_gauge_invariance_check():
    assert checks.check_gauge_invariance(8.87, 8.87 * (1 + 1e-12)) == []
    s = outcome(lambda: 32.0, lambda c: checks.check_gauge_invariance(8.87, c))
    assert (s.attempted, s.failed) == (1, 1)


def test_degree_oracle_and_check():
    assert [checks.corner_degree(4, mu) for mu in (1, 3, 5, 7, 9)] == [1, -3, 3, -1, 0]
    assert checks.corner_degree(2, 3) == -1
    assert checks.check_degree(-3, 4, 3.0) == []
    s = outcome(lambda: 3, lambda v: checks.check_degree(v, 4, 3.0))
    assert (s.attempted, s.failed) == (1, 1)


def test_acm_check_against_own_bott():
    import wilsonindex as wi

    t = wi.clock_shift(16)
    want = checks.bott_index(*t.unitaries, 1.0)
    assert checks.check_acm((want, want), t.unitaries, 1.0, None) == []
    assert checks.check_acm((want + 1, want), t.unitaries, 1.0, None)
    assert checks.check_acm((want, want), t.unitaries, 1.0, want + 1)


def test_independent_operator_matches_spectrum():
    import wilsonindex as wi

    H = checks.flux_wilson_operator(2, 6, {(0, 1): 2}, 1.0)
    f = wi.constant_flux_field(wi.make_geometry(2, 6), wi.FluxMatrix.from_entries(2, [(1, 2, 2)]))
    P = wi.assemble(f, wi.clifford_rep(2), 1.0).matrix
    a = np.sort(np.linalg.eigvalsh(H.toarray()))
    b = np.sort(np.linalg.eigvalsh(P.toarray()))
    assert np.allclose(a, b, atol=1e-12)


def test_union_length():
    assert union_length([(0, 2), (1, 3), (5, 6)], 0, 10) == pytest.approx(4)
    assert union_length([(-1, 2)], 0, 1) == pytest.approx(1)
    assert union_length([], 0, 1) == 0


def test_tracer_self_time_and_threads():
    import wilsonindex as wi
    from wilsonindex import gauge, ktheory, spectral

    original = spectral.min_abs_eigenvalue
    tracer = Tracer().install()
    try:
        assert spectral.min_abs_eigenvalue is not original
        assert ktheory.min_abs_eigenvalue is spectral.min_abs_eigenvalue
        assert wi.min_abs_eigenvalue is spectral.min_abs_eigenvalue
        f = wi.constant_flux_field(wi.make_geometry(2, 4), wi.FluxMatrix.from_entries(2, [(1, 2, 1)]))
        span = tracer._open("outer", None)
        worker = threading.Thread(target=lambda: gauge.estimate_curvature_norm(f))
        worker.start()
        worker.join(timeout=30)
        assert not worker.is_alive()
        time.sleep(0.01)
        tracer._close(span)
    finally:
        tracer.uninstall()
    assert spectral.min_abs_eigenvalue is original
    assert tracer.calls["gauge.estimate_curvature_norm"] == 1
    assert tracer.calls["gauge.plaquette"] == 16
    # the worker's span is a child of the open main-thread span
    assert tracer.self_s["outer"] < tracer.total_s["outer"] - tracer.total_s["gauge.estimate_curvature_norm"] + 1e-3
    # built once and estimated once, both top-level gauge calls
    assert tracer.counts["gauge.links"] == 2 * f.links.size
