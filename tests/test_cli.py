import csv
import dataclasses
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wilsonindex
from wilsonindex import (FluxMatrix, ParameterRangeError, cli, constant_flux_field,
                         make_geometry, trivial_field, verify_gap_bound)
from wilsonindex.formats import write_unitary_tuple
from wilsonindex.ktheory import SingularOperatorError, clock_shift, gauge_tuple
from wilsonindex.spectral import _proc_bytes


def run(argv):
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


# the child lowers its own soft RLIMIT_AS to its VmSize (numpy, scipy and
# their BLAS loaded) plus 150 MiB, then runs the command
_LIMITED = """
import resource, sys
from wilsonindex import cli
from wilsonindex.spectral import _proc_bytes
used = _proc_bytes("/proc/self/status", "VmSize")
resource.setrlimit(resource.RLIMIT_AS, (used + 150 * 2 ** 20,
                                        resource.getrlimit(resource.RLIMIT_AS)[1]))
sys.exit(cli.main(sys.argv[1:]))
"""


def run_limited(argv):
    """`wilsonindex argv` in a child process whose address-space limit is
    set before the command to 150 MiB above what it has mapped: (exit
    code, stdout, stderr)."""
    src = str(Path(wilsonindex.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    r = subprocess.run([sys.executable, "-c", _LIMITED, *argv],
                       capture_output=True, text=True, env=env, timeout=300)
    return r.returncode, r.stdout, r.stderr


def test_index_trivial(capsys):
    assert run(["index", "--d", "2", "--N", "8", "--m", "1.0"]) == 0
    out = capsys.readouterr().out
    assert "I = 0" in out
    assert "n0 = 0 (dense)" in out


def test_index_prints_its_blocks(capsys, monkeypatch):
    assert run(["index", "--d", "2", "--N", "8", "--flux", "1,2=1"]) == 0
    assert "\nblocks: 4 (31-33 rows)\n" in capsys.readouterr().out
    # every character's block is listed, also those that are not solved
    # because a translation makes them equivalent to one that is
    assert run(["index", "--d", "4", "--N", "6", "--flux", "1,2=1", "--flux", "3,4=2"]) == 0
    assert "\nblocks: 16 (306-342 rows)\n" in capsys.readouterr().out
    # a field with no symmetry is one block
    f = constant_flux_field(make_geometry(2, 4), FluxMatrix.from_entries(2, [(1, 2, 1)]))
    links = f.links.copy()
    links[5, 0] *= -1
    monkeypatch.setattr(cli, "constant_flux_field",
                        lambda *a: dataclasses.replace(f, links=links))
    assert run(["index", "--d", "2", "--N", "4", "--flux", "1,2=1"]) == 0
    assert "\nblocks: 1 (32 rows)\n" in capsys.readouterr().out


def test_index_flux_with_csv(tmp_path, capsys):
    path = tmp_path / "row.csv"
    rc = run(["index", "--d", "2", "--N", "8", "--flux", "1,2=1",
              "--m", "1.0", "--csv", str(path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "I = 1" in out and "agrees = true" in out
    assert "window degree = 1 (mu = 1)" in out
    lines = path.read_text().splitlines()
    assert lines[0] == cli.CSV_HEADER
    assert len(lines) == 2


def test_index_singular_exit_code(capsys):
    assert run(["index", "--d", "2", "--N", "8", "--m", "0"]) == 2
    err = capsys.readouterr().err
    assert "decrease a (increase N) or adjust m" in err


def test_degree_on_a_window_boundary_is_singular(capsys):
    # m = 2 closes the d=2 symbol gap, as `index --m 2` finds for the
    # operator: both exit 2 with the message
    assert run(["degree", "--d", "2", "--m", "2"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "mass sits on a window boundary\n"


def test_usage_errors(capsys):
    assert run(["index", "--bogus"]) == 1
    assert run(["index", "--d", "2", "--N", "8", "--m", "5"]) == 1
    assert run(["index", "--d", "2", "--flux", "1,3=1"]) == 1
    assert run(["sweep", "--sweep", "zzz"]) == 1
    assert run([]) == 1
    capsys.readouterr()
    assert run(["index", "--flux", "1,2=x"]) == 1
    assert "error: bad flux entry '1,2=x'" in capsys.readouterr().err
    assert run(["sweep", "--sweep", "flux:12=1,2"]) == 1
    assert "error: bad flux entry '12=1'" in capsys.readouterr().err


def test_resource_error_exit_code(monkeypatch, capsys):
    from wilsonindex import spectral

    monkeypatch.setattr(spectral, "_available_memory", lambda: 1)
    assert run(["index", "--d", "2", "--N", "4"]) == cli.EXIT_RESOURCE == 4
    # the first of the four symmetry blocks (9, 9, 7 and 7 rows) of the
    # dim-32 operator is reserved first
    assert "error: block 0 of the dim-32 operator: dense dim-9 operator needs" \
        in capsys.readouterr().err


def test_index_out_of_range_names_the_mode_rule(capsys):
    assert run(["index", "--d", "2", "--N", "8", "--m", "5"]) == 1
    assert capsys.readouterr().err == \
        "error: parameter out of range: cutoff mode needs 0 < m < 2\n"


@pytest.mark.parametrize("m", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("argv, err", [
    (["degree", "--d", "2"], "error: mass must be finite\n"),
    (["gap", "--d", "2"], "error: mass must be finite\n"),
    (["index", "--d", "2", "--N", "4", "--mode", "constant"],
     "error: parameter out of range: constant mode needs a finite m > 0\n"),
], ids=["degree", "gap", "index-constant"])
def test_non_finite_mass_is_a_usage_error(capsys, argv, err, m):
    # "--m=-inf", as argparse reads a bare "-inf" as an option
    assert run(argv + [f"--m={m}"]) == 1
    assert capsys.readouterr() == ("", err)


def test_index_reports_the_real_error(capsys):
    # odd d fails in the Clifford module, not in the mass range check
    assert run(["index", "--d", "3", "--N", "4"]) == 1
    err = capsys.readouterr().err
    assert "even dimension required" in err
    assert "out of range" not in err


def test_gap_command(capsys):
    assert run(["gap", "--d", "2", "--m", "1"]) == 0
    assert capsys.readouterr().out.strip() == "1.000000"
    assert run(["gap", "--grid", "512"]) == 1


def test_degree_command(capsys):
    assert run(["degree", "--d", "2", "--m", "1"]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_degree_resolution_is_rejected(capsys):
    # the degree is the closed-form corner count, which takes no
    # resolution, so the option is not accepted
    assert run(["degree", "--d", "4", "--m", "3", "--resolution", "2"]) == 1
    assert "unrecognized arguments: --resolution 2" in capsys.readouterr().err


def test_acm_builtin_cross_check(capsys):
    rc = run(["acm", "--builtin", "clock-shift", "--n", "8", "--m", "1",
              "--cross-check"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "I = -1" in out and "Bott-oracle = -1" in out


def test_acm_cross_check_stdout_is_pinned(capsys):
    assert run(["acm", "--builtin", "clock-shift", "--n", "64", "--m", "1",
                "--cross-check"]) == 0
    assert capsys.readouterr() == (
        "I = -1  (epsilon = 0.098135)\nBott-oracle = -1\n", "")


def test_acm_singular_bott_matrix_gets_its_own_message(monkeypatch, capsys):
    # a tuple has no lattice spacing: no advice to decrease a
    def singular(t, m):
        raise SingularOperatorError("Bott matrix is singular")

    monkeypatch.setattr(cli, "bott_index_tuple", singular)
    assert run(["acm", "--builtin", "clock-shift", "--n", "8", "--m", "1",
                "--cross-check"]) == 2
    assert capsys.readouterr().err == "Bott matrix is singular\n"


def _exits_4_under_a_limit(argv):
    rc, out, err = run_limited(argv)
    assert (rc, out) == (4, "")
    assert err.startswith("error: Unable to allocate ") and "Traceback" not in err


def test_acm_tuple_that_does_not_fit_exits_4():
    # the clock/shift pair alone is 5.96 GiB: numpy's MemoryError under a
    # 150 MiB limit, exit 4 with its message, and no process is killed
    _exits_4_under_a_limit(["acm", "--builtin", "clock-shift", "--n", "20000", "--m", "1"])


def test_index_that_does_not_fit_exits_4():
    # the Schur complement of the first of the 16 real symmetry blocks of
    # d=4 N=11 (23 MiB float32) does not fit the 150 MiB limit less what the
    # command has mapped and room for OpenBLAS's buffers, without which
    # the factor spins: its reserve refuses it before it is made
    rc, out, err = run_limited(["index", "--d", "4", "--N", "11",
                                "--flux", "1,2=1", "--flux", "3,4=2"])
    assert (rc, out) == (4, "")
    assert err.startswith("error: block 0 of the dim-58564 operator: dense dim-2433 "
                          "Schur complement needs 0.02 GiB (2433^2 float32), ")
    assert "Traceback" not in err


def test_the_blas_margin_is_left_until_the_buffer_is_mapped():
    # d=4 N=9: the first factor maps OpenBLAS's 32 MiB buffer into VmSize,
    # after which about 53 MiB are left under the 150 MiB limit for each
    # 5 MiB Schur complement; leaving the 48 MiB margin as well refused
    # block 1 with 4.7 MiB available
    rc, out, err = run_limited(["index", "--d", "4", "--N", "9",
                                "--flux", "1,2=1", "--flux", "3,4=2"])
    assert (rc, err) == (0, "")
    assert out.startswith("I = 2\n")


def test_acm_cross_check_that_does_not_fit_the_limit_is_skipped(tmp_path):
    # d=4 N=5, K = e12 + e34: the 25 MB tuple and its factor fit 150 MiB,
    # the Bott matrix's dense copy (dim 2500, 95 MiB) on top of them does
    # not, and its reserve, which sees the limit, refuses it
    path = tmp_path / "d4.wut"
    write_unitary_tuple(gauge_tuple(constant_flux_field(
        make_geometry(4, 5), FluxMatrix.from_entries(4, [(1, 2, 1), (3, 4, 1)]))), path)
    rc, out, err = run_limited(["acm", "--input", str(path), "--cross-check"])
    assert rc == 0, err
    assert out.startswith("I = 1  (epsilon = ") and out.count("\n") == 1
    assert err.startswith("note: the Bott cross-check does not fit; skipped: "
                          "dense dim-2500 operator needs 0.09 GiB (2500^2 complex128), ")


def _raise(exc):
    def call(*args):
        raise exc

    return call


@pytest.mark.parametrize("exc, err", [
    (MemoryError("no room for the pair"), "error: no room for the pair\n"),
    (MemoryError(), "error: out of memory\n"),
], ids=["message", "bare"])
def test_plain_memory_error_exits_4(monkeypatch, capsys, exc, err):
    monkeypatch.setattr(cli, "clock_shift", _raise(exc))
    assert run(["acm", "--builtin", "clock-shift"]) == 4
    assert capsys.readouterr() == ("", err)


def test_plain_memory_error_in_the_cross_check_skips_it(monkeypatch, capsys):
    monkeypatch.setattr(cli, "bott_index_tuple", _raise(MemoryError("no room")))
    assert run(["acm", "--builtin", "clock-shift", "--cross-check"]) == 0
    out, err = capsys.readouterr()
    assert out.startswith("I = -1  (epsilon = ") and out.count("\n") == 1
    assert err == "note: the Bott cross-check does not fit; skipped: no room\n"


@pytest.mark.parametrize("argv, code, preset", [
    (["gap", "--d", "2"], 0, "highest"),
    (["acm", "--builtin", "clock-shift"], 4, "highest"),
    (["gap", "--d", "2"], 0, "lower"),
], ids=["ok", "out-of-memory", "lower-preset"])
def test_memory_limit_is_restored(monkeypatch, argv, code, preset):
    # the command runs under min(preset soft limit, VmSize + MemAvailable),
    # so a lower preset is kept, and the preset is back when it returns,
    # also after a MemoryError
    seen = []

    def recorded(*args):
        seen.append(resource.getrlimit(resource.RLIMIT_AS)[0])
        if code:
            raise MemoryError("no room")
        return 1.0

    monkeypatch.setattr(cli, "symbol_gap" if code == 0 else "clock_shift", recorded)
    before = resource.getrlimit(resource.RLIMIT_AS)
    soft = before[1] if preset == "highest" else (
        _proc_bytes("/proc/self/status", "VmSize")
        + _proc_bytes("/proc/meminfo", "MemAvailable") // 4)
    resource.setrlimit(resource.RLIMIT_AS, (soft, before[1]))
    try:
        assert run(argv) == code
        assert resource.getrlimit(resource.RLIMIT_AS) == (soft, before[1])
    finally:
        resource.setrlimit(resource.RLIMIT_AS, before)
    # VmSize + MemAvailable moves, so below the highest preset only the
    # presence of a limit is checked
    inside, = seen
    assert inside == soft if preset == "lower" else inside != resource.RLIM_INFINITY


def test_acm_requires_input(capsys):
    assert run(["acm"]) == 1
    assert capsys.readouterr().err == "error: provide --input or --builtin clock-shift\n"


def test_acm_from_file(tmp_path, capsys):
    path = tmp_path / "pair.wut"
    write_unitary_tuple(clock_shift(6), path)
    assert run(["acm", "--input", str(path), "--m", "1"]) == 0
    assert "I = -1" in capsys.readouterr().out


def test_acm_rejects_a_nan_entry(tmp_path, capsys):
    t = clock_shift(6)
    bad = np.array(t.unitaries)
    bad[1, 2, 3] = np.nan
    path = tmp_path / "nan.wut"
    write_unitary_tuple(dataclasses.replace(t, unitaries=tuple(bad)), path)
    assert run(["acm", "--input", str(path)]) == 1
    assert capsys.readouterr().err == "error: tuple entries must be unitary\n"


@pytest.mark.parametrize("build, want", [
    (lambda: trivial_field(make_geometry(4, 2)), 0),
    (lambda: constant_flux_field(make_geometry(4, 3),
                                 FluxMatrix.from_entries(4, [(1, 2, 1), (3, 4, 1)])), 1),
], ids=["trivial", "flux"])
def test_acm_cross_check_runs_at_d4(tmp_path, capsys, build, want):
    # the cross-check solves the tuple operator at every even d: its
    # value is the invariant's, and nothing goes to stderr
    path = tmp_path / "d4.wut"
    write_unitary_tuple(gauge_tuple(build()), path)
    assert run(["acm", "--input", str(path), "--cross-check"]) == 0
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert len(lines) == 2 and err == ""
    assert lines[0].startswith(f"I = {want}  (epsilon = ")
    assert lines[1] == f"Bott-oracle = {want}"


def test_acm_cross_check_that_does_not_fit_says_it_was_skipped(
        tmp_path, monkeypatch, capsys):
    # memory for the factor's Schur complement, but 1 byte short of the
    # dense oracle's reserve for the Bott matrix (one copy of 72^2 float64,
    # real for the trivial field): I and epsilon print as without the
    # cross-check
    from wilsonindex import spectral

    path = tmp_path / "d2.wut"
    write_unitary_tuple(gauge_tuple(trivial_field(make_geometry(2, 6))), path)
    assert run(["acm", "--input", str(path)]) == 0
    plain = capsys.readouterr()
    monkeypatch.setattr(spectral, "_available_memory", lambda: 72 * 72 * 8 - 1)
    assert run(["acm", "--input", str(path), "--cross-check"]) == 0
    checked = capsys.readouterr()
    assert checked.out == plain.out and "I = " in plain.out
    assert checked.err.startswith("note: the Bott cross-check does not fit; "
                                  "skipped: dense dim-72 operator needs ")


@pytest.mark.parametrize("header", [b"0 4", b"2 0", b"2", b"2 x", b"2 4 9"])
def test_acm_bad_header_is_a_usage_error(tmp_path, capsys, header):
    path = tmp_path / "bad.wut"
    path.write_bytes(b"WUT1\n" + header + b"\nc\n")
    assert run(["acm", "--input", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: bad header")


def test_verify_bound_command(capsys):
    rc = run(["verify-bound", "--d", "2", "--N", "8", "--m", "1",
              "--kappa", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "status = pass" in out and "(dense)" in out


@pytest.mark.parametrize("m, kappa", [(0.0, 0.0), (-np.inf, 1.0), (-2.0, -1.0)],
                         ids=["zero", "minus-inf", "negative"])
def test_verify_bound_needs_a_positive_mass(capsys, m, kappa):
    # the bound's hypotheses are 0 < m <= kappa <= N: m = kappa = 0 divided
    # by zero, -inf failed the Hermitian check and kappa < 0 gave "fail"
    with pytest.raises(ParameterRangeError, match="kappa"):
        verify_gap_bound(trivial_field(make_geometry(2, 8)), m, kappa)
    assert run(["verify-bound", "--d", "2", "--N", "8", f"--m={m}",
                f"--kappa={kappa}"]) == 1
    assert capsys.readouterr() == ("", "error: kappa must lie in [m, N], with m > 0\n")


def test_sweep_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["sweep", "--d", "2", "--N", "8", "--flux", "1,2=1",
            "--sweep", "m=0.5,1.0,1.5"]
    assert run(argv + ["--out", str(a)]) == 0
    assert run(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert lines[0] == cli.CSV_HEADER
    assert len(lines) == 4
    # constant index column across the mass window
    with a.open() as fh:
        assert all(row["I"] == "1" for row in csv.DictReader(fh))


SWEEP_CSV = """\
d,N,flux,m,mode,I,gap,curvature,continuum,agrees,status
2,24,"1,2=-3",1.0,cutoff,-3,9.835891809e-01,1.884871483e+01,-3,true,ok
2,24,"1,2=-1",1.0,cutoff,-1,9.945401191e-01,6.283154155e+00,-1,true,ok
2,24,0,1.0,cutoff,0,1.000000000e+00,0.000000000e+00,0,true,ok
2,24,"1,2=1",1.0,cutoff,1,9.945401191e-01,6.283154155e+00,1,true,ok
2,24,"1,2=2",1.0,cutoff,2,9.890696270e-01,1.256612140e+01,2,true,ok
2,24,"1,2=3",1.0,cutoff,3,9.835891809e-01,1.884871483e+01,3,true,ok
"""


def test_sweep_csv_is_pinned(tmp_path):
    # the benchmark's sweep, byte for byte: a change to any printed digit
    # of a gap or a curvature is seen
    out = tmp_path / "sweep.csv"
    assert run(["sweep", "--d", "2", "--N", "24",
                "--sweep", "flux:1,2=-3,-1,0,1,2,3", "--out", str(out)]) == 0
    assert out.read_bytes() == SWEEP_CSV.encode()


def test_sweep_flux_variable(tmp_path):
    out = tmp_path / "k.csv"
    rc = run(["sweep", "--d", "2", "--N", "8",
              "--sweep", "flux:1,2=-1,0,1", "--out", str(out)])
    assert rc == 0
    with out.open() as fh:
        got = [row["I"] for row in csv.DictReader(fh)]
    assert got == ["-1", "0", "1"]


@pytest.mark.parametrize("base, swept", [
    ("01,2=1", "flux:1,2=2"), ("1, 2=1", "flux:1,2=2"), ("1,2=1", "flux:01,2=2"),
])
def test_sweep_flux_replaces_the_base_entry_however_spelled(tmp_path, base, swept):
    out = tmp_path / "k.csv"
    rc = run(["sweep", "--d", "2", "--N", "8", "--flux", base,
              "--sweep", swept, "--out", str(out)])
    assert rc == 0
    with out.open() as fh:
        got = [(row["flux"], row["I"]) for row in csv.DictReader(fh)]
    assert got == [("1,2=2", "2")]


def test_sweep_records_singular_rows(tmp_path):
    out = tmp_path / "s.csv"
    rc = run(["sweep", "--d", "2", "--N", "4", "--flux", "1,2=1",
              "--sweep", "m=1.0,2.0,5.0", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[1].endswith("ok")
    assert lines[2].endswith("singular")
    assert lines[3].endswith("out-of-range")


def test_sweep_N_variable(tmp_path):
    out = tmp_path / "t.csv"
    rc = run(["sweep", "--d", "2", "--N", "8", "--flux", "1,2=1",
              "--sweep", "N=4,8", "--out", str(out)])
    assert rc == 0
    assert len(out.read_text().splitlines()) == 3


def test_selftest_failure_exit_code(monkeypatch):
    import wilsonindex.selftest as st

    monkeypatch.setattr(st, "run_selftest", lambda **kw: False)
    assert run(["selftest"]) == 3


def test_selftest_fails_when_a_row_does_not_recompute(monkeypatch):
    # every call shifts the gap a little more, so no row can be recomputed
    import itertools
    from dataclasses import replace

    import wilsonindex.selftest as st

    calls, lattice_index = itertools.count(), st.lattice_index

    def drifting(f, m, mode="cutoff"):
        r = lattice_index(f, m, mode)
        gap = r.inertia.gap * (1 + 1e-6 * next(calls))
        return replace(r, inertia=replace(r.inertia, gap=gap))

    monkeypatch.setattr(st, "lattice_index", drifting)
    assert not st.run_selftest()


SELFTEST_CSV = """\
d,N,flux,m,mode,I,gap,curvature,continuum,agrees,status
2,8,"1,2=-2",1.0,cutoff,-2,9.003853440e-01,1.254619396e+01,-2,true,ok
2,8,"1,2=-1",1.0,cutoff,-1,9.505173709e-01,6.280662314e+00,-1,true,ok
2,8,0,1.0,cutoff,0,1.000000000e+00,0.000000000e+00,0,true,ok
2,8,"1,2=1",1.0,cutoff,1,9.505173709e-01,6.280662314e+00,1,true,ok
2,8,"1,2=2",1.0,cutoff,2,9.003853440e-01,1.254619396e+01,2,true,ok
4,4,"1,2=1;3,4=1",1.0,cutoff,1,6.192073257e-01,6.242890305e+00,1,true,ok
4,4,"1,2=1;3,4=2",1.0,cutoff,2,4.456689349e-01,1.224586984e+01,2,true,ok
"""


def test_selftest_csv_rows_match_header(tmp_path):
    from wilsonindex.selftest import run_selftest

    path = tmp_path / "selftest.csv"
    assert run_selftest(csv_path=path)
    # byte for byte, so a change to any gap's printed digits is seen
    assert path.read_bytes() == SELFTEST_CSV.encode()
    with path.open(newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    assert reader.fieldnames == cli.CSV_HEADER.split(",")
    assert len(rows) == 7
    for row in rows:
        # a flux label with commas must not spill into extra fields
        assert None not in row and None not in row.values()
        assert row["I"] == row["continuum"]
