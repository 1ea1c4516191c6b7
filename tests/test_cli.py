import csv

import pytest

from wilsonindex import cli, make_geometry, trivial_field
from wilsonindex.formats import write_unitary_tuple
from wilsonindex.ktheory import clock_shift, gauge_tuple


def run(argv):
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


def test_index_trivial(capsys):
    assert run(["index", "--d", "2", "--N", "8", "--m", "1.0"]) == 0
    out = capsys.readouterr().out
    assert "I = 0" in out
    assert "n0 = 0 (dense)" in out


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
    assert "error: dense dim-32 operator needs" in capsys.readouterr().err


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


def test_degree_resolution_is_accepted_and_ignored(capsys):
    assert run(["degree", "--d", "4", "--m", "3", "--resolution", "2"]) == 0
    assert capsys.readouterr().out.strip() == "-3"


def test_acm_builtin_cross_check(capsys):
    rc = run(["acm", "--builtin", "clock-shift", "--n", "8", "--m", "1",
              "--cross-check"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "I = -1" in out and "Bott-oracle = -1" in out


def test_acm_requires_input(capsys):
    assert run(["acm"]) == 1


def test_acm_from_file(tmp_path, capsys):
    path = tmp_path / "pair.wut"
    write_unitary_tuple(clock_shift(6), path)
    assert run(["acm", "--input", str(path), "--m", "1"]) == 0
    assert "I = -1" in capsys.readouterr().out


def test_acm_cross_check_off_d2_says_it_was_skipped(tmp_path, capsys):
    # the Bott oracle is d=2 only: the cross-check is skipped with a note,
    # and stdout and the exit code are those of a run without it
    path = tmp_path / "d4.wut"
    write_unitary_tuple(gauge_tuple(trivial_field(make_geometry(4, 2))), path)
    assert run(["acm", "--input", str(path)]) == 0
    plain = capsys.readouterr()
    assert run(["acm", "--input", str(path), "--cross-check"]) == 0
    checked = capsys.readouterr()
    assert checked.out == plain.out and "I = " in plain.out
    assert plain.err == ""
    assert checked.err == "note: the Bott cross-check is d=2 only; skipped at d=4\n"


@pytest.mark.parametrize("header", [b"0 4", b"2 0"])
def test_acm_bad_header_is_a_usage_error(tmp_path, capsys, header):
    path = tmp_path / "bad.wut"
    path.write_bytes(b"WUT1\n" + header + b"\nc\n")
    assert run(["acm", "--input", str(path)]) == 1
    assert "error: bad header" in capsys.readouterr().err


def test_verify_bound_command(capsys):
    rc = run(["verify-bound", "--d", "2", "--N", "8", "--m", "1",
              "--kappa", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "status = pass" in out and "(dense)" in out


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


def test_sweep_flux_variable(tmp_path):
    out = tmp_path / "k.csv"
    rc = run(["sweep", "--d", "2", "--N", "8",
              "--sweep", "flux:1,2=-1,0,1", "--out", str(out)])
    assert rc == 0
    with out.open() as fh:
        got = [row["I"] for row in csv.DictReader(fh)]
    assert got == ["-1", "0", "1"]


def test_sweep_records_singular_rows(tmp_path):
    out = tmp_path / "s.csv"
    rc = run(["sweep", "--d", "2", "--N", "4", "--flux", "1,2=1",
              "--sweep", "m=1.0,2.0", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[1].endswith("ok")
    assert lines[2].endswith("singular")


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


def test_selftest_csv_rows_match_header(tmp_path):
    from wilsonindex.selftest import run_selftest

    path = tmp_path / "selftest.csv"
    assert run_selftest(csv_path=path, verbose=False)
    with path.open(newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    assert reader.fieldnames == cli.CSV_HEADER.split(",")
    assert len(rows) == 7
    for row in rows:
        # a flux label with commas must not spill into extra fields
        assert None not in row and None not in row.values()
        assert row["I"] == row["continuum"]
