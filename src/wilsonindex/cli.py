"""Batch command-line front end.

Subcommands: index, gap, degree, acm, sweep, verify-bound, selftest.
Exit codes: 0 ok, 1 usage error, 2 singular operator, 3 selftest failure,
4 out of memory for a dense copy (ResourceError).
"""

from __future__ import annotations

import argparse
import csv
import io
import sys

import numpy as np

from . import formats
from .clifford import clifford_rep
from .gauge import FluxMatrix, constant_flux_field, make_geometry, trivial_field
from .ktheory import (
    SIGMA,
    ParameterRangeError,
    SingularOperatorError,
    acm_invariant,
    bott_index_tuple,
    clock_shift,
    lattice_index,
    symbol_degree,
    verify_gap_bound,
)
from .spectral import ResourceError
from .wilson import symbol_gap

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SINGULAR = 2
EXIT_SELFTEST = 3
EXIT_RESOURCE = 4

CSV_HEADER = "d,N,flux,m,mode,I,gap,curvature,continuum,agrees,status"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        sys.exit(EXIT_USAGE)


def _parse_flux_entries(d: int, entries) -> FluxMatrix:
    triples = []
    for item in entries or []:
        try:
            pos, val = item.split("=")
            j, l = (int(p) for p in pos.split(","))
            triples.append((j, l, int(val)))
        except ValueError:
            print(f"error: bad flux entry {item!r}", file=sys.stderr)
            raise SystemExit(EXIT_USAGE)
        if not 1 <= j < l <= d:
            print(f"error: flux plane {pos} out of range", file=sys.stderr)
            raise SystemExit(EXIT_USAGE)
    return FluxMatrix.from_entries(d, triples)


def _flux_label(K: FluxMatrix) -> str:
    parts = [
        f"{j + 1},{l + 1}={K.K[j, l]}"
        for j in range(K.d)
        for l in range(j + 1, K.d)
        if K.K[j, l] != 0
    ]
    return ";".join(parts) or "0"


def _build_field(d: int, N: int, flux: FluxMatrix):
    if np.any(flux.K != 0):
        return constant_flux_field(make_geometry(d, N), flux)
    return trivial_field(make_geometry(d, N), rank=1)


def _row(d, N, flux, m, mode, r=None, status="ok") -> dict:
    """One CSV row: the measurements of the `lattice_index` report r, or
    blanks where there is none."""
    row = dict.fromkeys(CSV_HEADER.split(","), "")
    row.update(d=d, N=N, flux=_flux_label(flux), m=m, mode=mode, status=status)
    if r is not None:
        row.update(
            I=r.invariant, gap=f"{r.inertia.gap:.9e}",
            curvature=f"{r.curvature_estimate:.9e}",
            continuum="" if r.continuum_index is None else r.continuum_index,
            agrees="" if r.agrees is None else str(r.agrees).lower())
    return row


def _index_row(d, N, flux, m, mode):
    f = _build_field(d, N, flux)
    try:
        # mass exactly on a window boundary closes the symbol gap: report
        # the operator as singular rather than as a usage error
        if mode == "cutoff" and m in (0.0, 2.0):
            raise SingularOperatorError("gap closes at the window boundary")
        r = lattice_index(f, m, mode)
    except (SingularOperatorError, ParameterRangeError) as exc:
        status = "singular" if isinstance(exc, SingularOperatorError) \
            else "out-of-range"
        return _row(d, N, flux, m, mode, status=status), None
    return _row(d, N, flux, m, mode, r), r


def _write_rows(rows, out_path):
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_HEADER.split(","),
                            lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    text = buf.getvalue()
    if out_path:
        with open(out_path, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_index(args) -> int:
    flux = _parse_flux_entries(args.d, args.flux)
    row, r = _index_row(args.d, args.N, flux, args.m, args.mode)
    if row["status"] == "singular":
        print("singular operator: decrease a (increase N) or adjust m",
              file=sys.stderr)
        return EXIT_SINGULAR
    if row["status"] == "out-of-range":
        print("error: mass parameter out of range for this mode",
              file=sys.stderr)
        return EXIT_USAGE
    print(f"I = {r.invariant}")
    print(f"inertia: n+ = {r.inertia.n_plus}, n- = {r.inertia.n_minus}, "
          f"n0 = {r.inertia.n_zero} ({r.inertia.method})")
    print(f"gap = {r.inertia.gap:.6e}")
    print(f"curvature estimate = {r.curvature_estimate:.6e}")
    print(f"window degree = {r.degree} (mu = {r.mu:g})")
    if r.continuum_index is not None:
        print(f"continuum index = {r.continuum_index} (sigma = {SIGMA:+d}), "
              f"agrees = {str(r.agrees).lower()}")
    if args.csv:
        _write_rows([row], args.csv)
    return EXIT_OK


def cmd_gap(args) -> int:
    g = symbol_gap(clifford_rep(args.d), args.m)
    print(f"{g:.6f}")
    return EXIT_OK


def cmd_degree(args) -> int:
    print(symbol_degree(args.d, args.m, resolution=args.resolution))
    return EXIT_OK


def cmd_acm(args) -> int:
    if args.input:
        t = formats.read_unitary_tuple(args.input)
    elif args.builtin == "clock-shift":
        t = clock_shift(args.n)
    else:
        print("error: provide --input or --builtin clock-shift", file=sys.stderr)
        return EXIT_USAGE
    try:
        val = acm_invariant(t, args.m)
    except SingularOperatorError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_SINGULAR
    print(f"I = {val}  (epsilon = {t.epsilon:.6f})")
    if args.cross_check and t.d == 2:
        print(f"Bott-oracle = {bott_index_tuple(t, args.m)}")
    elif args.cross_check:
        print(f"note: the Bott cross-check is d=2 only; skipped at d={t.d}",
              file=sys.stderr)
    return EXIT_OK


def cmd_verify_bound(args) -> int:
    flux = _parse_flux_entries(args.d, args.flux)
    f = _build_field(args.d, args.N, flux)
    rep = verify_gap_bound(f, clifford_rep(args.d), args.m, args.kappa)
    print(f"lambda_min = {rep.lambda_min:.6e} ({rep.method})")
    print(f"rhs = {rep.rhs:.6e}")
    print(f"margin = {rep.margin:.6e}")
    print(f"status = {rep.status}")
    return EXIT_OK


def _parse_sweep(spec: str):
    try:
        var, vals = spec.split("=")
        values = [v for v in vals.split(",") if v]
        if var == "N":
            return var, [int(v) for v in values]
        if var == "m":
            return var, [float(v) for v in values]
        if var.startswith("flux:"):
            return var, [int(v) for v in values]
    except ValueError:
        pass
    print(f"error: bad sweep spec {spec!r}", file=sys.stderr)
    raise SystemExit(EXIT_USAGE)


def cmd_sweep(args) -> int:
    var, values = _parse_sweep(args.sweep)
    rows = []
    for v in values:
        d, N, m = args.d, args.N, args.m
        entries = list(args.flux or [])
        if var == "N":
            N = v
        elif var == "m":
            m = v
        else:
            plane = var.split(":", 1)[1]
            entries = [e for e in entries if not e.startswith(plane + "=")]
            entries.append(f"{plane}={v}")
        flux = _parse_flux_entries(d, entries)
        rows.append(_index_row(d, N, flux, m, args.mode)[0])
    _write_rows(rows, args.out)
    return EXIT_OK


def cmd_selftest(args) -> int:
    from .selftest import run_selftest

    ok = run_selftest(csv_path=args.csv, verbose=True)
    return EXIT_OK if ok else EXIT_SELFTEST


def build_parser() -> _Parser:
    p = _Parser(prog="wilsonindex",
                description="lattice Wilson-Dirac index computations")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, flux=True):
        sp.add_argument("--d", type=int, default=2)
        sp.add_argument("--N", type=int, default=8)
        if flux:
            sp.add_argument("--flux", action="append", metavar="j,l=k",
                            help="repeatable; 1-based plane, integer flux")
        sp.add_argument("--m", type=float, default=1.0)

    sp = sub.add_parser("index", help="lattice index of a flux configuration")
    common(sp)
    sp.add_argument("--mode", choices=["cutoff", "constant"], default="cutoff")
    sp.add_argument("--csv", help="also write a CSV row to this path")
    sp.set_defaults(func=cmd_index)

    sp = sub.add_parser("gap", help="symbol gap over the Brillouin torus")
    sp.add_argument("--d", type=int, default=2)
    sp.add_argument("--m", type=float, default=1.0)
    sp.set_defaults(func=cmd_gap)

    sp = sub.add_parser("degree", help="degree of the normalized symbol map")
    sp.add_argument("--d", type=int, default=2)
    sp.add_argument("--m", type=float, default=1.0)
    sp.add_argument("--resolution", type=int, default=6,
                    help="no effect: the degree is the closed-form corner count")
    sp.set_defaults(func=cmd_degree)

    sp = sub.add_parser("acm", help="invariant of an almost-commuting tuple")
    sp.add_argument("--input", help="WUT1 file")
    sp.add_argument("--builtin", choices=["clock-shift"])
    sp.add_argument("--n", type=int, default=8)
    sp.add_argument("--m", type=float, default=1.0)
    sp.add_argument("--cross-check", action="store_true")
    sp.set_defaults(func=cmd_acm)

    sp = sub.add_parser("sweep", help="CSV sweep over N, m, or a flux entry")
    common(sp)
    sp.add_argument("--mode", choices=["cutoff", "constant"], default="cutoff")
    sp.add_argument("--sweep", required=True,
                    metavar="var=v1,v2,...", help="var is N, m, or flux:j,l")
    sp.add_argument("--out", help="CSV output path (default stdout)")
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("verify-bound", help="a-priori spectral gap bound")
    common(sp)
    sp.add_argument("--kappa", type=float, default=1.0)
    sp.set_defaults(func=cmd_verify_bound)

    sp = sub.add_parser("selftest", help="reduced-size acceptance run")
    sp.add_argument("--csv", help="write the measurement CSV to this path")
    sp.set_defaults(func=cmd_selftest)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SystemExit:
        raise
    except SingularOperatorError:
        print("singular operator: decrease a (increase N) or adjust m",
              file=sys.stderr)
        return EXIT_SINGULAR
    except ResourceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
