"""Batch command-line front end.

Subcommands: index, gap, degree, acm, sweep, verify-bound, selftest.
Exit codes: 0 ok, 1 usage error, 2 singular operator, 3 selftest failure,
4 an allocation that does not fit (any MemoryError; ResourceError is one).
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from contextlib import contextmanager, nullcontext

from . import formats
from .clifford import clifford_rep
from .gauge import FluxMatrix, constant_flux_field, make_geometry
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
from .spectral import _proc_bytes
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


def _flux_triples(d: int, entries) -> list:
    """The (j, l, k) of each --flux entry "j,l=k", 1-based j < l <= d."""
    triples = []
    for item in entries or []:
        try:
            pos, val = item.split("=")
            j, l = (int(p) for p in pos.split(","))
            triples.append((j, l, int(val)))
        except ValueError:
            raise ValueError(f"bad flux entry {item!r}") from None
        if not 1 <= j < l <= d:
            raise ValueError(f"flux plane {pos} out of range")
    return triples


def _flux_label(K: FluxMatrix) -> str:
    parts = [
        f"{j + 1},{l + 1}={K.K[j, l]}"
        for j in range(K.d)
        for l in range(j + 1, K.d)
        if K.K[j, l] != 0
    ]
    return ";".join(parts) or "0"


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


def _index(d, N, flux, m, mode):
    f = constant_flux_field(make_geometry(d, N), flux)
    # mass exactly on a window boundary closes the symbol gap: report the
    # operator as singular rather than as a usage error
    if mode == "cutoff" and m in (0.0, 2.0):
        raise SingularOperatorError(
            "singular operator: decrease a (increase N) or adjust m")
    return lattice_index(f, m, mode)


def _index_row(d, N, flux, m, mode) -> dict:
    try:
        return _row(d, N, flux, m, mode, _index(d, N, flux, m, mode))
    except SingularOperatorError:
        return _row(d, N, flux, m, mode, status="singular")
    except ParameterRangeError:
        return _row(d, N, flux, m, mode, status="out-of-range")


def _write_rows(rows, out_path):
    with (open(out_path, "w", newline="") if out_path
          else nullcontext(sys.stdout)) as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_HEADER.split(","),
                                lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def cmd_index(args) -> int:
    flux = FluxMatrix.from_entries(args.d, _flux_triples(args.d, args.flux))
    r = _index(args.d, args.N, flux, args.m, args.mode)
    print(f"I = {r.invariant}")
    print(f"inertia: n+ = {r.inertia.n_plus}, n- = {r.inertia.n_minus}, "
          f"n0 = {r.inertia.n_zero} ({r.inertia.method})")
    lo, hi = min(r.blocks), max(r.blocks)
    print(f"blocks: {len(r.blocks)} ({lo if lo == hi else f'{lo}-{hi}'} rows)")
    print(f"gap = {r.inertia.gap:.6e}")
    print(f"curvature estimate = {r.curvature_estimate:.6e}")
    print(f"window degree = {r.degree} (mu = {r.mu:g})")
    if r.continuum_index is not None:
        print(f"continuum index = {r.continuum_index} (sigma = {SIGMA:+d}), "
              f"agrees = {str(r.agrees).lower()}")
    if args.csv:
        _write_rows([_row(args.d, args.N, flux, args.m, args.mode, r)],
                    args.csv)
    return EXIT_OK


def cmd_gap(args) -> int:
    if not math.isfinite(args.m):
        raise ParameterRangeError("mass must be finite")
    g = symbol_gap(clifford_rep(args.d), args.m)
    print(f"{g:.6f}")
    return EXIT_OK


def cmd_degree(args) -> int:
    print(symbol_degree(args.d, args.m))
    return EXIT_OK


def cmd_acm(args) -> int:
    if args.input:
        t = formats.read_unitary_tuple(args.input)
    elif args.builtin == "clock-shift":
        t = clock_shift(args.n)
    else:
        raise ValueError("provide --input or --builtin clock-shift")
    print(f"I = {acm_invariant(t, args.m)}  (epsilon = {t.epsilon:.6f})")
    if args.cross_check:
        try:
            print(f"Bott-oracle = {bott_index_tuple(t, args.m)}")
        except MemoryError as exc:
            # the invariant is printed; only its independent check is missing
            print(f"note: the Bott cross-check does not fit; skipped: {exc}",
                  file=sys.stderr)
    return EXIT_OK


def cmd_verify_bound(args) -> int:
    flux = FluxMatrix.from_entries(args.d, _flux_triples(args.d, args.flux))
    f = constant_flux_field(make_geometry(args.d, args.N), flux)
    rep = verify_gap_bound(f, args.m, args.kappa)
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
    raise ValueError(f"bad sweep spec {spec!r}")


def cmd_sweep(args) -> int:
    var, values = _parse_sweep(args.sweep)
    base = _flux_triples(args.d, args.flux)
    if var == "N":
        points = [(v, args.m, base) for v in values]
    elif var == "m":
        points = [(args.N, v, base) for v in values]
    else:
        # the swept (j, l) replaces each base entry on its plane, however
        # the entry spells it
        plane = var.removeprefix("flux:")
        swept = _flux_triples(args.d, [f"{plane}={v}" for v in values])
        points = [(args.N, args.m, [e for e in base if e[:2] != s[:2]] + [s])
                  for s in swept]
    rows = [_index_row(args.d, N, FluxMatrix.from_entries(args.d, triples), m, args.mode)
            for N, m, triples in points]
    _write_rows(rows, args.out)
    return EXIT_OK


def cmd_selftest(args) -> int:
    from .selftest import run_selftest

    ok = run_selftest(csv_path=args.csv)
    return EXIT_OK if ok else EXIT_SELFTEST


def build_parser() -> _Parser:
    p = _Parser(prog="wilsonindex",
                description="lattice Wilson-Dirac index computations")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--d", type=int, default=2)
        sp.add_argument("--N", type=int, default=8)
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


@contextmanager
def _memory_limit():
    """Lower the soft RLIMIT_AS (address space) to VmSize + MemAvailable,
    never raising it, and restore it after: an allocation that does not fit
    raises MemoryError, not an OOM kill.  No limit where either is unknown."""
    used = _proc_bytes("/proc/self/status", "VmSize")
    avail = _proc_bytes("/proc/meminfo", "MemAvailable")
    if used is None or avail is None:
        yield
        return
    import resource  # Unix only: imported only once /proc was read
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    limit = used + avail if soft == resource.RLIM_INFINITY else min(soft, used + avail)
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with _memory_limit():
            return args.func(args)
    except SingularOperatorError as exc:
        print(exc, file=sys.stderr)
        return EXIT_SINGULAR
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_RESOURCE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
