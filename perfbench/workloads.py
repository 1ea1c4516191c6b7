"""The benchmark's workloads.

Closed loop: one process per run, one operation at a time, no other load.
A pass is one instance of a workload's pipeline, a fixed list of
operations; a run repeats passes until its time is up (at least one).
Every input comes from the run's seed, and every operation goes through
an independent check from checks.py.  Thread variables (WILSON_THREADS,
OMP/OpenBLAS/MKL) are left as the user has them and are recorded.

Why each workload exists, which layer it stresses and which it bypasses:

index-d4
    `lattice_index` on a constant-flux d=4, N=6 field (dim 5184) with
    K = k12 e12 + k34 e34, m = 1, cutoff mode.  It is the only workload
    on the factorization path (dim > ktheory._DENSE_LIMIT = 4096):
    Bunch-Kaufman `sla.ldl` on the densified operator, then the ARPACK
    shift-invert gap.  `spectral` does about 95% of the work; `gauge`
    (one curvature estimate) and `wilson` (one assembly) almost none.
    A pass is two such calls, with the signs of (k12, k34) = (+-1, +-2)
    in seeded order.  The magnitudes are fixed because a run holds one
    pass, so every seed must cost the same: on the 2-core host (2, 1)
    took 7% longer than (1, 2) and (1, 1) 15% longer.  |k12| = |k34| = 2
    is excluded: its shift-invert iteration stalls, and the gap took
    311 s, longer than a run may last.
    The d=4 N=8 index is absent: its dense copy alone needs 4.3 GB, so
    it cannot run until the inertia engine stops densifying.

sweep-d2
    `wilsonindex sweep --d 2 --N 24 --sweep flux:1,2=<6 seeded values>`
    through `cli.main`, in-process.  It uses `spectral` differently from
    index-d4, through the dense hetrd + Sturm path (dim 1152), and it
    exercises the CLI's thread pool and CSV writer.  N=24 instead of 32
    so that several sweeps fit in a run and their CSVs can be compared.

symbol-acm
    `symbol_degree(4, mu, resolution=4)` for mu in a seeded order of
    {1, 3, 5}, then `acm_invariant` with the Bott cross-check on
    `clock_shift(512)` and on the `gauge_tuple` of a d=2 N=16 field with
    seeded flux, then a WUT1 write/read round trip of that tuple.  No
    lattice operator is assembled, so it is the control for `gauge`,
    `wilson` and large-`spectral` changes, and the target for batching
    the Newton iteration in `ktheory`.  resolution=4 instead of the
    default 8, which takes 30 s per degree.  Both invariants are one
    operation, so that a pass has five operations and the median latency
    falls inside one kind of operation (the mu=1 degree), not in the gap
    between the invariant and degree latencies.

fields-d4
    For a seeded pair of flux matrices at d=4, N=8: the rank-2
    `direct_sum_field` of the two bundles, `perturb_field(0.05, seed)`,
    `estimate_curvature_norm`, `gauge_transform` by a seeded random U(2)
    field and the curvature estimate again, a WGF1 write/read round trip
    and `assemble` (dim 32768).  `gauge`, `wilson` and `formats` do all
    of the work here and under 3% of it anywhere else; `spectral` does
    none.  Its gauge-invariance check fails on every pass: the program's
    plaquette multiplies links in the reverse of the documented order,
    which only matters for non-abelian links.  The failure is counted,
    not hidden, and for that reason the workload is runnable by name but
    not listed in BENCHMARK.json, whose workloads must not fail.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import checks

HERE = Path(__file__).resolve().parent


@dataclass
class Op:
    name: str
    call: Callable[[], Any]
    check: Callable[[Any], list]


def _flux(wi, d, N, entries):
    return wi.constant_flux_field(wi.make_geometry(d, N),
                                  wi.FluxMatrix.from_entries(d, entries))


# ---------------------------------------------------------------------------


class IndexD4:
    name = "index-d4"
    N = 6
    m = 1.0
    flux_pairs = ((1, 2), (1, -2), (-1, 2), (-1, -2))

    def setup(self, wi, seed, workdir):
        rng = np.random.default_rng(seed)
        refs = json.loads((HERE / "reference.json").read_text())["gap"]
        order = [self.flux_pairs[i] for i in rng.permutation(len(self.flux_pairs))]
        return {
            "inputs": [(k12, k34, _flux(wi, 4, self.N, [(1, 2, k12), (3, 4, k34)]),
                        refs[f"{k12},{k34}"]) for k12, k34 in order],
        }

    def warmup(self, wi, state):
        wi.lattice_index(_flux(wi, 2, 6, [(1, 2, 1)]), self.m)

    def ops(self, wi, state, k):
        inputs = state["inputs"]
        return [Op(f"lattice_index K=({k12},{k34})", lambda f=f: wi.lattice_index(f, self.m),
                   lambda r, k12=k12, k34=k34, ref=ref: checks.check_index(r, k12, k34, ref))
                for k12, k34, f, ref in (inputs[(2 * k + i) % len(inputs)] for i in range(2))]


class SweepD2:
    name = "sweep-d2"
    N = 24

    def setup(self, wi, seed, workdir):
        rng = np.random.default_rng(seed)
        values = [int(v) for v in rng.permutation(np.arange(-3, 4))[:6]]
        return {"values": values, "out": str(workdir / "sweep.csv"),
                "first_csv": None}

    def _argv(self, N, values, out):
        return ["sweep", "--d", "2", "--N", str(N),
                "--sweep", "flux:1,2=" + ",".join(map(str, values)), "--out", out]

    def warmup(self, wi, state):
        from wilsonindex import cli

        cli.main(self._argv(4, [1], state["out"]))

    def ops(self, wi, state, k):
        from wilsonindex import cli

        values, out = state["values"], state["out"]

        def call():
            code = cli.main(self._argv(self.N, values, out))
            with open(out) as fh:
                return code, fh.read()

        def check(result):
            code, text = result
            problems = [] if code == 0 else [f"exit code {code}"]
            problems += checks.check_sweep_csv(text, self.N, values, state["first_csv"])
            if state["first_csv"] is None:
                state["first_csv"] = text
            return problems

        return [Op("cli.main sweep", call, check)]


class SymbolAcm:
    name = "symbol-acm"
    d = 4
    resolution = 4
    m = 1.0
    clock_n = 512
    field_N = 16

    def setup(self, wi, seed, workdir):
        rng = np.random.default_rng(seed)
        mus = [float(mu) for mu in rng.permutation([1, 3, 5])]
        K = int(rng.choice([-3, -2, -1, 1, 2, 3]))
        f = _flux(wi, 2, self.field_N, [(1, 2, K)])
        cs = wi.clock_shift(self.clock_n)
        return {"mus": mus, "K": K, "field": f, "clock_shift": cs,
                "tuple": wi.gauge_tuple(f), "wut1": str(workdir / "tuple.wut1")}

    def warmup(self, wi, state):
        wi.symbol_degree(2, 1.0, resolution=4)
        wi.acm_invariant(wi.clock_shift(8), self.m)

    def ops(self, wi, state, k):
        from wilsonindex import formats

        ops = [Op(f"symbol_degree mu={mu:g}",
                  lambda mu=mu: wi.symbol_degree(self.d, mu, resolution=self.resolution),
                  lambda v, mu=mu: checks.check_degree(v, self.d, mu))
               for mu in state["mus"]]
        cs, t0 = state["clock_shift"], state["tuple"]

        def acm_both():
            t = wi.gauge_tuple(state["field"])
            return [(wi.acm_invariant(u, self.m), wi.bott_index_tuple(u, self.m)) for u in (cs, t)]

        ops.append(Op("acm + Bott on clock_shift and gauge_tuple", acm_both,
                      lambda r: checks.check_acm(r[0], cs.unitaries, self.m, None)
                      + checks.check_acm(r[1], t0.unitaries, self.m, state["K"])))

        def round_trip():
            formats.write_unitary_tuple(t0, state["wut1"])
            return formats.read_unitary_tuple(state["wut1"])

        ops.append(Op("wut1 round trip", round_trip,
                      lambda t: checks.check_round_trip(np.stack(t.unitaries),
                                                        np.stack(t0.unitaries), "WUT1")))
        return ops


class FieldsD4:
    name = "fields-d4"
    N = 8
    strength = 0.05

    def setup(self, wi, seed, workdir):
        rng = np.random.default_rng(seed)
        pairs = [tuple(int(v) for v in rng.choice([-2, -1, 1, 2], size=2)) for _ in range(2)]
        n_sites = self.N ** 4
        z = rng.standard_normal((n_sites, 2, 2)) + 1j * rng.standard_normal((n_sites, 2, 2))
        q, r = np.linalg.qr(z)
        g = q * (np.diagonal(r, axis1=1, axis2=2) / np.abs(np.diagonal(r, axis1=1, axis2=2)))[:, None, :]
        return {"pairs": pairs, "g": g, "perturb_seed": int(rng.integers(2 ** 31)),
                "wgf1": str(workdir / "field.wgf1"), "pass": {}}

    def warmup(self, wi, state):
        f = _flux(wi, 2, 4, [(1, 2, 1)])
        wi.estimate_curvature_norm(wi.perturb_field(f, self.strength, 0))

    def ops(self, wi, state, k):
        from wilsonindex import formats

        p = state["pass"]
        (a12, a34), (b12, b34) = state["pairs"]

        def build():
            f1 = _flux(wi, 4, self.N, [(1, 2, a12), (3, 4, a34)])
            f2 = _flux(wi, 4, self.N, [(1, 2, b12), (3, 4, b34)])
            p["sum"] = wi.direct_sum_field(f1, f2)
            return p["sum"]

        def perturb():
            p["field"] = wi.perturb_field(p["sum"], self.strength, state["perturb_seed"] + k)
            return p["field"]

        def curvature():
            p["curv"] = wi.estimate_curvature_norm(p["field"])
            return p["curv"]

        def transform():
            p["moved"] = wi.gauge_transform(p["field"], state["g"])
            return p["moved"]

        def round_trip():
            formats.write_gauge_field(p["field"], state["wgf1"])
            return formats.read_gauge_field(state["wgf1"])

        return [
            Op("direct_sum_field", build, _check_field(2)),
            Op("perturb_field", perturb, _check_field(2)),
            Op("estimate_curvature_norm", curvature, _check_positive),
            Op("gauge_transform", transform, _check_field(2)),
            Op("estimate_curvature_norm transformed",
               lambda: wi.estimate_curvature_norm(p["moved"]),
               lambda c: checks.check_gauge_invariance(p["curv"], c)),
            Op("wgf1 round trip", round_trip,
               lambda g: checks.check_round_trip(g.links, p["field"].links, "WGF1")),
            Op("assemble", lambda: wi.assemble(p["field"], wi.clifford_rep(4), 1.0).matrix,
               checks.check_hermitian),
        ]


def _check_field(rank):
    def check(f):
        eye = np.eye(rank)
        dev = np.max(np.abs(np.einsum("...ij,...kj->...ik", f.links, f.links.conj()) - eye))
        problems = [] if f.rank == rank else [f"rank {f.rank} != {rank}"]
        return problems + ([] if dev < 1e-10 else [f"links not unitary ({dev:.1e})"])
    return check


def _check_positive(c):
    return [] if np.isfinite(c) and c > 0 else [f"curvature estimate {c!r}"]


INDEX_D4 = IndexD4()
WORKLOADS = {w.name: w for w in (INDEX_D4, SweepD2(), SymbolAcm(), FieldsD4())}
