"""On-disk formats.

WGF1 (gauge config): three ASCII header lines

    WGF1
    <d> <N> <rank>
    <one free-form comment line>

followed by a binary payload of little-endian IEEE-754 doubles: links in
(site lexicographic, direction, row-major matrix entry) order, each complex
entry stored as real then imaginary part.  Readers check unitarity to the
format's 1e-8, one direction's links or one tuple entry at a time, and
reject the file otherwise; `from_matrices` checks in-memory tuples to 1e-12.

WUT1 (unitary tuple): same layout with header "WUT1" and "<d> <n>", and
the payload holding d matrices of size n x n.

The writers write a fixed comment line ("gauge config", "unitary tuple")
and the readers accept any.  A bad header is a dimension line that is not
the expected integers, or a d, rank or n below 1.

The payload goes straight between file and array, with no bytes copy: the
writers `tofile` each array, and the readers check the size the header
promises against the bytes left in the file before they read one payload
byte.  That size comes from `fstat`, so inputs must be regular files.

Random link perturbations elsewhere in the package use numpy's
default_rng (PCG64) so that seeded configurations are reproducible.
"""

from __future__ import annotations

import math
import os

import numpy as np

from .gauge import GaugeField, _unitarity_defect, make_geometry
from .ktheory import UnitaryTuple

_UNITARITY_TOL = 1e-8
# the payload is exactly little-endian complex128: real then imaginary part
_ENTRY = np.dtype("<c16")


def _write(path, header: str, mats) -> None:
    with open(path, "wb") as fh:
        fh.write(header.encode())
        for m in mats:
            np.asarray(m, _ENTRY).tofile(fh)


def _read(path, magic: bytes, names, payload_shape):
    """The header integers, one per name, and the payload of a `magic` file
    as an array of shape `payload_shape(*integers)`; `make_geometry` checks N."""
    with open(path, "rb") as fh:
        if fh.readline().strip() != magic:
            raise ValueError(f"not a {magic.decode()} file")
        try:
            dims = tuple(map(int, fh.readline().split()))
        except ValueError:
            dims = ()
        if len(dims) != len(names):
            raise ValueError(f"bad header: expected the integers {' '.join(names)}")
        for name, value in zip(names, dims):
            if name != "N" and value < 1:
                raise ValueError(f"bad header: {name} = {value} must be >= 1")
        fh.readline()  # comment
        shape = payload_shape(*dims)
        # Python ints, so a huge header cannot wrap around
        expected, left = math.prod(shape), os.fstat(fh.fileno()).st_size - fh.tell()
        if left != _ENTRY.itemsize * expected:
            raise ValueError(f"payload size mismatch: got {left // 8} "
                             f"doubles, expected {2 * expected}")
        return dims, np.fromfile(fh, _ENTRY, expected).reshape(shape)


def write_gauge_field(f: GaugeField, path) -> None:
    g = f.geometry
    _write(path, f"WGF1\n{g.d} {g.N} {f.rank}\ngauge config\n", [f.links])


def read_gauge_field(path) -> GaugeField:
    (d, N, rank), links = _read(path, b"WGF1", ("d", "N", "rank"), lambda d, N, rank:
                                (make_geometry(d, N).n_sites, d, rank, rank))
    # not >, so a nan entry is rejected too
    if not _unitarity_defect(links.swapaxes(0, 1)) <= _UNITARITY_TOL:
        raise ValueError("link matrices failed unitarity validation")
    return GaugeField(make_geometry(d, N), rank, links, None)


def write_unitary_tuple(t: UnitaryTuple, path) -> None:
    _write(path, f"WUT1\n{t.d} {t.n}\nunitary tuple\n", t.unitaries)


def read_unitary_tuple(path) -> UnitaryTuple:
    _, mats = _read(path, b"WUT1", ("d", "n"), lambda d, n: (d, n, n))
    if not _unitarity_defect(mats) <= _UNITARITY_TOL:
        raise ValueError("tuple entries must be unitary")
    return UnitaryTuple(tuple(mats))
