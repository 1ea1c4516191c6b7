"""On-disk formats.

WGF1 (gauge config): three ASCII header lines

    WGF1
    <d> <N> <rank>
    <one free-form comment line>

followed by a binary payload of little-endian IEEE-754 doubles: links in
(site lexicographic, direction, row-major matrix entry) order, each complex
entry stored as real then imaginary part.  Readers validate unitarity of
every link to 1e-8 and reject the file otherwise.

WUT1 (unitary tuple): same layout with header "WUT1" and "<d> <n>", and
the payload holding d matrices of size n x n.

The writers write a fixed comment line ("gauge config", "unitary tuple")
and the readers accept any.  A bad header is a dimension line that is not
the expected integers, or a d, rank or n below 1.

Random link perturbations elsewhere in the package use numpy's
default_rng (PCG64) so that seeded configurations are reproducible.
"""

from __future__ import annotations

import numpy as np

from .gauge import GaugeField, _unitarity_defect, make_geometry
from .ktheory import UnitaryTuple

_UNITARITY_TOL = 1e-8


# the payload is exactly little-endian complex128: real then imaginary part
def _encode(mats: np.ndarray) -> bytes:
    return np.ascontiguousarray(mats, dtype="<c16").tobytes()


def _decode(payload: bytes, shape) -> np.ndarray:
    expected = 2 * int(np.prod(shape))
    if len(payload) != 8 * expected:
        raise ValueError(f"payload size mismatch: got {len(payload) // 8} "
                         f"doubles, expected {expected}")
    return np.frombuffer(payload, "<c16").astype(complex).reshape(shape)


def _check_positive(**fields) -> None:
    for name, value in fields.items():
        if value < 1:
            raise ValueError(f"bad header: {name} = {value} must be >= 1")


def _write(path, header: str, mats: np.ndarray) -> None:
    with open(path, "wb") as fh:
        fh.write(header.encode())
        fh.write(_encode(mats))


def _read(path, magic: bytes, names):
    """The header integers, one per name, and the payload of a `magic` file."""
    with open(path, "rb") as fh:
        if fh.readline().strip() != magic:
            raise ValueError(f"not a {magic.decode()} file")
        try:
            dims = tuple(map(int, fh.readline().split()))
        except ValueError:
            dims = ()
        if len(dims) != len(names):
            raise ValueError(f"bad header: expected the integers {' '.join(names)}")
        fh.readline()  # comment
        return dims, fh.read()


def write_gauge_field(f: GaugeField, path) -> None:
    g = f.geometry
    _write(path, f"WGF1\n{g.d} {g.N} {f.rank}\ngauge config\n", f.links)


def read_gauge_field(path) -> GaugeField:
    (d, N, rank), payload = _read(path, b"WGF1", ("d", "N", "rank"))
    _check_positive(d=d, rank=rank)
    geom = make_geometry(d, N)
    links = _decode(payload, (geom.n_sites, d, rank, rank))
    # not >, so a nan entry is rejected too
    if not _unitarity_defect(links) <= _UNITARITY_TOL:
        raise ValueError("link matrices failed unitarity validation")
    return GaugeField(geom, rank, links, None)


def write_unitary_tuple(t: UnitaryTuple, path) -> None:
    _write(path, f"WUT1\n{t.d} {t.n}\nunitary tuple\n", np.stack(t.unitaries))


def read_unitary_tuple(path) -> UnitaryTuple:
    (d, n), payload = _read(path, b"WUT1", ("d", "n"))
    _check_positive(d=d, n=n)
    return UnitaryTuple.from_matrices(list(_decode(payload, (d, n, n))), utol=_UNITARITY_TOL)
