import struct
from dataclasses import replace

import numpy as np
import pytest

from wilsonindex import (
    FluxMatrix,
    constant_flux_field,
    direct_sum_field,
    make_geometry,
    perturb_field,
)
from wilsonindex.formats import (
    read_gauge_field,
    read_unitary_tuple,
    write_gauge_field,
    write_unitary_tuple,
)
from wilsonindex.ktheory import UnitaryTuple, clock_shift, gauge_tuple


def test_gauge_field_roundtrip(tmp_path):
    f = constant_flux_field(make_geometry(2, 4),
                            FluxMatrix.from_entries(2, [(1, 2, 1)]))
    f = perturb_field(f, 0.03, seed=9)
    path = tmp_path / "field.wgf"
    write_gauge_field(f, path)
    # the writer's comment line is fixed; the reader accepts any
    data = path.read_bytes()
    head = b"WGF1\n2 4 1\ngauge config\n"
    assert data.startswith(head)
    path.write_bytes(b"WGF1\n2 4 1\nany other comment\n" + data[len(head):])
    g = read_gauge_field(path)
    assert g.geometry == f.geometry and g.rank == f.rank
    assert np.max(np.abs(g.links - f.links)) == 0.0
    assert g.flux_sectors is None  # provenance is not serialized


def test_unitary_tuple_bytes_are_pinned(tmp_path):
    # a round trip cannot see a layout change: the file is the header, then
    # each entry's real and imaginary part as little-endian doubles, in
    # (matrix, row, column) order
    t = UnitaryTuple.from_matrices([[[0, 1j], [1, 0]], np.diag([1, 1j])])
    path = tmp_path / "pair.wut"
    write_unitary_tuple(t, path)
    payload = struct.pack("<16d", 0, 0, 0, 1, 1, 0, 0, 0,
                          1, 0, 0, 0, 0, 0, 0, 1)
    assert path.read_bytes() == b"WUT1\n2 2\nunitary tuple\n" + payload


def test_unitary_tuple_roundtrip(tmp_path):
    t = clock_shift(6)
    path = tmp_path / "pair.wut"
    write_unitary_tuple(t, path)
    back = read_unitary_tuple(path)
    assert back.d == 2 and back.n == 6
    for a, b in zip(back.unitaries, t.unitaries):
        assert np.max(np.abs(a - b)) == 0.0
    assert abs(back.epsilon - t.epsilon) < 1e-15


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk"
    path.write_bytes(b"NOPE\n2 4 1\nc\n")
    with pytest.raises(ValueError, match="WGF1"):
        read_gauge_field(path)
    with pytest.raises(ValueError, match="WUT1"):
        read_unitary_tuple(path)


@pytest.mark.parametrize("magic, header, field", [
    (b"WUT1", b"0 4", "d"), (b"WUT1", b"2 0", "n"), (b"WUT1", b"-1 3", "d"),
    (b"WGF1", b"0 4 1", "d"), (b"WGF1", b"2 4 0", "rank"),
])
def test_nonpositive_header_fields_rejected(tmp_path, magic, header, field):
    path = tmp_path / "bad"
    path.write_bytes(magic + b"\n" + header + b"\nc\n")
    read = read_unitary_tuple if magic == b"WUT1" else read_gauge_field
    with pytest.raises(ValueError, match=f"{field} = "):
        read(path)


@pytest.mark.parametrize("magic, header", [
    (b"WUT1", b"2"), (b"WUT1", b"2 x"), (b"WUT1", b"2 4 9"),
    (b"WGF1", b"2 4"), (b"WGF1", b"2 4 1.5"), (b"WGF1", b"2 4 1 1"),
])
def test_malformed_header_line_rejected(tmp_path, magic, header):
    # a wrong field count or a non-integer field, not Python's own message
    path = tmp_path / "bad"
    path.write_bytes(magic + b"\n" + header + b"\nc\n")
    read = read_unitary_tuple if magic == b"WUT1" else read_gauge_field
    with pytest.raises(ValueError, match="^bad header: expected the integers"):
        read(path)


def test_empty_tuple_rejected():
    with pytest.raises(ValueError, match="at least one"):
        UnitaryTuple.from_matrices([])


def test_truncated_payload_rejected(tmp_path):
    f = constant_flux_field(make_geometry(2, 4),
                            FluxMatrix.from_entries(2, [(1, 2, 1)]))
    path = tmp_path / "field.wgf"
    write_gauge_field(f, path)
    data = path.read_bytes()
    path.write_bytes(data[:-16])
    with pytest.raises(ValueError, match="payload size mismatch"):
        read_gauge_field(path)


# a nan entry makes the unitarity defect nan, which no bound may pass
def test_nonunitary_links_rejected(tmp_path):
    f = constant_flux_field(make_geometry(2, 4),
                            FluxMatrix.from_entries(2, [(1, 2, 1)]))
    good = f.links
    for scale in (1.5, np.nan):
        bad = np.array(good, copy=True)
        bad[0, 0, 0, 0] *= scale
        object.__setattr__(f, "links", bad)
        path = tmp_path / "field.wgf"
        write_gauge_field(f, path)
        with pytest.raises(ValueError, match="link matrices failed unitarity"):
            read_gauge_field(path)


def test_nonunitary_tuple_rejected(tmp_path):
    t = clock_shift(6)
    for scale in (1.5, np.nan):
        bad = np.array(t.unitaries)
        bad[0, 0, 0] *= scale
        path = tmp_path / "pair.wut"
        write_unitary_tuple(replace(t, unitaries=tuple(bad)), path)
        with pytest.raises(ValueError, match="tuple entries must be unitary"):
            read_unitary_tuple(path)



def test_payload_one_entry_too_long_rejected(tmp_path):
    path = tmp_path / "pair.wut"
    write_unitary_tuple(clock_shift(6), path)
    path.write_bytes(path.read_bytes() + struct.pack("<2d", 0, 0))
    with pytest.raises(ValueError, match="payload size mismatch: got 146 doubles, expected 144"):
        read_unitary_tuple(path)


def test_wrapped_payload_size_rejected(tmp_path):
    # 2 * 2**32 * 2**32 entries wrap to 0 in int64, which an empty payload
    # would match; the size is a Python int
    path = tmp_path / "huge.wut"
    path.write_bytes(b"WUT1\n2 4294967296\n")
    with pytest.raises(ValueError, match="payload size mismatch"):
        read_unitary_tuple(path)


@pytest.mark.parametrize("magic, header", [(b"WUT1", b"2 4096"), (b"WGF1", b"4 32 2")])
def test_size_checked_before_the_payload_is_read(tmp_path, headroom, magic, header):
    # 512 and 256 MiB of payload promised, 16 bytes given: no array is made
    path = tmp_path / "short"
    path.write_bytes(magic + b"\n" + header + b"\nc\n" + bytes(16))
    read = read_unitary_tuple if magic == b"WUT1" else read_gauge_field
    with headroom(64), pytest.raises(ValueError, match="payload size mismatch"):
        read(path)


def test_tuple_goes_straight_between_file_and_array(tmp_path, traced_peak):
    # the d=4 N=5 gauge tuple is 4 x 625 x 625 complex128, 23.8 MiB: the
    # writer holds no copy of it, and the reader holds it once plus the
    # unitarity check of one entry (12 MiB)
    t = gauge_tuple(constant_flux_field(
        make_geometry(4, 5), FluxMatrix.from_entries(4, [(1, 2, 1), (3, 4, 1)])))
    path = tmp_path / "d4.wut"
    with traced_peak() as peak:
        write_unitary_tuple(t, path)
    assert peak.bytes < 2 ** 20
    with traced_peak() as peak:
        back = read_unitary_tuple(path)
    assert peak.bytes < 36 * 2 ** 20
    assert all(np.array_equal(a, b) for a, b in zip(back.unitaries, t.unitaries))


def test_field_read_checks_one_direction_at_a_time(tmp_path, traced_peak):
    # a rank-2 d=4 N=12 field is 12^4 x 4 x 2 x 2 complex128, 5.1 MiB: the
    # reader holds it once plus the unitarity check of one direction's links
    K = constant_flux_field(make_geometry(4, 12),
                            FluxMatrix.from_entries(4, [(1, 2, 1), (3, 4, 1)]))
    f = perturb_field(direct_sum_field(K, K), 0.05, 3)
    path = tmp_path / "d4.wgf"
    write_gauge_field(f, path)
    with traced_peak() as peak:
        back = read_gauge_field(path)
    assert peak.bytes <= 9 * 2 ** 20
    assert np.array_equal(back.links, f.links)
