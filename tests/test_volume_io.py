import re

import numpy as np
import pytest

from radrep.volume_io import (EmptyMask, MissingHeaderField, NonBinaryLabel,
                              NonFiniteValue, PayloadSizeMismatch, RoiMask,
                              Structure, UnsupportedEncoding,
                              UnsupportedHeaderValue, VolumeGrid,
                              check_geometry, read_mask, read_volume,
                              write_nrrd)

from conftest import make_mask, make_volume


def write_raw(path, header_lines, payload):
    body = "\n".join(["NRRD0004"] + header_lines) + "\n\n"
    path.write_bytes(body.encode("ascii") + payload)


def float_payload(values):
    return np.asarray(values, dtype="<f4").tobytes()


def test_read_volume_hand_fixture(tmp_path):
    # 2x2x1 float volume, payload [1,2,3,4], spacings (1,1,3)
    path = tmp_path / "v.nrrd"
    write_raw(path, ["type: float", "dimension: 3", "sizes: 2 2 1",
                     "spacings: 1 1 3", "encoding: raw"],
              float_payload([1, 2, 3, 4]))
    grid = read_volume(path)
    assert grid.values.shape == (2, 2, 1)
    assert grid.spacing == (1.0, 1.0, 3.0)
    # first axis varies fastest in the payload
    assert grid.values[0, 0, 0] == 1
    assert grid.values[1, 0, 0] == 2
    assert grid.values[0, 1, 0] == 3
    assert grid.values[1, 1, 0] == 4


def test_payload_size_mismatch(tmp_path):
    path = tmp_path / "v.nrrd"
    write_raw(path, ["type: float", "dimension: 3", "sizes: 3 3 3",
                     "spacings: 1 1 1", "encoding: raw"],
              float_payload(list(range(26))))
    with pytest.raises(PayloadSizeMismatch):
        read_volume(path)


def test_space_directions_diagonal(tmp_path):
    path = tmp_path / "v.nrrd"
    write_raw(path, ["type: float", "dimension: 3", "sizes: 2 2 1",
                     "space directions: (0.5,0,0) (0,0.5,0) (0,0,3.0)",
                     "encoding: raw"],
              float_payload([1, 2, 3, 4]))
    grid = read_volume(path)
    assert grid.spacing == (0.5, 0.5, 3.0)

    # independent decode of the same fixture: parse the header with a
    # one-off regex reader and compare
    raw = path.read_bytes()
    header = raw.split(b"\n\n")[0].decode()
    vecs = re.findall(r"\(([-0-9.,e ]+)\)", header)
    diag = [abs(float(v.split(",")[i])) for i, v in enumerate(vecs)]
    assert tuple(diag) == grid.spacing
    payload = np.frombuffer(raw.split(b"\n\n", 1)[1], dtype="<f4")
    assert np.array_equal(payload, grid.values.flatten(order="F"))


def test_space_directions_non_diagonal_rejected(tmp_path):
    path = tmp_path / "v.nrrd"
    write_raw(path, ["type: float", "dimension: 3", "sizes: 2 2 1",
                     "space directions: (0.5,0.1,0) (0,0.5,0) (0,0,3.0)",
                     "encoding: raw"],
              float_payload([1, 2, 3, 4]))
    with pytest.raises(UnsupportedHeaderValue):
        read_volume(path)


def test_missing_header_fields(tmp_path):
    path = tmp_path / "v.nrrd"
    write_raw(path, ["type: float", "dimension: 3", "sizes: 2 2 1",
                     "encoding: raw"], float_payload([1, 2, 3, 4]))
    with pytest.raises(MissingHeaderField):
        read_volume(path)


def test_unsupported_encoding(tmp_path):
    path = tmp_path / "v.nrrd"
    write_raw(path, ["type: float", "dimension: 3", "sizes: 2 2 1",
                     "spacings: 1 1 1", "encoding: gzip"],
              float_payload([1, 2, 3, 4]))
    with pytest.raises(UnsupportedEncoding):
        read_volume(path)


def test_non_finite_rejected(tmp_path):
    path = tmp_path / "v.nrrd"
    write_raw(path, ["type: float", "dimension: 3", "sizes: 2 2 1",
                     "spacings: 1 1 1", "encoding: raw"],
              float_payload([1, np.nan, 3, 4]))
    with pytest.raises(NonFiniteValue):
        read_volume(path)


def test_big_endian_payload(tmp_path):
    path = tmp_path / "v.nrrd"
    payload = np.asarray([1, 2, 3, 4], dtype=">i2").tobytes()
    write_raw(path, ["type: short", "dimension: 3", "sizes: 2 2 1",
                     "spacings: 1 1 1", "encoding: raw", "endian: big"],
              payload)
    grid = read_volume(path)
    assert grid.values.flatten(order="F").tolist() == [1, 2, 3, 4]


def test_read_mask_single_voxel(tmp_path):
    path = tmp_path / "m.nrrd"
    payload = np.zeros(8, dtype="<i2")
    payload[3] = 1
    write_raw(path, ["type: short", "dimension: 3", "sizes: 2 2 2",
                     "spacings: 1 1 1", "encoding: raw"], payload.tobytes())
    mask = read_mask(path, Structure.TUMOR)
    assert mask.voxel_count == 1
    assert mask.structure is Structure.TUMOR


def test_read_mask_all_zero(tmp_path):
    path = tmp_path / "m.nrrd"
    write_raw(path, ["type: short", "dimension: 3", "sizes: 2 2 2",
                     "spacings: 1 1 1", "encoding: raw"],
              np.zeros(8, dtype="<i2").tobytes())
    with pytest.raises(EmptyMask):
        read_mask(path, Structure.TUMOR)


def test_read_mask_non_binary(tmp_path):
    path = tmp_path / "m.nrrd"
    payload = np.zeros(8, dtype="<i2")
    payload[0] = 2
    write_raw(path, ["type: short", "dimension: 3", "sizes: 2 2 2",
                     "spacings: 1 1 1", "encoding: raw"], payload.tobytes())
    with pytest.raises(NonBinaryLabel):
        read_mask(path, Structure.TUMOR)


def test_write_read_roundtrip_bit_exact(tmp_path, rng):
    values = rng.standard_normal((5, 4, 3))
    path = tmp_path / "rt.nrrd"
    write_nrrd(path, values, spacing=(0.6, 0.6, 3.0))
    grid = read_volume(path)
    assert np.array_equal(grid.values, values)
    assert grid.spacing == (0.6, 0.6, 3.0)


# a header inside the supported subset; each case edits one part of it
SUBSET_HEADER = ("NRRD0004\ntype: float\ndimension: 3\nsizes: 2 2 1\n"
                 "spacings: 1 1 3\nencoding: raw\n\n")


@pytest.mark.parametrize("old, new, error, message", [
    ("\n\n", "\n", MissingHeaderField, "no blank line terminating the header"),
    ("NRRD0004", "NRRX0004", MissingHeaderField, "missing NRRD magic line"),
    ("dimension: 3", "dimension: 2", UnsupportedHeaderValue,
     "only dimension 3 is supported"),
    ("type: float", "type: uchar", UnsupportedHeaderValue,
     "type 'uchar' not in"),
    ("type: float\n", "", MissingHeaderField,
     "header lacks required field 'type'"),
    ("sizes: 2 2 1", "sizes: 2 2", MissingHeaderField,
     "'sizes' must list 3 values"),
    ("sizes: 2 2 1", "sizes: 2 0 1", UnsupportedHeaderValue,
     "sizes must be positive"),
    ("spacings: 1 1 3", "spacings: 1 1", MissingHeaderField,
     "'spacings' must list 3 values"),
    ("spacings: 1 1 3", "spacings: 1 0 3", UnsupportedHeaderValue,
     "spacing components must be > 0"),
    ("spacings: 1 1 3", "space directions: (1,0,0) (0,1,0)",
     MissingHeaderField, "'space directions' must list 3 3-vectors"),
    ("encoding: raw", "encoding: raw\nendian: middle", UnsupportedHeaderValue,
     "unknown endian 'middle'"),
], ids=["no-blank-line", "no-magic", "dimension-2", "type-uchar", "no-type",
        "two-sizes", "zero-size", "two-spacings", "zero-spacing",
        "two-space-directions", "endian-middle"])
def test_read_volume_refuses_a_header_outside_the_subset(tmp_path, old, new,
                                                         error, message):
    path = tmp_path / "v.nrrd"
    payload = float_payload([1, 2, 3, 4])
    path.write_bytes(SUBSET_HEADER.encode("ascii") + payload)
    assert read_volume(path).values.shape == (2, 2, 1)
    path.write_bytes(SUBSET_HEADER.replace(old, new, 1).encode("ascii")
                     + payload)
    with pytest.raises(error, match=re.escape(message)):
        read_volume(path)


@pytest.mark.parametrize("shape, dtype, message", [
    ((2, 2), "double", "values must be a 3D array"),
    ((2, 2, 2), "uchar", "dtype must be one of"),
], ids=["2D-array", "unknown-dtype"])
def test_write_nrrd_refuses_what_it_cannot_write(tmp_path, shape, dtype,
                                                 message):
    path = tmp_path / "v.nrrd"
    with pytest.raises(ValueError, match=message):
        write_nrrd(path, np.ones(shape), (1, 1, 1), dtype=dtype)
    assert not path.exists()


def test_malformed_space_origin_is_refused(tmp_path):
    path = tmp_path / "v.nrrd"
    write_raw(path, ["type: float", "dimension: 3", "sizes: 2 2 1",
                     "spacings: 1 1 3", "encoding: raw", "space origin: (1,2"],
              float_payload([1, 2, 3, 4]))
    with pytest.raises(MissingHeaderField, match="malformed vector"):
        read_volume(path)


def test_two_reads_identical(tmp_path, rng):
    values = rng.standard_normal((4, 4, 2))
    path = tmp_path / "v.nrrd"
    write_nrrd(path, values, spacing=(1, 1, 1))
    a = read_volume(path)
    b = read_volume(path)
    assert np.array_equal(a.values, b.values)


def test_loaded_grid_is_immutable(tmp_path):
    path = tmp_path / "v.nrrd"
    write_nrrd(path, np.ones((2, 2, 2)), spacing=(1, 1, 1))
    grid = read_volume(path)
    with pytest.raises(ValueError):
        grid.values[0, 0, 0] = 5


def test_check_geometry():
    vol = make_volume(np.zeros((4, 4, 2)), spacing=(1, 1, 3))
    assert check_geometry(vol, make_mask(np.ones((4, 4, 2)), spacing=(1, 1, 3)))
    assert check_geometry(
        vol, make_mask(np.ones((4, 4, 2)), spacing=(1, 1, 3.000000001)))
    assert not check_geometry(
        vol, make_mask(np.ones((4, 4, 3)), spacing=(1, 1, 3)))
    assert not check_geometry(
        vol, make_mask(np.ones((4, 4, 2)), spacing=(1, 1.1, 3)))


def test_check_geometry_symmetric():
    vol_a = make_volume(np.zeros((2, 2, 2)), spacing=(1, 1, 2.9999999))
    vol_b = make_volume(np.zeros((2, 2, 2)), spacing=(1, 1, 3.0))
    mask_a = make_mask(np.ones((2, 2, 2)), spacing=(1, 1, 2.9999999))
    mask_b = make_mask(np.ones((2, 2, 2)), spacing=(1, 1, 3.0))
    assert check_geometry(vol_a, mask_b) == check_geometry(vol_b, mask_a)


def test_volume_grid_rejects_bad_shapes():
    for values in (np.zeros((2, 2)), np.zeros((2, 2, 2, 1)), np.zeros((2, 0, 2))):
        with pytest.raises(ValueError, match="3D array with no empty axis"):
            VolumeGrid(spacing=(1, 1, 1), values=values)
    with pytest.raises(ValueError):
        VolumeGrid(spacing=(1, 0, 1), values=np.zeros((2, 2, 2)))
    with pytest.raises(EmptyMask):
        RoiMask(spacing=(1, 1, 1), labels=np.zeros((2, 2, 2), dtype=np.uint8),
                structure=Structure.TUMOR)
