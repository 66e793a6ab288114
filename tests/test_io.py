import gzip
import json
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import lesionwise.io
from lesionwise import (
    BinaryMask,
    LogitVolume,
    Spacing,
    VolumeFormatError,
    read_mask,
    read_volume,
    write_volume,
)
from lesionwise.cli import EXIT_IO, main
from oracles import mk_logits, mk_mask, traced_peak


def _nifti_bytes(shape, pixdim, datatype, data, endian="<", magic=b"n+1\x00",
                 vox_offset=352.0):
    """Hand-assembled NIfTI-1 bytes; independent of the package writer."""
    bitpix = {2: 8, 4: 16, 16: 32}[datatype]
    hdr = bytearray(352)
    struct.pack_into(endian + "i", hdr, 0, 348)
    struct.pack_into(endian + "8h", hdr, 40, 3, *shape, 1, 1, 1, 1)
    struct.pack_into(endian + "2h", hdr, 70, datatype, bitpix)
    struct.pack_into(endian + "8f", hdr, 76, 1.0, *pixdim, 0.0, 0.0, 0.0, 0.0)
    struct.pack_into(endian + "f", hdr, 108, vox_offset)
    struct.pack_into("4s", hdr, 344, magic)
    return bytes(hdr) + data


def test_raw_u8_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    mask = mk_mask(rng.random((5, 4, 3)) > 0.5, Spacing(0.7, 1.1, 2.3))
    path = tmp_path / "m.raw"
    write_volume(mask, path)
    back = read_volume(path)
    assert isinstance(back, BinaryMask)
    assert np.array_equal(back.voxels, mask.voxels)
    assert back.spacing == mask.spacing


def test_raw_tiny_ones_volume(tmp_path):
    mask = mk_mask(np.ones((2, 2, 2)))
    path = tmp_path / "ones.raw"
    write_volume(mask, path)
    back = read_volume(path)
    assert back.foreground_count == 8


def test_raw_f32_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(7)
    values = rng.normal(0, 10, size=(5, 4, 3)).astype(np.float32)
    vol = mk_logits(values.astype(np.float64), Spacing(0.5, 0.5, 2.0))
    path = tmp_path / "l.raw"
    write_volume(vol, path)
    back = read_volume(path)
    assert isinstance(back, LogitVolume)
    assert np.array_equal(back.voxels, vol.voxels)
    write_volume(back, tmp_path / "l2.raw")
    assert (tmp_path / "l2.raw").read_bytes() == path.read_bytes()


def test_raw_on_disk_order_is_x_fastest(tmp_path):
    nx, ny, nz = 2, 3, 2
    arr = np.zeros((nx, ny, nz), dtype=np.float64)
    for x in range(nx):
        for y in range(ny):
            for z in range(nz):
                arr[x, y, z] = x + 10 * y + 100 * z
    path = tmp_path / "order.raw"
    write_volume(mk_logits(arr), path)
    flat = np.frombuffer(path.read_bytes(), dtype="<f4")
    expected = [x + 10 * y + 100 * z
                for z in range(nz) for y in range(ny) for x in range(nx)]
    assert flat.tolist() == expected
    header = json.loads((tmp_path / "order.raw.json").read_text())
    assert header["order"] == "x-fastest"
    assert header["shape"] == [nx, ny, nz]


def test_raw_errors(tmp_path):
    path = tmp_path / "x.raw"
    path.write_bytes(b"\x00" * 8)
    with pytest.raises(VolumeFormatError, match="sidecar"):
        read_volume(path)

    sidecar = tmp_path / "x.raw.json"
    sidecar.write_text("{not json")
    with pytest.raises(VolumeFormatError, match="malformed"):
        read_volume(path)

    sidecar.write_text(json.dumps({
        "shape": [2, 2, 2], "spacing": [1, 1, 1], "dtype": "u16", "order": "x-fastest"
    }))
    with pytest.raises(VolumeFormatError, match="dtype"):
        read_volume(path)

    sidecar.write_text(json.dumps({
        "shape": [2, 2, 2], "spacing": [1, 1, 1], "dtype": "u8", "order": "z-fastest"
    }))
    with pytest.raises(VolumeFormatError, match="order"):
        read_volume(path)

    sidecar.write_text(json.dumps({
        "shape": [3, 3, 3], "spacing": [1, 1, 1], "dtype": "u8", "order": "x-fastest"
    }))
    with pytest.raises(VolumeFormatError, match="expected 27 bytes"):
        read_volume(path)

    sidecar.write_text(json.dumps({
        "shape": [2, 2, 2], "spacing": [0, 1, 1], "dtype": "u8", "order": "x-fastest"
    }))
    with pytest.raises(VolumeFormatError):
        read_volume(path)

    # each entry valid, but the voxel volume overflows or underflows
    for spacing in ([1e200, 1e200, 1.0], [1e-200, 1e-200, 1.0]):
        sidecar.write_text(json.dumps({
            "shape": [2, 2, 2], "spacing": spacing, "dtype": "u8", "order": "x-fastest"
        }))
        with pytest.raises(VolumeFormatError, match=r"x\.raw: voxel volume"):
            read_mask(path)

    # a float or a bool is not an extent, though int() would take it
    for shape in ([2, "x", 2], [2.5, 2, 2], [True, 8, 1]):
        sidecar.write_text(json.dumps({
            "shape": shape, "spacing": [1, 1, 1], "dtype": "u8", "order": "x-fastest"
        }))
        with pytest.raises(VolumeFormatError, match="3 ints"):
            read_volume(path)

    sidecar.write_text(json.dumps({
        "shape": [2, -2, 2], "spacing": [1, 1, 1], "dtype": "u8", "order": "x-fastest"
    }))
    with pytest.raises(VolumeFormatError, match="non-positive"):
        read_volume(path)


def test_raw_size_is_checked_before_the_file_is_read(tmp_path):
    path = tmp_path / "big.raw"
    with path.open("wb") as fh:
        fh.truncate(16 << 20)  # 16 MiB of zeros, sparse on disk
    path.with_name("big.raw.json").write_text(json.dumps({
        "shape": [4, 4, 4], "spacing": [1, 1, 1], "dtype": "u8", "order": "x-fastest"
    }))
    match = rf"expected 64 bytes for shape \[4, 4, 4\] dtype u8, found {16 << 20}$"
    assert _peak_of_rejected_read(path, match) < 1 << 20


def _peak_of_rejected_read(path, match) -> int:
    """Traced peak bytes of a ``read_volume`` that raises ``VolumeFormatError``."""
    tracemalloc.start()
    try:
        with pytest.raises(VolumeFormatError, match=match):
            read_volume(path)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("header, match", [
    pytest.param(struct.pack("<i", 347), "bad sizeof_hdr at byte offset 0", id="sizeof_hdr"),
    pytest.param(_nifti_bytes((512, 512, 64), (1, 1, 1), 16, b""),  # 64 MiB of f32
                 rf"data truncated, need {64 << 20} bytes at offset 352, "
                 rf"file holds {(16 << 20) - 352}$", id="short-data"),
])
def test_nifti_header_is_checked_before_the_data_is_read(tmp_path, header, match):
    path = tmp_path / "big.nii"
    with path.open("wb") as fh:
        fh.write(header)
        fh.truncate(16 << 20)  # 16 MiB in all, sparse on disk
    assert _peak_of_rejected_read(path, match) < 1 << 20


@pytest.mark.parametrize("name", ["x.raw", "x.nii", "x.nii.gz"])
def test_writer_rejects_a_non_volume(tmp_path, name):
    with pytest.raises(TypeError, match="cannot write volume of type ndarray"):
        write_volume(np.zeros((2, 2, 2), dtype=bool), tmp_path / name)
    assert not (tmp_path / name).exists()


@pytest.mark.parametrize("name", ["x.raw", "x.nii", "x.nii.gz"])
def test_writer_refuses_logits_beyond_float32_and_writes_nothing(tmp_path, name):
    arr = np.zeros((2, 2, 2))
    arr[1, 0, 1] = -1e300
    with pytest.raises(ValueError, match=f"{name}: values beyond the float32 range"):
        write_volume(mk_logits(arr), tmp_path / name)
    assert list(tmp_path.iterdir()) == []


def test_read_mask_treats_any_nonzero_as_foreground(tmp_path):
    arr = np.zeros((2, 2, 2))
    arr[0, 0, 0] = 3.5
    arr[1, 1, 1] = -2.0
    path = tmp_path / "soft.raw"
    write_volume(mk_logits(arr), path)
    mask = read_mask(path)
    assert mask.foreground_count == 2

    # Every stored dtype and byte order: the mask is data != 0, so -0.0 is
    # background and a subnormal, 255 and a negative int16 are foreground;
    # and it is read_volume's volume cast, bit for bit and at its spacing.
    sub = np.finfo(np.float32).smallest_subnormal
    floats = [0.0, -0.0, sub, -sub, 1.0, -0.0, 0.0, -3.5]
    ints = [255, 0, 0, 1, 0, 0, 1, 255]
    stored = {
        "u8.raw": np.array([0, 1, 255, 0, 1, 0, 255, 0], dtype="<u1"),
        "f32.raw": np.array(floats, dtype="<f4"),
        "u8.nii": np.array(ints, dtype="u1"),
        "i2.nii": np.array([0, -1, -32768, 0, 32767, 0, 256, 0], dtype="<i2"),
        "i2_be.nii": np.array([0, -1, -32768, 0, 32767, 0, 256, 1], dtype=">i2"),
        "f32_be.nii": np.array(floats, dtype=">f4"),
        "u8.nii.gz": np.array(ints[::-1], dtype="u1"),
        "f32.nii.gz": np.array(floats[::-1], dtype="<f4"),
    }
    spacing = (0.5, 1.25, 3.0)
    for name, data in stored.items():
        path = tmp_path / name
        _write_stored(path, data, (2, 2, 2), spacing)
        mask, vol = read_mask(path), read_volume(path)
        assert np.array_equal(mask.voxels, data.reshape((2, 2, 2), order="F") != 0), name
        assert mask.voxels.tobytes(order="F") == (vol.voxels != 0).tobytes(order="F"), name
        assert mask.spacing == vol.spacing == Spacing(*spacing), name


def _write_stored(path, data, shape, spacing):
    """Write the x-fastest values ``data`` as they are stored: a raw file
    for a .raw name, else NIfTI in ``data``'s byte order, gzipped for .gz."""
    if path.name.endswith(".raw"):
        path.with_name(path.name + ".json").write_text(json.dumps({
            "shape": list(shape), "spacing": list(spacing),
            "dtype": "u8" if data.dtype.kind == "u" else "f32", "order": "x-fastest",
        }))
        path.write_bytes(data.tobytes())
        return
    endian = ">" if data.dtype.byteorder == ">" else "<"
    code = {"u1": 2, "i2": 4, "f4": 16}[data.dtype.str[1:]]
    blob = _nifti_bytes(shape, spacing, code, data.tobytes(), endian=endian)
    path.write_bytes(gzip.compress(blob) if path.name.endswith(".gz") else blob)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_read_mask_rejects_non_finite_raw_f32(tmp_path, bad):
    data = np.zeros(8, dtype="<f4")
    data[3] = bad
    path = tmp_path / "nan.raw"
    path.write_bytes(data.tobytes())
    path.with_name("nan.raw.json").write_text(json.dumps({
        "shape": [2, 2, 2], "spacing": [1, 1, 1], "dtype": "f32", "order": "x-fastest"
    }))
    for read in (read_volume, read_mask):
        with pytest.raises(VolumeFormatError, match="NaN or Inf") as err:
            read(path)
        assert str(path) in str(err.value)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_read_mask_rejects_non_finite_nifti_f32(tmp_path, bad):
    data = np.zeros(8, dtype="<f4")
    data[5] = bad
    path = tmp_path / "nan.nii"
    path.write_bytes(_nifti_bytes((2, 2, 2), (1.0, 1.0, 1.0), 16, data.tobytes()))
    for read in (read_volume, read_mask):
        with pytest.raises(VolumeFormatError, match="NaN or Inf") as err:
            read(path)
        assert str(path) in str(err.value)


def test_volume_paths_are_nifti_by_name_and_raw_by_sidecar(tmp_path):
    mask = mk_mask(np.ones((2, 2, 2)))
    for name in ("b.raw", "a.nii", "C.NII.GZ", "d.Nii", "e.bin"):
        write_volume(mask, tmp_path / name)
    (tmp_path / "stray.json").write_text("{}")
    (tmp_path / "f.json").write_text("{}")  # a sidecar's name, yet not a volume
    (tmp_path / "f.json.json").write_text("{}")
    (tmp_path / "orphan.raw").write_bytes(bytes(8))  # no sidecar
    (tmp_path / "notes.txt").write_text("x")
    paths = lesionwise.io._volume_paths(tmp_path)
    assert [p.name for p in paths] == ["C.NII.GZ", "a.nii", "b.raw", "d.Nii", "e.bin"]
    assert all(read_mask(p).foreground_count == 8 for p in paths)


def test_nifti_hand_crafted_header(tmp_path):
    # pixdim (0.5, 0.5, 2.0) must surface as the volume spacing
    data = np.zeros((2, 4, 3), dtype=np.uint8)
    data[0, 0, 0] = 1
    data[1, 3, 2] = 7  # nonzero -> foreground
    blob = _nifti_bytes((2, 4, 3), (0.5, 0.5, 2.0), 2, data.tobytes(order="F"))
    path = tmp_path / "t.nii"
    path.write_bytes(blob)
    vol = read_volume(path)
    assert isinstance(vol, BinaryMask)
    assert vol.spacing == Spacing(0.5, 0.5, 2.0)
    assert vol.foreground_count == 2
    assert vol.voxels[0, 0, 0] and vol.voxels[1, 3, 2]


def test_nifti_gzipped(tmp_path):
    data = np.arange(8, dtype=np.int16).reshape(2, 2, 2, order="F")
    blob = _nifti_bytes((2, 2, 2), (1.0, 1.0, 1.0), 4, data.tobytes(order="F"))
    path = tmp_path / "t.nii.gz"
    path.write_bytes(gzip.compress(blob))
    vol = read_volume(path)
    assert isinstance(vol, BinaryMask)  # int16 loads as a mask
    assert vol.foreground_count == 7  # value 0 stays background


def test_nifti_float32_loads_as_logits(tmp_path):
    data = np.linspace(-1, 1, 8, dtype=np.float32)
    blob = _nifti_bytes((2, 2, 2), (1.0, 1.0, 1.0), 16, data.tobytes())
    path = tmp_path / "f.nii"
    path.write_bytes(blob)
    vol = read_volume(path)
    assert isinstance(vol, LogitVolume)
    np.testing.assert_array_equal(
        vol.voxels.ravel(order="F"), data.astype(np.float64)
    )


def test_nifti_big_endian(tmp_path):
    data = np.ones((2, 2, 2), dtype=">i2")
    blob = _nifti_bytes((2, 2, 2), (1.0, 1.0, 1.0), 4, data.tobytes(order="F"),
                        endian=">")
    path = tmp_path / "be.nii"
    path.write_bytes(blob)
    vol = read_volume(path)
    assert vol.foreground_count == 8


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda b: b[:300], "truncated at byte 300"),
        (lambda b: b"\xff" * 4 + b[4:], "byte offset 0"),
        (lambda b: b[:344] + b"abcd" + b[348:], "byte offset 344"),
        (lambda b: b[:344] + b"ni1\x00" + b[348:], "two-file"),
        (lambda b: b[:40] + struct.pack("<h", 8) + b[42:], r"dim\[0\]=8 at byte offset 40"),
        (lambda b: b[:42] + struct.pack("<h", 0) + b[44:], "non-positive dimension"),
        (lambda b: b[:44] + struct.pack("<h", -2) + b[46:], "non-positive dimension in dim"),
        (lambda b: b[:72] + struct.pack("<h", 16) + b[74:], "bitpix 16 inconsistent"),
        (lambda b: b[:84] + struct.pack("<f", 0.0) + b[88:], "sy must be positive"),
        (lambda b: b[:88] + struct.pack("<f", float("nan")) + b[92:],
         "bad pixdim at byte offset 76"),
    ],
)
def test_nifti_malformed_headers(tmp_path, mutate, message):
    data = np.zeros((2, 2, 2), dtype=np.uint8)
    blob = _nifti_bytes((2, 2, 2), (1.0, 1.0, 1.0), 2, data.tobytes())
    path = tmp_path / "bad.nii"
    path.write_bytes(mutate(blob))
    with pytest.raises(VolumeFormatError, match=message):
        read_volume(path)


def test_nifti_unsupported_datatype(tmp_path):
    blob = bytearray(_nifti_bytes((2, 2, 2), (1, 1, 1), 2,
                                  np.zeros(8, dtype=np.uint8).tobytes()))
    struct.pack_into("<2h", blob, 70, 64, 64)  # float64: unsupported
    path = tmp_path / "dt.nii"
    path.write_bytes(bytes(blob))
    with pytest.raises(VolumeFormatError, match="datatype code 64"):
        read_volume(path)


def test_nifti_rejects_4d(tmp_path):
    data = np.zeros(16, dtype=np.uint8)
    blob = bytearray(_nifti_bytes((2, 2, 2), (1, 1, 1), 2, data.tobytes()))
    struct.pack_into("<8h", blob, 40, 4, 2, 2, 2, 2, 1, 1, 1)
    path = tmp_path / "4d.nii"
    path.write_bytes(bytes(blob))
    with pytest.raises(VolumeFormatError, match="3D"):
        read_volume(path)


def test_nifti_bad_vox_offset(tmp_path):
    data = np.zeros(8, dtype=np.uint8)
    blob = bytearray(_nifti_bytes((2, 2, 2), (1, 1, 1), 2, data.tobytes()))
    struct.pack_into("<f", blob, 108, 100.0)  # inside the header
    path = tmp_path / "off.nii"
    path.write_bytes(bytes(blob))
    with pytest.raises(VolumeFormatError, match="vox_offset"):
        read_volume(path)


@pytest.mark.parametrize("slope, inter, ok", [
    (0.0, 0.0, True), (0.0, 7.0, True), (1.0, 0.0, True),
    (2.0, 1.5, False), (1.0, 1.5, False), (2.0, 0.0, False), (float("nan"), 0.0, False),
])
def test_nifti_refuses_scaled_data(tmp_path, slope, inter, ok):
    data = np.full(8, -1.0, dtype="<f4")
    blob = bytearray(_nifti_bytes((2, 2, 2), (1, 1, 1), 16, data.tobytes()))
    struct.pack_into("<2f", blob, 112, slope, inter)
    path = tmp_path / "scl.nii"
    path.write_bytes(bytes(blob))
    if ok:
        assert np.all(read_volume(path).voxels == -1.0)
        return
    for read in (read_volume, read_mask):
        with pytest.raises(VolumeFormatError, match="byte offset 112") as err:
            read(path)
        assert str(path) in str(err.value)


def test_nifti_truncated_data(tmp_path):
    data = np.zeros(7, dtype=np.uint8)  # one voxel short
    blob = _nifti_bytes((2, 2, 2), (1, 1, 1), 2, data.tobytes())
    path = tmp_path / "short.nii"
    path.write_bytes(blob)
    with pytest.raises(VolumeFormatError, match="truncated"):
        read_volume(path)


def test_write_nifti_round_trip_and_header_bytes(tmp_path):
    rng = np.random.default_rng(11)
    mask = mk_mask(rng.random((3, 4, 5)) > 0.4, Spacing(0.5, 1.0, 2.0))
    path = tmp_path / "w.nii"
    write_volume(mask, path)

    blob = path.read_bytes()
    assert struct.unpack_from("<i", blob, 0)[0] == 348
    assert struct.unpack_from("<8h", blob, 40) == (3, 3, 4, 5, 1, 1, 1, 1)
    assert struct.unpack_from("<2h", blob, 70) == (2, 8)
    assert struct.unpack_from("<8f", blob, 76)[1:4] == (0.5, 1.0, 2.0)
    assert struct.unpack_from("<f", blob, 108)[0] == 352.0
    assert struct.unpack_from("4s", blob, 344)[0] == b"n+1\x00"

    back = read_volume(path)
    assert np.array_equal(back.voxels, mask.voxels)
    assert back.spacing == mask.spacing


def test_write_nifti_gz_logits(tmp_path):
    arr = np.linspace(-2, 2, 24).reshape(2, 3, 4)
    vol = mk_logits(arr.astype(np.float32).astype(np.float64))
    path = tmp_path / "w.nii.gz"
    write_volume(vol, path)  # dispatches to the NIfTI writer by extension
    back = read_volume(path)
    assert isinstance(back, LogitVolume)
    assert np.array_equal(back.voxels, vol.voxels)


@pytest.mark.parametrize("name", ["f.raw", "f.nii", "f.nii.gz"])
def test_float32_volume_is_kept_as_read_only_float32(tmp_path, name):
    arr = np.linspace(-3, 3, 24, dtype=np.float32).reshape(2, 3, 4)
    path = tmp_path / name
    write_volume(LogitVolume(arr, Spacing(1, 1, 1)), path)
    vol = read_volume(path)
    assert isinstance(vol, LogitVolume)
    assert vol.voxels.dtype == np.float32
    assert not vol.voxels.flags.writeable
    assert np.array_equal(vol.voxels, arr)


def test_gzipped_float32_read_allocates_one_float32_lattice(tmp_path, monkeypatch):
    # The inflated voxels become the volume's: no second f32 lattice is made.
    arr = np.zeros((64, 64, 64), dtype=np.float32)
    arr[10:20, 30:40, 5:60] = 2.5
    path = tmp_path / "f.nii.gz"
    write_volume(LogitVolume(arr, Spacing(1, 1, 1)), path)
    finish = lesionwise.io._finish

    def traced_finish(*args):
        tracemalloc.reset_peak()  # measure from the inflated bytes on, not the inflate itself
        return finish(*args)

    monkeypatch.setattr(lesionwise.io, "_finish", traced_finish)
    peak = traced_peak(lambda: read_volume(path))
    assert np.array_equal(read_volume(path).voxels, arr)
    # the inflated lattice and the finiteness check's bool lattice; a copy adds a lattice
    assert peak < 1.5 * arr.nbytes


@pytest.mark.parametrize("name", ["m.raw", "m.nii"])
def test_mask_read_allocates_only_the_mask(tmp_path, name):
    # u8 voxels are read into an F-order array of their own and cast to bool there
    arr = np.random.default_rng(8).random((64, 64, 64)) < 0.1
    path = tmp_path / name
    write_volume(mk_mask(arr), path)
    mask = read_mask(path)
    assert np.array_equal(mask.voxels, arr)
    assert mask.voxels.flags.f_contiguous and not mask.voxels.flags.writeable
    peak = traced_peak(lambda: read_mask(path))  # warm: the read above imported everything
    assert peak < 1.2 * arr.size, peak / arr.size


def test_big_endian_nifti_is_swapped_where_it_was_read(tmp_path):
    # the f32 voxels and the finiteness check's bool lattice, then the mask;
    # a native copy of the voxels adds 4 B/vox
    arr = np.random.default_rng(9).normal(size=(64, 64, 64)).astype(">f4")
    path = tmp_path / "be.nii"
    path.write_bytes(_nifti_bytes(arr.shape, (1.0, 1.0, 1.0), 16, arr.tobytes(order="F"),
                                  endian=">"))
    assert np.array_equal(read_mask(path).voxels, arr != 0)
    peak = traced_peak(lambda: read_mask(path))
    assert peak <= 5.2 * arr.size, peak / arr.size


def test_big_endian_float32_nifti_is_kept_as_native_float32(tmp_path):
    data = np.linspace(-1, 1, 8, dtype=">f4")
    path = tmp_path / "be.nii"
    path.write_bytes(_nifti_bytes((2, 2, 2), (1.0, 1.0, 1.0), 16, data.tobytes(), endian=">"))
    vol = read_volume(path)
    assert vol.voxels.dtype == np.float32
    assert np.array_equal(vol.voxels.ravel(order="F"), data)


# ---------------------------------------------------------------------------
# .nii.gz: gzip.decompress's container rules, header-first and bounded
# ---------------------------------------------------------------------------

_GZ_DATA = np.linspace(-3, 3, 60, dtype="<f4")
_GZ_BLOB = _nifti_bytes((3, 4, 5), (1.0, 1.0, 1.0), 16, _GZ_DATA.tobytes())


def _members(*cuts) -> list[bytes]:
    """``_GZ_BLOB`` as gzip members split at ``cuts``, as bgzip writes them."""
    bounds = [0, *cuts, len(_GZ_BLOB)]
    return [gzip.compress(_GZ_BLOB[a:b], mtime=0) for a, b in zip(bounds, bounds[1:])]


def _assert_reads_the_volume(path):
    vol = read_volume(path)
    assert vol.voxels.dtype == np.float32
    assert np.array_equal(vol.voxels.ravel(order="F"), _GZ_DATA)


@pytest.mark.parametrize("cuts", [(452,), (200, 452), tuple(range(7, len(_GZ_BLOB), 7))],
                         ids=["data-split", "header-and-data-split", "7-byte-members"])
def test_gzip_members_are_concatenated(tmp_path, cuts):
    path = tmp_path / "members.nii.gz"
    path.write_bytes(b"".join(_members(*cuts)))
    _assert_reads_the_volume(path)


@pytest.mark.parametrize("padding", ["after", "between-and-after"])
def test_zero_bytes_after_a_gzip_member_are_skipped(tmp_path, padding):
    first, second = _members(452)
    gap = b"\0" * 5 if padding == "between-and-after" else b""
    path = tmp_path / "padded.nii.gz"
    path.write_bytes(first + gap + second + b"\0" * 1000)
    _assert_reads_the_volume(path)


def _corrupt(byte_from_end: int):
    def edit(raw: bytes) -> bytes:
        out = bytearray(raw)
        out[-byte_from_end] ^= 0x01
        return bytes(out)
    return edit


@pytest.mark.parametrize("edit, match", [
    pytest.param(lambda raw: raw + b"garbage", "trailing bytes after a gzip member",
                 id="trailing-garbage"),
    pytest.param(lambda raw: raw + b"\0\0\x1f", "trailing bytes after a gzip member",
                 id="zeros-then-garbage"),
    pytest.param(_corrupt(8), "incorrect data check", id="second-member-crc"),
    pytest.param(_corrupt(4), "incorrect length check", id="second-member-isize"),
    pytest.param(lambda raw: raw[:-3], "ended before the end-of-stream marker",
                 id="second-member-cut"),
])
def test_bad_gzip_container_is_a_format_error_naming_the_file(tmp_path, capsys, edit, match):
    path = tmp_path / "bad.nii.gz"
    path.write_bytes(edit(b"".join(_members(452))))
    with pytest.raises(VolumeFormatError, match=match) as err:
        read_volume(path)
    assert str(path) in str(err.value)
    assert main(["voronoi", "--gt", str(path), "--out", str(tmp_path / "v.raw")]) == EXIT_IO
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and str(path) in lines[0] and match in lines[0]


def test_gzip_bomb_behind_a_bad_header_is_refused_at_bounded_peak(tmp_path):
    # 64 MiB of zeros compress to about 65 KB; only the header is inflated
    path = tmp_path / "bomb.nii.gz"
    path.write_bytes(gzip.compress(struct.pack("<i", 347) + bytes(64 << 20), mtime=0))
    assert path.stat().st_size < 100_000
    assert _peak_of_rejected_read(path, "bad sizeof_hdr") < 1 << 20


def test_inflated_bytes_after_the_data_are_checked_at_bounded_peak(tmp_path):
    data = np.arange(8, dtype="<f4")
    path = tmp_path / "tail.nii.gz"
    path.write_bytes(gzip.compress(
        _nifti_bytes((2, 2, 2), (1.0, 1.0, 1.0), 16, data.tobytes()) + bytes(64 << 20), mtime=0))
    peak = traced_peak(lambda: read_volume(path))
    assert np.array_equal(read_volume(path).voxels.ravel(order="F"), data)
    assert peak < 1 << 20


# ---------------------------------------------------------------------------
# fuzzing: every malformed file is a VolumeFormatError that names it
# ---------------------------------------------------------------------------

_FUZZ = settings(max_examples=60, deadline=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])

_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 2**40) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=6,
)


def _byte_edits(max_pos):
    return st.lists(st.tuples(st.integers(0, max_pos), st.integers(0, 255)), max_size=4)


def _apply(blob: bytes, edits, cut) -> bytes:
    out = bytearray(blob)
    for pos, val in edits:
        if pos < len(out):
            out[pos] = val
    return bytes(out[:cut]) if cut is not None else bytes(out)


def _read_both(path):
    """Read ``path`` as a volume and as a mask; each must fail cleanly or succeed."""
    for read in (read_volume, read_mask):
        try:
            vol = read(path)
        except VolumeFormatError as exc:
            assert str(path) in str(exc)
            continue
        assert isinstance(vol, BinaryMask if read is read_mask else (BinaryMask, LogitVolume))
        assert vol.voxels.shape == vol.shape.as_tuple()
        assert all(np.isfinite(vol.spacing.as_tuple()))


@_FUZZ
@given(
    dtype=st.sampled_from(["u8", "f32"]),
    replaced=st.dictionaries(st.sampled_from(["shape", "spacing", "dtype", "order"]),
                             _json_values, max_size=2),
    dropped=st.sets(st.sampled_from(["shape", "spacing", "dtype", "order"]), max_size=1),
    top_level=st.none() | _json_values,
    sidecar_edits=_byte_edits(80),
    sidecar_cut=st.none() | st.integers(0, 80),
    body_edits=_byte_edits(47),
    body_cut=st.none() | st.integers(0, 60),
)
def test_fuzzed_raw_volume_is_read_or_rejected(tmp_path, dtype, replaced, dropped, top_level,
                                               sidecar_edits, sidecar_cut, body_edits,
                                               body_cut):
    header = {"shape": [2, 3, 2], "spacing": [1.0, 0.5, 2.0], "dtype": dtype,
              "order": "x-fastest"}
    header.update(replaced)
    for key in dropped:
        header.pop(key, None)
    text = json.dumps(header if top_level is None else top_level).encode()
    body = np.linspace(-2, 2, 12).astype("<f4" if dtype == "f32" else "u1").tobytes()
    path = tmp_path / "fuzz.raw"
    path.with_name("fuzz.raw.json").write_bytes(_apply(text, sidecar_edits, sidecar_cut))
    path.write_bytes(_apply(body, body_edits, body_cut))
    _read_both(path)


@_FUZZ
@given(
    datatype=st.sampled_from([2, 4, 16]),
    header_edits=_byte_edits(351),
    cut=st.none() | st.integers(0, 400),
    gz=st.booleans(),
    gz_edits=_byte_edits(120),
    gz_cut=st.none() | st.integers(0, 120),
)
def test_fuzzed_nifti_volume_is_read_or_rejected(tmp_path, datatype, header_edits, cut, gz,
                                                 gz_edits, gz_cut):
    dtype = {2: "u1", 4: "<i2", 16: "<f4"}[datatype]
    data = np.linspace(-2, 2, 12).astype(dtype).tobytes()
    blob = _apply(_nifti_bytes((2, 3, 2), (1.0, 0.5, 2.0), datatype, data), header_edits, cut)
    path = tmp_path / ("fuzz.nii.gz" if gz else "fuzz.nii")
    path.write_bytes(_apply(gzip.compress(blob, mtime=0), gz_edits, gz_cut) if gz else blob)
    _read_both(path)
