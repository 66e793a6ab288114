"""Volume file IO: a portable raw format and a minimal NIfTI-1 reader and writer.

``read_volume`` is the one reader and ``write_volume`` the one writer; both
pick the format by the file name: ``.nii`` or ``.nii.gz``, in any case, is
NIfTI-1, any other name the raw format. ``read_mask`` is ``read_volume``
cast to a mask, so a float volume holding NaN or Inf is refused by both.
``_volume_paths`` lists a directory's volume files by the same rule.

Raw format
----------
A volume ``foo.raw`` is a flat little-endian binary file accompanied by a
JSON sidecar ``foo.raw.json``::

    { "shape": [nx, ny, nz], "spacing": [sx, sy, sz],
      "dtype": "u8" | "f32", "order": "x-fastest" }

The binary file holds exactly ``nx * ny * nz`` values with x varying fastest
(linear index ``x + nx * (y + ny * z)``). ``u8`` volumes load as masks
(nonzero is foreground), ``f32`` volumes load as ``LogitVolume``; the
writer stores a ``BinaryMask`` as u8 and a ``LogitVolume`` as f32, in both
formats. Write/read round trips are bit-exact.

A float32 volume is kept as float32 in its ``LogitVolume``, whose
finiteness check runs on that data; the loss functions compute in float64
from it, so they give the same bits as from a float64 copy.

NIfTI-1
-------
Read support for single-file 3D volumes (``.nii``, optionally gzipped) with
datatypes uint8, int16 and float32; spacing is taken from ``pixdim[1..3]``.
Voxel values are read as stored, so a header must not scale them: the
reader refuses any ``scl_slope``/``scl_inter`` pair other than slope 0 (no
scaling, per the NIfTI-1 standard) or slope 1 with intercept 0.

Reads are header-first: the 348-byte header and the data size it declares
are checked before the data is read, so a bad header costs no more memory
than the header. A ``.nii.gz`` (recognised by its gzip magic bytes) is read
whole as compressed bytes and inflated in three steps: the header; the
extension and voxel data in one call capped at ``vox_offset`` plus the data
size; then the rest of the stream in bounded chunks that are thrown away,
so every member's CRC and length are still checked. The compressed bytes
are freed before the voxels are decoded. The gzip container rules are
``gzip.decompress``'s: members are concatenated, zero bytes after a member
are skipped, and any other trailing byte is an error, as are a bad CRC or
length in any member and a stream cut short. zlib also rejects a bad header
CRC and the reserved header flags, which ``gzip.decompress`` ignores.

For a NIfTI name ``write_volume`` emits a minimal little-endian single-file
NIfTI-1 volume, gzipped with mtime 0 for ``.gz``, so phantoms can be
exported for external viewers; the raw format is the canonical interchange
format.
"""

from __future__ import annotations

import gzip
import json
import struct
import sys
import zlib
from pathlib import Path

import numpy as np

from .volumes import BinaryMask, LogitVolume, Spacing, _adopt

RAW_DTYPES = {"u8": np.dtype("<u1"), "f32": np.dtype("<f4")}

# NIfTI-1 datatype codes we accept.
_NIFTI_DTYPES = {2: np.dtype("u1"), 4: np.dtype("i2"), 16: np.dtype("f4")}


class VolumeFormatError(ValueError):
    """A volume file or its header could not be parsed."""


def _sidecar_path(path: Path) -> Path:
    return path.with_name(path.name + ".json")


def _is_nifti_path(path: Path) -> bool:
    name = path.name.lower()
    return name.endswith(".nii") or name.endswith(".nii.gz")


def _stored(vol, path: Path) -> tuple[str, int, np.ndarray]:
    """A volume's raw dtype name, NIfTI datatype code and voxels in that dtype.

    Float voxels beyond the float32 range raise ``ValueError``, as the file
    would hold Inf, which ``read_volume`` refuses.
    """
    if isinstance(vol, BinaryMask):
        dtype_name, datatype = "u8", 2
    elif isinstance(vol, LogitVolume):
        dtype_name, datatype = "f32", 16
    else:
        raise TypeError(f"cannot write volume of type {type(vol).__name__}")
    with np.errstate(over="ignore"):
        data = vol.voxels.astype(RAW_DTYPES[dtype_name])
    if dtype_name == "f32" and not np.isfinite(data).all():
        raise ValueError(f"{path}: values beyond the float32 range cannot be written")
    return dtype_name, datatype, data


def write_volume(vol, path) -> None:
    """Write a volume to ``path``: NIfTI-1 if the name ends .nii or .nii.gz,
    else the raw format. BinaryMask is stored as u8 (0/1), LogitVolume as f32.
    """
    path = Path(path)
    if _is_nifti_path(path):
        return _write_nifti(vol, path)
    dtype_name, _, data = _stored(vol, path)
    header = {
        "shape": list(vol.shape.as_tuple()),
        "spacing": list(vol.spacing.as_tuple()),
        "dtype": dtype_name,
        "order": "x-fastest",
    }
    _sidecar_path(path).write_text(json.dumps(header, indent=2) + "\n")
    path.write_bytes(data.tobytes(order="F"))


def _volume_paths(directory: Path) -> list[Path]:
    """The volume files in ``directory``, sorted: NIfTI by name, raw by its sidecar."""
    return [p for p in sorted(directory.iterdir()) if _is_nifti_path(p)
            or (not p.name.lower().endswith(".json") and _sidecar_path(p).exists())]


# What the parsers raise on a malformed file besides VolumeFormatError:
# sidecar values of the wrong type or range, and damaged gzip streams.
_PARSE_ERRORS = (TypeError, ValueError, OverflowError, EOFError, zlib.error)


def read_volume(path):
    """Read a volume; returns BinaryMask for u8/int inputs, LogitVolume for f32.

    Raw volumes require the JSON sidecar next to the binary file. NIfTI-1
    volumes (.nii, .nii.gz) are detected by name. Every parse failure,
    including NaN or Inf in a float volume, is a ``VolumeFormatError`` whose
    message names ``path``; a file that cannot be opened stays an
    ``OSError``, whose message names the file.
    """
    path = Path(path)
    try:
        return (_read_nifti if _is_nifti_path(path) else _read_raw)(path)
    except VolumeFormatError:
        raise
    except _PARSE_ERRORS as exc:
        raise VolumeFormatError(f"{path}: {exc}") from exc


def read_mask(path) -> BinaryMask:
    """``read_volume`` cast to a mask: any nonzero value is foreground.

    A float volume holding NaN or Inf raises ``VolumeFormatError``, as there.
    """
    vol = read_volume(path)
    return vol if isinstance(vol, BinaryMask) else _adopt(BinaryMask, vol.voxels, vol.spacing)


def _finish(arr: np.ndarray, spacing: Spacing):
    """The volume of ``arr``, an array the reader has just made: a float one
    is a ``LogitVolume``, which rejects NaN and Inf and keeps a native
    float32 array without a copy; any other a ``BinaryMask``, whose bool
    cast makes any nonzero value foreground."""
    return _adopt(LogitVolume if arr.dtype.kind == "f" else BinaryMask, arr, spacing)


# ---------------------------------------------------------------------------
# raw format
# ---------------------------------------------------------------------------

def _read_raw(path: Path):
    sidecar = _sidecar_path(path)
    if not sidecar.exists():
        raise VolumeFormatError(f"missing raw sidecar header: {sidecar}")
    try:  # bad JSON, bad UTF-8, or arrays nested past the recursion limit
        header = json.loads(sidecar.read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:
        raise VolumeFormatError(f"malformed sidecar {sidecar}: {exc}") from exc

    for key in ("shape", "spacing", "dtype", "order"):
        if key not in header:
            raise VolumeFormatError(f"sidecar {sidecar} is missing key {key!r}")
    shape = header["shape"]
    spacing = header["spacing"]
    if not (isinstance(shape, list) and len(shape) == 3 and all(type(n) is int for n in shape)):
        raise VolumeFormatError(f"sidecar {sidecar}: shape must be a list of 3 ints, got {shape!r}")
    # JSON numbers only (bool is an int subclass); the bound also rejects ints
    # too large for a float.
    if not (isinstance(spacing, list) and len(spacing) == 3
            and all(type(s) in (int, float) and 0 < s <= sys.float_info.max for s in spacing)):
        raise VolumeFormatError(
            f"sidecar {sidecar}: spacing must be a list of 3 finite numbers > 0, got {spacing!r}"
        )
    if header["order"] != "x-fastest":
        raise VolumeFormatError(
            f"sidecar {sidecar}: unsupported order {header['order']!r} (expected 'x-fastest')"
        )
    if header["dtype"] not in RAW_DTYPES:
        raise VolumeFormatError(
            f"sidecar {sidecar}: unsupported raw dtype {header['dtype']!r} (expected 'u8' or 'f32')"
        )

    nx, ny, nz = shape
    sp = Spacing(*(float(s) for s in spacing))
    if min(nx, ny, nz) <= 0:
        raise VolumeFormatError(f"sidecar {sidecar}: non-positive shape {shape!r}")
    dtype = RAW_DTYPES[header["dtype"]]

    expected = nx * ny * nz * dtype.itemsize
    size = path.stat().st_size  # before reading: a mismatched file may be huge
    if size != expected:
        raise VolumeFormatError(
            f"{path}: expected {expected} bytes for shape {shape} dtype "
            f"{header['dtype']}, found {size}"
        )
    arr = np.frombuffer(path.read_bytes(), dtype=dtype).reshape((nx, ny, nz), order="F")
    return _finish(arr, sp)


# ---------------------------------------------------------------------------
# NIfTI-1
# ---------------------------------------------------------------------------

# Inflated bytes per call while a .nii.gz is read past its data, and the
# compressed bytes fed to a call beyond the output it may give.
_GZ_CHUNK = 1 << 16


class _Gunzip:
    """The members of one gzip file, inflated in order on demand."""

    def __init__(self, raw: bytes):
        self._raw = memoryview(raw)
        self._pos = 0  # the first compressed byte no inflater has consumed
        self._member = zlib.decompressobj(31)

    def read(self, n: int) -> bytes:
        """The next ``n`` inflated bytes; fewer only where the last member ends."""
        parts = []
        while n > 0 and self._in_member():
            member = self._member
            feed = self._raw[self._pos:self._pos + n + _GZ_CHUNK]
            out = member.decompress(feed, n)
            # At a member's end the rest of the feed is in unused_data (and
            # unconsumed_tail may still hold a stale copy of it).
            used = len(feed) - len(member.unused_data if member.eof else member.unconsumed_tail)
            if not (out or used or member.eof):
                raise EOFError("compressed file ended before the end-of-stream marker was reached")
            self._pos += used
            parts.append(out)
            n -= len(out)
        return parts[0] if len(parts) == 1 else b"".join(parts)

    def finish(self) -> None:
        """Inflate and drop the rest, checking every member; free the compressed bytes."""
        while self.read(_GZ_CHUNK):
            pass
        self._raw = None

    def _in_member(self) -> bool:
        """False once the stream is over; starts the next member if one follows."""
        if not self._member.eof:
            return True
        rest = self._raw[self._pos:]
        if rest[:1] == b"\0":  # zero padding after a member is skipped
            self._pos += len(rest) - len(bytes(rest).lstrip(b"\0"))
        if self._pos == len(self._raw):
            return False
        if self._raw[self._pos:self._pos + 2] != b"\x1f\x8b":
            raise ValueError(f"trailing bytes after a gzip member at byte offset {self._pos}")
        self._member = zlib.decompressobj(31)
        return True


def _read_nifti(path: Path):
    with path.open("rb") as fh:
        blob = fh.read(348)  # the header is checked before the data is read
        gz = None
        if blob[:2] == b"\x1f\x8b":
            fh.seek(0)
            gz = _Gunzip(fh.read())
            blob = gz.read(348)
    if len(blob) < 348:
        raise VolumeFormatError(
            f"{path}: NIfTI header truncated at byte {len(blob)} (need 348)"
        )

    # Endianness is decided by whichever byte order makes sizeof_hdr == 348.
    endian = None
    for cand in ("<", ">"):
        if struct.unpack_from(cand + "i", blob, 0)[0] == 348:
            endian = cand
            break
    if endian is None:
        raise VolumeFormatError(
            f"{path}: bad sizeof_hdr at byte offset 0 (expected 348 in either byte order)"
        )

    magic = struct.unpack_from("4s", blob, 344)[0]
    if magic == b"ni1\x00":
        raise VolumeFormatError(
            f"{path}: two-file NIfTI (magic 'ni1' at byte offset 344) is not supported"
        )
    if magic != b"n+1\x00":
        raise VolumeFormatError(f"{path}: bad magic {magic!r} at byte offset 344")

    dim = struct.unpack_from(endian + "8h", blob, 40)
    ndim = dim[0]
    if not 1 <= ndim <= 7:
        raise VolumeFormatError(f"{path}: invalid dim[0]={ndim} at byte offset 40")
    if ndim < 3 or any(d > 1 for d in dim[4 : 1 + ndim]):
        raise VolumeFormatError(
            f"{path}: only 3D volumes are supported, got dim={list(dim[: 1 + ndim])}"
        )
    nx, ny, nz = dim[1], dim[2], dim[3]
    if min(nx, ny, nz) <= 0:
        raise VolumeFormatError(f"{path}: non-positive dimension in dim (byte offset 40)")

    datatype, bitpix = struct.unpack_from(endian + "2h", blob, 70)
    if datatype not in _NIFTI_DTYPES:
        raise VolumeFormatError(
            f"{path}: unsupported NIfTI datatype code {datatype} at byte offset 70 "
            f"(supported: uint8=2, int16=4, float32=16)"
        )
    if bitpix != 8 * _NIFTI_DTYPES[datatype].itemsize:
        raise VolumeFormatError(
            f"{path}: bitpix {bitpix} inconsistent with datatype {datatype} (byte offset 72)"
        )

    pixdim = struct.unpack_from(endian + "8f", blob, 76)
    try:
        sp = Spacing(float(pixdim[1]), float(pixdim[2]), float(pixdim[3]))
    except ValueError as exc:
        raise VolumeFormatError(f"{path}: bad pixdim at byte offset 76: {exc}") from exc

    vox_offset = struct.unpack_from(endian + "f", blob, 108)[0]
    if not np.isfinite(vox_offset) or vox_offset < 348 or vox_offset != int(vox_offset):
        raise VolumeFormatError(
            f"{path}: invalid vox_offset {vox_offset} at byte offset 108"
        )
    offset = int(vox_offset)

    slope, inter = struct.unpack_from(endian + "2f", blob, 112)
    if not (slope == 0 or (slope == 1 and inter == 0)):
        raise VolumeFormatError(
            f"{path}: scaled data (scl_slope {slope}, scl_inter {inter} at byte offset 112) "
            "is not supported"
        )

    dtype = _NIFTI_DTYPES[datatype].newbyteorder(endian)
    expected = nx * ny * nz * dtype.itemsize
    if gz is None:
        size = path.stat().st_size  # a .nii's data is not read yet
    else:
        # extension and data in one call; no file meets a vox_offset past 2**63
        body = gz.read(min(offset + expected, sys.maxsize) - 348)
        gz.finish()
        size = 348 + len(body)
    if size < offset + expected:
        raise VolumeFormatError(
            f"{path}: data truncated, need {expected} bytes at offset {offset}, "
            f"file holds {size - offset}"
        )
    if gz is None:
        arr = np.fromfile(path, dtype=dtype, count=nx * ny * nz, offset=offset)
    else:
        arr = np.frombuffer(body, dtype=dtype, count=nx * ny * nz, offset=offset - 348)
    arr = arr.reshape((nx, ny, nz), order="F")
    return _finish(arr, sp)


def _write_nifti(vol, path: Path) -> None:
    """Write a minimal single-file little-endian NIfTI-1 volume."""
    _, datatype, data = _stored(vol, path)

    nx, ny, nz = vol.shape.as_tuple()
    sx, sy, sz = vol.spacing.as_tuple()
    header = bytearray(352)  # 348-byte header + 4-byte extension flag
    struct.pack_into("<i", header, 0, 348)
    struct.pack_into("<8h", header, 40, 3, nx, ny, nz, 1, 1, 1, 1)
    struct.pack_into("<2h", header, 70, datatype, 8 * _NIFTI_DTYPES[datatype].itemsize)
    struct.pack_into("<8f", header, 76, 1.0, sx, sy, sz, 0.0, 0.0, 0.0, 0.0)
    struct.pack_into("<f", header, 108, 352.0)
    struct.pack_into("<2f", header, 112, 1.0, 0.0)  # scl_slope, scl_inter
    struct.pack_into("<b", header, 123, 2)  # xyzt_units: millimetres
    struct.pack_into("<4s", header, 344, b"n+1\x00")

    payload = bytes(header) + data.tobytes(order="F")
    if path.name.lower().endswith(".gz"):
        # mtime pinned so identical volumes produce identical bytes
        path.write_bytes(gzip.compress(payload, mtime=0))
    else:
        path.write_bytes(payload)
