"""Core 3D grid types and elementwise prediction utilities.

All volumes live on a regular lattice indexed ``(x, y, z)`` with array shape
``(nx, ny, nz)``. The canonical scan order is x-fastest: linear index
``x + nx * (y + ny * z)``, matching the on-disk layout used by
:mod:`lesionwise.io`.

``BinaryMask`` holds hard masks and ``LogitVolume``, the one float type,
logits and other real maps. A ``LogitVolume`` keeps a float32 grid as float32
and stores any other as float64. ``binarize(logits, t)`` keeps
``sigmoid(l) >= t`` in one call, so probabilities are never stored as a volume.
Both types refuse a lattice whose physical volume or squared diagonal is not
below ``MAX_PHYSICAL_SIZE``, so volumes and distances taken on it stay finite.
Their constructors copy the caller's array; ``binarize`` and ``io`` build
theirs through ``_adopt``, which runs the same checks and keeps an array the
package has just made when it already has the stored dtype.

``binarize`` decides most voxels by comparing logits with two bounds
``lo < logit(t) < hi`` in the logits' own dtype, and calls ``sigmoid`` only
on the thin band of voxels in ``[lo, hi]``, so the mask is bit-for-bit
``sigmoid(l) >= t``. The bounds rest on delta = 2**-40, a bound on the
relative error of the computed sigmoid, which holds for
2**-1000 <= t <= 1 - 4 delta; outside that range the band widens (to the
whole lattice for a t near the subnormals) and the mask stays exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np


# Relative per-axis tolerance when two volumes' spacings must agree.
SPACING_RTOL = 1e-6

# Bound on a lattice's physical volume (mm^3) and squared diagonal (mm^2), far
# above any scanner (a 512x512x2000 CT at 1 mm is about 5e8 mm^3), so that
# lesion volumes, squared distances and their sums stay finite.
MAX_PHYSICAL_SIZE = 1e30


class ShapeMismatchError(ValueError):
    """Two volumes that must share a grid differ in shape or spacing."""


@dataclass(frozen=True)
class Shape:
    """Voxel counts per axis. All strictly positive."""

    nx: int
    ny: int
    nz: int

    def __post_init__(self):
        for name in ("nx", "ny", "nz"):
            n = getattr(self, name)
            if not isinstance(n, (int, np.integer)) or n <= 0:
                raise ValueError(f"{name} must be a positive integer, got {n!r}")

    @property
    def count(self) -> int:
        return self.nx * self.ny * self.nz

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.nx, self.ny, self.nz)


@dataclass(frozen=True)
class Spacing:
    """Physical voxel edge lengths in mm. All strictly positive and finite, and
    so is their product, the voxel volume (it neither overflows nor underflows)."""

    sx: float
    sy: float
    sz: float

    def __post_init__(self):
        for name in ("sx", "sy", "sz"):
            s = getattr(self, name)
            if not (isinstance(s, (int, float, np.floating)) and math.isfinite(s) and s > 0):
                raise ValueError(f"{name} must be positive and finite, got {s!r}")
        volume = self.voxel_volume
        if not (math.isfinite(volume) and volume > 0):
            raise ValueError(f"voxel volume {volume!r} mm^3 of spacing {self.as_tuple()} "
                             "is not positive and finite")

    @property
    def voxel_volume(self) -> float:
        """Volume of one voxel in mm^3."""
        return float(self.sx) * float(self.sy) * float(self.sz)

    def as_tuple(self) -> tuple[float, float, float]:
        return (float(self.sx), float(self.sy), float(self.sz))

    def isclose(self, other: Spacing) -> bool:
        """Whether the two agree within a relative ``SPACING_RTOL`` per axis,
        since NIfTI stores spacings as float32."""
        return all(math.isclose(x, y, rel_tol=SPACING_RTOL)
                   for x, y in zip(self.as_tuple(), other.as_tuple()))


def _freeze(voxels: np.ndarray, spacing: Spacing, dtype, copy: bool | None = True) -> np.ndarray:
    """``voxels`` as a read-only ``dtype`` array after the grid checks: a copy,
    or with ``copy=None`` the array itself when it already has ``dtype``."""
    if voxels.ndim != 3:
        raise ValueError(f"expected a 3D voxel grid, got ndim={voxels.ndim}")
    for axis, n in zip("xyz", voxels.shape):
        if n == 0:
            raise ValueError(f"voxel grid has no voxels along {axis}: shape {voxels.shape}")
    volume = math.prod(voxels.shape) * spacing.voxel_volume
    diagonal_sq = sum(((n - 1) * s) * ((n - 1) * s)
                      for n, s in zip(voxels.shape, spacing.as_tuple()))
    if not (volume < MAX_PHYSICAL_SIZE and diagonal_sq < MAX_PHYSICAL_SIZE):
        raise ValueError(f"lattice {voxels.shape} at spacing {spacing.as_tuple()} mm has no "
                         f"usable physical size: volume {volume:.3g} mm^3 and squared "
                         f"diagonal {diagonal_sq:.3g} mm^2 must stay below "
                         f"{MAX_PHYSICAL_SIZE:.0e}")
    out = np.array(voxels, dtype=dtype, copy=copy)
    out.setflags(write=False)
    return out


def _adopt(cls, voxels: np.ndarray, spacing: Spacing):
    """``cls(voxels, spacing)`` for an array the package has just made and
    holds no other reference to. The volume keeps it, made read-only, when
    its dtype is already the one ``cls`` stores, and copies it otherwise.
    Every check of the constructor runs; the public constructors always copy,
    so a caller's array never aliases a volume.
    """
    vol = object.__new__(cls)
    object.__setattr__(vol, "voxels", voxels)
    object.__setattr__(vol, "spacing", spacing)
    vol.__post_init__(copy=None)
    return vol


@dataclass(frozen=True, eq=False)
class BinaryMask:
    """Dense boolean voxel grid with physical spacing.

    Immutable after construction; the voxel array is read-only and safe to
    share across workers.
    """

    voxels: np.ndarray
    spacing: Spacing

    def __post_init__(self, copy: bool | None = True):
        object.__setattr__(self, "voxels", _freeze(self.voxels, self.spacing, bool, copy))

    @property
    def shape(self) -> Shape:
        return Shape(*self.voxels.shape)

    @cached_property
    def foreground_count(self) -> int:
        """Foreground voxels; the first read counts them in one lattice pass."""
        return int(np.count_nonzero(self.voxels))


@dataclass(frozen=True, eq=False)
class LogitVolume:
    """Dense real grid of network outputs before the sigmoid. Values finite.

    A float32 grid (of either byte order) is stored as native float32 and
    any other as float64; both hold the same real values.
    """

    voxels: np.ndarray
    spacing: Spacing

    def __post_init__(self, copy: bool | None = True):
        dtype = np.asarray(self.voxels).dtype
        single = dtype.kind == "f" and dtype.itemsize == 4
        arr = _freeze(self.voxels, self.spacing, np.float32 if single else np.float64, copy)
        if not np.isfinite(arr).all():
            raise ValueError("logit volume contains NaN or Inf")
        object.__setattr__(self, "voxels", arr)

    @property
    def shape(self) -> Shape:
        return Shape(*self.voxels.shape)


def require_same_grid(a, b) -> None:
    """Raise ShapeMismatchError unless the two volumes share shape and spacing
    (``Spacing.isclose``)."""
    if a.voxels.shape != b.voxels.shape:
        raise ShapeMismatchError(
            f"volume shapes differ: {a.voxels.shape} vs {b.voxels.shape}"
        )
    sa, sb = a.spacing, b.spacing
    if not sa.isclose(sb):
        raise ShapeMismatchError(f"volume spacings differ: {sa.as_tuple()} vs {sb.as_tuple()}")


def require_masks(*volumes) -> None:
    """Raise ``TypeError`` unless every volume holds a bool mask, as ``BinaryMask`` does."""
    for v in volumes:
        if v.voxels.dtype != bool:
            raise TypeError(f"expected a bool mask, got {type(v).__name__}; binarize() logits first")


def require_logits(v) -> None:
    """Raise ``TypeError`` unless ``v`` is a ``LogitVolume``: a mask read as
    0/1 logits would give another mask or loss, silently."""
    if not isinstance(v, LogitVolume):
        raise TypeError(f"expected a LogitVolume, got {type(v).__name__}")


def sigmoid_parts(
    logits: np.ndarray,
    out: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """``(sigmoid(l), exp(-|l|))`` as float64, overflow-safe for finite ``l``.

    With e = exp(-|l|), sigmoid(l) is 1 / (1 + e) for l >= 0 and e / (1 + e)
    below, so exp() never overflows. The numerator is max(e, [l >= 0]), as
    e <= 1: a branch-free select, where a masked divide is several times
    slower on noisy logits. A 0-d array or a numpy scalar gives 0-d arrays.

    ``out = (p, e, q)``, three float64 arrays shaped like ``logits``, receive
    the two results and the denominator 1 + e, so nothing is allocated;
    without it all three are allocated in the input's layout.
    """
    if out is None:
        out = tuple(np.empty_like(logits, dtype=np.float64) for _ in range(3))
    p, e, q = out
    np.abs(logits, out=e, dtype=np.float64)
    np.negative(e, out=e)
    np.exp(e, out=e)
    np.add(e, 1.0, out=q)
    np.greater_equal(logits, 0, out=p)
    np.maximum(e, p, out=p)
    p /= q
    return p, e


def sigmoid(logits: np.ndarray) -> np.ndarray:
    """Elementwise logistic function, overflow-safe for any finite input."""
    return sigmoid_parts(logits)[0]


# delta, a bound on the relative error of the computed sigmoid s:
# |s(l) / sigma(l) - 1| <= delta wherever exp(-|l|) is a normal float. s
# carries exp's error, at most 1.5 times over, plus two roundings of 2**-53
# (1 + e and the divide), so 2**-40 holds for any exp within 2**11 ulps;
# numpy's is within a few.
_SIGMOID_RTOL = 2.0 ** -40
# Below this threshold sigmoid near t is subnormal, where exp's error is
# absolute, so delta does not bound it.
_BAND_MIN_THRESHOLD = 2.0 ** -1000


def _certified(centre: float, step: float, holds) -> float:
    """The first ``centre + step * 2**k``, k = 0..63, where ``holds``; else +-inf."""
    for _ in range(64):
        if holds(centre + step):
            return centre + step
        step *= 2.0
    return math.copysign(math.inf, step)


def _band(threshold: float, dtype: np.dtype):
    """Bounds ``lo < logit(t) < hi`` in ``dtype``: s(l) >= t for every l > hi
    and s(l) < t for every l < lo, with s the computed sigmoid.

    Each bound is certified by s at the bound itself. In floating point,
    s(hi) (1 - 4 delta) >= t gives s(hi) (1 - 3 delta) >= t, so
    sigma(hi) (1 - delta) >= t: above hi, s(l) >= sigma(l) (1 - delta) >= t.
    Likewise s(lo) (1 + 4 delta) < t gives sigma(lo) (1 + delta) < t: below
    lo, s(l) <= sigma(l) (1 + delta) < t. A bound that no candidate
    certifies is infinite.
    """
    if threshold < _BAND_MIN_THRESHOLD:
        return dtype.type(-math.inf), dtype.type(math.inf)
    centre = math.log(threshold) - math.log1p(-threshold)
    # Some 8 delta of sigmoid as a logit, plus the rounding of centre.
    step = 8.0 * _SIGMOID_RTOL / (1.0 - threshold) + abs(centre) * 2.0 ** -48

    def s(x):
        return float(sigmoid(np.float64(x)))

    hi = _certified(centre, step, lambda x: s(x) * (1.0 - 4.0 * _SIGMOID_RTOL) >= threshold)
    lo = _certified(centre, -step, lambda x: s(x) * (1.0 + 4.0 * _SIGMOID_RTOL) < threshold)
    # Rounding is monotone and keeps every stored value, so a stored l > the
    # rounded hi has l > hi, and likewise below lo.
    return dtype.type(lo), dtype.type(hi)


def binarize(logits: LogitVolume, threshold: float = 0.5) -> BinaryMask:
    """Threshold a logit volume; a voxel is foreground iff sigmoid(l) >= threshold.

    Any input but a ``LogitVolume`` raises ``TypeError``; the threshold must
    lie strictly inside (0, 1). The mask is bit-for-bit
    ``sigmoid(logits.voxels) >= threshold`` without a full-lattice sigmoid:
    compares in the logits' dtype make logits above a bound ``hi``
    foreground and below ``lo`` background, and ``sigmoid`` runs only on the
    band of voxels in ``[lo, hi]``.

    The bounds rest on delta = 2**-40, a bound on the relative error of the
    computed sigmoid s (exp plus two roundings). ``hi`` and ``lo`` are
    chosen so that sigma(l) (1 - delta) >= t above hi and
    sigma(l) (1 + delta) < t below lo, where s and the compare agree. At
    t = 0.5 the band is about 3e-11 wide. The bound covers
    2**-1000 <= t <= 1 - 4 delta. Outside that range the result is still
    exact but the band grows: below it (sigmoid near t subnormal, as at
    t = 1e-310) the band is the whole lattice, and for t within about
    4 delta of 1 it is every voxel above ``lo``.
    """
    require_logits(logits)
    if not (0.0 < threshold < 1.0):
        raise ValueError(f"threshold must be in (0, 1), got {threshold!r}")
    voxels = logits.voxels
    lo, hi = _band(threshold, voxels.dtype)
    fg = voxels > hi
    # ravel("K") is a view, in the same voxel order for both: the voxels are
    # contiguous in some axis order (x-fastest for files) and fg shares it.
    flat, fg_flat = voxels.ravel(order="K"), fg.ravel(order="K")
    band = np.flatnonzero((flat >= lo) != fg_flat)  # lo <= l <= hi, as lo <= hi
    if band.size:
        fg_flat[band] = sigmoid(flat[band]) >= threshold
    return _adopt(BinaryMask, fg, logits.spacing)
