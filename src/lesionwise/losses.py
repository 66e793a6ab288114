"""Differentiable global and instance-aware segmentation losses.

Every loss maps (logits, ground truth) to a scalar plus the exact analytic
gradient with respect to the logits. All three losses are sums of one DiceCE
term, taken over different voxel sets S. The soft Dice part is the
non-smooth variant (no additive smoothing constant),

    dice_loss = 1 - 2 * sum_S(p * g) / (sum_S(p) + sum_S(g)),   p = sigmoid(l)

and cross-entropy is the mean over S of the stable logit form
``softplus(l) - g * l`` with gradient ``(p - g) / |S|``.

* ``dicece_loss`` has one term, S = the whole lattice.
* ``cc_instance_loss`` averages one term per ground-truth component C, with
  S = C's Voronoi region, so each false positive affects exactly one term.
* ``blob_instance_loss`` averages one term per component C over the whole
  lattice with probabilities zeroed on the *other* components' voxels, so S
  is C plus the background, which every term shares, and the CE mean still
  counts the masked voxels. Each false positive affects every term.

Internally one pass over the lattice computes the sigmoid, its derivative
and the voxel CE once per call, and one reduction turns a voxel -> group
index into per-term Dice and CE values and per-group gradient coefficients.
``combined_loss`` builds the pass once and hands it to the global and the
instance loss.

Logits are clamped to [-LOGIT_CLAMP, LOGIT_CLAMP] before the sigmoid; at the
bound this changes probabilities by less than 1e-17 and keeps exp() finite.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .components import ComponentLabeling, label_components
from .volumes import BinaryMask, LogitVolume, require_same_grid, sigmoid_parts
from .voronoi import EmptyGroundTruthError, VoronoiPartition, voronoi_partition

LOGIT_CLAMP = 40.0


class LossKind(str, enum.Enum):
    DICECE = "dicece"
    CC_DICECE = "cc-dicece"
    BLOB_DICECE = "blob-dicece"


@dataclass(frozen=True)
class LossWeights:
    """Weights of the global/instance terms and of Dice vs CE inside DiceCE."""

    w_global: float = 1.0
    w_instance: float = 1.0
    w_dice: float = 1.0
    w_ce: float = 1.0

    def __post_init__(self):
        vals = (self.w_global, self.w_instance, self.w_dice, self.w_ce)
        if not all(math.isfinite(w) and w >= 0 for w in vals):
            raise ValueError(f"loss weights must be finite and non-negative, got {vals}")
        if all(w == 0 for w in vals):
            raise ValueError("at least one loss weight must be positive")


@dataclass(frozen=True, eq=False)
class LossValue:
    """Scalar loss plus the per-voxel gradient with respect to the logits."""

    scalar: float
    grad: np.ndarray

    def __post_init__(self):
        if not np.isfinite(self.scalar):
            raise ValueError(f"loss scalar is not finite: {self.scalar}")
        if not np.isfinite(self.grad).all():
            raise ValueError("loss gradient contains NaN or Inf")
        self.grad.setflags(write=False)


@dataclass(frozen=True, eq=False)
class _VoxelPass:
    """Per-voxel quantities every DiceCE term reads, computed once per call.

    Every array is laid out like the logits: raw-file masks are x-fastest
    (Fortran order) while training logits are C order, and elementwise ops
    on mixed layouts run several times slower.
    """

    p: np.ndarray  # sigmoid of the clamped logits
    dpdl: np.ndarray  # p (1 - p)
    r: np.ndarray  # p - g, the CE residual
    ce: np.ndarray  # softplus(l) - g l
    gt: np.ndarray  # bool ground truth
    buf: np.ndarray  # scratch lattice, reused by every reduction and gradient


def _voxel_pass(logits: LogitVolume, gt: BinaryMask) -> _VoxelPass:
    require_same_grid(logits, gt)
    lc = np.clip(logits.voxels, -LOGIT_CLAMP, LOGIT_CLAMP)
    p, e = sigmoid_parts(lc)
    g = np.empty_like(lc, dtype=bool)
    np.copyto(g, gt.voxels)
    # softplus(l) = max(l, 0) + log1p(e); on GT voxels softplus(l) - l =
    # softplus(-l), the CE of a positive.
    ce = np.maximum(lc, 0.0)
    ce += np.log1p(e, out=e)
    buf = e  # free from here on
    ce -= np.multiply(lc, g, out=buf)
    dpdl = np.subtract(1.0, p)
    dpdl *= p
    return _VoxelPass(p=p, dpdl=dpdl, r=np.subtract(p, g), ce=ce, gt=g, buf=buf)


def _as_pass(logits: LogitVolume | _VoxelPass, gt: BinaryMask) -> _VoxelPass:
    return logits if isinstance(logits, _VoxelPass) else _voxel_pass(logits, gt)


@dataclass(frozen=True, eq=False)
class _Terms:
    """Per-term sums of the DiceCE terms over voxel groups, from one reduction."""

    index: np.ndarray | None
    gt_index: np.ndarray | None  # group of each GT voxel, in C order
    shared: bool
    inter: np.ndarray  # sum of p * g
    denom: np.ndarray  # sum of p + sum of g; > 0 on any voxel set, as p > 0
    ce_sum: np.ndarray
    size: np.ndarray  # voxels in the CE mean

    def values(self, w_dice: float, w_ce: float) -> np.ndarray:
        """``w_dice * dice_k + w_ce * ce_k`` for every term k."""
        return w_dice * (1.0 - 2.0 * self.inter / self.denom) + w_ce * (self.ce_sum / self.size)


def _reduce(vp: _VoxelPass, index: np.ndarray | None = None, n: int = 1,
            shared: bool = False) -> _Terms:
    """Sum the DiceCE terms of a voxel pass over voxel groups.

    ``index`` None is one term over the whole lattice. Otherwise ``index``
    maps each voxel to a group 0..n: group k >= 1 belongs to term k, and
    group 0 belongs to no term or, when ``shared``, to every term. A shared
    term spans the whole lattice: the other terms' voxels are masked to
    p = g = 0 and count in the CE mean only.

    Off the GT p * g is exactly 0 and g is 0/1, so ``inter`` and the sum of
    g are summed over the GT voxels only, in the same order and to the same
    bits as over the whole group.
    """
    if index is None:
        inter = np.sum(np.multiply(vp.p, vp.gt, out=vp.buf))
        psum, ce_sum = np.sum(vp.p), np.sum(vp.ce)
        gsum = float(np.count_nonzero(vp.gt))
        return _Terms(None, None, shared, np.array([inter]), np.array([psum + gsum]),
                      np.array([ce_sum]), np.array([float(vp.p.size)]))
    # bincount and take index in intp: cast once here, not in every call
    index = index.astype(np.intp)
    flat, on_gt = index.ravel(), vp.gt.ravel()
    gt_index = flat[on_gt]
    inter = np.bincount(gt_index, weights=vp.p.ravel()[on_gt], minlength=n + 1)
    gsum = np.bincount(gt_index, minlength=n + 1).astype(np.float64)
    psum = np.bincount(flat, weights=vp.p.ravel(), minlength=n + 1)
    ce_sum = np.bincount(flat, weights=vp.ce.ravel(), minlength=n + 1)
    sums = (inter, psum, gsum, ce_sum)
    if shared:
        inter, psum, gsum, ce_sum = (s[1:] + s[0] for s in sums)
        size = np.full(n, float(index.size))
    else:
        inter, psum, gsum, ce_sum = (s[1:] for s in sums)
        size = np.bincount(flat, minlength=n + 1)[1:].astype(np.float64)
    return _Terms(index, gt_index, shared, inter, psum + gsum, ce_sum, size)


def _grad(vp: _VoxelPass, t: _Terms, w_dice: float, w_ce: float,
          term_weights: np.ndarray) -> np.ndarray:
    """Gradient of ``sum_k term_weights[k] * (w_dice * dice_k + w_ce * ce_k)``.

    On the voxels of term k, d dice_k/dp = -2 (g denom_k - inter_k) / denom_k^2,
    split as g * a_k + b_k so that a shared group can sum its terms' b_k, and
    d ce_k/dl = (p - g) / size_k.
    """
    wd = w_dice * term_weights
    a = -2.0 * wd / t.denom
    b = 2.0 * wd * t.inter / (t.denom * t.denom)
    c = w_ce * term_weights / t.size

    # (g a + b) p' + (p - g) c, with g a + b taken per group on and off the GT
    if t.index is None:
        a, b, c = float(a[0]), float(b[0]), float(c[0])
        grad = np.where(vp.gt, a + b, 0.0 * a + b)
        grad *= vp.dpdl
        grad += np.multiply(vp.r, c, out=vp.buf)
        return grad

    def per_group(x):
        # Group 0 carries the sum of every term's coefficients when shared.
        return np.concatenate(([x.sum() if t.shared else 0.0], x))

    a, b, c = per_group(a), per_group(b), per_group(c)
    grad = np.take(0.0 * a + b, t.index, mode="clip")
    grad[vp.gt] = (a + b)[t.gt_index]
    grad *= vp.dpdl
    ce_grad = np.take(c, t.index, out=vp.buf, mode="clip")
    ce_grad *= vp.r
    grad += ce_grad
    return grad


def dicece_loss(
    logits: LogitVolume | _VoxelPass,
    gt: BinaryMask,
    w_dice: float = 1.0,
    w_ce: float = 1.0,
) -> LossValue:
    """Weighted sum of soft Dice and cross-entropy over the whole lattice."""
    vp = _as_pass(logits, gt)
    t = _reduce(vp)
    return LossValue(float(t.values(w_dice, w_ce)[0]), _grad(vp, t, w_dice, w_ce, np.ones(1)))


def soft_dice_loss(logits: LogitVolume, gt: BinaryMask) -> LossValue:
    """Non-smooth soft Dice loss over the whole lattice."""
    return dicece_loss(logits, gt, w_dice=1.0, w_ce=0.0)


def cross_entropy_loss(logits: LogitVolume, gt: BinaryMask) -> LossValue:
    """Mean binary cross-entropy over the whole lattice (stable form)."""
    return dicece_loss(logits, gt, w_dice=0.0, w_ce=1.0)


def _check_instance_inputs(gt, lab):
    if lab.labels.shape != gt.voxels.shape:
        raise ValueError("component labeling shape does not match the volume")
    if lab.count < 1:
        raise EmptyGroundTruthError(
            "instance loss needs at least one ground-truth component"
        )


def _cc_terms(logits, gt, lab, part):
    _check_instance_inputs(gt, lab)
    if part.region_of.shape != gt.voxels.shape or part.count != lab.count:
        raise ValueError("Voronoi partition does not match the labeling")
    vp = _as_pass(logits, gt)
    return vp, _reduce(vp, part.region_of, lab.count)


def _blob_terms(logits, gt, lab):
    _check_instance_inputs(gt, lab)
    vp = _as_pass(logits, gt)
    return vp, _reduce(vp, lab.labels, lab.count, shared=True)


def _mean_of_terms(vp, t, w_dice, w_ce) -> LossValue:
    n = t.inter.size
    scalar = float(np.sum(t.values(w_dice, w_ce))) / n
    return LossValue(scalar, _grad(vp, t, w_dice, w_ce, np.full(n, 1.0 / n)))


def _each_term(vp, t, w_dice, w_ce) -> list[LossValue]:
    values = t.values(w_dice, w_ce)
    terms = []
    for k in range(values.size):
        only_k = np.zeros(values.size)
        only_k[k] = 1.0
        terms.append(LossValue(float(values[k]), _grad(vp, t, w_dice, w_ce, only_k)))
    return terms


def cc_instance_loss(
    logits: LogitVolume | _VoxelPass,
    gt: BinaryMask,
    lab: ComponentLabeling,
    part: VoronoiPartition,
    w_dice: float = 1.0,
    w_ce: float = 1.0,
) -> LossValue:
    """Voronoi-restricted instance loss: mean over components C of
    DiceCE(prediction restricted to C's region, C).

    Regions are disjoint, so each voxel receives exactly one component's
    gradient scaled by 1/count.
    """
    return _mean_of_terms(*_cc_terms(logits, gt, lab, part), w_dice, w_ce)


def cc_instance_terms(
    logits: LogitVolume,
    gt: BinaryMask,
    lab: ComponentLabeling,
    part: VoronoiPartition,
    w_dice: float = 1.0,
    w_ce: float = 1.0,
) -> list[LossValue]:
    """Unweighted per-component terms of ``cc_instance_loss`` (no 1/count).

    Each term carries its own dense gradient, so the result holds one float64
    lattice per lesion: memory is count x lattice, where the loss returns one.
    """
    return _each_term(*_cc_terms(logits, gt, lab, part), w_dice, w_ce)


def blob_instance_loss(
    logits: LogitVolume | _VoxelPass,
    gt: BinaryMask,
    lab: ComponentLabeling,
    w_dice: float = 1.0,
    w_ce: float = 1.0,
) -> LossValue:
    """Mask-other-components instance loss: mean over components C of
    DiceCE over the full lattice with probabilities zeroed on the other
    components' voxels (false positives remain in every term).

    Masked voxels contribute zero gradient; a background voxel accumulates
    gradient from every component's term.
    """
    return _mean_of_terms(*_blob_terms(logits, gt, lab), w_dice, w_ce)


def blob_instance_terms(
    logits: LogitVolume,
    gt: BinaryMask,
    lab: ComponentLabeling,
    w_dice: float = 1.0,
    w_ce: float = 1.0,
) -> list[LossValue]:
    """Unweighted per-component terms of ``blob_instance_loss`` (no 1/count).

    Each term carries its own dense gradient, so the result holds one float64
    lattice per lesion: memory is count x lattice, where the loss returns one.
    """
    return _each_term(*_blob_terms(logits, gt, lab), w_dice, w_ce)


def combined_loss(
    kind: LossKind | str,
    logits: LogitVolume,
    gt: BinaryMask,
    weights: LossWeights | None = None,
    *,
    metric: str = "voxel",
    lab: ComponentLabeling | None = None,
    part: VoronoiPartition | None = None,
) -> LossValue:
    """Global DiceCE plus the selected instance term, weighted 1:1 by default.

    ``lab`` and ``part`` may be supplied to reuse precomputed structures;
    they must derive from ``gt``. With no ground-truth components there is
    no instance term and the value is the global term.
    """
    kind = LossKind(kind)
    weights = weights or LossWeights()
    vp = _voxel_pass(logits, gt)

    g = dicece_loss(vp, gt, weights.w_dice, weights.w_ce)
    scalar = weights.w_global * g.scalar
    grad = weights.w_global * g.grad
    if kind is LossKind.DICECE:
        return LossValue(scalar, grad)

    if lab is None:
        lab = label_components(gt)
    if lab.count == 0:
        return LossValue(scalar, grad)

    if kind is LossKind.CC_DICECE:
        if part is None:
            part = voronoi_partition(lab, metric)
        inst = cc_instance_loss(vp, gt, lab, part, weights.w_dice, weights.w_ce)
    else:
        inst = blob_instance_loss(vp, gt, lab, weights.w_dice, weights.w_ce)
    grad += np.multiply(inst.grad, weights.w_instance, out=vp.buf)
    return LossValue(scalar + weights.w_instance * inst.scalar, grad)


def normalize_gradient(grad: np.ndarray) -> np.ndarray:
    """Rescale so the maximum magnitude is 1 (sign preserved).

    An all-zero gradient normalizes to all zeros.
    """
    peak = float(np.max(np.abs(grad))) if grad.size else 0.0
    return grad / peak if peak > 0.0 else np.zeros_like(grad)


def gradient_map(
    kind: LossKind | str,
    logits: LogitVolume,
    gt: BinaryMask,
    weights: LossWeights | None = None,
    *,
    metric: str = "voxel",
) -> tuple[np.ndarray, np.ndarray]:
    """Per-voxel gradient of the combined loss plus a per-panel normalized copy."""
    lv = combined_loss(kind, logits, gt, weights, metric=metric)
    return lv.grad, normalize_gradient(lv.grad)
