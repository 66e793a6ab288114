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

Internally one pass over the lattice computes the sigmoid, the voxel CE and
p * g once per call, and one reduction turns a voxel -> group index into
per-term Dice and CE values and per-group gradient coefficients. The
gradient is one more pass, which computes p (1 - p) and p - g once from p
and the GT and builds each weighted set of terms' part from them.
``combined_loss`` builds the pass once and hands it to the global and the
instance loss, which given a pass return their terms and not a gradient; it
then takes one gradient pass over both sets of terms, each part scaled by
its weight and the two added, and checks the result for NaN and Inf once.
So a ``dicece`` step makes 2 passes over the lattice and an instance kind 3:
the voxel pass, the copy of the group index and the gradient.

The pass, the reductions and the gradient write into a workspace of
lattices held per thread (a ``threading.local``). The next call on the same
thread reuses it while the logits' shape and strides stay the same, and
replaces it when either changes (a switch between float32 and float64
logits changes the strides), so a training loop with a fixed patch shape
reuses it at every step whatever the ground truth. It holds 41 bytes per
voxel (four float64 lattices, a bool GT and an intp group index), and it
stays resident after the call returns, until the thread ends or a call of
another shape or layout replaces it: about 36 MB at 96^3, and one call on a
512^3 volume keeps about 5.5 GB. A warm call allocates only the gradient it
returns, plus a bool lattice for its finiteness check and arrays the size
of the GT foreground or of the component count; with logits not in C order
the instance sums also take a C-order copy of a lattice, one at a time,
freed before the gradient is allocated.

The elementwise lattice work (the pass, the gradient and the index copy
that feeds the group sums) runs on slabs of about ``SLAB_VOXELS`` voxels,
views of the workspace cut along the slowest axis of its layout. A lattice
of one slab is worked inline; else one task per worker, up to the slab
count, goes to ``lesionwise._pool`` (see there for the worker count), and
each takes slabs from a shared iterator until none is left. numpy releases
the GIL inside its ufunc loops. Each voxel sees the same ufunc loops and
operands whatever the slabs, and the sums whose bits depend on the order of
summation (``np.sum``'s pairwise, ``bincount``'s sequential) stay one
whole-lattice call each, so the bits do not depend on the worker count.
With logits not in C order each worker's ``np.take`` of an instance
gradient writes its slab through a slab-sized buffer.

Values that depend on the ground truth alone are cached on its immutable
objects rather than recounted per call: the coordinates and group of each
GT voxel (``ComponentLabeling.foreground_coords`` and ``foreground_ids``),
the component sizes (``volumes_vox``), the GT voxel count
(``BinaryMask.foreground_count``) and the Voronoi region sizes
(``VoronoiPartition.region_sizes``). The instance sums gather p at those
coordinates. So ``lab`` must label exactly ``gt``'s voxels on ``gt``'s grid
and ``part`` must be a partition of ``lab``, as ``label_components`` and
``voronoi_partition`` make them; else ``ValueError``. A CC loss given no
partition is a ``ValueError`` too. Every instance-loss call checks and
remembers nothing, so a mismatch raises on every call. The labeling check
(``components._check_labeling``) is O(1) for a labeling made from this mask
object by ``label_components`` and O(GT) for any other: the GT voxel
count, cached on the mask, against the labeled count, gathers at the
cached coordinates, and a count of the cached IDs against the component
sizes; the first such call on a mask pays one lattice pass to count it.
The partition check is O(1) when ``part.lab`` is ``lab`` and O(lattice)
when it is an equal labeling at the same spacing. A partition
built by hand (``lab=None``) covers the lattice with IDs 1..count, as
``VoronoiPartition`` checks at construction, and is then only checked, in
O(GT), to put each component in its own region; one with other borders that
passes gives other values, silently. ``combined_loss`` labels the GT when
given no labeling and checks the labeling once for both instance kinds; on
a GT with no components it enters no instance loss and builds no partition.
Every loss takes its logits as a ``LogitVolume`` and raises ``TypeError``
for anything else, such as a ``BinaryMask``.

Logits are clamped to [-LOGIT_CLAMP, LOGIT_CLAMP] before the sigmoid; at the
bound this changes probabilities by less than 1e-17 and keeps exp() finite.
"""

from __future__ import annotations

import enum
import functools
import math
import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _pool
from .components import ComponentLabeling, _check_labeling, label_components
from .volumes import (BinaryMask, LogitVolume, require_logits, require_masks, require_same_grid,
                      sigmoid_parts)
from .voronoi import EmptyGroundTruthError, VoronoiPartition, _check_metric, voronoi_partition

LOGIT_CLAMP = 40.0

# Voxels per slab of the elementwise lattice work. On a 96^3 voxel pass
# (2 CPUs, best of 15) 64k voxels took 8.4 ms, against 9.6 ms at 32k and
# 9.0 ms at 128k.
SLAB_VOXELS = 1 << 16


class LossKind(str, enum.Enum):
    DICECE = "dicece"
    CC_DICECE = "cc-dicece"
    BLOB_DICECE = "blob-dicece"


def _check_weights(*vals: float) -> None:
    """The one rule for every loss weight: finite and non-negative."""
    if not all(math.isfinite(w) and w >= 0 for w in vals):
        raise ValueError(f"loss weights must be finite and non-negative, got {vals}")


@dataclass(frozen=True)
class LossWeights:
    """Weights of the global/instance terms and of Dice vs CE inside DiceCE."""

    w_global: float = 1.0
    w_instance: float = 1.0
    w_dice: float = 1.0
    w_ce: float = 1.0

    def __post_init__(self):
        vals = (self.w_global, self.w_instance, self.w_dice, self.w_ce)
        _check_weights(*vals)
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


def _slabs(like: np.ndarray) -> list[tuple]:
    """Index tuples of ``like``'s slabs: runs of rows along the slowest axis
    of its layout, so each slab is contiguous in C, F and permuted layouts.
    An axis of length 1 is passed over, as its stride is arbitrary."""
    if like.size <= SLAB_VOXELS:
        return [...]
    ax = max(range(like.ndim), key=lambda a: (like.shape[a] > 1, like.strides[a]))
    rows = max(1, SLAB_VOXELS * like.shape[ax] // like.size)
    return [(slice(None),) * ax + (slice(k, k + rows),) for k in range(0, like.shape[ax], rows)]


def _each_slab(fn, like: np.ndarray) -> None:
    """``fn(index)`` for each slab of ``like``: inline for one slab, else on
    one pool task per worker, each draining a shared iterator of the slabs.

    ``fn`` applies the same elementwise ufuncs to each slab of its lattices
    that it would apply to the whole, so the bits do not depend on the slab
    size or the worker count.
    """
    slabs = _slabs(like)
    todo = iter(slabs)  # a list iterator's next() is atomic under the GIL

    def drain():
        for i in todo:
            fn(i)

    _pool.run_all([drain] * (min(len(slabs), _pool.worker_count()) if len(slabs) > 1 else 1))


class _Workspace:
    """The lattices of one loss call, reused by the next call on the thread.

    ``_voxel_pass`` fills it and returns it as the pass. The float lattices
    are float64 whether the logits are stored as float32 or float64, so both
    give the same bits. The float and bool lattices are laid out like the
    logits: raw-file masks are x-fastest (Fortran order) while training
    logits are C order, and elementwise ops on mixed layouts run several
    times slower. ``index`` is C order, so the group sums are taken by
    ``bincount`` in C order whatever the layout and their bits do not
    depend on it.

    The pass leaves p * g in ``buf`` for ``_reduce`` to sum. ``grad`` is
    scratch in the pass, and ``buf``, ``ce`` and ``grad`` are the gradient's
    scratch once ``_reduce`` has summed them, so ``combined_loss`` reduces
    both sets of terms before its one gradient. A grouped gradient sets a
    bit above every group in ``index`` on the GT voxels, to look up their
    on-GT coefficients (see ``_Terms.tables``).
    """

    def __init__(self, like: np.ndarray):
        self.key = (like.shape, like.strides)
        self.p, self.ce, self.buf, self.grad = (
            np.empty_like(like, dtype=np.float64) for _ in range(4)
        )
        # p = sigmoid of the clamped logits, ce = softplus(l) - g l
        self.gt = np.empty_like(like, dtype=bool)
        self.index = np.empty(like.shape, dtype=np.intp)  # voxel -> group


_LOCAL = threading.local()


def _workspace(logits: np.ndarray) -> _Workspace:
    ws = getattr(_LOCAL, "workspace", None)
    if ws is None or ws.key != (logits.shape, logits.strides):
        ws = _LOCAL.workspace = None  # free the old lattices before allocating new ones
        ws = _LOCAL.workspace = _Workspace(logits)
    return ws


def _voxel_pass(logits: LogitVolume, gt: BinaryMask) -> _Workspace:
    require_logits(logits)
    require_masks(gt)
    require_same_grid(logits, gt)
    ws = _workspace(logits.voxels)

    def slab(i):
        p, ce, g = ws.p[i], ws.ce[i], ws.gt[i]
        lc = np.clip(logits.voxels[i], -LOGIT_CLAMP, LOGIT_CLAMP, out=ws.grad[i])
        e = sigmoid_parts(lc, out=(p, ws.buf[i], ce))[1]  # ce holds 1 + e until set
        np.copyto(g, gt.voxels[i])
        # softplus(l) = max(l, 0) + log1p(e); on GT voxels softplus(l) - l =
        # softplus(-l), the CE of a positive. Off the GT, ce - 0 l is ce, as
        # ce > 0, so the masked subtract gives the bits of ce - g l.
        np.maximum(lc, 0.0, out=ce)
        ce += np.log1p(e, out=e)
        np.subtract(ce, lc, out=ce, where=g)
        np.multiply(p, g, out=ws.buf[i])  # summed by _reduce, while the slab is in cache

    _each_slab(slab, ws.p)
    return ws


def _as_pass(logits: LogitVolume | _Workspace, gt: BinaryMask) -> _Workspace:
    return logits if isinstance(logits, _Workspace) else _voxel_pass(logits, gt)


@dataclass(frozen=True, eq=False)
class _Terms:
    """Per-term sums of the DiceCE terms over voxel groups, from one reduction."""

    lab: ComponentLabeling | None  # the grouped terms' labeling; None for the one global term
    shared: bool
    inter: np.ndarray  # sum of p * g
    denom: np.ndarray  # sum of p + sum of g; > 0 on any voxel set, as p > 0
    ce_sum: np.ndarray
    size: np.ndarray  # voxels in the CE mean

    def values(self, w_dice: float, w_ce: float) -> np.ndarray:
        """``w_dice * dice_k + w_ce * ce_k`` for every term k; inf or NaN
        where the weights overflow, which ``LossValue`` then refuses. Every
        loss takes its value here, so each refuses the weights that
        ``LossWeights`` refuses."""
        _check_weights(w_dice, w_ce)
        with np.errstate(over="ignore", invalid="ignore"):
            return w_dice * (1.0 - 2.0 * self.inter / self.denom) + w_ce * (self.ce_sum / self.size)

    def tables(self, term_weights: np.ndarray, w_dice: float, w_ce: float):
        """Per-group coefficients of the gradient of
        ``sum_k term_weights[k] * (w_dice * dice_k + w_ce * ce_k)``, the Dice
        part's and the CE part's; group 0 carries the sum of every term's
        coefficients when shared. Each table holds the off-GT groups in its
        lower half and the on-GT groups in its upper half, of a power-of-two
        length, so a GT voxel looks up at its group with the half's bit set.

        On the voxels of term k, d dice_k/dp = -2 (g denom_k - inter_k) / denom_k^2,
        split as g * a_k + b_k so that a shared group can sum its terms' b_k,
        and d ce_k/dl = (p - g) / size_k; inf or NaN where the weights
        overflow, which ``LossValue`` refuses.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            wd = w_dice * term_weights
            a = -2.0 * wd / self.denom
            b = 2.0 * wd * self.inter / (self.denom * self.denom)
            c = w_ce * term_weights / self.size
            if self.lab is not None:
                a, b, c = (np.concatenate(([x.sum() if self.shared else 0.0], x)) for x in (a, b, c))
            half = 1 << (a.size - 1).bit_length()  # > every group
            tabs = np.zeros((2, 2 * half))  # the Dice part's, then the CE part's
            tabs[:, :a.size], tabs[:, half:half + a.size] = (0.0 * a + b, c), (a + b, c)
            return tabs


def _reduce(vp: _Workspace, gt: BinaryMask, lab: ComponentLabeling | None = None,
            part: VoronoiPartition | None = None) -> _Terms:
    """Sum the DiceCE terms of a voxel pass over voxel groups.

    With no ``lab`` there is one term over the whole lattice. Otherwise each
    voxel falls in a group 0..count, and group k >= 1 belongs to term k: the
    groups are ``part``'s Voronoi regions, or without ``part`` the
    components, with group 0, the background, shared by every term. A shared
    term spans the whole lattice: the other terms' voxels are masked to
    p = g = 0 and count in the CE mean only.

    Off the GT p * g is exactly 0 and g is 0/1, so ``inter`` is summed over
    the GT voxels only, in the same order and to the same bits as over the
    whole group, and the sums of g are counts cached on the GT: the
    component sizes, or ``gt.foreground_count`` for the one global term. A
    GT voxel's group is its own component, as a component owns its voxels'
    regions.
    """
    # The sums are whole-lattice calls, as their bits depend on the order of
    # summation: np.sum's pairwise and bincount's sequential.
    if lab is None:
        inter, psum, ce_sum = (np.sum(x) for x in (vp.buf, vp.p, vp.ce))  # buf: p * g
        gsum = float(gt.foreground_count)
        return _Terms(None, False, np.array([inter]), np.array([psum + gsum]),
                      np.array([ce_sum]), np.array([float(vp.p.size)]))
    n, shared = lab.count, part is None
    groups = lab.labels if shared else part.region_of
    _each_slab(lambda i: np.copyto(vp.index[i], groups[i]), vp.index)
    flat = vp.index.ravel()
    inter = np.bincount(lab.foreground_ids, weights=vp.p[lab.foreground_coords], minlength=n + 1)

    def group_sum(x):
        return np.bincount(flat, weights=x.ravel(), minlength=n + 1)

    # Both at once where ravel is a view; else one C-order copy at a time.
    if vp.p.flags.c_contiguous and len(_slabs(vp.p)) > 1:
        psum, ce_sum = _pool.run_all([functools.partial(group_sum, x) for x in (vp.p, vp.ce)])
    else:
        psum, ce_sum = group_sum(vp.p), group_sum(vp.ce)
    if shared:
        inter, psum, ce_sum = (s[1:] + s[0] for s in (inter, psum, ce_sum))
        size = np.full(n, float(flat.size))
    else:
        inter, psum, ce_sum = (s[1:] for s in (inter, psum, ce_sum))
        size = part.region_sizes().astype(np.float64)
    gsum = lab.volumes_vox.astype(np.float64)
    return _Terms(lab, shared, inter, psum + gsum, ce_sum, size)


def _grad(vp: _Workspace, parts: list, w_dice: float, w_ce: float, out: np.ndarray) -> np.ndarray:
    """Gradient of the sum over ``parts`` ``(terms, term_weights, scale)``,
    one or two, of ``scale * sum_k term_weights[k] * (w_dice * dice_k + w_ce * ce_k)``,
    into ``out`` in one pass (see ``_Terms.tables``).

    Each part is built whole as (g a + b) p' + (p - g) c, then multiplied by
    its scale, and the second is added to the first: the bits of the
    weighted sum of the parts' own gradients.
    """
    tables = [(t.lab, *t.tables(tw, w_dice, w_ce), scale) for t, tw, scale in parts]

    def slab(i):
        p, g = vp.p[i], vp.gt[i]
        pp = np.multiply(np.subtract(1.0, p, out=vp.buf[i]), p, out=vp.buf[i])  # p' = p (1 - p)
        pg = np.subtract(p, g, out=vp.ce[i])
        for k, (lab, dice_tab, ce_tab, scale) in enumerate(tables):
            # the second part is built in grad, with pp's lattice as scratch once pp is read
            o, tmp = (out[i], vp.grad[i]) if k == 0 else (vp.grad[i], vp.buf[i])
            if lab is None:
                np.copyto(o, dice_tab[0])
                np.copyto(o, dice_tab[1], where=g)
            else:  # setting a set bit changes nothing, so a second gradient reads the same
                idx = np.bitwise_or(vp.index[i], ce_tab.size // 2, out=vp.index[i], where=g)
                np.take(dice_tab, idx, out=o, mode="clip")
            o *= pp
            coef = ce_tab[0] if lab is None else np.take(ce_tab, idx, out=tmp, mode="clip")
            o += np.multiply(pg, coef, out=tmp)  # the CE part
            if scale != 1.0:
                o *= scale
            if k:
                out[i] += o

    _each_slab(slab, out)
    return out


class _Unchecked(NamedTuple):
    """A loss taken on a pass: its scalar, and the terms and term weights
    that its gradient is taken from, which ``combined_loss`` weighs into its
    one gradient pass."""

    scalar: float
    terms: _Terms
    term_weights: np.ndarray


def _mean_of_terms(logits, vp, t, w_dice, w_ce) -> LossValue | _Unchecked:
    """The mean of the terms: a checked ``LossValue`` with a fresh gradient,
    or, when ``logits`` is already a pass (``combined_loss``'s path), an
    ``_Unchecked`` that the caller weighs, sums and checks once."""
    n = t.inter.size
    scalar = float(np.sum(t.values(w_dice, w_ce))) / n
    weights = np.full(n, 1.0 / n)
    if logits is vp:
        return _Unchecked(scalar, t, weights)
    return LossValue(scalar, _grad(vp, [(t, weights, 1.0)], w_dice, w_ce, np.empty_like(vp.p)))


def dicece_loss(
    logits: LogitVolume | _Workspace,
    gt: BinaryMask,
    w_dice: float = 1.0,
    w_ce: float = 1.0,
) -> LossValue:
    """Weighted sum of soft Dice and cross-entropy over the whole lattice.

    Leaves this thread's loss workspace resident (see the module docstring).
    """
    vp = _as_pass(logits, gt)
    return _mean_of_terms(logits, vp, _reduce(vp, gt), w_dice, w_ce)


def soft_dice_loss(logits: LogitVolume, gt: BinaryMask) -> LossValue:
    """Non-smooth soft Dice loss over the whole lattice."""
    return dicece_loss(logits, gt, w_dice=1.0, w_ce=0.0)


def _partitions(part: VoronoiPartition, lab: ComponentLabeling) -> bool:
    """Whether ``part`` may be ``lab``'s partition: one made from ``lab``
    (O(1)) or from an equal labeling at the same spacing (O(lattice)), or,
    if it names no labeling, one that puts each component in its own region
    (O(GT))."""
    if part.region_of.shape != lab.labels.shape or part.count != lab.count:
        return False
    if part.lab is None:
        return np.array_equal(part.region_of[lab.foreground_coords], lab.foreground_ids)
    return part.lab is lab or (part.lab.spacing.isclose(lab.spacing)
                               and np.array_equal(part.lab.labels, lab.labels))


def _instance_terms(logits, gt, lab, part=None, *, cc=False):
    """Check an instance loss's inputs, then take the pass and sum its terms.

    With ``cc`` the terms are CC's Voronoi regions, those of ``part``, else
    blob's masked lattices. Every call checks, with no memory of earlier
    calls, that ``lab`` labels exactly ``gt``'s voxels
    (``_check_labeling``) and, for CC, that ``part`` is given and is a
    partition of ``lab`` (``_partitions``).
    """
    _check_labeling(lab, gt)
    if lab.count < 1:
        raise EmptyGroundTruthError("instance loss needs at least one ground-truth component")
    if cc and part is None:
        raise ValueError("CC instance loss needs a Voronoi partition of lab")
    if cc and not _partitions(part, lab):
        raise ValueError("Voronoi partition does not match the labeling")
    vp = _as_pass(logits, gt)
    return vp, _reduce(vp, gt, lab, part)


def _each_term(vp, t, w_dice, w_ce) -> list[LossValue]:
    return [LossValue(float(v), _grad(vp, [(t, only_k, 1.0)], w_dice, w_ce, np.empty_like(vp.p)))
            for v, only_k in zip(t.values(w_dice, w_ce), np.eye(t.inter.size))]


def cc_instance_loss(
    logits: LogitVolume | _Workspace,
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

    Leaves this thread's loss workspace resident (see the module docstring).
    """
    return _mean_of_terms(logits, *_instance_terms(logits, gt, lab, part, cc=True), w_dice, w_ce)


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
    return _each_term(*_instance_terms(logits, gt, lab, part, cc=True), w_dice, w_ce)


def blob_instance_loss(
    logits: LogitVolume | _Workspace,
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

    Leaves this thread's loss workspace resident (see the module docstring).
    """
    return _mean_of_terms(logits, *_instance_terms(logits, gt, lab), w_dice, w_ce)


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
    return _each_term(*_instance_terms(logits, gt, lab), w_dice, w_ce)


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
    they must derive from ``gt`` and ``metric``. Every kind refuses a
    ``part`` of another ``metric``; beyond that ``dicece`` reads and checks
    neither. An instance kind labels ``gt`` when given no ``lab`` and checks
    the labeling before anything is counted or built from it. With no
    ground-truth components there is no instance term: the value is the
    global term, and no instance loss is entered and no partition built or
    checked. Else ``cc-dicece`` builds the partition when given none, and
    the instance loss makes the checks of the module docstring.

    Leaves this thread's loss workspace resident (see the module docstring).
    """
    kind = LossKind(kind)
    _check_metric(metric)
    if part is not None and part.metric != metric:
        raise ValueError(f"Voronoi partition has metric {part.metric!r}, not {metric!r}")
    weights = weights or LossWeights()
    vp = _voxel_pass(logits, gt)

    # Given the pass, each loss returns its terms; the one gradient pass
    # writes the one lattice the call allocates, checked once on return.
    g = dicece_loss(vp, gt, weights.w_dice, weights.w_ce)
    scalar = weights.w_global * g.scalar
    parts = [(g.terms, g.term_weights, weights.w_global)]
    if kind is not LossKind.DICECE:
        lab = label_components(gt) if lab is None else lab
        _check_labeling(lab, gt)  # before anything is counted or built from it
        if lab.count:  # else there is no instance term
            if kind is LossKind.CC_DICECE:
                part = voronoi_partition(lab, metric) if part is None else part
                inst = cc_instance_loss(vp, gt, lab, part, weights.w_dice, weights.w_ce)
            else:
                inst = blob_instance_loss(vp, gt, lab, weights.w_dice, weights.w_ce)
            scalar += weights.w_instance * inst.scalar
            parts.append((inst.terms, inst.term_weights, weights.w_instance))
    return LossValue(scalar, _grad(vp, parts, weights.w_dice, weights.w_ce, np.empty_like(vp.p)))


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
